import hashlib
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, settings

from mptraj import DimensionError, DmpConfig, ValidationError, precompute_basis

# every run draws the same examples and keeps no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# alpha=25, tau=3, alpha_x=2, 25 basis functions over 3 s: the configuration
# most tests and all acceptance checks run against
REFERENCE_CONFIG = dict(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=25, duration=3.0)

# deliberately small and well conditioned (short horizon, few basis functions)
SMALL_CONFIG = dict(alpha=25.0, tau=1.0, alpha_x=2.0, num_basis=5, duration=1.0,
                    grid_dt=1.0 / 400.0)


def pytest_configure(config):
    # hypothesis still caches the constants it reads from the source; the
    # cache goes to a directory removed after the run, not into the tree
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    configuration.set_hypothesis_home_dir(home)


@pytest.fixture(scope="session")
def reference_config():
    return DmpConfig(**REFERENCE_CONFIG)


@pytest.fixture(scope="session")
def reference_bank(reference_config):
    return precompute_basis(reference_config)


@pytest.fixture(scope="session")
def small_config():
    return DmpConfig(**SMALL_CONFIG)


@pytest.fixture(scope="session")
def small_bank(small_config):
    return precompute_basis(small_config)


@pytest.fixture(scope="session")
def streamed_and_whole_grid():
    """(precompute_basis(config), reference.whole_grid_bank(config)) for a
    dict of config keywords, each pair built once a session."""
    from tests.reference import whole_grid_bank
    built = {}

    def banks(kwargs):
        key = tuple(sorted(kwargs.items()))
        if key not in built:
            config = DmpConfig(**kwargs)
            built[key] = precompute_basis(config), whole_grid_bank(config)
        return built[key]
    return banks


def random_weights_distribution(dofs, weight_dim, rng, scale=0.5):
    from mptraj import WeightsDistribution
    dim = dofs * weight_dim
    mat = rng.standard_normal((dim, dim)) * scale
    cov = mat @ mat.T + 1e-6 * np.eye(dim)
    return WeightsDistribution.from_covariance(rng.standard_normal(dim) * 2.0, cov)


def write_unversioned_bank(bank, path):
    """Write bank in the layout that preceded the format key: no format entry,
    a fifth array of homogeneous-solution columns (y1, y2, dy1, dy2), and a
    checksum that covers it too.  path must end in .npz."""
    k = bank.config.decay_rate
    env = np.exp(-k * bank.times)
    comp = np.column_stack([env, bank.times * env, -k * env,
                            (1.0 - k * bank.times) * env])
    digest = hashlib.sha256(bank.config.canonical_json().encode("utf-8"))
    for arr in (bank.times, bank.pos_basis, bank.vel_basis, comp):
        digest.update(np.ascontiguousarray(arr).tobytes())
    np.savez(path, times=bank.times, pos_basis=bank.pos_basis,
             vel_basis=bank.vel_basis, complementary=comp,
             config_json=np.frombuffer(bank.config.canonical_json().encode("utf-8"),
                                       dtype=np.uint8),
             checksum=np.frombuffer(digest.hexdigest().encode("ascii"), dtype=np.uint8))


# a bank (alpha=25, tau=1, alpha_x=2, num_basis=3, duration=1, grid_dt=0.02)
# saved before the bank held its rows in one time-major table
ROW_LAYOUT_BANK = Path(__file__).resolve().parent / "data" / "bank_rows_v2.npz"


def _swap_two_times(times, pos, vel):
    times = times.copy()
    times[[10, 11]] = times[[11, 10]]
    return times, pos, vel


def _nan_time(times, pos, vel):
    times = times.copy()
    times[20] = np.nan
    return times, pos, vel


def _warp_interior(times, pos, vel):
    # still strictly increasing from 0 to the same end, but not uniform
    return times[-1] * (times / times[-1]) ** 1.25, pos, vel


# edits of a format-2 bank file's (times, pos_basis, vel_basis) that leave a
# grid other than the config's, with the error loading it raises: two grid
# times swapped, the first 46 of 51 grid points (a bank that reported a
# duration of 0.9), a NaN time, and a warped interior with both ends kept
GRID_DEFECTS = {
    "swapped-times": (_swap_two_times, ValidationError),
    "46-of-51-points": (lambda times, pos, vel: (times[:46], pos[:46], vel[:46]),
                        DimensionError),
    "nan-time": (_nan_time, ValidationError),
    "warped-interior": (_warp_interior, ValidationError),
}


def write_edited_bank(source, path, edit):
    """Write the format-2 bank file source to path with its arrays replaced by
    edit(times, pos_basis, vel_basis) and its checksum recomputed over them,
    as BasisBank.content_checksum computes it."""
    with np.load(source) as data:
        arrays = {name: data[name] for name in data.files}
    times, pos, vel = edit(arrays["times"], arrays["pos_basis"], arrays["vel_basis"])
    digest = hashlib.sha256(arrays["config_json"].tobytes())
    for arr in (times, pos, vel):
        digest.update(np.ascontiguousarray(arr).tobytes())
    np.savez(path, **{**arrays, "times": times, "pos_basis": pos, "vel_basis": vel,
                      "checksum": np.frombuffer(digest.hexdigest().encode("ascii"),
                                                dtype=np.uint8)})
