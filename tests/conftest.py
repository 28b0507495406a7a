import hashlib
import json
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


def counted_lookups(monkeypatch) -> list:
    """Records the length of every BasisBank.lookup query: one per fold."""
    from mptraj import BasisBank
    lookups, lookup = [], BasisBank.lookup
    monkeypatch.setattr(BasisBank, "lookup",
                        lambda bank, t: lookups.append(len(t)) or lookup(bank, t))
    return lookups


def random_weights_distribution(dofs, weight_dim, rng, scale=0.5):
    from mptraj import WeightsDistribution
    dim = dofs * weight_dim
    mat = rng.standard_normal((dim, dim)) * scale
    cov = mat @ mat.T + 1e-6 * np.eye(dim)
    return WeightsDistribution.from_covariance(rng.standard_normal(dim) * 2.0, cov)


def write_unversioned_bank(bank, path):
    """Write bank in the layout that preceded the format key: no format entry,
    times, the (M, N+1) row arrays, a fifth array of homogeneous-solution
    columns (y1, y2, dy1, dy2), and a checksum that covers them all.  path
    must end in .npz."""
    k = bank.config.decay_rate
    env = np.exp(-k * bank.times)
    comp = np.column_stack([env, bank.times * env, -k * env,
                            (1.0 - k * bank.times) * env])
    pos_basis, vel_basis = bank.table[0].T, bank.table[1].T
    digest = hashlib.sha256(bank.config.canonical_json().encode("utf-8"))
    for arr in (bank.times, pos_basis, vel_basis, comp):
        digest.update(np.ascontiguousarray(arr).tobytes())
    np.savez(path, times=bank.times, pos_basis=pos_basis,
             vel_basis=vel_basis, complementary=comp,
             config_json=np.frombuffer(bank.config.canonical_json().encode("utf-8"),
                                       dtype=np.uint8),
             checksum=np.frombuffer(digest.hexdigest().encode("ascii"), dtype=np.uint8))


# a format-2 bank (alpha=25, tau=1, alpha_x=2, num_basis=3, duration=1,
# grid_dt=0.02): times and C-ordered (M, N+1) row arrays beside the config
ROW_LAYOUT_BANK = Path(__file__).resolve().parent / "data" / "bank_rows_v2.npz"


def write_bank_table(bank, path, table):
    """Write bank's file to path with its table replaced by table, of any
    shape or values, and its checksum recomputed over it as
    BasisBank.content_checksum computes it: the checksum is a content hash,
    not a seal, so only load's own checks stand between such a file and a
    trajectory."""
    bank.save(str(path))
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    digest = hashlib.sha256(arrays["config_json"].tobytes())
    digest.update(np.ascontiguousarray(table).tobytes())
    np.savez(path, **{**arrays, "table": table,
                      "checksum": np.frombuffer(digest.hexdigest().encode("ascii"),
                                                dtype=np.uint8)})


def write_bank_config(bank, path, config):
    """Write bank's file to path with its config JSON replaced by the JSON of
    the dict config, and its checksum recomputed over it."""
    bank.save(str(path))
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    raw = np.frombuffer(json.dumps(config).encode("utf-8"), dtype=np.uint8)
    digest = hashlib.sha256(raw.tobytes())
    digest.update(arrays["table"].tobytes())
    np.savez(path, **{**arrays, "config_json": raw,
                      "checksum": np.frombuffer(digest.hexdigest().encode("ascii"),
                                                dtype=np.uint8)})


# edits of a saved bank's config, with the ValidationError text loading it
# raises after "bank file <path>: "
CONFIG_DEFECTS = {
    "negative-alpha": (lambda config: {**config, "alpha": -1.0},
                       "alpha must be finite and > 0, got -1.0"),
    "extra-key": (lambda config: {**config, "extra": 1}, "unknown config keys: extra"),
}


def _with_value(table, index, value):
    """A copy of table with the entry at index set to value."""
    table = table.copy()
    table[index] = value
    return table


# edits of a saved bank's table, with the error loading it raises and the
# text it holds: a NaN or an inf in one position or velocity entry, and a
# table one grid point or one basis column short
_NON_FINITE = (ValidationError, "bank.npz holds non-finite basis values")
_OTHER_SHAPE = (DimensionError, "does not match grid/config")
TABLE_DEFECTS = {
    "nan-position": (lambda table: _with_value(table, (0, 1, 7), np.nan), *_NON_FINITE),
    "inf-velocity": (lambda table: _with_value(table, (1, -1, -1), np.inf), *_NON_FINITE),
    "-inf-goal": (lambda table: _with_value(table, (0, -1, 20), -np.inf), *_NON_FINITE),
    "short-grid": (lambda table: table[..., :-1], *_OTHER_SHAPE),
    "short-basis": (lambda table: table[:, :-1], *_OTHER_SHAPE),
}
