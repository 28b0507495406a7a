import math
import os
import subprocess
import sys
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

import mptraj
from mptraj import (DimensionError, DmpConfig, IoError, NumericalError,
                    ValidationError, make_forcing_basis, phase, precompute_basis)
from mptraj.basis import BANK_FORMAT, MAX_BANK_CELLS, BasisBank
from tests.conftest import REFERENCE_CONFIG, SMALL_CONFIG, write_unversioned_bank
from tests.reference import complementary, q_terms, save_row_major, sequential_bank

# the bank of perfbench's online_replan workload: 10 001 points, N = 10
ONLINE_REPLAN_CONFIG = dict(alpha=25.0, tau=10.0, alpha_x=2.0, num_basis=10,
                            duration=10.0, grid_dt=1e-3)

# 800 001 points x 200 001 columns: within the grid bound and the 4*N rule,
# but a 1.16 TiB basis array
OVERSIZED_BANK_CONFIG = dict(alpha=25.0, tau=1.0, alpha_x=2.0, num_basis=200000,
                             duration=1.0, grid_dt=1.25e-6)

# frozen from a 40-digit mpmath evaluation of the closed forms (alpha=25,
# tau=3, so k = 25/6)
Q1_AT_0P1 = 0.11514353544020885
Q2_AT_0P1 = 2.1537366516175558
Y1_AT_0P1 = 0.6592406302004437
Y2_AT_0P1 = 0.06592406302004437
WRONSKIAN_AT_0P1 = 0.4345982085070782
PHASE_AT_3 = 0.1353352832366127


class TestDmpConfig:
    def test_beta_is_quarter_alpha(self, reference_config):
        assert reference_config.beta == 25.0 / 4.0

    def test_explicit_beta_must_match(self):
        with pytest.raises(ValidationError, match="beta"):
            DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=25,
                      duration=3.0, beta=6.0)
        cfg = DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=25,
                        duration=3.0, beta=6.25)
        assert cfg.beta == 6.25

    def test_grid_default(self, reference_config):
        assert reference_config.grid_dt == 3.0 / 3000.0
        assert reference_config.grid_points == 3001

    def test_positivity_checks(self):
        for field in ("alpha", "tau", "alpha_x", "duration"):
            kwargs = dict(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=5,
                          duration=3.0)
            kwargs[field] = 0.0
            with pytest.raises(ValidationError):
                DmpConfig(**kwargs)

    def test_grid_must_resolve_basis(self):
        with pytest.raises(ValidationError, match="grid"):
            DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=25,
                      duration=3.0, grid_dt=0.1)

    @pytest.mark.parametrize("num_basis, message", [
        (1, "at least 2"), (0, "at least 2"), (-3, "at least 2"),
        (25.7, "integer"), (float("nan"), "integer"), ("five", "integer")])
    def test_num_basis_is_an_integer_of_at_least_two(self, num_basis, message):
        with pytest.raises(ValidationError, match=message):
            DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=num_basis,
                      duration=3.0)

    def test_integral_num_basis_is_normalized(self):
        cfg = DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=25.0,
                        duration=3.0)
        assert cfg.num_basis == 25 and isinstance(cfg.num_basis, int)

    def test_from_dict_rejects_unknown_keys(self):
        data = dict(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=5, duration=3.0)
        assert DmpConfig.from_dict(data).num_basis == 5
        with pytest.raises(ValidationError, match="unknown"):
            DmpConfig.from_dict({**data, "gamma": 1.0})
        with pytest.raises(ValidationError):
            DmpConfig.from_dict({"alpha": 25.0})
        with pytest.raises(ValidationError, match="JSON object"):
            DmpConfig.from_dict([["alpha", 25.0]])

    def test_bank_cells_are_bounded(self):
        cfg = OVERSIZED_BANK_CONFIG
        assert 4 * cfg["num_basis"] <= round(cfg["duration"] / cfg["grid_dt"]) + 1
        with pytest.raises(ValidationError, match="bank too large"):
            DmpConfig(**cfg)
        # 10 001 points: 1999 columns fit in MAX_BANK_CELLS, 2000 do not
        largest = DmpConfig(**dict(ONLINE_REPLAN_CONFIG, num_basis=1998))
        assert largest.grid_points * largest.weight_dim <= MAX_BANK_CELLS
        assert largest.grid_points * (largest.weight_dim + 1) > MAX_BANK_CELLS
        with pytest.raises(ValidationError, match="bank too large"):
            DmpConfig(**dict(ONLINE_REPLAN_CONFIG, num_basis=1999))

    def test_digest_depends_on_values_only(self, reference_config):
        clone = DmpConfig(**{k: getattr(reference_config, k)
                             for k in ("alpha", "tau", "alpha_x", "num_basis",
                                       "duration", "grid_dt", "basis_overlap")})
        assert clone.digest() == reference_config.digest()
        other = DmpConfig(alpha=25.0, tau=2.0, alpha_x=2.0, num_basis=25,
                          duration=3.0)
        assert other.digest() != reference_config.digest()


class TestPhase:
    def test_endpoints(self, reference_config):
        assert phase(0.0, reference_config) == 1.0
        assert phase(3.0, reference_config) == pytest.approx(PHASE_AT_3, abs=1e-15)

    def test_float_for_scalar_array_for_array(self, reference_config):
        assert type(phase(1.5, reference_config)) is float
        assert phase(np.array([0.0, 1.5]), reference_config).shape == (2,)

    def test_negative_time_rejected(self, reference_config):
        with pytest.raises(ValidationError):
            phase(-0.1, reference_config)

    def test_strictly_decreasing(self, reference_config):
        t = np.linspace(0.0, 3.0, 50)
        x = phase(t, reference_config)
        assert np.all(np.diff(x) < 0.0)


class TestForcingBasis:
    def test_needs_two_functions(self):
        # the width rule needs a neighbor; the config refuses a lone function
        with pytest.raises(ValidationError, match="basis"):
            make_forcing_basis(DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0,
                                         num_basis=1, duration=3.0))

    def test_centers_are_phase_values(self, reference_config):
        basis = make_forcing_basis(reference_config)
        expected = phase(np.linspace(0.0, 3.0, reference_config.num_basis),
                         reference_config)
        assert np.array_equal(basis.centers, expected)

    def test_last_width_copied(self, reference_config):
        basis = make_forcing_basis(reference_config)
        assert basis.widths[-1] == basis.widths[-2]
        assert np.all(basis.widths > 0.0)

    def test_normalized_rows_sum_to_phase(self, reference_config):
        basis = make_forcing_basis(reference_config)
        t = np.linspace(0.0, 3.0, 33)
        x = phase(t, reference_config)
        rows = basis.normalized_scaled(x)
        np.testing.assert_allclose(rows.sum(axis=1), x, rtol=0, atol=1e-14)

    def test_overlap_at_neighbor_center(self, reference_config):
        basis = make_forcing_basis(reference_config)
        # by construction each raw RBF evaluates to the overlap value at the
        # next center
        val = np.exp(-basis.widths[0] * (basis.centers[1] - basis.centers[0]) ** 2)
        assert val == pytest.approx(0.3, abs=1e-14)


class TestClosedForms:
    def test_complementary_values(self, reference_config):
        sample = complementary(0.1, reference_config)
        assert sample.y1 == pytest.approx(Y1_AT_0P1, abs=1e-16)
        assert sample.y2 == pytest.approx(Y2_AT_0P1, abs=1e-16)
        assert sample.wronskian == pytest.approx(WRONSKIAN_AT_0P1, rel=1e-14)

    def test_complementary_derivatives_by_fd(self, reference_config):
        eps = 1e-6
        for t in (0.05, 0.7, 2.0):
            lo = complementary(t - eps, reference_config)
            hi = complementary(t + eps, reference_config)
            mid = complementary(t, reference_config)
            assert mid.dy1 == pytest.approx((hi.y1 - lo.y1) / (2 * eps), rel=1e-7)
            assert mid.dy2 == pytest.approx((hi.y2 - lo.y2) / (2 * eps), rel=1e-7)

    def test_q_values(self, reference_config):
        q1, q2 = q_terms(0.1, reference_config)
        assert q1 == pytest.approx(Q1_AT_0P1, rel=1e-14)
        assert q2 == pytest.approx(Q2_AT_0P1, rel=1e-14)

    def test_goal_column_equals_q_route(self, small_config, small_bank):
        # the bank's goal columns are the algebraic simplification of
        # y2*q2 - y1*q1 and dy2*q2 - dy1*q1; check on a horizon where the
        # growing q route is representable
        for t in (0.0, 0.1, 0.33, 0.75, 1.0):
            q1, q2 = q_terms(t, small_config)
            comp = complementary(t, small_config)
            pos_goal = comp.y2 * q2 - comp.y1 * q1
            vel_goal = comp.dy2 * q2 - comp.dy1 * q1
            row_pos = small_bank.pos_rows(np.array([t]))[0]
            row_vel = small_bank.vel_rows(np.array([t]))[0]
            assert row_pos[-1] == pytest.approx(pos_goal, abs=1e-11)
            assert row_vel[-1] == pytest.approx(vel_goal, abs=1e-10)


# grid point counts of 64k, 64k + 1, 64k + 63 and 64k + 2 (the scan's last
# block one row long), then the reference, online_replan and a 100 s horizon
# with N = 25
SCAN_CONFIGS = {
    "points-mod-64-is-0": (dict(SMALL_CONFIG, grid_dt=1.0 / 447.0), 0),
    "points-mod-64-is-1": (dict(SMALL_CONFIG, grid_dt=1.0 / 448.0), 1),
    "points-mod-64-is-63": (dict(SMALL_CONFIG, grid_dt=1.0 / 446.0), 63),
    "points-mod-64-is-2": (dict(SMALL_CONFIG, grid_dt=1.0 / 449.0), 2),
    "reference": (REFERENCE_CONFIG, None),
    "online-replan": (ONLINE_REPLAN_CONFIG, None),
    "long-horizon": (dict(alpha=25.0, tau=1.0, alpha_x=2.0, num_basis=25,
                          duration=100.0, grid_dt=0.01), None),
}


class TestPrecompute:
    def test_weight_columns_match_naive_quadrature(self, small_config, small_bank):
        # independent route: trapezoid quadrature of the growing integrands
        # p1' = -y2 f / W, p2' = y1 f / W, then y = y1 p1 + y2 p2; feasible
        # only on short horizons where exp(k t) stays small
        cfg = small_config
        k = cfg.decay_rate
        times = small_bank.times
        basis = make_forcing_basis(cfg)
        x = phase(times, cfg)
        forcing = basis.normalized_scaled(x) / cfg.tau ** 2
        y1 = np.exp(-k * times)
        y2 = times * y1
        wron = np.exp(-cfg.alpha * times / cfg.tau)

        def cumtrapz(values):
            dt = times[1] - times[0]
            inner = np.zeros_like(values)
            inner[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]), axis=0)
            return inner

        p1 = cumtrapz(-y2[:, None] * forcing / wron[:, None])
        p2 = cumtrapz(y1[:, None] * forcing / wron[:, None])
        naive_pos = y1[:, None] * p1 + y2[:, None] * p2
        np.testing.assert_allclose(small_bank.pos_basis[:, :-1], naive_pos,
                                   rtol=0, atol=1e-12)

    def test_velocity_columns_are_position_derivatives(self, small_bank):
        dt = small_bank.config.duration / small_bank.config.grid_intervals
        fd = (small_bank.pos_basis[2:] - small_bank.pos_basis[:-2]) / (2 * dt)
        dev = np.max(np.abs(fd - small_bank.vel_basis[1:-1]))
        assert dev < 10.0 * dt

    def test_self_check_rejects_coarse_grid(self):
        # stiff decay (k = 200/s) against a 1/16 s grid step underresolves the
        # recurrence; the bank must refuse, not silently store garbage
        cfg = DmpConfig(alpha=400.0, tau=1.0, alpha_x=2.0, num_basis=2,
                        duration=1.0, grid_dt=1.0 / 16.0)
        with pytest.raises(NumericalError, match="too coarse"):
            precompute_basis(cfg)

    @pytest.mark.parametrize("name", SCAN_CONFIGS)
    def test_blocked_scan_matches_sequential_recurrence(self, name):
        kwargs, points_mod_64 = SCAN_CONFIGS[name]
        cfg = DmpConfig(**kwargs)
        if points_mod_64 is not None:
            assert cfg.grid_points % 64 == points_mod_64
        blocked, sequential = precompute_basis(cfg), sequential_bank(cfg)
        assert np.array_equal(blocked.times, sequential.times)
        for kind in ("pos_basis", "vel_basis"):
            ref = getattr(sequential, kind)
            drift = np.max(np.abs(getattr(blocked, kind) - ref))
            assert drift <= 1e-14 * np.max(np.abs(ref)), (kind, drift)

    def test_decay_underflow_fails_self_check(self):
        # k dt = 1250, so exp(-k dt) is 0 and every power of it past the
        # zeroth too; the scan must not warn, and the bank must be refused
        cfg = DmpConfig(**dict(SMALL_CONFIG, alpha=1e6))
        assert np.exp(-cfg.decay_rate * cfg.duration / cfg.grid_intervals) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="self-check failed"):
                precompute_basis(cfg)

    def test_deterministic_checksum(self, small_config, small_bank):
        again = precompute_basis(small_config)
        assert again.content_checksum() == small_bank.content_checksum()

    def test_checksum_independent_of_blas_threads(self):
        script = ("import mptraj\n"
                  f"config = mptraj.DmpConfig(**{ONLINE_REPLAN_CONFIG!r})\n"
                  "print(mptraj.precompute_basis(config).content_checksum())\n")
        src = str(Path(mptraj.__file__).resolve().parents[1])
        checksums = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True, timeout=120,
                                    check=True)
            checksums.append(result.stdout.strip())
        assert len(checksums[0]) == 64 and checksums[0] == checksums[1]

    def test_all_exponents_bounded(self, reference_bank):
        # stability contract: every stored value stays O(1); nothing grows
        # like exp(+k t)
        assert np.all(np.isfinite(reference_bank.pos_basis))
        assert np.max(np.abs(reference_bank.pos_basis)) < 1e3
        assert np.max(np.abs(reference_bank.vel_basis)) < 1e4


class TestBankInterp:
    def test_exact_at_grid_nodes(self, small_bank):
        idx = np.array([0, 17, 100, 400])
        rows = small_bank.pos_rows(small_bank.times[idx])
        assert np.array_equal(rows, small_bank.pos_basis[idx])

    def test_linear_between_nodes(self, small_bank):
        t0, t1 = small_bank.times[10], small_bank.times[11]
        mid = 0.5 * (t0 + t1)
        row = small_bank.pos_rows(np.array([mid]))[0]
        expected = 0.5 * (small_bank.pos_basis[10] + small_bank.pos_basis[11])
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)

    def test_nan_query_rejected(self, small_bank):
        with pytest.raises(ValidationError, match="not finite"):
            small_bank.pos_rows([np.nan])
        with pytest.raises(ValidationError, match="not finite"):
            small_bank.vel_rows([0.5, np.nan])

    def test_out_of_range_rejected(self, small_bank):
        with pytest.raises(ValidationError):
            small_bank.pos_rows(np.array([-0.01]))
        with pytest.raises(ValidationError):
            small_bank.vel_rows(np.array([1.01]))

    def test_rows_equal_single_kind_lookups(self, small_bank):
        # grid points, midpoints, both ends, and arbitrary times in between
        grid = small_bank.times
        t = np.concatenate([grid[[0, 1, 17, 200, -2, -1]],
                            0.5 * (grid[[0, 17, 399]] + grid[[1, 18, 400]]),
                            np.random.default_rng(3).uniform(0.0, grid[-1], 50)])
        pos, vel = small_bank.rows(t)
        assert np.array_equal(pos, small_bank.pos_rows(t))
        assert np.array_equal(vel, small_bank.vel_rows(t))
        assert np.array_equal(small_bank.rows(grid[-1])[0], small_bank.pos_basis[-1:])
        empty = small_bank.rows([])
        assert [rows.shape for rows in empty] == [(0, small_bank.weight_dim)] * 2

    @pytest.mark.parametrize("t", [[np.nan], [0.5, np.nan], [-0.01], [1.01]],
                             ids=["nan", "nan-after-valid", "before-start", "after-end"])
    def test_rows_reject_like_single_kind_lookups(self, small_bank, t):
        errors = []
        for lookup in (small_bank.rows, small_bank.pos_rows, small_bank.vel_rows):
            with pytest.raises(ValidationError) as info:
                lookup(t)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == errors[2]


class TestOffGridAccuracy:
    """Ceilings of linear interpolation between bank nodes, measured against a
    bank on a 16x finer grid (whose nodes include every small_bank node).
    Errors are relative to the largest fine-bank value; measured: position
    1.18e-4 and velocity 6.48e-4 at midpoints, position 2.85e-7 and velocity
    1.37e-6 on the nodes."""

    @pytest.fixture(scope="class")
    def fine_bank(self):
        return precompute_basis(DmpConfig(**{**SMALL_CONFIG,
                                             "grid_dt": SMALL_CONFIG["grid_dt"] / 16}))

    @staticmethod
    def _error(small_bank, fine_bank, kind, times):
        rows = f"{kind}_rows"
        scale = np.max(np.abs(getattr(fine_bank, f"{kind}_basis")))
        diff = getattr(small_bank, rows)(times) - getattr(fine_bank, rows)(times)
        return np.max(np.abs(diff)) / scale

    def test_midpoints(self, small_bank, fine_bank):
        mid = 0.5 * (small_bank.times[1:] + small_bank.times[:-1])
        assert self._error(small_bank, fine_bank, "pos", mid) <= 2e-4
        assert self._error(small_bank, fine_bank, "vel", mid) <= 1e-3

    def test_nodes(self, small_bank, fine_bank):
        assert np.array_equal(fine_bank.times[::16], small_bank.times)
        assert self._error(small_bank, fine_bank, "pos", small_bank.times) <= 1e-6
        assert self._error(small_bank, fine_bank, "vel", small_bank.times) <= 1e-5


class TestBankFile:
    def test_round_trip_is_bit_exact(self, small_bank, tmp_path):
        path = str(tmp_path / "bank.npz")
        small_bank.save(path)
        loaded = BasisBank.load(path)
        assert loaded.config == small_bank.config
        assert np.array_equal(loaded.times, small_bank.times)
        assert np.array_equal(loaded.pos_basis, small_bank.pos_basis)
        assert np.array_equal(loaded.vel_basis, small_bank.vel_basis)
        assert loaded.content_checksum() == small_bank.content_checksum()

    def test_file_layout(self, small_bank, tmp_path):
        path = tmp_path / "bank.npz"
        small_bank.save(str(path))
        with np.load(path) as data:
            assert sorted(data.files) == ["checksum", "config_json", "format",
                                          "pos_basis", "times", "vel_basis"]
            assert data["format"].shape == () and data["format"] == BANK_FORMAT

    def test_unversioned_bank_rejected(self, small_bank, tmp_path):
        path = tmp_path / "old.npz"
        write_unversioned_bank(small_bank, str(path))
        with pytest.raises(ValidationError, match=r"old\.npz.*precompute"):
            BasisBank.load(str(path))

    @pytest.mark.parametrize("value", [BANK_FORMAT - 1, BANK_FORMAT + 1, "2"])
    def test_other_format_rejected(self, small_bank, tmp_path, value):
        path = tmp_path / "bank.npz"
        small_bank.save(str(path))
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez(path, **{**arrays, "format": np.array(value)})
        with pytest.raises(ValidationError, match="precompute"):
            BasisBank.load(str(path))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            BasisBank.load(str(tmp_path / "nope.npz"))

    def test_corrupted_file_rejected(self, small_bank, tmp_path):
        path = tmp_path / "bank.npz"
        small_bank.save(str(path))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.npz"
        bad.write_bytes(bytes(blob))
        with pytest.raises((ValidationError, IoError)):
            BasisBank.load(str(bad))

    def test_not_a_bank_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValidationError):
            BasisBank.load(str(path))

    def test_arrays_are_read_only(self, small_bank):
        with pytest.raises(ValueError):
            small_bank.pos_basis[0, 0] = 1.0


# a bank (alpha=25, tau=1, alpha_x=2, num_basis=3, duration=1, grid_dt=0.02)
# saved before the bank held its rows in one time-major table
ROW_LAYOUT_BANK = Path(__file__).resolve().parent / "data" / "bank_rows_v2.npz"


class TestBankTable:
    def test_basis_arrays_view_one_read_only_table(self, small_bank, tmp_path):
        path = str(tmp_path / "bank.npz")
        small_bank.save(path)
        for bank in (small_bank, BasisBank.load(path)):
            table = bank.table
            assert table.shape == (2, bank.weight_dim, bank.times.size)
            assert table.flags.c_contiguous and table.flags.owndata
            assert not table.flags.writeable
            # the bank holds one copy of its rows
            assert bank.pos_basis.base is table and bank.vel_basis.base is table
            assert np.array_equal(bank.pos_basis, table[0].T)
            assert np.array_equal(bank.vel_basis, table[1].T)

    def test_other_arrays_are_copied_in(self, small_bank):
        pos, vel = np.array(small_bank.pos_basis), np.array(small_bank.vel_basis)
        bank = BasisBank(config=small_bank.config, times=small_bank.times,
                         pos_basis=pos, vel_basis=vel)
        assert not np.shares_memory(bank.table, pos)
        pos += 1.0
        assert np.array_equal(bank.pos_basis, small_bank.pos_basis)
        assert np.array_equal(bank.vel_basis, vel)
        # the views of another bank's table are adopted, not copied
        again = BasisBank(config=small_bank.config, times=small_bank.times,
                          pos_basis=small_bank.pos_basis, vel_basis=small_bank.vel_basis)
        assert again.table is small_bank.table

    def test_lookup_is_both_row_kinds_time_major(self, small_bank):
        grid = small_bank.times
        t = np.concatenate([grid[[0, 17, -1]], 0.5 * (grid[[3, 99]] + grid[[4, 100]])])
        rows = small_bank.lookup(t)
        assert rows.shape == (2, small_bank.weight_dim, t.size)
        assert np.array_equal(rows[0].T, small_bank.pos_rows(t))
        assert np.array_equal(rows[1].T, small_bank.vel_rows(t))
        assert np.array_equal(rows[:, :, :3], small_bank.table[:, :, [0, 17, -1]])
        assert small_bank.lookup([]).shape == (2, small_bank.weight_dim, 0)


class TestBankFileStability:
    def test_save_load_save_gives_identical_bytes(self, small_bank, tmp_path):
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        small_bank.save(str(first))
        BasisBank.load(str(first)).save(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_members_are_c_ordered(self, small_bank, tmp_path):
        path = tmp_path / "bank.npz"
        small_bank.save(str(path))
        readers = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}
        with zipfile.ZipFile(path) as archive:
            for name in archive.namelist():
                with archive.open(name) as fh:
                    _, fortran_order, _ = readers[np.lib.format.read_magic(fh)](fh)
                assert fortran_order is False, name

    def test_file_is_the_row_layout(self, small_bank, tmp_path):
        ours, rows = tmp_path / "ours.npz", tmp_path / "rows.npz"
        small_bank.save(str(ours))
        save_row_major(small_bank, str(rows))
        assert ours.read_bytes() == rows.read_bytes()

    @pytest.mark.parametrize("name", ["pos_basis", "vel_basis"])
    def test_rows_of_another_shape_rejected(self, small_bank, tmp_path, name):
        path = tmp_path / "bank.npz"
        small_bank.save(str(path))
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        np.savez(path, **{**arrays, name: arrays[name][:, :-1]})
        with pytest.raises(DimensionError, match="do not match"):
            BasisBank.load(str(path))

    def test_row_layout_file_still_loads(self, tmp_path):
        # load checks the stored checksum against content_checksum, and the
        # file saved again holds that checksum too
        bank = BasisBank.load(str(ROW_LAYOUT_BANK))
        assert bank.times.shape == (51,) and bank.weight_dim == 4
        resaved = tmp_path / "resaved.npz"
        bank.save(str(resaved))
        assert resaved.read_bytes() == ROW_LAYOUT_BANK.read_bytes()


def test_bank_shape_validation(small_config, small_bank):
    with pytest.raises(DimensionError):
        BasisBank(config=small_config, times=small_bank.times,
                  pos_basis=small_bank.pos_basis[:, :-1],
                  vel_basis=small_bank.vel_basis)
