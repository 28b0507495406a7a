import tracemalloc

import numpy as np
import pytest

from mptraj import (BasisBank, BoundaryCondition, DimensionError, DmpConfig,
                    TrajectoryGenerator, ValidationError, evaluate_position,
                    evaluate_velocity, precompute_basis)
from mptraj.trajectory import (MAX_QUERY_SAMPLES, folded_basis, read_trajectory_csv,
                               weight_blocks, window_steps, write_trajectory_csv)
from tests.reference import (RowMajorFold, complementary, position_from_coefficients,
                             solve_coefficients, velocity_from_coefficients)

# frozen mpmath values for alpha=25, tau=3 (k = 25/6), t=1, t_b=0
XI1_AT_1 = 0.08010324359488148
XI2_AT_1 = 0.015503853599009319


def _random_case(rng, dofs, weight_dim, t_b=0.0):
    bc = BoundaryCondition(t_b=t_b, y_b=rng.standard_normal(dofs),
                           dy_b=rng.standard_normal(dofs))
    w = rng.standard_normal(dofs * weight_dim) * 5.0
    return bc, w


def _xi(t, t_b, bank):
    """(xi1, xi2) at t for a boundary at t_b, read off the production fold:
    with y_b = 1, dy_b = 0 its position offset is exactly xi1, and with
    y_b = 0, dy_b = 1 exactly xi2."""
    def offset(y_b, dy_b):
        bc = BoundaryCondition(t_b, [y_b], [dy_b])
        return folded_basis(bc, [t], bank).pos_offset[0, 0]
    return offset(1.0, 0.0), offset(0.0, 1.0)


class TestXiTerms:
    def test_frozen_values(self, reference_bank):
        xi1, xi2 = _xi(1.0, 0.0, reference_bank)
        assert xi1 == pytest.approx(XI1_AT_1, rel=1e-14)
        assert xi2 == pytest.approx(XI2_AT_1, rel=1e-14)

    def test_boundary_instant(self, reference_bank):
        assert _xi(0.7, 0.7, reference_bank) == (1.0, 0.0)

    def test_wronskian_definition(self, reference_config, reference_bank):
        # independent route: assemble the xi terms from the complementary
        # functions at t and t_b as defined, divided by the Wronskian
        for t_b, t in ((0.0, 1.0), (0.5, 0.8), (1.2, 2.9)):
            at_b = complementary(t_b, reference_config)
            at_t = complementary(t, reference_config)
            wron = at_b.wronskian
            xi1 = (at_b.dy2 * at_t.y1 - at_b.dy1 * at_t.y2) / wron
            xi2 = (at_b.y1 * at_t.y2 - at_b.y2 * at_t.y1) / wron
            fold_xi1, fold_xi2 = _xi(t, t_b, reference_bank)
            assert fold_xi1 == pytest.approx(xi1, rel=1e-10)
            assert fold_xi2 == pytest.approx(xi2, rel=1e-10)


def test_window_steps_bound():
    assert window_steps(1.0, MAX_QUERY_SAMPLES - 1) == MAX_QUERY_SAMPLES - 1
    for span, rate in ((1.0, MAX_QUERY_SAMPLES), (1.0, 1e300), (1e300, 1e300)):
        with pytest.raises(ValidationError, match="samples"):
            window_steps(span, rate)


class TestBoundaryCondition:
    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            BoundaryCondition(0.0, np.zeros(2), np.zeros(3))
        with pytest.raises(ValidationError):
            BoundaryCondition(-1.0, np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("t_b, y_b, dy_b", [
        (np.nan, [0.0], [0.0]), (np.inf, [0.0], [0.0]),
        (0.0, [np.nan], [0.0]), (0.0, [0.0], [-np.inf])])
    def test_non_finite_rejected(self, t_b, y_b, dy_b):
        with pytest.raises(ValidationError, match="finite"):
            BoundaryCondition(t_b, y_b, dy_b)

    def test_arrays_read_only(self):
        bc = BoundaryCondition(0.0, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            bc.y_b[0] = 1.0


class TestExactAdherence:
    def test_bitwise_at_boundary(self, reference_bank):
        rng = np.random.default_rng(3)
        for t_b in (0.0, 0.123456789, 1.5, 2.75):
            bc, w = _random_case(rng, 3, reference_bank.weight_dim, t_b)
            times = np.array([t_b, min(t_b + 0.5, 3.0), 3.0])
            pos = evaluate_position(w, bc, times, reference_bank)
            vel = evaluate_velocity(w, bc, times, reference_bank)
            assert np.array_equal(pos[:, 0], bc.y_b)
            assert np.array_equal(vel[:, 0], bc.dy_b)

    def test_zero_forcing_matches_closed_form(self, reference_config, reference_bank):
        # only the goal entry set: the trajectory is the critically damped
        # step response g + (y_b - g)(1 + k r)e^{-k r} + dy_b r e^{-k r}
        k = reference_config.decay_rate
        goal = 1.75
        bc = BoundaryCondition(0.0, np.array([0.4]), np.array([-0.9]))
        w = np.zeros(reference_bank.weight_dim)
        w[-1] = goal
        times = np.linspace(0.0, 3.0, 31)
        pos = evaluate_position(w, bc, times, reference_bank)[0]
        env = np.exp(-k * times)
        expected = (goal + (bc.y_b[0] - goal) * (1.0 + k * times) * env
                    + bc.dy_b[0] * times * env)
        np.testing.assert_allclose(pos, expected, rtol=0, atol=1e-9)

    def test_goal_attractor_limit(self, reference_bank):
        # w = 0 except goal: position approaches the goal by the horizon
        w = np.zeros(reference_bank.weight_dim)
        w[-1] = 2.0
        bc = BoundaryCondition(0.0, np.array([-1.0]), np.array([0.0]))
        pos = evaluate_position(w, bc, np.array([3.0]), reference_bank)
        assert abs(pos[0, 0] - 2.0) < 1e-3


class TestCoefficientRoute:
    def test_matches_folded_route(self, reference_bank):
        # independent reconstruction: solve c1/c2 explicitly, evaluate
        # y = c1 y1 + c2 y2 + Phi w; must agree with the folded xi route
        rng = np.random.default_rng(11)
        for t_b in (0.0, 0.8):
            bc, w = _random_case(rng, 2, reference_bank.weight_dim, t_b)
            c1, c2 = solve_coefficients(bc, w, reference_bank)
            times = np.linspace(t_b, 3.0, 40)
            direct_pos = position_from_coefficients(c1, c2, w, times, reference_bank)
            direct_vel = velocity_from_coefficients(c1, c2, w, times, reference_bank)
            folded_pos = evaluate_position(w, bc, times, reference_bank)
            folded_vel = evaluate_velocity(w, bc, times, reference_bank)
            scale = np.max(np.abs(folded_pos))
            assert np.max(np.abs(direct_pos - folded_pos)) < 1e-9 * scale
            assert np.max(np.abs(direct_vel - folded_vel)) < 1e-8 * max(scale, 1.0)

    def test_coefficient_shapes(self, reference_bank):
        rng = np.random.default_rng(1)
        bc, w = _random_case(rng, 4, reference_bank.weight_dim)
        c1, c2 = solve_coefficients(bc, w, reference_bank)
        assert c1.shape == c2.shape == (4,)


class TestGenerator:
    def test_matches_evaluate(self, reference_bank):
        rng = np.random.default_rng(5)
        bc, w = _random_case(rng, 2, reference_bank.weight_dim)
        times = np.linspace(0.0, 3.0, 25)
        gen = TrajectoryGenerator(bc, times, reference_bank)
        assert np.array_equal(gen.positions(w), evaluate_position(w, bc, times,
                                                                  reference_bank))
        assert np.array_equal(gen.velocities(w), evaluate_velocity(w, bc, times,
                                                                   reference_bank))

    def test_velocity_is_position_derivative(self, reference_bank):
        rng = np.random.default_rng(6)
        bc, w = _random_case(rng, 1, reference_bank.weight_dim)
        eps = 1e-5
        for t in (0.5, 1.7, 2.5):
            times = np.array([t - eps, t, t + eps])
            pos = evaluate_position(w, bc, times, reference_bank)[0]
            vel = evaluate_velocity(w, bc, np.array([t]), reference_bank)[0, 0]
            fd = (pos[2] - pos[0]) / (2.0 * eps)
            assert vel == pytest.approx(fd, rel=5e-4, abs=5e-4)

    def test_dimension_checks(self, reference_bank):
        bc = BoundaryCondition(0.0, np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionError):
            evaluate_position(np.zeros(13), bc, np.array([0.0]), reference_bank)
        with pytest.raises(DimensionError):
            weight_blocks(np.zeros(10), 3, 4)
        # a numpy broadcasting ValueError before query times were checked
        with pytest.raises(DimensionError):
            evaluate_position(np.zeros(52), bc, np.full((2, 3), 0.5), reference_bank)

    def test_times_outside_bank_rejected(self, reference_bank):
        bc = BoundaryCondition(0.0, np.zeros(1), np.zeros(1))
        with pytest.raises(ValidationError):
            evaluate_position(np.zeros(26), bc, np.array([3.5]), reference_bank)


class TestFoldedBasis:
    def test_h_rows_vanish_at_boundary(self, reference_bank):
        bc = BoundaryCondition(1.25, np.array([0.3]), np.array([0.1]))
        fold = folded_basis(bc, np.array([1.25, 2.0]), reference_bank)
        assert np.all(fold.h_pos[0] == 0.0)
        assert np.all(fold.h_vel[0] == 0.0)

    def test_offsets_equal_boundary_state_at_boundary(self, reference_bank):
        rng = np.random.default_rng(4)
        bc = BoundaryCondition(0.75, rng.standard_normal(3), rng.standard_normal(3))
        fold = folded_basis(bc, np.array([0.5, 0.75, 2.0]), reference_bank)
        assert fold.pos_offset.shape == fold.vel_offset.shape == (3, 3)
        assert np.array_equal(fold.pos_offset[:, 1], bc.y_b)
        assert np.array_equal(fold.vel_offset[:, 1], bc.dy_b)

    def test_fold_is_the_generator(self, reference_bank):
        bc = BoundaryCondition(0.5, np.zeros(2), np.zeros(2))
        assert isinstance(folded_basis(bc, [1.0], reference_bank), TrajectoryGenerator)

    def test_one_lookup_for_both_row_kinds(self, reference_bank, monkeypatch):
        calls = []
        for name in ("lookup", "pos_rows", "vel_rows"):
            def counted(bank, t, _name=name, _rows=getattr(BasisBank, name)):
                calls.append(_name)
                return _rows(bank, t)
            monkeypatch.setattr(BasisBank, name, counted)
        bc = BoundaryCondition(0.5, np.zeros(2), np.zeros(2))
        folded_basis(bc, np.linspace(0.5, 2.5, 9), reference_bank)
        assert calls == ["lookup"]

    def test_stack_equals_single_calls(self, reference_bank):
        rng = np.random.default_rng(8)
        bc, _ = _random_case(rng, 3, reference_bank.weight_dim, t_b=0.4)
        fold = folded_basis(bc, np.linspace(0.4, 2.8, 50), reference_bank)
        stack = rng.standard_normal((6, 3 * reference_bank.weight_dim))
        assert np.array_equal(fold.positions(stack),
                              np.stack([fold.positions(w) for w in stack]))
        assert np.array_equal(fold.velocities(stack),
                              np.stack([fold.velocities(w) for w in stack]))

    @pytest.mark.parametrize("shape", [(4, 77), (2, 4, 79), (1, 0)])
    def test_stack_with_wrong_last_axis_rejected(self, reference_bank, shape):
        # 3 DoFs x 26 parameters = 78 per weights vector
        bc = BoundaryCondition(0.0, np.zeros(3), np.zeros(3))
        fold = folded_basis(bc, [1.0, 2.0], reference_bank)
        with pytest.raises(DimensionError):
            fold.positions(np.zeros(shape))
        with pytest.raises(DimensionError):
            fold.velocities(np.zeros(shape))


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        times = np.linspace(0.0, 1.0, 7)
        pos = rng.standard_normal((2, 7))
        vel = rng.standard_normal((2, 7))
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(path, times, pos, vel)
        t2, p2, v2 = read_trajectory_csv(path)
        assert np.array_equal(t2, times)
        assert np.array_equal(p2, pos)
        assert np.array_equal(v2, vel)

    def test_segment_column_round_trip(self, tmp_path):
        times = np.array([0.0, 0.5, 1.0])
        pos = np.array([[1.0, 2.0, 3.0]])
        vel = np.zeros((1, 3))
        path = str(tmp_path / "seg.csv")
        write_trajectory_csv(path, times, pos, vel,
                             segment_ids=np.array([0, 0, 1]))
        header = open(path).readline().strip().split(",")
        assert header[-1] == "segment_id"
        t2, p2, v2 = read_trajectory_csv(path)
        assert np.array_equal(p2, pos)

    def test_positions_only(self, tmp_path):
        path = str(tmp_path / "pos.csv")
        write_trajectory_csv(path, np.array([0.0, 1.0]), np.ones((1, 2)), None)
        t2, p2, v2 = read_trajectory_csv(path)
        assert v2 is None
        assert np.array_equal(p2, np.ones((1, 2)))

    @pytest.mark.parametrize("text", ["t,dof0_pos\n",
                                      "t,dof0_pos\n0.0,1.0\n0.5\n",
                                      "t,dof0_pos,dof0_vel\n0.0,1.0\n0.5,2.0\n"],
                             ids=["header-only", "ragged", "short-rows"])
    def test_rows_must_match_header(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match="bad.csv"):
            read_trajectory_csv(str(path))

    def test_rows_short_and_long_by_the_same_count(self, tmp_path):
        # 3 and 5 cells under a 4-column header hold 8 cells, as 2 rows of 4 do
        path = tmp_path / "bad.csv"
        path.write_text("t,dof0_pos,dof0_vel,dof1_pos\n0,1,2\n1,2,3,4,5\n")
        with pytest.raises(ValidationError, match="must each have 4 values"):
            read_trajectory_csv(str(path))

    # spellings that a parser other than float() might read differently
    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "Infinity", "-inf", " 1.5",
                                      "1_0", "+1", "0x10", "\u0661", "", "1e400", "1e"])
    def test_cells_parse_as_float_does(self, tmp_path, cell):
        path = tmp_path / "cell.csv"
        path.write_text(f"t,dof0_pos\n0.0,{cell}\n", encoding="utf-8")
        try:
            expected = float(cell)
        except ValueError:
            with pytest.raises(ValidationError, match="cell.csv"):
                read_trajectory_csv(str(path))
            return
        _, positions, _ = read_trajectory_csv(str(path))
        assert positions[0, 0] == expected or (np.isnan(expected)
                                               and np.isnan(positions[0, 0]))

    def test_misaligned_rejected(self, tmp_path):
        with pytest.raises(DimensionError):
            write_trajectory_csv(str(tmp_path / "x.csv"), np.zeros(3),
                                 np.zeros((1, 4)), None)


class TestTimeMajorFold:
    """The time-major fold against the row-major formulas of RowMajorFold."""

    @staticmethod
    def _case(bank, dofs, on_grid, seed):
        rng = np.random.default_rng(seed)
        grid, end = bank.times, bank.duration
        # grid point 700 of the reference bank, or a third of the way past it
        t_b = grid[700] if on_grid else grid[700] + (grid[701] - grid[700]) / 3.0
        bc, _ = _random_case(rng, dofs, bank.weight_dim, t_b=t_b)
        # off-grid times, grid points, and the bank end, where the upper
        # bound on the interval index applies
        times = np.concatenate([[t_b], rng.uniform(t_b, end, 40), grid[[701, 1500, -2]],
                                [end]])
        stack = rng.standard_normal((3, 2, dofs * bank.weight_dim)) * 5.0
        return bc, times, stack

    @pytest.mark.parametrize("on_grid", [True, False], ids=["on-grid", "off-grid"])
    @pytest.mark.parametrize("dofs", [2, 3, 7])
    def test_bit_identical_to_row_major_fold(self, reference_bank, dofs, on_grid):
        bc, times, stack = self._case(reference_bank, dofs, on_grid, seed=dofs)
        assert times[-1] == reference_bank.times[-1]
        fold = TrajectoryGenerator(bc, times, reference_bank)
        ref = RowMajorFold(bc, times, reference_bank)
        for name in ("h_pos", "h_vel", "pos_offset", "vel_offset"):
            assert np.array_equal(getattr(fold, name), getattr(ref, name)), name
        for w in (stack, stack[0, 0]):
            assert np.array_equal(fold.positions(w), ref.positions(w))
            assert np.array_equal(fold.velocities(w), ref.velocities(w))

    @pytest.mark.parametrize("on_grid", [True, False], ids=["on-grid", "off-grid"])
    def test_one_dof_drifts_only_in_the_last_bits(self, reference_bank, on_grid):
        # one DoF is a matrix-vector product, whose BLAS path sums the N+1
        # terms in another order than the matrix product of the row-major fold
        bc, times, stack = self._case(reference_bank, 1, on_grid, seed=11)
        fold = TrajectoryGenerator(bc, times, reference_bank)
        ref = RowMajorFold(bc, times, reference_bank)
        for name in ("h_pos", "h_vel", "pos_offset", "vel_offset"):
            assert np.array_equal(getattr(fold, name), getattr(ref, name)), name
        for w in (stack, stack[0, 0]):
            for ours, theirs, state in ((fold.positions(w), ref.positions(w), bc.y_b),
                                        (fold.velocities(w), ref.velocities(w), bc.dy_b)):
                assert np.array_equal(ours[..., 0], np.broadcast_to(state, ours[..., 0].shape))
                scale = np.max(np.abs(theirs), axis=-1, keepdims=True)
                assert np.all(np.abs(ours - theirs) <= 1e-14 * scale)

    @pytest.fixture(scope="class")
    def policy_bank(self):
        # the policy-update workload's bank, N = 10: with 11 columns the products
        # of both layouts take the same BLAS path (with N = 25 and a few hundred
        # times they need not)
        return precompute_basis(DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0,
                                          num_basis=10, duration=3.0))

    @staticmethod
    def _sampling_case(bank):
        # the sampling path's shape: 16 draws x 7 DoF on a 3001-point grid
        rng = np.random.default_rng(16)
        bc, _ = _random_case(rng, 7, bank.weight_dim)
        times = np.arange(3001) / 1000
        stack = rng.standard_normal((16, 7 * bank.weight_dim)) * 5.0
        return TrajectoryGenerator(bc, times, bank), RowMajorFold(bc, times, bank), stack

    def test_sixteen_draws_bit_identical_to_row_major_fold(self, policy_bank):
        fold, ref, stack = self._sampling_case(policy_bank)
        for w in (stack, stack[0]):
            assert np.array_equal(fold.positions(w), ref.positions(w))
            assert np.array_equal(fold.velocities(w), ref.velocities(w))

    def test_products_allocate_only_their_output(self, policy_bank):
        # the offset is added into the product, so no second (16, 7, T) buffer
        # is made; numpy reports its data buffers to tracemalloc
        fold, _, stack = self._sampling_case(policy_bank)
        for product in (fold.positions, fold.velocities):
            product(stack)
            tracemalloc.start()
            try:
                out = product(stack)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.nbytes == 16 * 7 * 3001 * 8
            assert peak <= 1.05 * out.nbytes, product.__name__

    def test_position_offsets_equal_a_fold_of_each_state(self, reference_bank):
        rng = np.random.default_rng(23)
        times = np.linspace(0.5, 2.0, 41)
        states = [_random_case(rng, 3, reference_bank.weight_dim, t_b=0.5)[0]
                  for _ in range(4)]
        fold = TrajectoryGenerator(states[0], times, reference_bank)
        offsets = fold.position_offsets(np.concatenate([bc.y_b for bc in states]),
                                        np.concatenate([bc.dy_b for bc in states]))
        assert np.array_equal(offsets, np.concatenate(
            [TrajectoryGenerator(bc, times, reference_bank).pos_offset for bc in states]))

    def test_rows_are_one_contiguous_time_major_array(self, reference_bank):
        bc, times, _ = self._case(reference_bank, 3, False, seed=5)
        fold = TrajectoryGenerator(bc, times, reference_bank)
        assert fold.rows.shape == (2, reference_bank.weight_dim, times.size)
        assert fold.rows.flags.c_contiguous
        assert fold.offsets.shape == (2, 3, times.size)
        assert np.shares_memory(fold.h_pos, fold.rows)
        assert np.shares_memory(fold.pos_offset, fold.offsets)


class TestWithState:
    def test_equals_a_fresh_fold(self, reference_bank):
        rng = np.random.default_rng(21)
        times = np.linspace(0.0, 1.5, 31)
        first, _ = _random_case(rng, 3, reference_bank.weight_dim)
        second, w = _random_case(rng, 3, reference_bank.weight_dim)
        fold = TrajectoryGenerator(first, times, reference_bank)
        refold = fold.with_state(second)
        fresh = TrajectoryGenerator(second, times, reference_bank)
        assert refold.bc is second and fold.bc is first
        assert refold.rows is fold.rows
        for name in ("pos_offset", "vel_offset", "h_pos", "h_vel"):
            assert np.array_equal(getattr(refold, name), getattr(fresh, name)), name
        assert np.array_equal(refold.positions(w), fresh.positions(w))
        assert np.array_equal(refold.velocities(w), fresh.velocities(w))
        # the fold it came from keeps its own state
        assert np.array_equal(fold.pos_offset,
                              TrajectoryGenerator(first, times, reference_bank).pos_offset)

    def test_other_boundary_time_rejected(self, reference_bank):
        fold = folded_basis(BoundaryCondition(0.0, [0.0], [0.0]), [0.5], reference_bank)
        with pytest.raises(ValidationError, match="boundary time"):
            fold.with_state(BoundaryCondition(0.1, [0.0], [0.0]))
