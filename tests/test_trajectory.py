import numpy as np
import pytest

from mptraj import (BasisBank, BoundaryCondition, DimensionError, TrajectoryGenerator,
                    ValidationError, evaluate_position, evaluate_velocity)
from mptraj.trajectory import (MAX_QUERY_SAMPLES, folded_basis, read_trajectory_csv,
                               weight_blocks, window_steps, write_trajectory_csv)
from tests.reference import (complementary, position_from_coefficients,
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

    def test_one_lookup_per_row_kind(self, reference_bank, monkeypatch):
        calls = []
        for name in ("pos_rows", "vel_rows"):
            def counted(bank, t, _name=name, _rows=getattr(BasisBank, name)):
                calls.append(_name)
                return _rows(bank, t)
            monkeypatch.setattr(BasisBank, name, counted)
        bc = BoundaryCondition(0.5, np.zeros(2), np.zeros(2))
        folded_basis(bc, np.linspace(0.5, 2.5, 9), reference_bank)
        assert sorted(calls) == ["pos_rows", "vel_rows"]

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

    def test_misaligned_rejected(self, tmp_path):
        with pytest.raises(DimensionError):
            write_trajectory_csv(str(tmp_path / "x.csv"), np.zeros(3),
                                 np.zeros((1, 4)), None)
