import tracemalloc

import numpy as np
import pytest

from mptraj import (BasisBank, BoundaryCondition, DimensionError, DmpConfig, TimePairBatch,
                    TrajectoryGenerator, ValidationError, WeightsDistribution,
                    evaluate_position, evaluate_velocity, pair_nll, precompute_basis,
                    run_chain)
from mptraj.trajectory import (MAX_QUERY_SAMPLES, folded_basis, read_trajectory_csv,
                               weight_blocks, window_steps, write_trajectory_csv)
from tests import reference
from tests.conftest import counted_lookups
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
        return folded_basis(bc, [t], bank).offsets[0, 0, 0]
    return offset(1.0, 0.0), offset(0.0, 1.0)


def _reference_views(fold) -> dict:
    """The fold's rows as (T, N+1) views and its (D, T) offsets, under the
    names the row-major reference fold stores them by."""
    return {"h_pos": fold.rows[0].T, "h_vel": fold.rows[1].T,
            "pos_offset": fold.offsets[0], "vel_offset": fold.offsets[1]}


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, small_bank, bad):
        # each query once returned NaN positions or velocities with no error
        bc = BoundaryCondition(0.0, [0.0], [0.0])
        gen = TrajectoryGenerator(bc, [0.1, 0.2], small_bank)
        w = np.zeros(small_bank.weight_dim)
        w[-1] = bad
        for query in (gen.positions, gen.velocities,
                      lambda v: evaluate_position(v, bc, [0.1], small_bank),
                      lambda v: evaluate_velocity(v, bc, [0.1], small_bank)):
            for weights in (w, np.stack([np.zeros_like(w), w])):
                with pytest.raises(ValidationError, match="^w_g must be finite$"):
                    query(weights)

    def test_times_outside_bank_rejected(self, reference_bank):
        bc = BoundaryCondition(0.0, np.zeros(1), np.zeros(1))
        with pytest.raises(ValidationError):
            evaluate_position(np.zeros(26), bc, np.array([3.5]), reference_bank)


class TestFoldedBasis:
    def test_h_rows_vanish_at_boundary(self, reference_bank):
        bc = BoundaryCondition(1.25, np.array([0.3]), np.array([0.1]))
        fold = folded_basis(bc, np.array([1.25, 2.0]), reference_bank)
        assert np.all(fold.rows[0][:, 0] == 0.0)
        assert np.all(fold.rows[1][:, 0] == 0.0)

    def test_offsets_equal_boundary_state_at_boundary(self, reference_bank):
        rng = np.random.default_rng(4)
        bc = BoundaryCondition(0.75, rng.standard_normal(3), rng.standard_normal(3))
        fold = folded_basis(bc, np.array([0.5, 0.75, 2.0]), reference_bank)
        assert fold.offsets.shape == (2, 3, 3)
        assert np.array_equal(fold.offsets[0][:, 1], bc.y_b)
        assert np.array_equal(fold.offsets[1][:, 1], bc.dy_b)

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
        # a new bank keeps no fold that this call could share
        folded_basis(bc, np.linspace(0.5, 2.5, 9),
                     BasisBank(reference_bank.config, reference_bank.table))
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

    # rows under the header t,dof0_pos,dof0_vel; numpy's reader refuses rows of
    # unequal width and skips a blank one, and float()'s route counts cells
    @pytest.mark.parametrize("rows", [
        "0,1,2\n\n1,2,3", "0,1,2\n   \n1,2,3", "0,1,2\n\t\n1,2,3", "0,1,2\n1,2",
        "0,1,2\n1,2,3,4", "0,1\n1,2,3,4", "0,1,2,3\n1,2,3,4", "0,1\n1,2", "0,1,2,\n1,2,3,",
        "0\n1"], ids=["blank-line", "space-line", "tab-line", "short-row", "long-row",
                      "short-and-long", "all-too-wide", "all-too-narrow", "trailing-comma",
                      "one-column"])
    @pytest.mark.parametrize("cell", ["0", "0_0"], ids=["numpy-reader", "float-route"])
    def test_row_width_defects_read_as_float_referee(self, tmp_path, rows, cell):
        # 0_0, which only float() reads, sends the file down float()'s route
        path = tmp_path / "rows.csv"
        path.write_text(f"t,dof0_pos,dof0_vel\n{cell}{rows[1:]}\n")
        with pytest.raises(ValidationError) as expected:
            reference.read_trajectory_csv(str(path))
        assert str(expected.value) == f"trajectory rows in {path} must each have 3 values"
        with pytest.raises(ValidationError) as raised:
            read_trajectory_csv(str(path))
        assert str(raised.value) == str(expected.value)

    def test_rows_short_and_long_by_the_same_count(self, tmp_path):
        # 3 and 5 cells under a 4-column header hold 8 cells, as 2 rows of 4 do
        path = tmp_path / "bad.csv"
        path.write_text("t,dof0_pos,dof0_vel,dof1_pos\n0,1,2\n1,2,3,4,5\n")
        with pytest.raises(ValidationError, match="must each have 4 values"):
            read_trajectory_csv(str(path))

    # spellings that a parser other than float() might read differently; numpy's
    # C reader strips the unit separator \x1f around a cell as space
    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "Infinity", "-inf", " 1.5",
                                      "1_0", "+1", "0x10", "\u0661", "", "1e400", "1e",
                                      "\uff11.\uff15", "1__0", "# 1", '"1"', "1 2",
                                      "1\x1f", "\x1f1"])
    def test_cells_parse_as_float_does(self, tmp_path, cell):
        path = tmp_path / "cell.csv"
        # a row after the cell's: the file's text is stripped before it is read
        path.write_text(f"t,dof0_pos\n0.0,{cell}\n1.0,0.0\n", encoding="utf-8")
        try:
            expected = float(cell)
        except ValueError as exc:
            with pytest.raises(ValidationError) as raised:
                read_trajectory_csv(str(path))
            assert str(raised.value) == f"malformed trajectory row in {path}: {exc}"
            return
        _, positions, _ = read_trajectory_csv(str(path))
        assert positions[0, 0] == expected or (np.isnan(expected)
                                               and np.isnan(positions[0, 0]))

    @pytest.mark.parametrize("header, message", [
        # digits of other scripts, which \d matches and int() reads
        ("t,dof\u0661_pos,dof0_pos", "unrecognized trajectory column 'dof\u0661_pos'"),
        ("t,dof\uff10_pos", "unrecognized trajectory column 'dof\uff10_pos'"),
        ("t,dof0_pos,segment_id,segment_id", "column 'segment_id' repeats"),
    ])
    def test_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "head.csv"
        path.write_text(f"{header}\n" + ",".join(["0"] * header.count(",")) + ",0\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError) as raised:
            read_trajectory_csv(str(path))
        assert str(raised.value) == f"{message} in {path}"

    def test_mutated_cells_read_as_float_referee(self, tmp_path):
        """Files of write_trajectory_csv with random cells changed read back
        bit for bit as the float()-per-cell reader reads them, or end in the
        same error text."""
        rng = np.random.default_rng(17)
        # whole cells, and characters put into or in place of one: digits of
        # other scripts, the space and separator characters the two parsers
        # treat apart, and what decimal text is made of
        cells = ["1_0", "1__0", "\u0661", "\uff11.\uff15", "# 1", '"1"', "1 2", "",
                 "nan", "-inf", "1e400", "0x10", " 1.5 ", "\u20001"]
        chars = list("0123456789.eE+-_ #\"'x") + ["\x1f", "\xa0", "\u2000", "\u3000",
                                                  "\u0661", "\uff11", "\x00", "\t"]
        outcomes = set()
        for case in range(300):
            times = np.linspace(0.0, 1.0, 9)
            pos, vel = rng.standard_normal((2, 2, 9)) * 10.0 ** rng.integers(-6, 6, (2, 2, 9))
            path = tmp_path / f"m{case}.csv"
            write_trajectory_csv(str(path), times, pos, vel if case % 2 else None)
            lines = path.read_text().splitlines()
            grid = [line.split(",") for line in lines[1:]]
            for _ in range(rng.integers(1, 4)):
                row = grid[rng.integers(len(grid))]
                col = rng.integers(len(row))
                text = row[col]
                # at either end of the cell, where the parsers strip space, or inside
                where = rng.choice([0, len(text), rng.integers(len(text) + 1)])
                kind = rng.integers(3)
                if kind == 0:
                    row[col] = str(rng.choice(cells))
                elif kind == 1:
                    row[col] = text[:where] + str(rng.choice(chars)) + text[where:]
                else:
                    row[col] = text[:where] + str(rng.choice(chars)) + text[where + 1:]
            path.write_text("\n".join([lines[0]] + [",".join(r) for r in grid]) + "\n",
                            encoding="utf-8")
            try:
                expected = reference.read_trajectory_csv(str(path))
            except ValidationError as exc:
                with pytest.raises(ValidationError) as raised:
                    read_trajectory_csv(str(path))
                assert str(raised.value) == str(exc)
                outcomes.add("error")
                continue
            got = read_trajectory_csv(str(path))
            for new, old in zip(got, expected):
                assert (new is None) == (old is None)
                if old is not None:
                    assert new.shape == old.shape
                    assert np.array_equal(new.view(np.int64), old.view(np.int64))
            outcomes.add("read")
        assert outcomes == {"error", "read"}

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
        for name, view in _reference_views(fold).items():
            assert np.array_equal(view, getattr(ref, name)), name
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
        for name, view in _reference_views(fold).items():
            assert np.array_equal(view, getattr(ref, name)), name
        for w in (stack, stack[0, 0]):
            for ours, theirs, state in ((fold.positions(w), ref.positions(w), bc.y_b),
                                        (fold.velocities(w), ref.velocities(w), bc.dy_b)):
                assert np.array_equal(ours[..., 0], np.broadcast_to(state, ours[..., 0].shape))
                scale = np.max(np.abs(theirs), axis=-1, keepdims=True)
                assert np.all(np.abs(ours - theirs) <= 1e-14 * scale)

    @pytest.mark.parametrize("count", [201, 1001, 3001])
    @pytest.mark.parametrize("dofs", [1, 3, 7])
    def test_drift_from_row_major_fold_at_n25(self, reference_bank, dofs, count):
        # with N = 25 and a few hundred times or more, the contiguous (N+1, T)
        # product and the row-major fold's transposed one take different BLAS
        # paths, so they agree only to the last bits (measured: <= 2.0e-16 of
        # the largest value for positions and <= 1.3e-16 for velocities)
        rng = np.random.default_rng(100 * dofs + count)
        grid = reference_bank.times
        t_b = grid[700] + (grid[701] - grid[700]) / 3.0
        bc, _ = _random_case(rng, dofs, reference_bank.weight_dim, t_b=t_b)
        times = np.linspace(t_b, reference_bank.duration, count)
        stack = rng.standard_normal((16, dofs * reference_bank.weight_dim)) * 5.0
        fold = TrajectoryGenerator(bc, times, reference_bank)
        ref = RowMajorFold(bc, times, reference_bank)
        for w in (stack, stack[0]):
            for ours, theirs, state in ((fold.positions(w), ref.positions(w), bc.y_b),
                                        (fold.velocities(w), ref.velocities(w), bc.dy_b)):
                assert np.array_equal(ours[..., 0], np.broadcast_to(state, ours[..., 0].shape))
                assert np.max(np.abs(ours - theirs)) <= 1e-15 * np.max(np.abs(theirs))

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

    def test_state_offsets_equal_a_fold_of_each_state(self, reference_bank):
        rng = np.random.default_rng(23)
        times = np.linspace(0.5, 2.0, 41)
        states = [_random_case(rng, 3, reference_bank.weight_dim, t_b=0.5)[0]
                  for _ in range(4)]
        fold = TrajectoryGenerator(states[0], times, reference_bank)
        y_b, dy_b = (np.concatenate([getattr(bc, name) for bc in states])
                     for name in ("y_b", "dy_b"))
        folds = [TrajectoryGenerator(bc, times, reference_bank) for bc in states]
        # both kinds, and the position kind alone, bit for bit
        assert np.array_equal(fold.state_offsets(y_b, dy_b),
                              np.concatenate([f.offsets for f in folds], axis=1))
        assert np.array_equal(fold.state_offsets(y_b, dy_b, kind=0),
                              np.concatenate([f.offsets[0] for f in folds]))

    def test_rows_are_one_contiguous_time_major_array(self, reference_bank):
        bc, times, _ = self._case(reference_bank, 3, False, seed=5)
        fold = TrajectoryGenerator(bc, times, reference_bank)
        assert fold.rows.shape == (2, reference_bank.weight_dim, times.size)
        assert fold.rows.flags.c_contiguous
        assert fold.offsets.shape == (2, 3, times.size)
        assert fold.offsets.flags.c_contiguous


class TestGridFoldMemo:
    """folded_basis keeps the last fold a bank made through it, keyed by the
    bits of t_b and of the times, and refolds only the offsets on a hit."""

    @staticmethod
    def _case(bank, seed=31, t_b=0.5):
        # a new bank, so that no fold kept by another test is shared
        rng = np.random.default_rng(seed)
        bcs = [_random_case(rng, 3, bank.weight_dim, t_b=t_b)[0] for _ in range(2)]
        w = rng.standard_normal((4, 3 * bank.weight_dim)) * 5.0
        return BasisBank(bank.config, bank.table), bcs, np.linspace(t_b, 2.5, 57), w

    @staticmethod
    def _assert_fresh(fold, bc, times, bank, w):
        fresh = TrajectoryGenerator(bc, times, bank)
        assert fold.bc is bc
        for name in ("times", "rows", "offsets"):
            assert np.array_equal(getattr(fold, name), getattr(fresh, name)), name
        assert np.array_equal(fold.positions(w), fresh.positions(w))
        assert np.array_equal(fold.velocities(w), fresh.velocities(w))

    def test_hit_shares_the_rows_bit_for_bit(self, reference_bank, monkeypatch):
        bank, (first, second), times, w = self._case(reference_bank)
        lookups = counted_lookups(monkeypatch)
        kept = folded_basis(first, times, bank)
        # the same times in another array, at another state of the same t_b
        hit = folded_basis(second, times.copy(), bank)
        assert lookups == [times.size + 1]
        assert hit.rows is kept.rows and hit.times is kept.times
        self._assert_fresh(hit, second, times, bank, w)
        self._assert_fresh(folded_basis(first, list(times), bank), first, times, bank, w)

    def test_hit_leaves_the_kept_fold_its_state(self, reference_bank):
        # a hit is a copy holding new offsets: the fold it came from, and the
        # next hit at the kept state, keep that state's offsets
        bank, (first, second), times, w = self._case(reference_bank)
        kept = folded_basis(first, times, bank)
        offsets = kept.offsets.copy()
        hit = folded_basis(second, times, bank)
        assert hit is not kept and hit.offsets is not kept.offsets
        assert kept.bc is first
        assert np.array_equal(kept.offsets, offsets)
        self._assert_fresh(kept, first, times, bank, w)
        self._assert_fresh(folded_basis(first, times, bank), first, times, bank, w)

    def test_one_ulp_and_a_signed_zero_miss(self, reference_bank):
        bank, (bc, _), times, w = self._case(reference_bank, t_b=0.0)
        kept = folded_basis(bc, times, bank)
        moved = times.copy()
        moved[7] = np.nextafter(moved[7], np.inf)
        negative = BoundaryCondition(-0.0, bc.y_b, bc.dy_b)
        later = BoundaryCondition(np.nextafter(0.0, 1.0), bc.y_b, bc.dy_b)
        for other_bc, other_times in ((bc, moved), (negative, times), (later, times)):
            fold = folded_basis(other_bc, other_times, bank)
            assert fold.rows is not kept.rows
            self._assert_fresh(fold, other_bc, other_times, bank, w)
        # one entry: the last miss replaced the first fold, which now misses
        assert folded_basis(bc, times, bank).rows is not kept.rows

    def test_caller_times_changed_after_a_call(self, reference_bank):
        bank, (first, second), times, w = self._case(reference_bank)
        given = times.copy()
        kept = folded_basis(first, given, bank)
        given[3] += 0.125
        # the kept fold is of the times as they were when it was made: the
        # same times share it, the changed array does not
        hit = folded_basis(second, times, bank)
        assert hit.rows is kept.rows
        self._assert_fresh(hit, second, times, bank, w)
        miss = folded_basis(second, given, bank)
        assert miss.rows is not kept.rows
        self._assert_fresh(miss, second, given, bank, w)

    def test_kept_rows_and_times_are_read_only(self, reference_bank):
        bank, (first, second), times, _ = self._case(reference_bank)
        for fold in (folded_basis(first, times, bank), folded_basis(second, times, bank)):
            for arr in (fold.rows, fold.times):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[..., 0] = 1.0

    def test_other_folds_leave_the_kept_fold(self, reference_bank, monkeypatch):
        bank, (first, second), times, w = self._case(reference_bank)
        kept = folded_basis(first, times, bank)
        TrajectoryGenerator(second, times[1:], bank)
        evaluate_position(w[0], second, times[:9], bank)
        evaluate_velocity(w[0], second, times[:9], bank)
        dim = 3 * bank.weight_dim
        wdist = WeightsDistribution(np.zeros(dim), np.eye(dim))
        batch = TimePairBatch(np.stack([times[1:5], times[5:9]], axis=1), np.zeros((4, 6)))
        pair_nll(batch, wdist, second, bank)
        run_chain(first, [(wdist, 0.2)] * 3, bank, rate=40.0, anchor="follow")
        lookups = counted_lookups(monkeypatch)
        assert folded_basis(second, times, bank).rows is kept.rows
        assert lookups == []

    def test_local_chain_takes_the_kept_fold(self, reference_bank, monkeypatch):
        # a local segment reads its grid through folded_basis, which keeps it
        bank, (first, _), times, _ = self._case(reference_bank)
        kept = folded_basis(first, times, bank)
        dim = 3 * bank.weight_dim
        run_chain(first, [(WeightsDistribution(np.zeros(dim), np.eye(dim)), 0.2)] * 3,
                  bank, rate=40.0)
        lookups = counted_lookups(monkeypatch)
        assert folded_basis(first, times, bank).rows is not kept.rows
        assert lookups == [times.size + 1]
