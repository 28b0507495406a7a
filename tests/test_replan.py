import numpy as np
import pytest

import mptraj.replan
from mptraj import (BasisBank, BoundaryCondition, IntegratorSpec, NumericalError,
                    ReplanSegment, TimePairBatch, TrajectoryGenerator, ValidationError,
                    WeightsDistribution, evaluate_position, pair_nll, per_time_marginals,
                    replan_segment, run_chain, smoothness_metric)
from mptraj.errors import DimensionError
from mptraj.trajectory import MAX_QUERY_SAMPLES
from tests.conftest import counted_lookups, random_weights_distribution
from tests.reference import stale_chain


def _setup(bank, dofs=2, seed=7):
    rng = np.random.default_rng(seed)
    wdists = [random_weights_distribution(dofs, bank.weight_dim, rng)
              for _ in range(3)]
    initial = BoundaryCondition(0.0, rng.standard_normal(dofs),
                                rng.standard_normal(dofs))
    return wdists, initial


class TestReplanSegment:
    def test_starts_exactly_at_state(self, small_bank):
        wdists, initial = _setup(small_bank)
        current = BoundaryCondition(1.5, initial.y_b, initial.dy_b)
        seg = replan_segment(current, wdists[0], 0.5, small_bank, rate=50.0)
        assert np.array_equal(seg.positions[:, 0], current.y_b)
        assert np.array_equal(seg.velocities[:, 0], current.dy_b)

    def test_times_and_index_set_are_global(self, small_bank):
        wdists, initial = _setup(small_bank)
        current = BoundaryCondition(4.0, initial.y_b, initial.dy_b)
        seg = replan_segment(current, wdists[0], 0.5, small_bank, rate=10.0)
        np.testing.assert_allclose(seg.times, 4.0 + np.arange(6) / 10.0)
        assert seg.distribution.index_set[0] == (4.0, 0)
        assert seg.distribution.index_set[-1] == (4.5, 1)

    def test_positions_are_a_read_only_view_of_the_mean(self, small_bank):
        wdists, initial = _setup(small_bank)
        current = BoundaryCondition(0.2, initial.y_b, initial.dy_b)
        seg = replan_segment(current, wdists[0], 0.5, small_bank, rate=20.0)
        # the segment's bank times: anchored at 0, sampled at 20 Hz
        local_times = np.arange(11) / 20.0
        fold = TrajectoryGenerator(BoundaryCondition(0.0, initial.y_b, initial.dy_b),
                                   local_times, small_bank)
        assert np.array_equal(seg.positions, fold.positions(wdists[0].mean))
        assert np.shares_memory(seg.positions, seg.distribution.mean)
        assert not seg.positions.flags.writeable

    def test_trace_must_match_times_and_distribution(self, small_bank):
        wdists, initial = _setup(small_bank)
        seg = replan_segment(initial, wdists[0], 0.5, small_bank, rate=10.0)
        with pytest.raises(DimensionError, match="do not align"):
            ReplanSegment(seg.times[:-1], seg.velocities, seg.distribution)
        with pytest.raises(DimensionError, match="do not align"):
            ReplanSegment(seg.times, np.vstack([seg.velocities] * 2), seg.distribution)

    def test_overflowing_distribution_is_numerical_error(self, small_bank):
        # once a ValidationError from the distribution record
        wdist = WeightsDistribution(np.zeros(small_bank.weight_dim),
                                    1e200 * np.eye(small_bank.weight_dim))
        rest = BoundaryCondition(0.5, [0.0], [0.0])
        with pytest.raises(NumericalError, match="overflows"):
            replan_segment(rest, wdist, 0.2, small_bank, 10.0)

    def test_horizon_must_fit_bank(self, small_bank):
        wdists, initial = _setup(small_bank)
        with pytest.raises(ValidationError, match="exceeds the bank horizon"):
            replan_segment(initial, wdists[0], 1.5, small_bank, rate=10.0)
        with pytest.raises(ValidationError, match="exceeds the bank horizon"):
            replan_segment(initial, wdists[0], 0.5, small_bank, rate=10.0,
                           bank_anchor=0.8)

    def test_horizon_must_match_rate(self, small_bank):
        wdists, initial = _setup(small_bank)
        with pytest.raises(ValidationError, match="multiple of the sample period"):
            replan_segment(initial, wdists[0], 0.55, small_bank, rate=3.0)

    @pytest.mark.parametrize("horizon, rate", [(np.inf, 10.0), (0.5, np.inf),
                                               (np.nan, 10.0), (0.5, np.nan)])
    def test_horizon_and_rate_must_be_finite(self, small_bank, horizon, rate):
        wdists, initial = _setup(small_bank)
        with pytest.raises(ValidationError, match="must be finite"):
            replan_segment(initial, wdists[0], horizon, small_bank, rate=rate)


    # 1e300 Hz rounds past the bound, 1e300 s at 1e300 Hz overflows to inf,
    # and 0.5 s at 2e6 Hz is one sample more than the bound
    @pytest.mark.parametrize("horizon, rate", [(0.5, 1e300), (1e300, 1e300),
                                               (0.5, 2.0 * MAX_QUERY_SAMPLES)])
    def test_sample_count_is_bounded(self, small_bank, horizon, rate):
        wdists, initial = _setup(small_bank)
        with pytest.raises(ValidationError, match="samples"):
            replan_segment(initial, wdists[0], horizon, small_bank, rate=rate)
        with pytest.raises(ValidationError, match="samples"):
            run_chain(initial, [(wdists[0], horizon)], small_bank, rate=rate)


class TestRunChain:
    def test_mean_mode_joins_without_jumps(self, small_bank):
        wdists, initial = _setup(small_bank)
        plan = run_chain(initial, [(w, 0.25) for w in wdists], small_bank,
                         rate=100.0)
        assert plan.pos_jumps.shape == (2,)
        assert np.all(plan.pos_jumps == 0.0)
        assert np.all(plan.vel_jumps == 0.0)

    def test_sample_mode_joins_without_jumps(self, small_bank):
        wdists, initial = _setup(small_bank)
        plan = run_chain(initial, [(w, 0.25) for w in wdists], small_bank,
                         rate=100.0, mode="sample", seed=3)
        assert np.all(plan.pos_jumps == 0.0)
        assert np.all(plan.vel_jumps == 0.0)

    def test_stale_boundary_control_jumps(self, small_bank):
        # negative control: reusing the initial state as every segment's
        # boundary reproduces the discontinuities replanning is meant to fix
        wdists, initial = _setup(small_bank)
        jumps = stale_chain(initial, [(w, 0.25) for w in wdists], small_bank,
                            rate=100.0)
        assert jumps.shape == (2,)
        assert jumps.max() > 1e-3

    def test_follow_anchor_continues_one_trajectory(self, small_bank):
        # unchanged weights, boundary refreshed at every switch: with the
        # phase anchored at global time the chain retraces the single
        # unsegmented rollout
        wdists, initial = _setup(small_bank, dofs=1)
        segments = [(wdists[0], 0.25), (wdists[0], 0.25), (wdists[0], 0.5)]
        plan = run_chain(initial, segments, small_bank, rate=100.0,
                         anchor="follow")
        single = evaluate_position(wdists[0].mean, initial, plan.times,
                                   small_bank)
        amp = np.ptp(single)
        assert np.max(np.abs(plan.positions - single)) < 1e-12 * amp

    def test_local_anchor_restarts_phase(self, small_bank):
        # with the bank re-anchored at 0 each segment, the forcing pattern
        # restarts, so the chain deviates from the unsegmented rollout
        wdists, initial = _setup(small_bank, dofs=1)
        segments = [(wdists[0], 0.25), (wdists[0], 0.25), (wdists[0], 0.5)]
        plan = run_chain(initial, segments, small_bank, rate=100.0,
                         anchor="local")
        single = evaluate_position(wdists[0].mean, initial, plan.times,
                                   small_bank)
        amp = np.ptp(single)
        assert np.max(np.abs(plan.positions - single)) > 1e-4 * amp
        assert np.all(plan.pos_jumps == 0.0)

    def test_segment_must_be_a_distribution_horizon_pair(self, small_bank):
        # each once ended in a bare ValueError or a TypeError from ndarray.mean
        wdists, initial = _setup(small_bank)
        for segments, k in [([(wdists[0],)], 0), ([(wdists[0].mean, 0.5)], 0),
                            ([wdists[0]], 0), ([(wdists[0], 0.25), (wdists[1], 0.25, 1)], 1)]:
            with pytest.raises(ValidationError, match=rf"^chain segment {k} must be a "
                               r"\(WeightsDistribution, horizon\) pair$"):
                run_chain(initial, segments, small_bank, rate=100.0)

    def test_grid_is_uniform_and_labeled(self, small_bank):
        wdists, initial = _setup(small_bank)
        plan = run_chain(initial, [(w, 0.25) for w in wdists], small_bank,
                         rate=40.0)
        np.testing.assert_allclose(np.diff(plan.times), 1.0 / 40.0,
                                   rtol=0, atol=1e-12)
        assert plan.times.shape[0] == 31
        assert plan.segment_ids[0] == 0
        assert plan.segment_ids[-1] == 2
        assert plan.switch_times == (0.0, 0.25, 0.5)
        counts = np.bincount(plan.segment_ids)
        assert counts.tolist() == [11, 10, 10]

    @pytest.mark.parametrize("anchor", ["local", "follow"])
    def test_trace_equals_replan_segment(self, small_bank, anchor):
        # every segment of the chain is the mean trace replan_segment plans
        # from the same executed state, bit for bit
        wdists, initial = _setup(small_bank)
        horizons = (0.25, 0.25, 0.5)
        plan = run_chain(initial, list(zip(wdists, horizons)), small_bank,
                         rate=40.0, anchor=anchor)
        for k, (wdist, horizon) in enumerate(zip(wdists, horizons)):
            rows = np.flatnonzero(plan.segment_ids == k)
            start = rows[0] - 1 if k > 0 else 0
            t_b = plan.switch_times[k]
            state = BoundaryCondition(t_b, plan.positions[:, start],
                                      plan.velocities[:, start])
            seg = replan_segment(state, wdist, horizon, small_bank, rate=40.0,
                                 bank_anchor=0.0 if anchor == "local" else t_b)
            drop = 1 if k > 0 else 0
            assert np.array_equal(seg.times[drop:], plan.times[rows])
            assert np.array_equal(seg.positions[:, drop:], plan.positions[:, rows])
            assert np.array_equal(seg.velocities[:, drop:], plan.velocities[:, rows])

    @pytest.mark.parametrize("mode", ["mean", "sample"])
    @pytest.mark.parametrize("anchor", ["local", "follow"])
    def test_local_chain_folds_once_per_horizon(self, small_bank, monkeypatch,
                                                anchor, mode):
        # local segments read the bank's kept fold, so a run of one horizon
        # folds once and each change of horizon folds again: 4 folds here;
        # follow segments fold anew.  The plan equals that of a fresh fold per
        # segment, bit for bit
        bank = BasisBank(small_bank.config, small_bank.table)
        wdists, initial = _setup(bank, dofs=7)
        horizons = (0.1, 0.1, 0.2, 0.1, 0.2)
        segments = [(wdists[k % 3], h) for k, h in enumerate(horizons)]
        lookups = counted_lookups(monkeypatch)
        plan = run_chain(initial, segments, bank, rate=40.0, anchor=anchor,
                         mode=mode, seed=3)
        assert len(lookups) == (4 if anchor == "local" else 5)
        monkeypatch.setattr(mptraj.replan, "folded_basis", TrajectoryGenerator)
        fresh = run_chain(initial, segments, bank, rate=40.0, anchor=anchor,
                          mode=mode, seed=3)
        assert len(lookups) == (4 if anchor == "local" else 5) + 5
        for name in ("times", "positions", "velocities", "segment_ids",
                     "pos_jumps", "vel_jumps"):
            assert np.array_equal(getattr(plan, name), getattr(fresh, name)), name

    @pytest.mark.parametrize("anchor, folds", [("local", 1), ("follow", 5)])
    def test_chain_of_one_horizon_folds(self, small_bank, monkeypatch, anchor, folds):
        # a local chain folds its one grid once, and a second call reads the
        # kept fold and folds nothing; a follow chain folds every segment
        bank = BasisBank(small_bank.config, small_bank.table)
        wdists, initial = _setup(bank)
        segments = [(wdists[k % 3], 0.2) for k in range(5)]
        lookups = counted_lookups(monkeypatch)
        first = run_chain(initial, segments, bank, rate=40.0, anchor=anchor)
        assert len(lookups) == folds
        second = run_chain(initial, segments, bank, rate=40.0, anchor=anchor)
        assert len(lookups) == (1 if anchor == "local" else 10)
        assert np.array_equal(first.positions, second.positions)
        assert np.array_equal(first.velocities, second.velocities)

    def test_one_segment_chain_is_replan_segment_mean(self, small_bank):
        # no interior switch: nothing dropped, no jump measured
        wdists, initial = _setup(small_bank)
        start = BoundaryCondition(0.3, initial.y_b, initial.dy_b)
        plan = run_chain(start, [(wdists[0], 0.5)], small_bank, rate=40.0)
        seg = replan_segment(start, wdists[0], 0.5, small_bank, rate=40.0)
        assert np.all(plan.segment_ids == 0)
        assert plan.pos_jumps.shape == plan.vel_jumps.shape == (0,)
        assert plan.switch_times == (start.t_b,)
        assert np.array_equal(plan.times, seg.times)
        assert np.array_equal(plan.positions, seg.positions)
        assert np.array_equal(plan.velocities, seg.velocities)

    def test_sample_mode_is_seeded(self, small_bank):
        wdists, initial = _setup(small_bank)
        segments = [(w, 0.25) for w in wdists]
        a = run_chain(initial, segments, small_bank, rate=40.0, mode="sample",
                      seed=11)
        b = run_chain(initial, segments, small_bank, rate=40.0, mode="sample",
                      seed=11)
        c = run_chain(initial, segments, small_bank, rate=40.0, mode="sample",
                      seed=12)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)

    # -1 ended in numpy's ValueError, 1.5 in a TypeError
    @pytest.mark.parametrize("seed, message", [(-1, "seed must be >= 0"),
                                               (1.5, "seed must be an integer"),
                                               (False, "seed must be an integer")],
                             ids=repr)
    def test_bad_seed_rejected(self, small_bank, seed, message):
        wdists, initial = _setup(small_bank)
        with pytest.raises(ValidationError, match=message):
            run_chain(initial, [(wdists[0], 0.5)], small_bank, rate=10.0,
                      mode="sample", seed=seed)

    def test_argument_validation(self, small_bank):
        wdists, initial = _setup(small_bank)
        with pytest.raises(ValidationError, match="at least one segment"):
            run_chain(initial, [], small_bank, rate=10.0)
        with pytest.raises(ValidationError, match="anchor"):
            run_chain(initial, [(wdists[0], 0.5)], small_bank, rate=10.0,
                      anchor="global")
        with pytest.raises(ValidationError, match="mode"):
            run_chain(initial, [(wdists[0], 0.5)], small_bank, rate=10.0,
                      mode="median")


class TestSmoothness:
    def test_quadratic_trace_gives_squared_acceleration(self):
        dt = 0.05
        times = dt * np.arange(30)
        accel = 3.5
        positions = 0.5 * accel * times ** 2
        assert smoothness_metric(positions, dt) == pytest.approx(accel ** 2,
                                                                 rel=1e-10)

    def test_straight_line_is_perfectly_smooth(self):
        # integer-valued samples keep the second differences exactly zero
        positions = np.arange(20.0)
        assert smoothness_metric(positions, 0.1) == 0.0

    def test_jump_dominates_metric(self):
        dt = 0.01
        smooth = np.linspace(0.0, 1.0, 100)
        jumpy = smooth.copy()
        jumpy[50:] += 0.5
        assert smoothness_metric(jumpy, dt) > 1e3 * max(
            smoothness_metric(smooth, dt), 1.0)

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least 3"):
            smoothness_metric(np.zeros(2), 0.1)
        with pytest.raises(ValidationError):
            smoothness_metric(np.zeros(5), 0.0)
        # a (2, 3, 4) stack once returned 1.02e7
        with pytest.raises(DimensionError, match=r"^positions has shape \(2, 3, 4\): "
                           r"3 axes, more than 2$"):
            smoothness_metric(np.arange(24.0).reshape(2, 3, 4) ** 2, 0.1)

    # each once returned nan or inf
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_non_finite_positions_rejected(self, bad):
        positions = np.zeros((2, 5))
        positions[1, 2] = bad
        with pytest.raises(ValidationError, match=r"^positions must be finite$"):
            smoothness_metric(positions, 0.1)

    # dt**2 underflows to 0 (a division by zero, then 0/0), the squares
    # overflow or the second difference itself does: each once returned inf
    # or nan with a RuntimeWarning, the last, with warnings ignored, inf
    @pytest.mark.parametrize("positions, dt", [([0.0, 1.0, 0.0], 1e-200),
                                               ([0.0, 0.0, 0.0], 1e-200),
                                               ([0.0, 1e300, 0.0], 1e-3),
                                               ([[0.0, 1e308, -1e308]], 1.0)], ids=repr)
    def test_non_finite_result_is_numerical_error(self, positions, dt):
        with pytest.raises(NumericalError, match="floating-point .*smoothness metric"):
            smoothness_metric(positions, dt)


# each once ran with True taken as 1.0, or, for run_chain, failed on the
# sample period 1/True
BOOL_CASES = {
    "run_chain rate": lambda bank, wdist, bc, flag: run_chain(
        bc, [(wdist, 0.5)], bank, rate=flag),
    "replan_segment horizon": lambda bank, wdist, bc, flag: replan_segment(
        bc, wdist, flag, bank, 10.0),
    "pair_nll noise_var": lambda bank, wdist, bc, flag: pair_nll(
        TimePairBatch(np.array([[0.2, 0.6]]), np.zeros((1, 2 * bc.dofs))), wdist, bc, bank,
        noise_var=flag),
    "per_time_marginals noise_var": lambda bank, wdist, bc, flag: per_time_marginals(
        wdist, bc, [0.2, 0.6], bank, noise_var=flag),
    "smoothness_metric dt": lambda bank, wdist, bc, flag: smoothness_metric(np.zeros(5), flag),
    "IntegratorSpec dt": lambda bank, wdist, bc, flag: IntegratorSpec("rk4", flag),
}


@pytest.mark.parametrize("case", BOOL_CASES)
@pytest.mark.parametrize("flag", [True, np.True_], ids=repr)
def test_bool_is_not_a_number(small_bank, case, flag):
    wdists, initial = _setup(small_bank)
    with pytest.raises(ValidationError, match="must be finite and"):
        BOOL_CASES[case](small_bank, wdists[0], initial, flag)
