import numpy as np
import pytest

from mptraj import (BasisBank, BoundaryCondition, TrajectoryGenerator, ValidationError,
                    evaluate_position, replan_segment, run_chain, smoothness_metric)
from mptraj.trajectory import MAX_QUERY_SAMPLES
from tests.conftest import random_weights_distribution
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
        # equal-horizon local segments share one fold and refold only their
        # offsets; the plan equals that of a fresh fold per segment, bit for bit
        wdists, initial = _setup(small_bank, dofs=7)
        horizons = (0.1, 0.1, 0.2, 0.1, 0.2)
        segments = [(wdists[k % 3], h) for k, h in enumerate(horizons)]
        lookups = []
        lookup = BasisBank.lookup
        monkeypatch.setattr(BasisBank, "lookup",
                            lambda bank, t: lookups.append(len(t)) or lookup(bank, t))
        plan = run_chain(initial, segments, small_bank, rate=40.0, anchor=anchor,
                         mode=mode, seed=3)
        assert len(lookups) == (2 if anchor == "local" else 5)
        monkeypatch.setattr(TrajectoryGenerator, "with_state",
                            lambda fold, bc: TrajectoryGenerator(bc, fold.times, small_bank))
        fresh = run_chain(initial, segments, small_bank, rate=40.0, anchor=anchor,
                          mode=mode, seed=3)
        assert len(lookups) == (2 if anchor == "local" else 5) + 5
        for name in ("times", "positions", "velocities", "segment_ids",
                     "pos_jumps", "vel_jumps"):
            assert np.array_equal(getattr(plan, name), getattr(fresh, name)), name

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
