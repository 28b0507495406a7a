"""Segment-wise replanning with refreshed boundary conditions.

At every switch time the executed state (position, velocity) becomes the
boundary condition of the next segment, so consecutive segments join without
jumps no matter how the per-segment weight distributions differ.

Bank time vs global time: a segment evaluated with bank_anchor=0 runs on local
time (its switch instant maps to bank time 0), which lets one precomputed bank
serve arbitrarily long replanning chains.  Anchoring at the global switch time
instead (anchor="follow" in run_chain) keeps the phase and forcing where the
unsegmented trajectory would have them, which is the mode where replanning
with unchanged parameters continues the original path; it requires the chain
to fit inside the bank horizon.

A chain computes only the executed trace: each segment is two matrix
products on a boundary fold.  Local segments sit at bank time 0, so equal
horizons repeat one grid: they read the bank's kept fold (folded_basis) and
refold only the offsets.  Follow segments, and replan_segment, fold on their
own and leave the kept fold alone.  replan_segment additionally returns the
segment's trajectory distribution, whose mean is its position trace.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisBank
from .distribution import (DEFAULT_NOISE_VAR, TrajectoryDistribution,
                           WeightsDistribution, _fold_distribution)
from .errors import (DimensionError, ValidationError, check_finite_positive, check_seed,
                     freeze, numerical_errors, take_array, take_floats)
from .trajectory import BoundaryCondition, TrajectoryGenerator, folded_basis, window_steps


@dataclass(frozen=True)
class ReplanSegment:
    """One planned segment: global times, mean velocities, and the trajectory
    distribution (index set in global time), whose mean is the position trace."""

    times: np.ndarray
    velocities: np.ndarray
    distribution: TrajectoryDistribution

    def __post_init__(self):
        times = take_array(self, "times", 1)
        velocities = take_array(self, "velocities", 2)
        if not isinstance(self.distribution, TrajectoryDistribution):
            raise ValidationError(f"ReplanSegment.distribution must be a "
                                  f"TrajectoryDistribution, got "
                                  f"{type(self.distribution).__name__}")
        if (velocities.shape[1] != times.shape[0]
                or velocities.size != self.distribution.dim):
            raise DimensionError("segment trace arrays do not align")

    @property
    def positions(self) -> np.ndarray:
        """Mean positions (D, T), a read-only view of the DoF-major mean."""
        return self.distribution.mean.reshape(self.velocities.shape)


@dataclass(frozen=True)
class SegmentPlan:
    """Executed chain: concatenated trace (duplicate switch samples dropped),
    per-sample segment ids, and the jumps measured at each interior switch
    before deduplication.  The switch times are derived from the trace."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    segment_ids: np.ndarray
    pos_jumps: np.ndarray
    vel_jumps: np.ndarray

    def __post_init__(self):
        times = take_array(self, "times", 1)
        positions = take_array(self, "positions", 2)
        velocities = take_array(self, "velocities", 2)
        ids = take_array(self, "segment_ids", 1)
        take_array(self, "pos_jumps", 1)
        take_array(self, "vel_jumps", 1)
        # read as floats like every field, and stored as the integers they are
        if not np.array_equal(ids, np.trunc(ids)):
            raise ValidationError("SegmentPlan.segment_ids must be integers")
        freeze(self, segment_ids=ids.astype(np.int64))
        if not positions.shape[1] == velocities.shape[1] == ids.shape[0] == times.shape[0]:
            raise DimensionError("plan trace arrays do not align")

    @property
    def switch_times(self) -> tuple:
        """Start time of each segment: the first sample, then each switch
        sample the trace keeps (the last of the segment before)."""
        starts = np.concatenate(([0], np.flatnonzero(np.diff(self.segment_ids))))
        return tuple(self.times[starts].tolist())


def _segment_frame(current: BoundaryCondition, horizon: float, bank: BasisBank,
                   rate: float, bank_anchor: float):
    """(global times, bank times, bank-time boundary condition) of the segment
    that starts at the current state and lasts horizon, sampled at rate."""
    check_finite_positive("horizon", horizon)
    check_finite_positive("rate", rate)
    steps = window_steps(horizon, rate)
    if steps < 1 or abs(steps / rate - horizon) > 1e-9 * max(1.0, horizon):
        raise ValidationError(
            f"horizon {horizon} is not a positive multiple of the sample period "
            f"1/{rate}")
    if bank_anchor < 0.0 or bank_anchor + horizon > bank.duration * (1.0 + 1e-12):
        raise ValidationError(
            f"segment [{bank_anchor:.6g}, {bank_anchor + horizon:.6g}] exceeds the "
            f"bank horizon {bank.duration:.6g}; shorten the horizon or precompute "
            f"a longer bank")
    offsets = np.arange(steps + 1) / rate
    offsets[-1] = horizon
    local_times = np.minimum(bank_anchor + offsets, bank.duration)
    local_bc = BoundaryCondition(t_b=bank_anchor, y_b=current.y_b, dy_b=current.dy_b)
    return current.t_b + offsets, local_times, local_bc


def replan_segment(current: BoundaryCondition, wdist: WeightsDistribution,
                   horizon: float, bank: BasisBank, rate: float,
                   noise_var: float = DEFAULT_NOISE_VAR,
                   bank_anchor: float = 0.0) -> ReplanSegment:
    """Distribution and mean trace over [t_b, t_b + horizon], starting exactly
    at the current state.  bank_anchor maps the switch instant into bank time."""
    global_times, local_times, local_bc = _segment_frame(current, horizon, bank,
                                                         rate, bank_anchor)
    fold = TrajectoryGenerator(local_bc, local_times, bank)
    return ReplanSegment(times=global_times, velocities=fold.velocities(wdist.mean),
                         distribution=_fold_distribution(wdist, fold, noise_var,
                                                         global_times))


def _chain_segment(k: int, segment):
    """(wdist, horizon) of chain segment k, if it unpacks as a pair whose
    first item is a WeightsDistribution; the horizon is checked with the
    segment's frame."""
    try:
        wdist, horizon = segment
    except (TypeError, ValueError):
        wdist = None
    if not isinstance(wdist, WeightsDistribution):
        raise ValidationError(f"chain segment {k} must be a (WeightsDistribution, "
                              f"horizon) pair")
    return wdist, horizon


def run_chain(initial: BoundaryCondition, segments, bank: BasisBank, rate: float,
              anchor: str = "local", mode: str = "mean", seed=None) -> SegmentPlan:
    """Execute a chain of (wdist, horizon) segments and return the executed
    trace; no segment distribution is built.  Each segment starts at the
    executed state of the one before it.

    mode "mean" follows each segment's mean; mode "sample" draws one weight
    vector per segment.  With anchor "local" each segment folds through
    folded_basis, so a run of one horizon folds once, and an alternating
    horizon folds at every change; "follow" segments fold anew.  The trace
    is that of a fresh fold per segment, bit for bit.
    """
    segments = [_chain_segment(k, segment) for k, segment in enumerate(segments)]
    if not segments:
        raise ValidationError("chain needs at least one segment")
    if anchor not in ("local", "follow"):
        raise ValidationError(f"anchor must be 'local' or 'follow', got '{anchor}'")
    if mode not in ("mean", "sample"):
        raise ValidationError(f"mode must be 'mean' or 'sample', got '{mode}'")
    rng = np.random.default_rng(check_seed(seed))

    state = initial
    traces = []
    fold = folded_basis if anchor == "local" else TrajectoryGenerator
    for wdist, horizon in segments:
        bank_anchor = 0.0 if anchor == "local" else state.t_b
        times, local_times, local_bc = _segment_frame(state, horizon, bank, rate,
                                                      bank_anchor)
        w = wdist.mean
        if mode == "sample":
            w = wdist.mean + wdist.chol @ rng.standard_normal(wdist.dim)
        gen = fold(local_bc, local_times, bank)
        positions, velocities = gen.positions(w), gen.velocities(w)
        traces.append((times, positions, velocities))
        state = BoundaryCondition(t_b=float(times[-1]),
                                  y_b=positions[:, -1], dy_b=velocities[:, -1])

    times, positions, velocities = zip(*traces)

    # an interior switch sample repeats the last sample of the segment before:
    # the trace drops it, and the jumps are measured across it
    def stitched(arrays):
        return np.concatenate([arrays[0], *(a[..., 1:] for a in arrays[1:])], axis=-1)

    def jumps(arrays):
        return np.array([np.max(np.abs(b[:, 0] - a[:, -1])) for a, b in zip(arrays, arrays[1:])])

    return SegmentPlan(
        times=stitched(times), positions=stitched(positions), velocities=stitched(velocities),
        segment_ids=np.repeat(np.arange(len(times)), [t.size - (k > 0) for k, t in enumerate(times)]),
        pos_jumps=jumps(positions), vel_jumps=jumps(velocities))


def smoothness_metric(positions, dt: float) -> float:
    """Average squared acceleration of a uniformly sampled trace: mean over
    DoFs and samples of the squared second difference divided by dt**4."""
    positions = take_floats("positions", positions, 2)
    if positions.shape[1] < 3:
        raise ValidationError("smoothness metric needs at least 3 samples")
    check_finite_positive("dt", dt)
    # the second difference of large samples overflows, dt**2 underflows to 0
    # for dt below about 1e-162, and a large second difference overflows when
    # squared
    with numerical_errors(f"smoothness metric, dt = {dt}"):
        second = positions[:, 2:] - 2.0 * positions[:, 1:-1] + positions[:, :-2]
        return float(np.mean((second / dt ** 2) ** 2))
