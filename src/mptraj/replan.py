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
products on a boundary fold.  Local-anchored segments of one horizon share
one fold, whose rows depend on bank time and horizon alone, and refold only
the offsets from each executed state.  replan_segment additionally returns
the segment's trajectory distribution, read from the same fold as its mean
trace.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisBank
from .distribution import (DEFAULT_NOISE_VAR, TrajectoryDistribution,
                           WeightsDistribution, _check_weights_dim,
                           _fold_distribution)
from .errors import DimensionError, ValidationError, check_finite_positive
from .trajectory import BoundaryCondition, TrajectoryGenerator, window_steps


@dataclass(frozen=True)
class ReplanSegment:
    """One planned segment: global times, mean trace, and the trajectory
    distribution (index set in global time)."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    distribution: TrajectoryDistribution

    def __post_init__(self):
        if (self.positions.shape != self.velocities.shape
                or self.positions.shape[1] != self.times.shape[0]):
            raise DimensionError("segment trace arrays do not align")


@dataclass(frozen=True)
class SegmentPlan:
    """Executed chain: concatenated trace (duplicate switch samples dropped),
    per-sample segment ids, and the jumps measured at each interior switch
    before deduplication."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    segment_ids: np.ndarray
    switch_times: tuple
    pos_jumps: np.ndarray
    vel_jumps: np.ndarray

    def __post_init__(self):
        t_count = self.times.shape[0]
        if (self.positions.shape[1] != t_count or self.velocities.shape[1] != t_count
                or self.segment_ids.shape[0] != t_count):
            raise DimensionError("plan trace arrays do not align")
        if np.any(np.diff(np.asarray(self.switch_times)) <= 0.0):
            raise ValidationError("switch times must be strictly increasing")


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
    _check_weights_dim(wdist, local_bc, bank)
    fold = TrajectoryGenerator(local_bc, local_times, bank)
    return ReplanSegment(times=global_times, positions=fold.positions(wdist.mean),
                         velocities=fold.velocities(wdist.mean),
                         distribution=_fold_distribution(wdist, fold, noise_var,
                                                         global_times))


def run_chain(initial: BoundaryCondition, segments, bank: BasisBank, rate: float,
              anchor: str = "local", mode: str = "mean", seed=None) -> SegmentPlan:
    """Execute a chain of (wdist, horizon) segments and return the executed
    trace; no segment distribution is built.  Each segment starts at the
    executed state of the one before it.

    mode "mean" follows each segment's mean; mode "sample" draws one weight
    vector per segment.  With anchor "local", segments of equal horizon share
    one fold (TrajectoryGenerator.with_state), bit for bit.
    """
    segments = list(segments)
    if not segments:
        raise ValidationError("chain needs at least one segment")
    if anchor not in ("local", "follow"):
        raise ValidationError(f"anchor must be 'local' or 'follow', got '{anchor}'")
    if mode not in ("mean", "sample"):
        raise ValidationError(f"mode must be 'mean' or 'sample', got '{mode}'")
    rng = np.random.default_rng(seed)

    state = initial
    traces = []
    # local segments of one horizon all sit at bank time 0 over the same bank
    # times, so they share one fold's rows; each refolds only its offsets
    folds = {}
    for wdist, horizon in segments:
        bank_anchor = 0.0 if anchor == "local" else state.t_b
        times, local_times, local_bc = _segment_frame(state, horizon, bank, rate,
                                                      bank_anchor)
        w = wdist.mean
        if mode == "sample":
            w = wdist.mean + wdist.chol @ rng.standard_normal(wdist.dim)
        if anchor == "local" and horizon in folds:
            gen = folds[horizon].with_state(local_bc)
        else:
            gen = folds[horizon] = TrajectoryGenerator(local_bc, local_times, bank)
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
        switch_times=tuple(float(t[0]) for t in times),
        pos_jumps=jumps(positions), vel_jumps=jumps(velocities))


def smoothness_metric(positions, dt: float) -> float:
    """Average squared acceleration of a uniformly sampled trace: mean over
    DoFs and samples of the squared second difference divided by dt**4."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if positions.shape[1] < 3:
        raise ValidationError("smoothness metric needs at least 3 samples")
    check_finite_positive("dt", dt)
    second = positions[:, 2:] - 2.0 * positions[:, 1:-1] + positions[:, :-2]
    return float(np.mean((second / dt ** 2) ** 2))
