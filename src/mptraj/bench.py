"""Online-generation benchmark: closed-form bank versus per-step integration.

The timed comparison is a full trajectory at the playback rate, generated from
one weight vector.  One run times four stages over the same weight draws:

- euler: explicit Euler stepping at the playback rate, the baseline;
- positions: the bank with the boundary fold built once and reused, a
  matrix-vector product against the folded basis rows;
- fold_positions: the bank with the fold rebuilt on every call, a GridFold
  the bank does not keep, which is what an online boundary-condition update
  costs;
- refold_positions: the bank through a new TrajectoryGenerator on every
  call, at the same boundary state and times, which is what a repeated read
  of one time grid costs: the bank keeps that grid's fold, so only the
  offsets are rebuilt.

Bank precomputation happens before any clock starts (it is the offline
stage).  Timings are medians over the repetitions, after one untimed warm-up
call per stage.  Each stage carries the checksum of its last output, so
determinism, and the equality of the three bank stages, can be asserted
independently of the (naturally noisy) timings.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .basis import DmpConfig, precompute_basis
from .errors import ValidationError, check_count, check_finite_positive, check_seed
from .oracle import IntegratorSpec, integrate_dmp
from .trajectory import (MAX_QUERY_SAMPLES, BoundaryCondition, GridFold,
                         TrajectoryGenerator, weight_blocks, window_steps)

# spring gain and phase decay rate of the benchmarked DMP
ALPHA = 25.0
ALPHA_X = 2.0


@dataclass(frozen=True)
class BenchScenario:
    """Generation workload: a dofs-dimensional, duration-long trajectory at
    rate_hz from a dofs*(num_basis+1)-dim weight vector."""

    dofs: int = 2
    duration: float = 6.0
    rate_hz: float = 1000.0
    num_basis: int = 10

    def __post_init__(self):
        check_count("dofs", self.dofs)
        check_finite_positive("duration", self.duration)
        check_finite_positive("rate_hz", self.rate_hz)
        steps = window_steps(self.duration, self.rate_hz)
        if steps < 1:
            raise ValidationError(f"a {self.duration:g} s trajectory at {self.rate_hz:g} Hz "
                                  f"is shorter than one sample period")
        if self.dofs * steps > MAX_QUERY_SAMPLES:
            raise ValidationError(f"{self.dofs} DoFs x {steps} times exceed "
                                  f"{MAX_QUERY_SAMPLES} samples; lower dofs or the rate")
        # last, so that the duration and rate messages come first
        self.config()

    def config(self) -> DmpConfig:
        return DmpConfig(alpha=ALPHA, tau=self.duration, alpha_x=ALPHA_X,
                         num_basis=self.num_basis, duration=self.duration)

    def query_times(self) -> np.ndarray:
        return np.arange(window_steps(self.duration, self.rate_hz)) / self.rate_hz

    @property
    def weight_dim(self) -> int:
        return self.dofs * (self.num_basis + 1)

    def describe(self) -> str:
        return (f"{self.dofs} DoF, {self.duration:g} s @ {self.rate_hz:g} Hz, "
                f"{self.weight_dim}-dim weights")


def _time_path(call, draws):
    """(median seconds of call(w) over the draws, checksum of the last
    output), after one untimed warm-up call."""
    call(draws[0])
    seconds = []
    for w in draws:
        start = time.perf_counter()
        out = call(w)
        seconds.append(time.perf_counter() - start)
    return (float(np.median(seconds)),
            hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest())


def run_benchmark(scenario: BenchScenario, repetitions: int = 7,
                  seed: int = 0) -> dict:
    """{stage: {"median_s", "checksum", "speedup"}} of the timed stages, with
    speedup = Euler's median / the stage's median (1.0 for euler)."""
    repetitions = check_count("repetitions", repetitions)
    if repetitions * scenario.weight_dim > MAX_QUERY_SAMPLES:
        raise ValidationError(f"{repetitions} repetitions x {scenario.weight_dim} weights "
                              f"exceed {MAX_QUERY_SAMPLES} samples; lower the repetitions")
    config = scenario.config()
    bank = precompute_basis(config)

    rng = np.random.default_rng(check_seed(seed))
    draws = rng.standard_normal((repetitions, scenario.weight_dim))
    y0 = rng.standard_normal(scenario.dofs)
    dy0 = np.zeros(scenario.dofs)
    bc = BoundaryCondition(t_b=0.0, y_b=y0, dy_b=dy0)
    times = scenario.query_times()
    euler = IntegratorSpec(method="explicit-euler", dt=1.0 / scenario.rate_hz)

    def fold_positions(w):
        # a GridFold, not a generator, so that the kept fold does not spare the rebuild
        fold = GridFold(bc.t_b, times, bank)
        return (weight_blocks(w, bc.dofs, bank.weight_dim) @ fold.rows[0]
                + fold.offsets(bc.y_b, bc.dy_b, kind=0))

    stages = {
        "euler": lambda w: integrate_dmp(w, y0, dy0, config, euler)[1],
        "positions": TrajectoryGenerator(bc, times, bank).positions,
        "fold_positions": fold_positions,
        "refold_positions": lambda w: TrajectoryGenerator(bc, times, bank).positions(w),
    }
    table = {}
    for name, call in stages.items():
        median, checksum = _time_path(call, draws)
        table[name] = {"median_s": median, "checksum": checksum}
    # the speed-up divides by every median
    if not all(row["median_s"] > 0.0 for row in table.values()):
        raise ValidationError("benchmark timings must be positive")
    for row in table.values():
        row["speedup"] = table["euler"]["median_s"] / row["median_s"]
    return table
