"""Online-generation benchmark: closed-form bank versus per-step integration.

The timed comparison is a full trajectory at the playback rate, generated from
one weight vector.  One run times three paths over the same weight draws:

- explicit Euler stepping at the playback rate, the baseline;
- the bank with the boundary fold built once and reused, a matrix-vector
  product against the folded basis rows;
- the bank with the fold rebuilt on every call, which is what an online
  boundary-condition update costs.

Bank precomputation happens before any clock starts (it is the offline
stage).  Timings are medians over the repetitions, after one untimed warm-up
call per path.  Trajectory checksums are carried in the report so
determinism, and the equality of the two bank paths, can be asserted
independently of the (naturally noisy) timings.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .basis import BasisBank, DmpConfig, precompute_basis
from .errors import ValidationError, check_finite_positive
from .oracle import IntegratorSpec, integrate_dmp
from .trajectory import (MAX_QUERY_SAMPLES, BoundaryCondition, TrajectoryGenerator,
                         window_steps)

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
        if self.dofs < 1:
            raise ValidationError(f"dofs must be >= 1, got {self.dofs}")
        check_finite_positive("duration", self.duration)
        check_finite_positive("rate_hz", self.rate_hz)
        steps = window_steps(self.duration, self.rate_hz)
        if self.dofs * steps > MAX_QUERY_SAMPLES:
            raise ValidationError(f"{self.dofs} DoFs x {steps} times exceed "
                                  f"{MAX_QUERY_SAMPLES} samples; lower dofs or the rate")

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


@dataclass(frozen=True)
class BenchReport:
    """Median seconds and last-output checksums of the three timed paths:
    Euler (oracle), the bank with the fold reused (basis) and the bank with
    the fold rebuilt per call (rebuilt)."""

    scenario: BenchScenario
    repetitions: int
    oracle_time: float
    basis_time: float
    rebuilt_time: float
    oracle_checksum: str
    basis_checksum: str
    rebuilt_checksum: str

    def __post_init__(self):
        if not (self.oracle_time > 0.0 and self.basis_time > 0.0
                and self.rebuilt_time > 0.0):
            raise ValidationError("benchmark timings must be positive")

    @property
    def speedup(self) -> float:
        return self.oracle_time / self.basis_time

    @property
    def rebuilt_speedup(self) -> float:
        return self.oracle_time / self.rebuilt_time

    def to_json_dict(self) -> dict:
        return {
            "scenario": {
                "dofs": self.scenario.dofs,
                "duration": self.scenario.duration,
                "rate_hz": self.scenario.rate_hz,
                "num_basis": self.scenario.num_basis,
                "weight_dim": self.scenario.weight_dim,
            },
            "repetitions": self.repetitions,
            "oracle_time_s": self.oracle_time,
            "basis_time_s": self.basis_time,
            "rebuilt_time_s": self.rebuilt_time,
            "speedup": self.speedup,
            "rebuilt_speedup": self.rebuilt_speedup,
            "oracle_checksum": self.oracle_checksum,
            "basis_checksum": self.basis_checksum,
            "rebuilt_checksum": self.rebuilt_checksum,
            "note": "forward generation only; per-step baseline is explicit Euler "
                    "at the playback rate",
        }

    def to_text(self) -> str:
        rows = [
            ("scenario", self.scenario.describe()),
            ("repetitions", str(self.repetitions)),
            ("euler baseline", f"{self.oracle_time:.6e} s"),
            ("basis bank", f"{self.basis_time:.6e} s"),
            ("basis bank, fold rebuilt", f"{self.rebuilt_time:.6e} s"),
            ("speed-up", f"{self.speedup:.1f}x"),
            ("speed-up, fold rebuilt", f"{self.rebuilt_speedup:.1f}x"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


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
                  bank: BasisBank | None = None, seed: int = 0) -> BenchReport:
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    config = scenario.config()
    if bank is None:
        bank = precompute_basis(config)
    elif bank.config != config:
        raise ValidationError("bank was precomputed for a different scenario")

    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal(scenario.weight_dim) for _ in range(repetitions)]
    y0 = rng.standard_normal(scenario.dofs)
    dy0 = np.zeros(scenario.dofs)
    bc = BoundaryCondition(t_b=0.0, y_b=y0, dy_b=dy0)
    times = scenario.query_times()
    euler = IntegratorSpec(method="explicit-euler", dt=1.0 / scenario.rate_hz)

    generator = TrajectoryGenerator(bc, times, bank)
    oracle_time, oracle_checksum = _time_path(
        lambda w: integrate_dmp(w, y0, dy0, config, euler)[1], draws)
    basis_time, basis_checksum = _time_path(generator.positions, draws)
    rebuilt_time, rebuilt_checksum = _time_path(
        lambda w: TrajectoryGenerator(bc, times, bank).positions(w), draws)
    return BenchReport(scenario=scenario, repetitions=repetitions,
                       oracle_time=oracle_time, basis_time=basis_time,
                       rebuilt_time=rebuilt_time, oracle_checksum=oracle_checksum,
                       basis_checksum=basis_checksum,
                       rebuilt_checksum=rebuilt_checksum)
