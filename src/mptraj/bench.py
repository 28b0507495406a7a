"""Online-generation benchmark: closed-form bank versus per-step integration.

The timed comparison is a full trajectory at the playback rate, generated from
one weight vector.  The bank path is a matrix-vector product against folded
basis rows; the baseline is explicit Euler stepping at the same rate.  Bank
precomputation happens before any clock starts (it is the offline stage), and
with_bc_recompute toggles whether the boundary fold is rebuilt on every call,
which is what an online boundary-condition update costs.

Timings are medians over the repetitions, after one untimed warm-up call per
path.  Trajectory checksums are carried in the report so determinism can be
asserted independently of the (naturally noisy) timings.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from .basis import BasisBank, DmpConfig, precompute_basis
from .errors import ValidationError
from .fileio import atomic_write_json
from .oracle import IntegratorSpec, integrate_dmp
from .trajectory import BoundaryCondition, TrajectoryGenerator, window_steps


@dataclass(frozen=True)
class BenchScenario:
    """Generation workload: a dofs-dimensional, duration-long trajectory at
    rate_hz from a dofs*(num_basis+1)-dim weight vector."""

    dofs: int = 2
    duration: float = 6.0
    rate_hz: float = 1000.0
    num_basis: int = 10
    alpha: float = 25.0
    alpha_x: float = 2.0

    def __post_init__(self):
        if self.dofs < 1:
            raise ValidationError(f"dofs must be >= 1, got {self.dofs}")
        # negated so that NaN fails the checks
        if not 0.0 < self.duration < math.inf:
            raise ValidationError(f"duration must be finite and > 0, got {self.duration}")
        if not 0.0 < self.rate_hz < math.inf:
            raise ValidationError(f"rate_hz must be finite and > 0, got {self.rate_hz}")
        window_steps(self.duration, self.rate_hz)

    def config(self) -> DmpConfig:
        return DmpConfig(alpha=self.alpha, tau=self.duration, alpha_x=self.alpha_x,
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
    scenario: BenchScenario
    repetitions: int
    with_bc_recompute: bool
    oracle_time: float
    basis_time: float
    oracle_checksum: str
    basis_checksum: str

    def __post_init__(self):
        if not (self.oracle_time > 0.0 and self.basis_time > 0.0):
            raise ValidationError("benchmark timings must be positive")

    @property
    def speedup(self) -> float:
        return self.oracle_time / self.basis_time

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
            "with_bc_recompute": self.with_bc_recompute,
            "oracle_time_s": self.oracle_time,
            "basis_time_s": self.basis_time,
            "speedup": self.speedup,
            "oracle_checksum": self.oracle_checksum,
            "basis_checksum": self.basis_checksum,
            "note": "forward generation only; per-step baseline is explicit Euler "
                    "at the playback rate",
        }

    def to_text(self) -> str:
        rows = [
            ("scenario", self.scenario.describe()),
            ("bc recompute", "yes" if self.with_bc_recompute else "no"),
            ("repetitions", str(self.repetitions)),
            ("euler baseline", f"{self.oracle_time:.6e} s"),
            ("basis bank", f"{self.basis_time:.6e} s"),
            ("speed-up", f"{self.speedup:.1f}x"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def _checksum(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def run_benchmark(scenario: BenchScenario, repetitions: int = 7,
                  with_bc_recompute: bool = False, bank: BasisBank | None = None,
                  seed: int = 0) -> BenchReport:
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

    if with_bc_recompute:
        def basis_call(w):
            return TrajectoryGenerator(bc, times, bank).positions(w)
    else:
        generator = TrajectoryGenerator(bc, times, bank)

        def basis_call(w):
            return generator.positions(w)

    def oracle_call(w):
        return integrate_dmp(w, y0, dy0, config, euler)[1]

    basis_call(draws[0])
    oracle_call(draws[0])

    basis_times = []
    basis_out = None
    for w in draws:
        start = time.perf_counter()
        basis_out = basis_call(w)
        basis_times.append(time.perf_counter() - start)

    oracle_times = []
    oracle_out = None
    for w in draws:
        start = time.perf_counter()
        oracle_out = oracle_call(w)
        oracle_times.append(time.perf_counter() - start)

    return BenchReport(
        scenario=scenario,
        repetitions=repetitions,
        with_bc_recompute=with_bc_recompute,
        oracle_time=float(np.median(oracle_times)),
        basis_time=float(np.median(basis_times)),
        oracle_checksum=_checksum(oracle_out),
        basis_checksum=_checksum(basis_out),
    )


def write_bench_report_json(path: str, report: BenchReport) -> None:
    atomic_write_json(path, report.to_json_dict())
