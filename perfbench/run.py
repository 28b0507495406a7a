"""mptraj benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload online_replan --seed 1 --seconds 10 --trace 0

The harness builds nothing: it imports mptraj from src/ of the checkout it
sits in.  It prints the environment, every metric with its unit, the
negative controls and an output digest, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
reports the end-to-end metrics; --trace 1 reports the per-layer metrics of
a traced run and the tracing overhead.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
# set-ups per run, spread evenly over the measured loop
SETUP_REPS = 21
# The gated latency and set-up time are the fastest repetition of the run.
# On the shared 2-vCPU virtual machine the harness was written on, speed
# swings by up to 1.7x within seconds as neighbours load it.  Across 7-10
# runs of 25 s per workload, the quartile spread of the run's minimum
# latency was 0.04-0.09 of itself (0.10-0.16 on cli_pipeline); of its p10,
# 0.12-0.33; of its median, 0.16-0.32.  The median of 21 set-ups spread by
# 0.44 on online_replan.  p10, p50 and p90 are printed, not gated.


def _pin_blas_threads() -> int:
    """One BLAS thread per CPU this process may run on; must run before
    numpy is first imported."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


class Run:
    """Operation accounting for one closed-loop caller."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.timing = False
        self.latencies = defaultdict(list)   # (kind, traced) -> seconds
        self.digest = None

    def op(self, kind: str, call, verify):
        """Time call(); then, outside the timed region and the trace, check
        its output.  A raise or a failed check counts the operation failed."""
        self.attempted += 1
        traced = self.tracer.active
        start = time.perf_counter()
        try:
            result = self.tracer.call("bench." + kind, call)
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        if self.timing:
            self.latencies[(kind, traced)].append(elapsed)
        with self.tracer.paused():
            errors = [e for e in verify(result) if e]
        if errors:
            self._fail(f"{kind}: {errors[0]}")
        return result

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def record_output(self, *items) -> None:
        """Feed outputs (arrays or bytes) to the digest while it is open."""
        if self.digest is None:
            return
        import numpy as np
        for item in items:
            if not isinstance(item, bytes):
                item = np.ascontiguousarray(item).tobytes()
            self.digest.update(item)


def _percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def _environment(seed: int, threads: int) -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return (f"env: python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas}, nproc {os.cpu_count()}, "
            f"cpus usable {len(os.sched_getaffinity(0))}, blas threads {threads}, "
            f"seed {seed}")


def measure(workload, seconds: float, traced: bool):
    """Set up, warm up, run the closed loop for `seconds`, run the oracle.

    Set-up is repeated SETUP_REPS times, spread evenly over the loop, so it
    samples the same machine states as the operations.
    The traced run alternates untraced and traced cycles, so both see the
    same machine state and their difference is the tracing overhead.
    """
    from spans import Tracer

    tracer = Tracer()
    run = Run(tracer)

    def phase(name, trace_it):
        return tracer.installed(name) if trace_it else contextlib.nullcontext()

    setup_times = []

    def set_up():
        with phase("setup", traced):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)

    set_up()
    # warm-up: one untimed cycle, whose outputs make the digest
    run.digest = hashlib.sha256()
    workload.cycle(run)
    digest, run.digest = run.digest.hexdigest(), None

    run.timing = True
    start = time.perf_counter()
    deadline = start + seconds
    interval = seconds / SETUP_REPS
    cycle = 0
    while cycle < 2 or time.perf_counter() < deadline:
        with phase("cycle", traced and cycle % 2 == 1):
            workload.cycle(run)
        cycle += 1
        if (len(setup_times) < SETUP_REPS
                and time.perf_counter() >= start + len(setup_times) * interval):
            set_up()
    run.timing = False

    euler_runs, euler_scale = workload.oracle(run)
    euler = []
    for baseline in euler_runs:
        with phase("oracle", traced):
            start = time.perf_counter()
            baseline()
            euler.append(time.perf_counter() - start)
    return run, tracer, setup_times, euler, euler_scale, digest, cycle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="online_replan, policy_update, compose or cli_pipeline")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mptraj", "__init__.py")):
        print(f"error: mptraj sources not found under {SRC}; run the harness from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    threads = _pin_blas_threads()
    sys.path.insert(0, SRC)
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    print(_environment(args.seed, threads))
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        print(f"workload {workload.name}: {' '.join(workload.__doc__.split())}")
        run, tracer, setup_times, euler, euler_scale, digest, cycles = measure(
            workload, args.seconds, bool(args.trace))
        controls = workload.negative_controls()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    registered = True
    for check, errors in controls:
        hit = [e for e in errors if e]
        registered &= bool(hit)
        print(f"negative control {check}: "
              + (f"failure registered ({hit[0]})" if hit else "NOT registered"))
    for reason in run.reasons:
        print(f"failed: {reason}")
    print(f"output digest (warm-up cycle): sha256 {digest}")
    print(f"failed_frac {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations)")

    def latencies(kind, traced=False):
        return run.latencies.get((kind, traced), [])

    for (kind, traced), values in sorted(run.latencies.items()):
        label = "traced " if traced else ""
        print(f"{label}{kind} latency: min {min(values) * 1e3:.6g} ms, "
              + ", ".join(f"p{q} {_percentile(values, q) * 1e3:.6g} ms" for q in (10, 50, 90))
              + f" (n={len(values)})")

    metrics = {}
    primary = min(latencies(workload.primary))
    if not args.trace:
        metrics["op_ms_min"] = (primary * 1e3, "ms")
        metrics["setup_s"] = (min(setup_times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        print(f"set-up times, min of {len(setup_times)} gated: "
              + ", ".join(f"{t:.6g}" for t in setup_times))
    else:
        metrics.update(tracer.layer_metrics())
        speedup = 0.0
        if euler:
            speedup = min(euler) * euler_scale / primary
            print(f"explicit Euler over the bank horizon: min "
                  f"{min(euler):.6g} s (n={len(euler)}); scaled to one "
                  f"{workload.primary}: x{speedup:.6g} slower than the bank")
        metrics["oracle.speedup_vs_euler"] = (speedup, "ratio")
        traced = min(latencies(workload.primary, True))
        metrics["trace.overhead_ms"] = ((traced - primary) * 1e3, "ms")
        metrics["trace.overhead_frac"] = ((traced - primary) / primary, "ratio")
        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, f"spans-{workload.name}.csv.gz")
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} over {tracer.phase_reps['cycle']} traced "
              f"cycles of {cycles}, written to {os.path.relpath(spans_path, ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and registered,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
