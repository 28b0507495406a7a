"""Golden digests: a SHA-256 of each output of the package on seeded inputs.

    PYTHONPATH=src python -m tests.golden            # print the record
    PYTHONPATH=src python -m tests.golden --write    # rewrite tests/data/golden.json

Run as a script, the recorder pins the BLAS to one thread before numpy is
imported: with two threads, a BLAS product at a large enough shape may sum
in another order, and a fit, for one, then differs in its last bits.  The
record holds the numpy version and the BLAS beside the digests, so a digest
is only comparable within that environment.

The outputs: the bank; a fold's rows and offsets; positions and velocities;
the joint distribution, per-time marginals, samples with velocities and the
pair NLL; both fits; the reads of one policy update at its workload's shape;
combine and blend; run_chain in both anchors and both modes, and a local
chain of mixed horizons; replan_segment; the checksums of the benchmark
stages; and the files and report of every CLI command but bench, whose
report is timings, run in a temporary working directory with relative paths.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # the BLAS reads its thread count once, when numpy is first imported
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import mptraj  # noqa: E402
from mptraj import cli  # noqa: E402
from mptraj.distribution import write_weights_distribution_json  # noqa: E402
from mptraj.trajectory import write_trajectory_csv  # noqa: E402

RECORD = Path(__file__).resolve().parent / "data" / "golden.json"

CONFIG = {"alpha": 25.0, "tau": 1.0, "alpha_x": 2.0, "num_basis": 5,
          "duration": 1.0, "grid_dt": 0.0025}
DOFS = 3


def environment() -> dict:
    """The numpy version and the BLAS the digests were taken with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def digest(*values) -> str:
    """SHA-256 of arrays (dtype, shape and bytes), floats, strings and bytes."""
    sha = hashlib.sha256()
    for value in values:
        if isinstance(value, (bytes, str)):
            sha.update(value.encode() if isinstance(value, str) else value)
            continue
        arr = np.ascontiguousarray(value)
        sha.update(f"{arr.dtype.str}{arr.shape}".encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def _wdist(rng, dim):
    mat = rng.standard_normal((dim, dim)) * 0.5
    return mptraj.WeightsDistribution.from_covariance(rng.standard_normal(dim),
                                                      mat @ mat.T + 1e-6 * np.eye(dim))


def _plan(plan) -> str:
    return digest(plan.times, plan.positions, plan.velocities, plan.segment_ids,
                  plan.pos_jumps, plan.vel_jumps)


def _sequence(seq) -> str:
    return digest(seq.times, seq.means, seq.covs, json.dumps(seq.meta, sort_keys=True))


def library_digests(bank) -> dict:
    rng = np.random.default_rng(2024)
    dim = DOFS * bank.weight_dim
    bc = mptraj.BoundaryCondition(0.1, rng.standard_normal(DOFS), rng.standard_normal(DOFS))
    times = np.linspace(0.1, 0.9, 161)
    wdists = [_wdist(rng, dim) for _ in range(3)]
    stack = rng.standard_normal((4, dim)) * 2.0
    out = {"bank": digest(bank.table, bank.times)}

    fold = mptraj.folded_basis(bc, times, bank)
    out["fold rows and offsets"] = digest(fold.rows, fold.offsets)
    out["positions and velocities"] = digest(fold.positions(stack), fold.velocities(stack),
                                             fold.positions(stack[0]),
                                             fold.velocities(stack[0]))
    dist = mptraj.trajectory_distribution(wdists[0], bc, times[::8], bank)
    out["trajectory_distribution"] = digest(dist.mean, dist.cov, repr(dist.index_set))
    out["per_time_marginals"] = digest(*mptraj.per_time_marginals(wdists[0], bc, times, bank))
    out["sample_trajectories"] = digest(*mptraj.sample_trajectories(
        wdists[0], bc, times, bank, 8, seed=5, with_velocities=True))
    batch = mptraj.sample_time_pairs(times, 300, seed=6)
    truth = batch.with_values(rng.standard_normal((batch.count, 2 * DOFS)))
    out["pair_nll"] = digest(batch.times,
                             repr(mptraj.pair_nll(truth, wdists[0], bc, bank)))

    samples, velocities = mptraj.sample_trajectories(wdists[1], bc, times, bank, 4, seed=7,
                                                     with_velocities=True)
    demos = [mptraj.Demonstration(times, p, v) for p, v in zip(samples, velocities)]
    out["fit_weights"] = digest(mptraj.fit_weights(demos[0], bank))
    fitted = mptraj.fit_distribution(demos, bank)
    out["fit_distribution"] = digest(fitted.mean, fitted.chol)

    grid = np.linspace(0.0, 1.0, 101)
    starts = [mptraj.BoundaryCondition(0.0, rng.standard_normal(DOFS), np.zeros(DOFS))
              for _ in wdists]
    sequences = [mptraj.GaussianSequence(*mptraj.per_time_marginals(w, s, grid, bank))
                 for w, s in zip(wdists, starts)]
    values = rng.uniform(0.0, 1.0, (3, grid.size))
    values[0, :20] = 0.0
    values[1:, 80:] = 0.0
    out["combine"] = _sequence(mptraj.combine(sequences, mptraj.ActivationProfile(grid, values)))
    out["blend"] = _sequence(mptraj.blend(sequences[0], sequences[1],
                                          mptraj.falling_ramp(grid, 0.3, 0.7)))

    initial = mptraj.BoundaryCondition(0.0, rng.standard_normal(DOFS), rng.standard_normal(DOFS))
    segments = [(w, 0.2) for w in wdists] + [(wdists[0], 0.2)]
    for anchor in ("local", "follow"):
        for mode in ("mean", "sample"):
            out[f"run_chain {anchor} {mode}"] = _plan(mptraj.run_chain(
                initial, segments, bank, rate=100.0, anchor=anchor, mode=mode, seed=8))
    mixed = [(wdists[k % 3], h) for k, h in enumerate((0.1, 0.1, 0.2, 0.1, 0.2))]
    out["run_chain local mixed horizons"] = _plan(mptraj.run_chain(
        initial, mixed, bank, rate=100.0, mode="sample", seed=9))
    moved = mptraj.BoundaryCondition(0.35, initial.y_b, initial.dy_b)
    for anchor in (0.0, 0.35):
        seg = mptraj.replan_segment(moved, wdists[2], 0.3, bank, rate=100.0,
                                    bank_anchor=anchor)
        out[f"replan_segment anchor {anchor}"] = digest(
            seg.times, seg.velocities, seg.distribution.mean, seg.distribution.cov)

    scenario = mptraj.BenchScenario(dofs=2, duration=1.0, rate_hz=200.0, num_basis=5)
    stages = mptraj.run_benchmark(scenario, repetitions=2, seed=3)
    out["bench checksums"] = digest(*(f"{name}:{row['checksum']}"
                                      for name, row in stages.items()))
    return out


def policy_digests() -> dict:
    """The reads of one policy update at its workload's shape (7 DoF, 11
    parameters per DoF, 3001 times), where the BLAS takes other paths than
    at the small shapes above."""
    bank = mptraj.precompute_basis(mptraj.DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0,
                                                    num_basis=10, duration=3.0))
    rng = np.random.default_rng(11)
    dofs = 7
    wdist = _wdist(rng, dofs * bank.weight_dim)
    bc = mptraj.BoundaryCondition(0.0, rng.standard_normal(dofs), rng.standard_normal(dofs))
    times = np.arange(3001) / 1000
    pos, vel = mptraj.sample_trajectories(wdist, bc, times, bank, 16, seed=1,
                                          with_velocities=True)
    pairs = mptraj.sample_time_pairs(times, 32, seed=2)
    idx = np.rint(pairs.times * 1000).astype(int)
    truth = pairs.with_values(pos[0][:, idx].transpose(1, 0, 2).reshape(32, -1))
    fitted = mptraj.fit_distribution(
        [mptraj.Demonstration(times, p, v) for p, v in zip(pos[:8], vel[:8])], bank)
    return {"policy sample_trajectories": digest(pos, vel),
            "policy pair_nll": digest(repr(mptraj.pair_nll(truth, wdist, bc, bank))),
            "policy fit_distribution": digest(fitted.mean, fitted.chol),
            "policy per_time_marginals": digest(
                *mptraj.per_time_marginals(wdist, bc, times, bank))}


def _cli(argv) -> str:
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = cli.main(argv)
    if code:
        raise RuntimeError(f"mptraj {' '.join(argv)} exited {code}")
    return report.getvalue()


def cli_digests() -> dict:
    """Each command's report and written files, run in a fresh directory."""
    rng = np.random.default_rng(77)
    dim = 2 * (CONFIG["num_basis"] + 1)
    commands = {
        "precompute": ["precompute", "--config", "config.json", "--out", "bank.npz"],
        "generate": ["generate", "--bank", "bank.npz", "--weights", "weights.json",
                     "--bc", "bc.json", "--rate", "200", "--out", "gen.csv",
                     "--svg", "gen.svg"],
        "sample": ["sample", "--bank", "bank.npz", "--wdist", "wdist.json", "--bc", "bc.json",
                   "--count", "5", "--seed", "4", "--out", "samples.csv",
                   "--svg", "samples.svg"],
        "fit one demo": ["fit", "--bank", "bank.npz", "--demo", "gen.csv",
                         "--out", "fit.json"],
        "fit demos": ["fit", "--bank", "bank.npz", "--demo", "demo0.csv", "--demo",
                      "demo1.csv", "--demo", "demo2.csv", "--out", "fitted.json"],
        "combine": ["combine", "--bank", "bank.npz", "--wdist", "wdist.json",
                    "--wdist", "fitted.json", "--bc", "bc.json", "--bc", "bc2.json",
                    "--activations", "activations.json", "--out", "combined.json",
                    "--svg", "combined.svg"],
        "blend": ["blend", "--bank", "bank.npz", "--wdist", "wdist.json", "--wdist",
                  "fitted.json", "--bc", "bc.json", "--bc", "bc2.json", "--ramp-start",
                  "0.3", "--ramp-end", "0.6", "--rate", "50", "--out", "blended.json",
                  "--svg", "blended.svg"],
        "replan local": ["replan", "--bank", "bank.npz", "--scenario", "local.json",
                         "--out", "local.csv", "--svg", "local.svg"],
        "replan follow": ["replan", "--bank", "bank.npz", "--scenario", "follow.json",
                          "--out", "follow.csv"],
    }
    out = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as work:
        previous = os.getcwd()
        os.chdir(work)
        try:
            inputs = {
                "config.json": CONFIG,
                "weights.json": {"dofs": 2, "num_basis": CONFIG["num_basis"],
                                 "weights": (rng.standard_normal(dim) * 2.0).tolist()},
                "bc.json": {"t_b": 0.0, "y_b": [0.5, -0.25], "dy_b": [0.0, 1.0]},
                "bc2.json": {"t_b": 0.0, "y_b": [-0.5, 0.25], "dy_b": [0.5, 0.0]},
                "activations.json": {"times": [0.0, 0.25, 0.5, 0.75, 1.0],
                                     "values": [[1.0, 0.7, 0.5, 0.2, 0.0],
                                                [0.0, 0.3, 0.5, 0.8, 1.0]]},
            }
            segments = [{"horizon": h, "wdist": name} for h, name in
                        ((0.2, "wdist.json"), (0.3, "fitted.json"), (0.2, "wdist.json"))]
            inputs["local.json"] = {"initial": inputs["bc.json"], "rate_hz": 100.0,
                                    "segments": segments, "mode": "sample", "seed": 3}
            inputs["follow.json"] = {**inputs["local.json"], "anchor": "follow",
                                     "mode": "mean"}
            for name, data in inputs.items():
                Path(name).write_text(json.dumps(data))
            write_weights_distribution_json("wdist.json", _wdist(rng, dim), 2,
                                            CONFIG["num_basis"])
            for name, argv in commands.items():
                if name == "fit demos":
                    bank = mptraj.BasisBank.load("bank.npz")
                    bc = mptraj.BoundaryCondition(0.0, [0.5, -0.25], [0.0, 1.0])
                    times = np.linspace(0.0, 1.0, 51)
                    draws = mptraj.sample_trajectories(_wdist(rng, dim), bc, times, bank, 3,
                                                       seed=12, with_velocities=True)
                    for k, (pos, vel) in enumerate(zip(*draws)):
                        write_trajectory_csv(f"demo{k}.csv", times, pos, vel)
                before = set(os.listdir())
                report = _cli(argv)
                written = sorted(set(os.listdir()) - before)
                out[f"cli {name}"] = digest(report, *(f"{n}:" for n in written),
                                            *(Path(n).read_bytes() for n in written))
        finally:
            os.chdir(previous)
    return out


def record() -> dict:
    bank = mptraj.precompute_basis(mptraj.DmpConfig(**CONFIG))
    return {"environment": environment(),
            "digests": {**library_digests(bank), **policy_digests(), **cli_digests()}}


def main(argv) -> int:
    result = record()
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if "--write" in argv:
        RECORD.write_text(text)
        print(f"written: {RECORD}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
