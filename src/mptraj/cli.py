"""Command-line front end.

Commands: precompute, generate, sample, fit, combine, blend, replan, bench.
Every command is deterministic given its inputs and --seed.  A command
writes all of its outputs or none, and prints its report once they are in
place.  Failures, usage errors included, print one line to stderr in the form
"error[category]: message" and exit with the category's code (2 validation,
3 I/O, 4 numerical, 5 dimension mismatch).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import os
import sys

import numpy as np

from .basis import BasisBank, DmpConfig, precompute_basis
from .bench import BenchScenario, run_benchmark
from .distribution import (DEFAULT_NOISE_VAR, per_time_marginals,
                           sample_trajectories, weights_distribution_from_dict,
                           write_samples_csv, write_weights_distribution_json)
from .errors import (DimensionError, MptrajError, NumericalError, ValidationError,
                     check_finite_nonneg, check_finite_positive, check_int,
                     check_number, check_numbers, check_record, check_seed, check_type)
from .fileio import atomic_write_json, read_json, staged_writes
from .learning import DEFAULT_COV_FLOOR, Demonstration, fit_distribution, fit_weights
from .probops import (ActivationProfile, GaussianSequence, blend, combine,
                      falling_ramp, write_gaussian_sequence_json)
from .replan import run_chain, smoothness_metric
from .svgplot import line_plot
from .trajectory import (MAX_QUERY_SAMPLES, BoundaryCondition, TrajectoryGenerator,
                         folded_basis, read_trajectory_csv, weight_blocks, window_steps,
                         write_trajectory_csv)


def _load_bank(args) -> BasisBank:
    bank = BasisBank.load(args.bank)
    if args.config:
        config = DmpConfig.from_dict(read_json(args.config))
        if config.digest() != bank.config.digest():
            raise ValidationError(
                f"bank {args.bank} was precomputed for a different configuration "
                f"(bank {bank.config.digest()[:12]}, supplied {config.digest()[:12]})")
    return bank


def _bc_from_dict(data) -> BoundaryCondition:
    check_record(data, "boundary-condition", ("t_b", "y_b", "dy_b"))
    return BoundaryCondition(t_b=check_number("t_b", data["t_b"]),
                             y_b=check_numbers("y_b", data["y_b"]),
                             dy_b=check_numbers("dy_b", data["dy_b"]))


def _load_bc(path: str) -> BoundaryCondition:
    return _bc_from_dict(read_json(path))


def _load_weights(path: str, bank: BasisBank):
    data = check_record(read_json(path), "weights", ("dofs", "num_basis", "weights"))
    dofs = check_int("dofs", data["dofs"])
    _check_num_basis(check_int("num_basis", data["num_basis"]), bank, path)
    weights = check_numbers("weights", data["weights"])
    weight_blocks(weights, dofs, bank.weight_dim)
    if not np.isfinite(weights).all():
        raise ValidationError(f"weights in {path} must be finite")
    return weights, dofs


def _load_wdist(path: str, bank: BasisBank):
    wdist, dofs, num_basis = weights_distribution_from_dict(read_json(path))
    _check_num_basis(num_basis, bank, path)
    return wdist, dofs


def _check_num_basis(num_basis: int, bank: BasisBank, source: str) -> None:
    if num_basis != bank.num_basis:
        raise DimensionError(f"{source} was fit with num_basis={num_basis}, "
                             f"the bank has {bank.num_basis}")


def _primitive(params_path: str, bc_path: str, bank: BasisBank, load):
    """(params, bc): params from load(params_path, bank), which returns them with
    their DoFs, and the bc from bc_path, or rest at 0 when bc_path is empty."""
    params, dofs = load(params_path, bank)
    if not bc_path:
        return params, BoundaryCondition(t_b=0.0, y_b=np.zeros(dofs), dy_b=np.zeros(dofs))
    bc = _load_bc(bc_path)
    if bc.dofs != dofs:
        raise DimensionError(f"{bc_path} has {bc.dofs} DoFs, {params_path} has {dofs}")
    return params, bc


def _grid(args, start_default: float, bank: BasisBank) -> np.ndarray:
    """Query times from --rate, --start (default start_default) and --until
    (default the bank horizon)."""
    rate = check_finite_positive("--rate", args.rate)
    start = start_default if args.start is None else args.start
    stop = bank.duration if args.until is None else args.until
    # negated so that NaN fails the check
    if not 0.0 <= start <= stop <= bank.duration * (1.0 + 1e-12):
        raise ValidationError(
            f"query window [{start:g}, {stop:g}] is not an ordered window inside "
            f"the bank horizon [0, {bank.duration:g}]")
    steps = window_steps(stop - start, rate)
    if steps < 1:
        raise ValidationError(
            f"query window [{start:g}, {stop:g}] shorter than one sample period")
    times = start + np.arange(steps + 1) / rate
    times[-1] = min(stop, bank.duration)
    return times


def _plot(args, times, curves, title: str, bands=None) -> None:
    """The --svg plot of curves (D, T) over times, when one was asked for."""
    if args.svg:
        line_plot(args.svg, times, curves, [f"dof{d}" for d in range(curves.shape[0])],
                  bands=bands, title=title)
        print(f"plot written: {args.svg}")


def _plot_sequence(args, seq: GaussianSequence, title: str) -> None:
    """_plot of seq's means with a band of +/- 2 sigma, computed for --svg only."""
    if args.svg:
        means = seq.means.T
        spread = 2.0 * np.sqrt(np.diagonal(seq.covs, axis1=1, axis2=2)).T
        _plot(args, seq.times, means, title, bands=(means - spread, means + spread))


def _marginal_sequence(wdist, bc, times, bank, noise_var) -> GaussianSequence:
    grid, means, covs = per_time_marginals(wdist, bc, times, bank, noise_var)
    return GaussianSequence(times=grid, means=means, covs=covs)


def _cmd_precompute(args) -> int:
    bank = precompute_basis(DmpConfig.from_dict(read_json(args.config)))
    bank.save(args.out)
    print(f"bank written: {args.out}")
    print(f"grid points: {bank.times.shape[0]}")
    print(f"columns per DoF: {bank.weight_dim}")
    print(f"checksum: {bank.content_checksum()}")
    return 0


def _cmd_generate(args) -> int:
    bank = _load_bank(args)
    weights, bc = _primitive(args.weights, args.bc, bank, _load_weights)
    times = _grid(args, bc.t_b, bank)
    gen = TrajectoryGenerator(bc, times, bank)
    positions, velocities = gen.positions(weights), gen.velocities(weights)
    write_trajectory_csv(args.out, times, positions, velocities)
    print(f"trajectory written: {args.out} ({times.shape[0]} samples, {bc.dofs} DoFs)")
    _plot(args, times, positions, "generated trajectory")
    return 0


def _cmd_sample(args) -> int:
    bank = _load_bank(args)
    wdist, bc = _primitive(args.wdist, args.bc, bank, _load_wdist)
    times = _grid(args, bc.t_b, bank)
    if args.count * times.shape[0] > MAX_QUERY_SAMPLES:
        raise ValidationError(f"{args.count} samples x {times.shape[0]} times exceed "
                              f"{MAX_QUERY_SAMPLES} rows; lower --count or --rate")
    samples = sample_trajectories(wdist, bc, times, bank, args.count, args.seed)
    write_samples_csv(args.out, times, samples)
    print(f"samples written: {args.out} ({args.count} x {bc.dofs} DoFs x "
          f"{times.shape[0]} samples)")
    if args.svg:  # the marginals feed the plot only
        _plot_sequence(args, _marginal_sequence(wdist, bc, times, bank, args.noise_var),
                       "sampled distribution (mean +/- 2 sigma)")
    return 0


def _cmd_fit(args) -> int:
    bank = _load_bank(args)
    demos = [Demonstration(*read_trajectory_csv(path)) for path in args.demo]
    bc = _load_bc(args.bc) if args.bc else None
    if len(demos) == 1:
        demo = demos[0]
        bc = bc or demo.boundary_condition()
        weights = fit_weights(demo, bank, ridge=args.ridge, bc=bc)
        # the fit kept its fold of the demo's grid, which the reconstruction reads
        recon = folded_basis(bc, demo.times, bank).positions(weights)
        rmse = float(np.sqrt(np.mean((recon - demo.positions) ** 2)))
        atomic_write_json(args.out, {
            "dofs": demo.dofs,
            "num_basis": bank.num_basis,
            "weights": weights.tolist(),
        })
        print(f"weights written: {args.out}")
        print(f"fit rmse: {rmse:.6e}")
    else:
        if bc is not None:
            raise ValidationError(
                "--bc applies to single-demo fits only; multi-demo fits take each "
                "demo's own first sample")
        wdist = fit_distribution(demos, bank, ridge=args.ridge,
                                 cov_floor=args.cov_floor)
        write_weights_distribution_json(args.out, wdist, demos[0].dofs,
                                        bank.num_basis)
        print(f"weights distribution written: {args.out} ({len(demos)} demos)")
    return 0


def _paired_primitives(args, bank: BasisBank):
    if len(args.wdist) != len(args.bc):
        raise ValidationError(
            f"{len(args.wdist)} --wdist flags but {len(args.bc)} --bc flags; "
            f"each primitive needs both")
    return [_primitive(wpath, bpath, bank, _load_wdist)
            for wpath, bpath in zip(args.wdist, args.bc)]


def _cmd_combine(args) -> int:
    bank = _load_bank(args)
    primitives = _paired_primitives(args, bank)
    act = check_record(read_json(args.activations), "activation", ("times", "values"))
    profile = ActivationProfile(times=check_numbers("times", act["times"]),
                                values=check_numbers("values", act["values"]))
    if profile.count != len(primitives):
        raise DimensionError(
            f"{profile.count} activation rows for {len(primitives)} primitives")
    sequences = [_marginal_sequence(wdist, bc, profile.times, bank, args.noise_var)
                 for wdist, bc in primitives]
    result = combine(sequences, profile)
    write_gaussian_sequence_json(args.out, result)
    print(f"combined sequence written: {args.out} "
          f"(jitter fallbacks: {result.meta.get('jitter_applied', 0)})")
    _plot_sequence(args, result, "combined distribution (mean +/- 2 sigma)")
    return 0


def _cmd_blend(args) -> int:
    bank = _load_bank(args)
    primitives = _paired_primitives(args, bank)
    if len(primitives) != 2:
        raise ValidationError(
            f"blend needs exactly 2 primitives, got {len(primitives)}")
    times = _grid(args, 0.0, bank)
    activation = falling_ramp(times, args.ramp_start, args.ramp_end)
    seq_a, seq_b = (_marginal_sequence(wdist, bc, times, bank, args.noise_var)
                    for wdist, bc in primitives)
    result = blend(seq_a, seq_b, activation)
    write_gaussian_sequence_json(args.out, result)
    print(f"blended sequence written: {args.out} "
          f"(ramp [{args.ramp_start:g}, {args.ramp_end:g}])")
    _plot_sequence(args, result, "blended distribution (mean +/- 2 sigma)")
    return 0


# the first three are required
_SCENARIO_KEYS = ("initial", "rate_hz", "segments", "anchor", "mode", "seed")


def _cmd_replan(args) -> int:
    bank = _load_bank(args)
    scenario = check_record(read_json(args.scenario), "scenario",
                            _SCENARIO_KEYS[:3], _SCENARIO_KEYS[3:])
    initial = _bc_from_dict(scenario["initial"])
    rate = check_number("rate_hz", scenario["rate_hz"])
    seed = _seed(check_int("seed", scenario.get("seed", 0)))
    base_dir = os.path.dirname(os.path.abspath(args.scenario))
    segments = []
    # each distinct wdist path is read and checked once, at its first segment
    loaded = {}
    for i, spec in enumerate(check_type("segments", scenario["segments"], list)):
        what = f"scenario segment {i}"
        check_record(spec, what, ("horizon", "wdist"))
        horizon = check_number(f"{what} horizon", spec["horizon"])
        # an absolute wdist path replaces base_dir
        path = os.path.join(base_dir, check_type(f"{what} wdist", spec["wdist"], str))
        if path not in loaded:
            loaded[path] = _load_wdist(path, bank)
        wdist, dofs = loaded[path]
        if dofs != initial.dofs:
            raise DimensionError(f"{what} has {dofs} DoFs, initial state has {initial.dofs}")
        segments.append((wdist, horizon))

    plan = run_chain(initial, segments, bank, rate,
                     anchor=scenario.get("anchor", "local"),
                     mode=scenario.get("mode", "mean"),
                     seed=seed if args.seed is None else args.seed)
    write_trajectory_csv(args.out, plan.times, plan.positions, plan.velocities,
                         segment_ids=plan.segment_ids)
    print(f"trace written: {args.out} ({len(segments)} segments, "
          f"{plan.times.shape[0]} samples)")
    if plan.pos_jumps.size:
        print(f"max position jump: {plan.pos_jumps.max():.3e}")
        print(f"max velocity jump: {plan.vel_jumps.max():.3e}")
    if plan.times.shape[0] >= 3:
        smoothness = smoothness_metric(plan.positions, 1.0 / rate)
        print(f"average squared acceleration: {smoothness:.6e}")
    _plot(args, plan.times, plan.positions, "replanned trace")
    return 0


def _cmd_bench(args) -> int:
    scenario = BenchScenario(dofs=args.dofs, duration=args.duration,
                             rate_hz=args.rate, num_basis=args.num_basis)
    stages = run_benchmark(scenario, repetitions=args.reps, seed=args.seed)
    print(f"scenario: {scenario.describe()}, {args.reps} repetitions")
    print(f"{'stage':<16}{'median s':>14}{'speed-up':>11}  checksum")
    for name, row in stages.items():
        print(f"{name:<16}{row['median_s']:>14.6e}{row['speedup']:>10.1f}x  "
              f"{row['checksum'][:16]}")
    if args.out:
        atomic_write_json(args.out, {
            "scenario": {**dataclasses.asdict(scenario), "weight_dim": scenario.weight_dim},
            "repetitions": args.reps, "stages": stages})
        print(f"report written: {args.out}")
    return 0


def _seed(value) -> int:
    """argparse type for --seed, also applied to the scenario seed."""
    return check_seed(int(value))


def _finite_nonneg(name: str):
    """argparse type for a flag that must be finite and >= 0, checked while
    parsing so that no command path can skip it."""
    def number(text: str) -> float:
        return check_finite_nonneg(name, float(text))
    return number


def _add_io_flags(sub, svg=True):
    sub.add_argument("--bank", required=True, help="precomputed bank file (.npz)")
    sub.add_argument("--config", help="optional config JSON; must hash-match the bank")
    sub.add_argument("--out", required=True, help="output path")
    if svg:
        sub.add_argument("--svg", help="also write an SVG plot to this path")


def _add_window_flags(sub, start_default: str):
    sub.add_argument("--rate", type=float, default=100.0, help="samples per second")
    sub.add_argument("--start", type=float,
                     help=f"first query time (default: {start_default})")
    sub.add_argument("--until", type=float, help="last query time (default: bank horizon)")


class _Parser(argparse.ArgumentParser):
    """Usage errors (unknown command, missing or malformed flag) raise
    ValidationError, so they end in the one-line error form like any other
    invalid input.  Subparsers inherit the class."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mptraj",
        description="Movement-primitive trajectory distributions: precompute the "
                    "basis bank once, then generate, sample, fit, combine, blend, "
                    "replan, and benchmark.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("precompute", help="build and store a basis bank")
    p.add_argument("--config", required=True, help="DMP configuration JSON")
    p.add_argument("--out", required=True, help="bank output path (.npz)")

    p = subs.add_parser("generate", help="mean trajectory from a weights vector")
    _add_io_flags(p)
    p.add_argument("--weights", required=True, help="weights JSON")
    p.add_argument("--bc", help="boundary-condition JSON (default: rest at 0)")
    _add_window_flags(p, "bc time")

    p = subs.add_parser("sample", help="draw trajectories from a weights distribution")
    _add_io_flags(p)
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--wdist", required=True, help="weights-distribution JSON")
    p.add_argument("--bc", help="boundary-condition JSON (default: rest at 0)")
    p.add_argument("--count", type=int, default=10, help="number of samples")
    _add_window_flags(p, "bc time")
    p.add_argument("--noise-var", type=_finite_nonneg("noise_var"),
                   default=DEFAULT_NOISE_VAR,
                   help="observation noise variance for the plotted band")

    p = subs.add_parser("fit", help="fit weights (1 demo) or a distribution (>= 2)")
    _add_io_flags(p, svg=False)
    p.add_argument("--demo", action="append", required=True,
                   help="demonstration CSV (t, dofN_pos[, dofN_vel]); repeatable")
    p.add_argument("--bc", help="boundary-condition override (single demo only)")
    p.add_argument("--ridge", type=_finite_nonneg("ridge"),
                   help="ridge strength (default: scale-free)")
    p.add_argument("--cov-floor", type=_finite_nonneg("cov_floor"), default=DEFAULT_COV_FLOOR,
                   help="diagonal floor for the empirical covariance")

    p = subs.add_parser("combine", help="co-activate primitives on a shared grid")
    _add_io_flags(p)
    p.add_argument("--wdist", action="append", required=True,
                   help="weights-distribution JSON; repeat per primitive")
    p.add_argument("--bc", action="append", required=True,
                   help="boundary-condition JSON; repeat per primitive")
    p.add_argument("--activations", required=True,
                   help="JSON with 'times' and per-primitive 'values' rows")
    p.add_argument("--noise-var", type=_finite_nonneg("noise_var"),
                   default=DEFAULT_NOISE_VAR)

    p = subs.add_parser("blend", help="ramp from one primitive to another")
    _add_io_flags(p)
    p.add_argument("--wdist", action="append", required=True,
                   help="exactly two, in blend order")
    p.add_argument("--bc", action="append", required=True, help="exactly two")
    p.add_argument("--ramp-start", type=float, required=True)
    p.add_argument("--ramp-end", type=float, required=True)
    _add_window_flags(p, "0")
    p.add_argument("--noise-var", type=_finite_nonneg("noise_var"),
                   default=DEFAULT_NOISE_VAR)

    p = subs.add_parser("replan", help="run a scripted replanning chain")
    _add_io_flags(p)
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--seed", type=_seed, help="overrides the scenario seed")

    p = subs.add_parser("bench", help="time bank generation against Euler stepping")
    p.add_argument("--dofs", type=int, default=2)
    p.add_argument("--duration", type=float, default=6.0)
    p.add_argument("--rate", type=float, default=1000.0)
    p.add_argument("--num-basis", type=int, default=10)
    p.add_argument("--reps", type=int, default=7)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="optional JSON report path")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # numpy overflow and invalid operations raise, so that no inf or NaN
        # they leave reaches an output; the command is resolved by name at
        # call time, so a wrapper installed on the module attribute sees it;
        # its files and its report appear only once all of it has succeeded
        with (np.errstate(over="raise", invalid="raise", divide="raise"), staged_writes(),
              contextlib.redirect_stdout(io.StringIO()) as report):
            code = globals()[f"_cmd_{args.command}"](args)
        sys.stdout.write(report.getvalue())
        return code
    except (MptrajError, FloatingPointError) as exc:
        err = exc if isinstance(exc, MptrajError) else NumericalError(f"floating-point {exc}")
        # a path may carry a line break; the message stays one line
        message = "\\n".join(str(err).splitlines())
        print(f"error[{err.category}]: {message}", file=sys.stderr)
        return err.exit_code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
