"""Command-line front end.

Commands: precompute, generate, sample, fit, combine, blend, replan, bench.
Every command is deterministic given its inputs and --seed; outputs are
written atomically.  Failures, usage errors included, print one line to
stderr in the form "error[category]: message" and exit with the category's
code (2 validation, 3 I/O, 4 numerical, 5 dimension mismatch).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .basis import BasisBank, DmpConfig, precompute_basis
from .bench import BenchScenario, run_benchmark, write_bench_report_json
from .distribution import (DEFAULT_NOISE_VAR, per_time_marginals,
                           sample_trajectories, weights_distribution_from_dict,
                           write_samples_csv, write_weights_distribution_json)
from .errors import DimensionError, MptrajError, ValidationError
from .fileio import atomic_write_json, read_json
from .learning import Demonstration, fit_distribution, fit_weights
from .probops import (ActivationProfile, GaussianSequence, blend, combine,
                      falling_ramp, write_gaussian_sequence_json)
from .replan import run_chain, smoothness_metric
from .svgplot import line_plot
from .trajectory import (MAX_QUERY_SAMPLES, BoundaryCondition, TrajectoryGenerator,
                         evaluate_position, read_trajectory_csv, weight_blocks,
                         window_steps, write_trajectory_csv)


def _reject_unknown(data: dict, allowed, what: str) -> None:
    if not isinstance(data, dict):
        raise ValidationError(f"{what} record must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown {what} keys: {', '.join(unknown)}")


def _load_config(path: str) -> DmpConfig:
    return DmpConfig.from_dict(read_json(path))


def _load_bank(args) -> BasisBank:
    if not args.bank:
        raise ValidationError("--bank is required for this command")
    bank = BasisBank.load(args.bank)
    if getattr(args, "config", None):
        config = _load_config(args.config)
        if config.digest() != bank.config.digest():
            raise ValidationError(
                f"bank {args.bank} was precomputed for a different configuration "
                f"(bank {bank.config.digest()[:12]}, supplied {config.digest()[:12]})")
    return bank


def _bc_from_dict(data: dict) -> BoundaryCondition:
    _reject_unknown(data, ("t_b", "y_b", "dy_b"), "boundary-condition")
    try:
        return BoundaryCondition(t_b=float(data["t_b"]),
                                 y_b=np.asarray(data["y_b"], dtype=float),
                                 dy_b=np.asarray(data["dy_b"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed boundary condition: {exc}") from exc


def _load_bc(path: str) -> BoundaryCondition:
    return _bc_from_dict(read_json(path))


def _load_weights(path: str, bank: BasisBank):
    data = read_json(path)
    _reject_unknown(data, ("dofs", "num_basis", "weights"), "weights")
    try:
        dofs = int(data["dofs"])
        num_basis = int(data["num_basis"])
        weights = np.asarray(data["weights"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed weights record: {exc}") from exc
    weight_blocks(weights, dofs, num_basis + 1)
    if not np.isfinite(weights).all():
        raise ValidationError(f"weights in {path} must be finite")
    _check_num_basis(num_basis, bank, path)
    return weights, dofs


def _load_wdist(path: str, bank: BasisBank):
    data = read_json(path)
    _reject_unknown(data, ("dofs", "num_basis", "mean", "chol_lower"),
                    "weights-distribution")
    wdist, dofs, num_basis = weights_distribution_from_dict(data)
    _check_num_basis(num_basis, bank, path)
    return wdist, dofs


def _check_num_basis(num_basis: int, bank: BasisBank, source: str) -> None:
    if num_basis != bank.num_basis:
        raise DimensionError(
            f"{source} was fit with num_basis={num_basis}, the bank has "
            f"{bank.num_basis}")


def _default_bc(dofs: int) -> BoundaryCondition:
    return BoundaryCondition(t_b=0.0, y_b=np.zeros(dofs), dy_b=np.zeros(dofs))


def _grid(args, start_default: float, bank: BasisBank) -> np.ndarray:
    """Query times from --rate, --start (default start_default) and --until
    (default the bank horizon)."""
    rate = args.rate
    start = start_default if args.start is None else args.start
    stop = bank.duration if args.until is None else args.until
    if not 0.0 < rate < math.inf:
        raise ValidationError(f"--rate must be finite and > 0, got {rate}")
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


def _svg_trajectory(path: str, times, positions, title: str) -> None:
    curves = [(f"dof{d}", positions[d]) for d in range(positions.shape[0])]
    line_plot(path, times, curves, title=title)


def _svg_sequence(path: str, seq: GaussianSequence, title: str) -> None:
    curves, bands = [], []
    for d in range(seq.dofs):
        std = np.sqrt(seq.covs[:, d, d])
        curves.append((f"dof{d}", seq.means[:, d]))
        bands.append((seq.means[:, d] - 2.0 * std, seq.means[:, d] + 2.0 * std))
    line_plot(path, seq.times, curves, bands=bands, title=title)


def _marginal_sequence(wdist, bc, times, bank, noise_var) -> GaussianSequence:
    grid, means, covs = per_time_marginals(wdist, bc, times, bank, noise_var)
    return GaussianSequence(times=grid, means=means, covs=covs)


def _cmd_precompute(args) -> int:
    config = _load_config(args.config)
    bank = precompute_basis(config)
    bank.save(args.out)
    print(f"bank written: {args.out}")
    print(f"grid points: {bank.times.shape[0]}")
    print(f"columns per DoF: {bank.weight_dim}")
    print(f"checksum: {bank.content_checksum()}")
    return 0


def _cmd_generate(args) -> int:
    bank = _load_bank(args)
    weights, dofs = _load_weights(args.weights, bank)
    bc = _load_bc(args.bc) if args.bc else _default_bc(dofs)
    if bc.dofs != dofs:
        raise DimensionError(
            f"boundary condition has {bc.dofs} DoFs, weights have {dofs}")
    times = _grid(args, bc.t_b, bank)
    gen = TrajectoryGenerator(bc, times, bank)
    positions, velocities = gen.positions(weights), gen.velocities(weights)
    write_trajectory_csv(args.out, times, positions, velocities)
    print(f"trajectory written: {args.out} ({times.shape[0]} samples, {dofs} DoFs)")
    if args.svg:
        _svg_trajectory(args.svg, times, positions, "generated trajectory")
        print(f"plot written: {args.svg}")
    return 0


def _cmd_sample(args) -> int:
    bank = _load_bank(args)
    wdist, dofs = _load_wdist(args.wdist, bank)
    bc = _load_bc(args.bc) if args.bc else _default_bc(dofs)
    if bc.dofs != dofs:
        raise DimensionError(
            f"boundary condition has {bc.dofs} DoFs, distribution has {dofs}")
    times = _grid(args, bc.t_b, bank)
    if args.count * times.shape[0] > MAX_QUERY_SAMPLES:
        raise ValidationError(f"{args.count} samples x {times.shape[0]} times exceed "
                              f"{MAX_QUERY_SAMPLES} rows; lower --count or --rate")
    samples = sample_trajectories(wdist, bc, times, bank, args.count, args.seed)
    seq = _marginal_sequence(wdist, bc, times, bank, args.noise_var) if args.svg else None
    write_samples_csv(args.out, times, samples)
    print(f"samples written: {args.out} ({args.count} x {dofs} DoFs x "
          f"{times.shape[0]} samples)")
    if seq is not None:
        _svg_sequence(args.svg, seq, "sampled distribution (mean +/- 2 sigma)")
        print(f"plot written: {args.svg}")
    return 0


def _read_demo(path: str) -> Demonstration:
    times, positions, velocities = read_trajectory_csv(path)
    return Demonstration(times=times, positions=positions, velocities=velocities)


def _cmd_fit(args) -> int:
    bank = _load_bank(args)
    demos = [_read_demo(path) for path in args.demo]
    bc = _load_bc(args.bc) if args.bc else None
    if len(demos) == 1:
        weights = fit_weights(demos[0], bank, ridge=args.ridge, bc=bc)
        demo = demos[0]
        recon = evaluate_position(weights, bc or demo.boundary_condition(),
                                  demo.times, bank)
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
    primitives = []
    for wpath, bpath in zip(args.wdist, args.bc):
        wdist, dofs = _load_wdist(wpath, bank)
        bc = _load_bc(bpath)
        if bc.dofs != dofs:
            raise DimensionError(
                f"{bpath} has {bc.dofs} DoFs, {wpath} has {dofs}")
        primitives.append((wdist, bc))
    return primitives


def _cmd_combine(args) -> int:
    bank = _load_bank(args)
    primitives = _paired_primitives(args, bank)
    act = read_json(args.activations)
    _reject_unknown(act, ("times", "values"), "activation")
    try:
        profile = ActivationProfile(times=np.asarray(act["times"], dtype=float),
                                    values=np.asarray(act["values"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed activation profile: {exc}") from exc
    if profile.count != len(primitives):
        raise DimensionError(
            f"{profile.count} activation rows for {len(primitives)} primitives")
    sequences = [_marginal_sequence(wdist, bc, profile.times, bank, args.noise_var)
                 for wdist, bc in primitives]
    result = combine(sequences, profile)
    write_gaussian_sequence_json(args.out, result)
    print(f"combined sequence written: {args.out} "
          f"(jitter fallbacks: {result.meta.get('jitter_applied', 0)})")
    if args.svg:
        _svg_sequence(args.svg, result, "combined distribution (mean +/- 2 sigma)")
        print(f"plot written: {args.svg}")
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
    if args.svg:
        _svg_sequence(args.svg, result, "blended distribution (mean +/- 2 sigma)")
        print(f"plot written: {args.svg}")
    return 0


_SCENARIO_KEYS = ("initial", "rate_hz", "segments", "anchor", "mode", "stale_bc",
                  "seed")


def _cmd_replan(args) -> int:
    bank = _load_bank(args)
    scenario = read_json(args.scenario)
    _reject_unknown(scenario, _SCENARIO_KEYS, "scenario")
    base_dir = os.path.dirname(os.path.abspath(args.scenario))
    try:
        initial = _bc_from_dict(scenario["initial"])
        rate = float(scenario["rate_hz"])
        segment_specs = list(scenario["segments"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scenario: {exc}") from exc
    segments = []
    for i, spec in enumerate(segment_specs):
        _reject_unknown(spec, ("horizon", "wdist"), f"scenario segment {i}")
        try:
            horizon = float(spec["horizon"])
            wdist_path = spec["wdist"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed scenario segment {i}: {exc}") from exc
        if not os.path.isabs(wdist_path):
            wdist_path = os.path.join(base_dir, wdist_path)
        wdist, dofs = _load_wdist(wdist_path, bank)
        if dofs != initial.dofs:
            raise DimensionError(
                f"scenario segment {i} has {dofs} DoFs, initial state has "
                f"{initial.dofs}")
        segments.append((wdist, horizon))

    seed = args.seed if args.seed is not None else int(scenario.get("seed", 0))
    plan = run_chain(initial, segments, bank, rate,
                     anchor=scenario.get("anchor", "local"),
                     mode=scenario.get("mode", "mean"), seed=seed,
                     stale_bc=bool(scenario.get("stale_bc", False)))
    write_trajectory_csv(args.out, plan.times, plan.positions, plan.velocities,
                         segment_ids=plan.segment_ids)
    print(f"trace written: {args.out} ({len(segments)} segments, "
          f"{plan.times.shape[0]} samples)")
    if plan.pos_jumps.size:
        print(f"max position jump: {plan.pos_jumps.max():.3e}")
        print(f"max velocity jump: {plan.vel_jumps.max():.3e}")
    print(f"average squared acceleration: {smoothness_metric(plan.positions, 1.0 / rate):.6e}")
    if args.svg:
        _svg_trajectory(args.svg, plan.times, plan.positions, "replanned trace")
        print(f"plot written: {args.svg}")
    return 0


def _cmd_bench(args) -> int:
    scenario = BenchScenario(dofs=args.dofs, duration=args.duration,
                             rate_hz=args.rate, num_basis=args.num_basis)
    report = run_benchmark(scenario, repetitions=args.reps,
                           with_bc_recompute=args.with_bc_recompute,
                           seed=args.seed)
    print(report.to_text())
    if args.out:
        write_bench_report_json(args.out, report)
        print(f"report written: {args.out}")
    return 0


def _finite_nonneg(name: str):
    """argparse type for a flag that must be finite and >= 0, checked while
    parsing so that no command path can skip it."""
    def number(text: str) -> float:
        value = float(text)
        # negated so that NaN fails the check
        if not 0.0 <= value < math.inf:
            raise ValidationError(f"{name} must be finite and >= 0, got {value}")
        return value
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
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
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
    p.add_argument("--cov-floor", type=_finite_nonneg("cov_floor"), default=1e-8,
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
    p.add_argument("--seed", type=int, help="overrides the scenario seed")

    p = subs.add_parser("bench", help="time bank generation against Euler stepping")
    p.add_argument("--dofs", type=int, default=2)
    p.add_argument("--duration", type=float, default=6.0)
    p.add_argument("--rate", type=float, default=1000.0)
    p.add_argument("--num-basis", type=int, default=10)
    p.add_argument("--reps", type=int, default=7)
    p.add_argument("--with-bc-recompute", action="store_true",
                   help="rebuild the boundary fold inside the timed call")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional JSON report path")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # resolved by name at call time, so a wrapper installed on the module
        # attribute sees the call
        return globals()[f"_cmd_{args.command}"](args)
    except MptrajError as err:
        print(f"error[{err.category}]: {err}", file=sys.stderr)
        return err.exit_code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
