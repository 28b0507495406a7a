"""The four benchmark workloads.

Each workload is closed-loop with a single caller: every operation waits for
the previous one to finish.  A workload generates its inputs from the seeded
generator it is given (not timed), sets the program up (timed as setup_s),
then repeats `cycle` until the run's time is up.  The harness calls mptraj
through module attributes only (`mp.pair_nll`, `mptraj.cli.main`), so the
traced run sees every call.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import xml.etree.ElementTree as ET

import numpy as np

import mptraj as mp
import mptraj.cli

import checks


def _random_wdist(rng, dim: int, mean_scale: float = 5.0):
    mat = rng.standard_normal((dim, dim)) * 0.5
    cov = mat @ mat.T / dim + 1e-2 * np.eye(dim)
    return mp.WeightsDistribution.from_covariance(rng.standard_normal(dim) * mean_scale,
                                                  cov)


def _boundary_errors(what: str, positions, velocities, bc) -> list:
    """Positions and velocities (..., D) at t_b against the boundary state."""
    return [
        checks.bit_exact(f"{what} position at t_b", positions,
                         np.broadcast_to(bc.y_b, positions.shape)),
        checks.bit_exact(f"{what} velocity at t_b", velocities,
                         np.broadcast_to(bc.dy_b, velocities.shape)),
    ]


class Workload:
    name = ""
    # operation kind whose fastest latency is reported as op_ms_min
    primary = ""

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, run) -> None:
        raise NotImplementedError

    def oracle(self, run):
        """Baseline runs to time after the loop, and the factor that scales
        one run's time to one primary operation's work."""
        return [], 0.0

    def negative_controls(self) -> list:
        """(check, errors) for perturbed copies of the last outputs."""
        raise NotImplementedError


class OnlineReplan(Workload):
    """Controller loop: mean queries from fresh boundary states at random
    t_b, interleaved with run_chain plans of 5 x 0.2 s segments whose anchor
    alternates between "local" and "follow"."""

    name = "online_replan"
    primary = "query"
    DOFS = 7
    HORIZON = 0.2
    RATE = 1000.0
    SEGMENTS = 5
    QUERIES_PER_PLAN = 100
    POOL = 512

    def __init__(self, rng, workdir: str):
        self.config = mp.DmpConfig(alpha=25.0, tau=10.0, alpha_x=2.0, num_basis=10,
                                   duration=10.0, grid_dt=1e-3)
        dim = self.DOFS * self.config.weight_dim
        self.wdists = [_random_wdist(rng, dim) for _ in range(3)]
        self.weights = self.wdists[0].mean
        self.offsets = np.arange(int(round(self.HORIZON * self.RATE)) + 1) / self.RATE
        self.segments = [(self.wdists[k % 3], self.HORIZON) for k in range(self.SEGMENTS)]

        def states(count, latest):
            return [mp.BoundaryCondition(rng.uniform(0.0, latest),
                                         rng.standard_normal(self.DOFS),
                                         rng.standard_normal(self.DOFS))
                    for _ in range(count)]

        duration = self.config.duration
        self.query_states = states(self.POOL, duration - self.HORIZON - 0.01)
        self.plan_states = states(16, duration - self.SEGMENTS * self.HORIZON - 0.01)
        self.oracle_states = states(2, 0.0)
        self.queries = 0
        self.plans = 0

    def setup(self) -> None:
        self.bank = mp.precompute_basis(self.config)

    def _query(self, state):
        bc = mp.BoundaryCondition(state.t_b, state.y_b, state.dy_b)
        gen = mp.TrajectoryGenerator(bc, state.t_b + self.offsets, self.bank)
        return gen.positions(self.weights), gen.velocities(self.weights)

    def _check_query(self, state, out) -> list:
        self.last_query = (state, out)
        return _boundary_errors("query", out[0][:, 0], out[1][:, 0], state)

    def _check_plan(self, state, plan) -> list:
        self.last_plan = (state, plan)
        return [checks.exactly_zero("replan position jumps", plan.pos_jumps),
                checks.exactly_zero("replan velocity jumps", plan.vel_jumps),
                *_boundary_errors("plan", plan.positions[:, 0], plan.velocities[:, 0],
                                  state)]

    def cycle(self, run) -> None:
        state = self.plan_states[self.plans % len(self.plan_states)]
        anchor = ("local", "follow")[self.plans % 2]
        self.plans += 1
        plan = run.op("plan",
                      lambda: mp.run_chain(mp.BoundaryCondition(state.t_b, state.y_b,
                                                                state.dy_b),
                                           self.segments, self.bank, self.RATE,
                                           anchor=anchor),
                      lambda out: self._check_plan(state, out))
        if plan is not None:
            run.record_output(plan.positions, plan.velocities)
        for _ in range(self.QUERIES_PER_PLAN):
            query = self.query_states[self.queries % self.POOL]
            self.queries += 1
            out = run.op("query", lambda: self._query(query),
                         lambda res: self._check_query(query, res))
            if out is not None:
                run.record_output(*out)

    def _check_oracle(self, state, out) -> list:
        _, rk4_pos, _ = mp.integrate_dmp(self.weights, state.y_b, state.dy_b, self.config,
                                         mp.IntegratorSpec("rk4", 1.0 / self.RATE))
        oracle = rk4_pos[:, :self.offsets.size]
        self.last_oracle = (out[0], oracle)
        return self._check_query(state, out) + [checks.rk4_agreement(out[0], oracle)]

    def oracle(self, run):
        """RK4 agreement of t_b = 0 queries, and the explicit-Euler runs
        that time the integrated baseline over the whole bank horizon."""
        euler = []
        for state in self.oracle_states:
            run.op("oracle_query", lambda: self._query(state),
                   lambda out: self._check_oracle(state, out))
            euler.append(lambda state=state: mp.integrate_dmp(
                self.weights, state.y_b, state.dy_b, self.config,
                mp.IntegratorSpec("explicit-euler", 1.0 / self.RATE)))
        steps = round(self.config.duration * self.RATE)
        return euler, (self.offsets.size - 1) / steps

    def negative_controls(self) -> list:
        state, (pos, vel) = self.last_query
        plan_state, plan = self.last_plan
        jumps = plan.pos_jumps.copy()
        jumps[-1] = np.nextafter(0.0, 1.0)
        closed, oracle = self.last_oracle
        return [
            ("boundary adherence", self._check_query(state, (checks.nudge(pos), vel))),
            ("replan jumps", self._check_plan(
                plan_state, dataclasses.replace(plan, pos_jumps=jumps))),
            ("rk4 agreement", [checks.rk4_agreement(
                closed + 2e-3 * np.ptp(oracle, axis=1)[:, None], oracle)]),
        ]


class PolicyUpdate(Workload):
    """Episodic-RL update in the style of TCE: sample 16 rollouts, score 32
    random time pairs of each with pair_nll, refit the weights distribution
    on the 8 best rollouts; the next update samples from the refit."""

    name = "policy_update"
    primary = "update"
    DOFS = 7
    ROLLOUTS = 16
    PAIRS = 32
    ELITE = 8
    RATE = 1000.0
    NOISE_VAR = mp.distribution.DEFAULT_NOISE_VAR
    # diagonal floor of each refit, so exploration never collapses
    COV_FLOOR = 1e-4

    def __init__(self, rng, workdir: str):
        self.config = mp.DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=10,
                                   duration=3.0)
        self.wdist = _random_wdist(rng, self.DOFS * self.config.weight_dim)
        self.bc = mp.BoundaryCondition(0.0, rng.standard_normal(self.DOFS),
                                       rng.standard_normal(self.DOFS))
        self.target = 2.0 * rng.standard_normal(self.DOFS)
        self.times = np.arange(round(self.config.duration * self.RATE) + 1) / self.RATE
        self.rng = np.random.default_rng(rng.integers(2**63))
        self.updates = 0

    def setup(self) -> None:
        self.bank = mp.precompute_basis(self.config)

    def _update(self):
        wdist = self.wdist
        pos, vel = mp.sample_trajectories(wdist, self.bc, self.times, self.bank,
                                          self.ROLLOUTS, self.rng, with_velocities=True)
        batches, nll = [], np.empty(self.ROLLOUTS)
        for r in range(self.ROLLOUTS):
            pairs = mp.sample_time_pairs(self.times, self.PAIRS, self.rng)
            idx = np.rint(pairs.times * self.RATE).astype(int)
            truth = pos[r][:, idx].transpose(1, 0, 2).reshape(self.PAIRS, -1)
            truth = truth + np.sqrt(self.NOISE_VAR) * self.rng.standard_normal(truth.shape)
            batches.append(pairs.with_values(truth))
            nll[r] = mp.pair_nll(batches[r], wdist, self.bc, self.bank)
        reward = -np.sum((pos[:, :, -1] - self.target) ** 2, axis=1)
        elite = np.argsort(-reward, kind="stable")[:self.ELITE]
        demos = [mp.Demonstration(self.times, pos[i], vel[i]) for i in elite]
        self.wdist = mp.fit_distribution(demos, self.bank, cov_floor=self.COV_FLOOR)
        return wdist, pos, vel, batches, nll

    def _check_update(self, out) -> list:
        wdist, pos, vel, batches, nll = out
        r = self.updates % self.ROLLOUTS
        reference = checks.pair_nll_reference(batches[r].times, batches[r].values,
                                              wdist.mean, wdist.chol, self.bc,
                                              self.bank, self.NOISE_VAR)
        self.last_update = (out, r, reference)
        return [*_boundary_errors("rollout", pos[:, :, 0], vel[:, :, 0], self.bc),
                checks.rel_close("pair_nll", nll[r], reference)]

    def cycle(self, run) -> None:
        out = run.op("update", self._update, self._check_update)
        self.updates += 1
        if out is not None:
            run.record_output(out[1], out[4], self.wdist.mean, self.wdist.chol)

    def negative_controls(self) -> list:
        (_, pos, vel, _, nll), r, reference = self.last_update
        return [
            ("boundary adherence", _boundary_errors(
                "rollout", checks.nudge(pos[:, :, 0]), vel[:, :, 0], self.bc)),
            ("pair nll", [checks.rel_close("pair_nll", nll[r] * (1.0 + 1e-8),
                                           reference)]),
        ]


class Compose(Workload):
    """Per-time marginals of 3 primitives, combined under an activation
    profile (a lone primitive at 1, a lone one below 1, all three mixed),
    then a ramp blend of the first two."""

    name = "compose"
    primary = "compose"
    DOFS = 2
    PRIMITIVES = 3
    POOL = 4

    def __init__(self, rng, workdir: str):
        self.config = mp.DmpConfig(alpha=25.0, tau=1.0, alpha_x=2.0, num_basis=10,
                                   duration=1.0)
        dim = self.DOFS * self.config.weight_dim
        self.requests = [
            [(_random_wdist(rng, dim),
              mp.BoundaryCondition(0.0, rng.standard_normal(self.DOFS),
                                   rng.standard_normal(self.DOFS)))
             for _ in range(self.PRIMITIVES)]
            for _ in range(self.POOL)]
        t = np.linspace(0.0, self.config.duration, 1001)
        act = np.zeros((self.PRIMITIVES, t.size))
        act[0, t < 0.25] = 1.0
        act[1, (t >= 0.25) & (t < 0.4)] = 0.5
        mix = t >= 0.4
        act[0, mix] = 0.5 + 0.5 * np.sin(7.0 * t[mix]) ** 2
        act[1, mix] = 0.3
        act[2, mix] = np.linspace(0.1, 1.0, np.count_nonzero(mix))
        self.times = t
        self.profile = mp.ActivationProfile(t, act)
        self.ramp = mp.falling_ramp(t, 0.3, 0.7)
        self.done = 0

    def setup(self) -> None:
        self.bank = mp.precompute_basis(self.config)

    def _compose(self, request):
        seqs = [mp.GaussianSequence(*mp.per_time_marginals(wdist, bc, self.times,
                                                           self.bank))
                for wdist, bc in request]
        return seqs, mp.combine(seqs, self.profile), mp.blend(seqs[0], seqs[1], self.ramp)

    def _errors(self, seqs, combined, blended) -> list:
        means = np.stack([s.means for s in seqs])
        covs = np.stack([s.covs for s in seqs])
        return (checks.combine_errors("combine", means, covs, self.profile.values,
                                      *combined)
                + checks.combine_errors("blend", means[:2], covs[:2],
                                        np.stack([self.ramp, 1.0 - self.ramp]),
                                        *blended))

    def _check(self, out) -> list:
        seqs, combined, blended = out
        parts = [(s.means, s.covs, s.meta["jitter_applied"]) for s in (combined, blended)]
        self.last = (seqs, *parts)
        return self._errors(seqs, *parts)

    def cycle(self, run) -> None:
        request = self.requests[self.done % self.POOL]
        self.done += 1
        out = run.op("compose", lambda: self._compose(request), self._check)
        if out is not None:
            run.record_output(out[1].means, out[1].covs, out[2].means, out[2].covs)

    def negative_controls(self) -> list:
        seqs, (means, covs, jitter), blended = self.last
        moved = means.copy()
        moved[-1] *= 1.0 + 1e-8
        return [
            ("combine passthrough", self._errors(seqs, (means, checks.nudge(covs), jitter),
                                                 blended)),
            ("combine reference", self._errors(seqs, (moved, covs, jitter), blended)),
            ("combine jitter", self._errors(seqs, (means, covs, 1), blended)),
        ]


class CliPipeline(Workload):
    """One pass of the command line on files written during input
    generation: fit of 5 demo CSVs, sample, generate with SVG, blend, and a
    6-segment replan, each through mptraj.cli.main in this process."""

    name = "cli_pipeline"
    primary = "pass"
    DOFS = 3
    DEMOS = 5
    OUTPUTS = ("wdist.json", "samples.csv", "gen.csv", "gen.svg", "blend.json",
               "replan.csv")
    JUMP_LINES = ("max position jump: 0.000e+00", "max velocity jump: 0.000e+00")

    def __init__(self, rng, workdir: str):
        self.dir = workdir
        p = self._path
        d = self.DOFS
        config = dict(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=10, duration=3.0)
        _write_json(p("config.json"), config)
        t = np.arange(3001) / 1000.0
        header = ",".join(["t"] + [f"dof{k}_{kind}" for k in range(d)
                                   for kind in ("pos", "vel")])
        for i in range(self.DEMOS):
            a = rng.standard_normal((d, 4))
            phase = 2.0 * t + a[:, 3:4]
            pos = a[:, :1] + a[:, 1:2] * t + a[:, 2:3] * np.sin(phase)
            vel = a[:, 1:2] + 2.0 * a[:, 2:3] * np.cos(phase)
            cols = np.stack([pos, vel], axis=1).reshape(2 * d, -1)
            np.savetxt(p(f"demo{i}.csv"), np.vstack([t, cols]).T, fmt="%.17g",
                       delimiter=",", header=header, comments="")
        dim = d * (config["num_basis"] + 1)
        _write_json(p("weights.json"), dict(dofs=d, num_basis=config["num_basis"],
                                            weights=(5.0 * rng.standard_normal(dim)).tolist()))
        self.bcs = []
        for name in ("bc0.json", "bc1.json"):
            bc = dict(t_b=0.0, y_b=rng.standard_normal(d).tolist(),
                      dy_b=rng.standard_normal(d).tolist())
            _write_json(p(name), bc)
            self.bcs.append(mp.BoundaryCondition(**bc))
        second = _random_wdist(rng, dim, mean_scale=1.0)
        _write_json(p("wdist2.json"), dict(
            dofs=d, num_basis=config["num_basis"], mean=second.mean.tolist(),
            chol_lower=second.chol[np.tril_indices(dim)].tolist()))
        initial = dict(t_b=0.0, y_b=rng.standard_normal(d).tolist(),
                       dy_b=rng.standard_normal(d).tolist())
        self.initial = mp.BoundaryCondition(**initial)
        _write_json(p("scenario.json"), dict(
            initial=initial, rate_hz=1000.0, anchor="follow",
            segments=[dict(horizon=0.5, wdist=("wdist.json", "wdist2.json")[k % 2])
                      for k in range(6)]))

        bank = ["--bank", p("bank.npz")]
        demos = [arg for i in range(self.DEMOS) for arg in ("--demo", p(f"demo{i}.csv"))]
        self.precompute = ["precompute", "--config", p("config.json"), "--out", p("bank.npz")]
        self.commands = [
            ["fit", *bank, *demos, "--out", p("wdist.json")],
            ["sample", *bank, "--wdist", p("wdist.json"), "--bc", p("bc0.json"),
             "--count", "20", "--rate", "1000", "--out", p("samples.csv")],
            ["generate", *bank, "--weights", p("weights.json"), "--bc", p("bc0.json"),
             "--rate", "1000", "--out", p("gen.csv"), "--svg", p("gen.svg")],
            ["blend", *bank, "--wdist", p("wdist.json"), "--wdist", p("wdist2.json"),
             "--bc", p("bc0.json"), "--bc", p("bc1.json"), "--ramp-start", "1",
             "--ramp-end", "2", "--rate", "200", "--out", p("blend.json")],
            ["replan", *bank, "--scenario", p("scenario.json"), "--out", p("replan.csv")],
        ]
        self.reference = None

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    @staticmethod
    def _cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = mptraj.cli.main(argv)
        return code, out.getvalue()

    def setup(self) -> None:
        code, text = self._cli(self.precompute)
        if code != 0:
            raise RuntimeError(f"precompute exited {code}: {text.strip()}")

    def _parse_back(self, paths: dict) -> list:
        """Every output reads back; sampled and generated traces start
        exactly at their boundary state."""
        errors = []

        def attempt(name, read):
            try:
                return read(paths[name])
            except Exception as exc:  # any failure to read back is the finding
                errors.append(f"{name} does not read back: {type(exc).__name__}: {exc}")
                return None

        attempt("wdist.json", lambda path: mp.distribution.weights_distribution_from_dict(
            _read_json(path)))
        attempt("blend.json", lambda path: mp.probops.gaussian_sequence_from_dict(
            _read_json(path)))
        attempt("gen.svg", ET.parse)
        samples = attempt("samples.csv", lambda path: np.loadtxt(
            path, delimiter=",", skiprows=1, ndmin=2))
        if samples is not None:
            errors.append(checks.equal("samples.csv shape", samples.shape,
                                       (20 * 3001, 2 + self.DOFS)))
            start = samples[samples[:, 1] == 0.0, 2:]
            errors.append(checks.bit_exact("sample position at t_b", start,
                                           np.broadcast_to(self.bcs[0].y_b, start.shape)))
        for name, bc in (("gen.csv", self.bcs[0]), ("replan.csv", self.initial)):
            trace = attempt(name, mp.trajectory.read_trajectory_csv)
            if trace is not None:
                errors += _boundary_errors(name, trace[1][:, 0], trace[2][:, 0], bc)
        return errors

    def _check_pass(self, results) -> list:
        errors = [checks.equal(f"{argv[0]} exit code", code, 0)
                  for argv, (code, _) in zip(self.commands, results)]
        replan_lines = results[-1][1].splitlines()
        errors += [None if line in replan_lines else f"replan printed no '{line}'"
                   for line in self.JUMP_LINES]
        digests = {}
        for name in self.OUTPUTS:
            with open(self._path(name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        if self.reference is None:
            self.reference = digests
            errors += self._parse_back({name: self._path(name) for name in self.OUTPUTS})
        errors += self._digest_errors(digests)
        self.last = (results, digests)
        return errors

    def _digest_errors(self, digests: dict) -> list:
        return [checks.equal(f"{name} bytes (sha256)", digests[name], self.reference[name])
                for name in self.OUTPUTS]

    def cycle(self, run) -> None:
        results = run.op("pass", lambda: [self._cli(argv) for argv in self.commands],
                         self._check_pass)
        if results is not None:
            run.record_output(*(self.last[1][name].encode() for name in self.OUTPUTS))

    def negative_controls(self) -> list:
        results, digests = self.last
        failed_exit = [(1, results[0][1])] + results[1:]
        no_jumps = results[:-1] + [(0, results[-1][1].replace(
            self.JUMP_LINES[0], "max position jump: 1.000e-20"))]
        corrupt = self._path("corrupt.csv")
        with open(corrupt, "w", encoding="utf-8") as fh:
            fh.write("t,dof0_pos,dof0_vel\n0,abc,1\n")
        paths = {name: self._path(name) for name in self.OUTPUTS}
        return [
            ("cli exit code", self._check_pass(failed_exit)),
            ("cli replan jumps", self._check_pass(no_jumps)),
            ("cli byte-identical", self._digest_errors({**digests, "gen.csv": "0" * 64})),
            ("cli parse back", self._parse_back({**paths, "gen.csv": corrupt})),
        ]


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {cls.name: cls for cls in (OnlineReplan, PolicyUpdate, Compose, CliPipeline)}
