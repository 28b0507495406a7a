"""Span recording for the traced run.

The traced run wraps public functions of mptraj from outside the package.
Each target is replaced, at every module attribute of mptraj that refers to
it, by a wrapper that records a span (name, start, end, parent, phase); a
method is replaced on its class.  Patching every alias matters: replan, for
example, imports trajectory_distribution and evaluate_position by name, so a
patch of the defining module alone would miss the calls made from replan.
Nothing in the package is edited, and untraced cycles run with every
original restored.

Spans stay in memory and are written out once, when the run ends.  A span's
self time is its duration minus the durations of its child spans; the
wrapped calls all run on one thread, so children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
from collections import defaultdict
from time import perf_counter

CLI_COMMANDS = ("precompute", "fit", "sample", "generate", "blend", "replan")

# "<module>.<attribute path>" of every wrapped function; the name is also the
# span name and the prefix of the per-layer metrics
SPAN_TARGETS = (
    "basis.precompute_basis",
    "basis.BasisBank.pos_rows",
    "basis.BasisBank.vel_rows",
    "basis.BasisBank.load",
    "basis.BasisBank.save",
    "trajectory.folded_basis",
    "trajectory.TrajectoryGenerator.positions",
    "trajectory.TrajectoryGenerator.velocities",
    "trajectory.evaluate_position",
    "trajectory.evaluate_velocity",
    "trajectory.write_trajectory_csv",
    "trajectory.read_trajectory_csv",
    "distribution.trajectory_distribution",
    "distribution.per_time_marginals",
    "distribution.gaussian_nll",
    "distribution.pair_nll",
    "distribution.sample_trajectories",
    "distribution.sample_time_pairs",
    "distribution.write_samples_csv",
    "probops.combine",
    "probops.blend",
    "probops.write_gaussian_sequence_json",
    "learning.fit_weights",
    "learning.fit_distribution",
    "replan.replan_segment",
    "replan.run_chain",
    "fileio.atomic_write_text",
    "fileio.atomic_write_bytes",
    "fileio.atomic_write_json",
    "fileio.read_text",
    "fileio.read_json",
    "svgplot.line_plot",
    "oracle.integrate_dmp",
) + tuple(f"cli.{command}" for command in CLI_COMMANDS)

# counts taken at a wrapped call: target -> (count name, unit, f(args, result));
# fileio._atomic_write is the one place every written byte passes, and is
# counted without a span of its own
COUNTERS = {
    "distribution.pair_nll": ("distribution.pairs_scored", "count",
                              lambda args, result: args[0].count),
    "probops.combine": ("probops.jitter_events", "count",
                        lambda args, result: result.meta["jitter_applied"]),
    "fileio._atomic_write": ("fileio.bytes_written", "B",
                             lambda args, result: len(args[1])),
}


def layer_metric_units():
    """(metric, unit) for every per-layer metric the traced run records."""
    for target in SPAN_TARGETS:
        yield f"{target}.calls", "count"
        yield f"{target}.self_s", "s"
    for count_name, unit, _ in COUNTERS.values():
        yield count_name, unit


def _attribute_path(target: str) -> tuple[str, str]:
    module, path = target.split(".", 1)
    if module == "cli":
        path = "_cmd_" + path
    return module, path


class Tracer:
    """Records spans and counts while installed and not paused.

    Values are reported per repetition of the phase a call happened in: per
    set-up, per workload cycle, or per oracle run.
    """

    def __init__(self):
        self.active = False
        self.phase = ""
        self.phase_reps = defaultdict(int)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counts = defaultdict(float)
        self._stack: list[int] = []
        self._patches = self._plan_patches()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _record(self, name_id: int, fn, args, kwargs):
        stack = self._stack
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        stack.append(index)
        self.spans.append(None)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[index] = (name_id, start, end, parent, self.phase)

    def call(self, name: str, fn):
        """fn() inside a span of its own when tracing, e.g. one workload
        operation, so the layer spans below it have a parent."""
        if not self.active:
            return fn()
        return self._record(self._name_id(name), fn, (), {})

    def _wrap(self, name: str | None, fn, counter):
        tracer = self
        name_id = None if name is None else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name_id is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer._record(name_id, fn, args, kwargs)
            if counter is not None:
                tracer.counts[(counter[0], tracer.phase)] += counter[2](args, result)
            return result

        return wrapper

    def _plan_patches(self) -> list:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mptraj" or n.startswith("mptraj.")]
        patches = []
        targets = [(t, t) for t in SPAN_TARGETS]
        targets += [(t, None) for t in COUNTERS if t not in SPAN_TARGETS]
        for target, span_name in targets:
            module, path = _attribute_path(target)
            owner = importlib.import_module("mptraj." + module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = vars(owner)[attr]
            counter = COUNTERS.get(target)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span_name, raw.__func__, counter))
                patches.append((owner, attr, raw, wrapped))
            elif classes:
                patches.append((owner, attr, raw, self._wrap(span_name, raw, counter)))
            else:
                wrapped = self._wrap(span_name, raw, counter)
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is raw:
                            patches.append((mod, key, raw, wrapped))
        return patches

    @contextlib.contextmanager
    def installed(self, phase: str):
        """Trace one repetition of `phase`: wrappers in place and recording."""
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.phase = phase
        self.phase_reps[phase] += 1
        self.active = True
        try:
            yield
        finally:
            self.active = False
            for owner, attr, raw, _ in reversed(self._patches):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (output checks) record nothing."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def layer_metrics(self) -> dict:
        """{metric: (value, unit)} for every name of layer_metric_units(),
        each value per repetition of the phase it was recorded in."""
        self_time = [end - start for (_, start, end, _, _) in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        totals = defaultdict(float, self.counts)
        for (name_id, _, _, _, phase), own in zip(self.spans, self_time):
            totals[(f"{self.names[name_id]}.calls", phase)] += 1
            totals[(f"{self.names[name_id]}.self_s", phase)] += own
        values = defaultdict(float)
        for (metric, phase), total in totals.items():
            values[metric] += total / self.phase_reps[phase]
        return {metric: (values[metric], unit) for metric, unit in layer_metric_units()}

    def write(self, path: str) -> None:
        """All spans as gzip CSV: index, name, start, end, parent, phase."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,phase\n")
            for index, (name_id, start, end, parent, phase) in enumerate(self.spans):
                fh.write(f"{index},{self.names[name_id]},{start:.9f},{end:.9f},"
                         f"{parent},{phase}\n")
