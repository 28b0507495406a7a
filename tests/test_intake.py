"""Every array argument of a public function enters through errors.take_floats,
as every record field enters through errors.take_array: a complex or
non-numeric value is a ValidationError and a value with more axes than the
argument takes a DimensionError, each naming the argument.  A guard keeps
hand-written float conversions out of the package."""
import ast
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mptraj
from mptraj import (BoundaryCondition, DimensionError, ForcingBasis, GaussianSequence,
                    IntegratorSpec, TrajectoryDistribution, TrajectoryGenerator,
                    ValidationError, WeightsDistribution, blend, falling_ramp, gaussian_nll,
                    integrate_dmp, phase, sample_time_pairs, smoothness_metric)
from mptraj.distribution import write_samples_csv
from mptraj.svgplot import line_plot
from mptraj.trajectory import weight_blocks, write_trajectory_csv

PACKAGE = Path(mptraj.__file__).resolve().parent


@pytest.fixture(scope="module")
def env(small_bank, tmp_path_factory):
    w = np.zeros(small_bank.weight_dim)
    bc = BoundaryCondition(0.0, [0.0], [0.0])
    seq = GaussianSequence(times=[0.0, 0.1], means=[[0.0], [1.0]], covs=[[[1.0]], [[2.0]]])
    return SimpleNamespace(
        bank=small_bank, config=small_bank.config, w=w, bc=bc, seq=seq,
        gen=TrajectoryGenerator(bc, [0.1, 0.2], small_bank),
        dist=TrajectoryDistribution(((0.0, 0), (0.1, 0)), [0.0, 0.0], np.eye(2), 0.0),
        spec=IntegratorSpec("rk4", 0.05), path=str(tmp_path_factory.mktemp("intake") / "out"))


# (function, argument, call of env and the argument's value, a valid value,
# whether one more axis than the valid value's is refused): gaussian_nll and
# sample_time_pairs flatten their argument, phase, ForcingBasis and a fold's
# weights take any number of axes, and write_samples_csv refuses samples that
# are not 3-D with its own message, as it did before the intake
ARGUMENTS = [
    ("phase", "t", lambda e, v: phase(v, e.config), [0.1, 0.2], False),
    ("ForcingBasis.raw", "x", lambda e, v: ForcingBasis(e.config).raw(v), [0.5], False),
    ("ForcingBasis.normalized_scaled", "x",
     lambda e, v: ForcingBasis(e.config).normalized_scaled(v), [0.5], False),
    ("BasisBank.lookup", "t", lambda e, v: e.bank.lookup(v), [0.1, 0.2], True),
    ("TrajectoryGenerator", "times", lambda e, v: TrajectoryGenerator(e.bc, v, e.bank),
     [0.1, 0.2], True),
    ("TrajectoryGenerator.positions", "w_g", lambda e, v: e.gen.positions(v), None, False),
    ("TrajectoryGenerator.velocities", "w_g", lambda e, v: e.gen.velocities(v), None, False),
    ("weight_blocks", "w_g", lambda e, v: weight_blocks(v, 1, e.bank.weight_dim), None, True),
    ("write_trajectory_csv", "times",
     lambda e, v: write_trajectory_csv(e.path, v, [[0.0, 1.0]], None), [0.0, 0.1], True),
    ("write_trajectory_csv", "positions",
     lambda e, v: write_trajectory_csv(e.path, [0.0, 0.1], v, None), [[0.0, 1.0]], True),
    ("write_trajectory_csv", "velocities",
     lambda e, v: write_trajectory_csv(e.path, [0.0, 0.1], [[0.0, 1.0]], v), [[0.0, 1.0]],
     True),
    ("WeightsDistribution.from_covariance", "cov",
     lambda e, v: WeightsDistribution.from_covariance([0.0], v), [[1.0]], True),
    ("gaussian_nll", "values", lambda e, v: gaussian_nll(e.dist, v), [0.0, 1.0], False),
    ("sample_time_pairs", "times", lambda e, v: sample_time_pairs(v, 2, 0), [0.0, 0.1], False),
    ("write_samples_csv", "times",
     lambda e, v: write_samples_csv(e.path, v, np.zeros((1, 1, 2))), [0.0, 0.1], True),
    ("write_samples_csv", "samples", lambda e, v: write_samples_csv(e.path, [0.0, 0.1], v),
     [[[0.0, 1.0]]], False),
    ("falling_ramp", "times", lambda e, v: falling_ramp(v, 0.0, 1.0), [0.0, 0.5], True),
    ("blend", "activation", lambda e, v: blend(e.seq, e.seq, v), [1.0, 0.5], True),
    ("smoothness_metric", "positions", lambda e, v: smoothness_metric(v, 0.1),
     [[0.0, 1.0, 2.0]], True),
    ("integrate_dmp", "w_g", lambda e, v: integrate_dmp(v, [0.0], [0.0], e.config, e.spec),
     None, True),
    ("integrate_dmp", "y0", lambda e, v: integrate_dmp(e.w, v, [0.0], e.config, e.spec),
     [0.0], True),
    ("integrate_dmp", "dy0", lambda e, v: integrate_dmp(e.w, [0.0], v, e.config, e.spec),
     [0.0], True),
    ("line_plot", "times", lambda e, v: line_plot(e.path, v, [[0.0, 1.0]], ["a"]),
     [0.0, 0.1], True),
    ("line_plot", "values", lambda e, v: line_plot(e.path, [0.0, 0.1], v, ["a"]),
     [[0.0, 1.0]], True),
    ("line_plot", "bands",
     lambda e, v: line_plot(e.path, [0.0, 0.1], [[0.0, 1.0]], ["a"], bands=v),
     [[[0.0, 1.0]], [[1.0, 2.0]]], True),
]


@pytest.mark.parametrize("func, arg, call, good, extra_axis", ARGUMENTS,
                         ids=[f"{func}({arg})" for func, arg, *_ in ARGUMENTS])
def test_array_argument_intake(env, func, arg, call, good, extra_axis):
    # each case once read a complex value as its real part, or ended in a bare
    # ValueError or another function's message; a ragged nest is refused as
    # numbers, also where the argument keeps its own axes
    where = re.escape(arg)
    good = np.asarray(env.w if good is None else good, dtype=float)
    call(env, good)
    for value, numpy_text in [(good + 1j, "got complex values$"),
                              (1j, "got complex values$"),
                              ("x", "could not convert string to float: 'x'$"),
                              ([[0.0], [0.0, 1.0]], "setting an array element with a sequence")]:
        with pytest.raises(ValidationError, match=rf"^{where} must be numbers: {numpy_text}"):
            call(env, value)
    if extra_axis:
        extra = good[..., None]
        with pytest.raises(DimensionError,
                           match=rf"^{where} has shape {re.escape(str(extra.shape))}"):
            call(env, extra)


# (file, function, call) of each conversion that stays outside errors.py:
# marginal's integer positions, the integer segment ids, the CSV writer
# kernel's, whose callers have converted its arrays, and a fold's boundary
# states, which come from records
KEPT_CONVERSIONS = {
    ("distribution.py", "marginal", "np.atleast_1d(np.asarray(subset, dtype=object))"),
    ("distribution.py", "marginal", "np.asarray(subset, dtype=object)"),
    ("fileio.py", "write_csv_table", "np.asarray(values, dtype=np.float64)"),
    ("fileio.py", "write_csv_table", "np.asarray(times, dtype=np.float64)"),
    ("fileio.py", "write_csv_table", "np.asarray(labels, dtype=np.float64)"),
    ("trajectory.py", "write_trajectory_csv", "np.asarray(segment_ids)"),
    ("trajectory.py", "GridFold.offsets", "np.asarray(y_b)"),
    ("trajectory.py", "GridFold.offsets", "np.asarray(dy_b)"),
}


def _is_conversion(call: ast.Call) -> bool:
    """Whether call is np.asarray, np.atleast_1d, np.atleast_2d, or np.array
    or np.ascontiguousarray with a float dtype."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id == "np"):
        return False
    if func.attr in ("array", "ascontiguousarray"):
        dtypes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "dtype"]
        return any(ast.unparse(dtype) in ("float", "np.float64") for dtype in dtypes)
    return func.attr in ("asarray", "atleast_1d", "atleast_2d")


def _conversions(node, scope=()):
    """(qualified function, call text) of each conversion under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _conversions(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Call) and _is_conversion(child):
            yield ".".join(scope), ast.unparse(child)
        yield from _conversions(child, scope)


def test_array_arguments_convert_only_through_the_intake():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "errors.py" in sources
    found = {(path.name, function, call)
             for path in sources if path.name != "errors.py"
             for function, call in _conversions(ast.parse(path.read_text(), str(path)))}
    assert found == KEPT_CONVERSIONS
