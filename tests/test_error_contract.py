"""The error contract of every public name: on valid inputs at the edge of
float64 (values near +-1e308, variances near 1e-308 and 1e308, times at the
bank's ends) a call returns finite output or raises one MptrajError, and an
overflow is a NumericalError, never an error about a field the caller never
passed.

Each case runs twice: with numpy's float faults ignored, as a library caller
who silences warnings meets them, and under the CLI's regime, where numpy
raises on overflow, invalid operations and division by zero and the command
runs inside errors.numerical_errors.  A guard fails when a public name has no
entry in the table."""
import ast
import dataclasses
import math

import numpy as np
import pytest

import mptraj
from mptraj import (ActivationProfile, BenchScenario, BoundaryCondition,
                    Demonstration, DmpConfig, ForcingBasis, GaussianSequence,
                    IntegratorSpec, LatentGaussian, MptrajError, NumericalError,
                    TimePairBatch, TrajectoryDistribution, TrajectoryGenerator,
                    ValidationError, WeightsDistribution, bayesian_aggregate, blend,
                    combine, evaluate_position, evaluate_velocity, falling_ramp,
                    fit_distribution, fit_weights, folded_basis, gaussian_nll,
                    integrate_dmp, marginal, pair_nll, per_time_marginals, phase,
                    precompute_basis, replan_segment, run_benchmark, run_chain,
                    sample_time_pairs, sample_trajectories, smoothness_metric,
                    trajectory_distribution)
from mptraj.errors import numerical_errors
from tests.conftest import package_nodes

BIG = 1e308
DOFS = 2
FINITE = "finite"
# finite where numpy's faults are ignored, and a NumericalError under the CLI's
# regime: an intermediate overflows on the way to a finite result, such as
# exp(-inf) = 0, and the CLI stops at any fault numpy flags
FLAGGED = "flagged"

# a generator's products and state offsets stay unchecked: a numerical_errors
# block costs about 2.5 us, and an online query of about 100 us builds a
# generator and evaluates it twice
GENERATOR_GAP = pytest.mark.xfail(
    strict=True, reason="a generator's products and state offsets are not checked: a "
    "numerical_errors block would cost about 2.5 us of an online query's 100 us")


@pytest.fixture(scope="module")
def env(small_bank):
    return _environment(small_bank)


def _environment(bank):
    rng = np.random.default_rng(7)
    wd = bank.weight_dim
    dim = DOFS * wd
    signs = rng.choice([-1.0, 1.0], size=dim)
    # the goal column's position rows reach 1 and its velocity rows 4.6, near
    # t_b + 0.08, so goal weights at 1e308 keep the positions finite and
    # overflow the velocities there
    goal = np.zeros(dim)
    goal[wd - 1::wd] = BIG
    rest = BoundaryCondition(0.0, np.zeros(DOFS), np.zeros(DOFS))
    unit = WeightsDistribution(np.zeros(dim), np.eye(dim))
    seq = per_time_marginals(unit, rest, [0.0, bank.duration], bank)
    return dict(
        bank=bank, wd=wd, dim=dim, rest=rest, unit=unit,
        ends=[0.0, bank.duration],
        # the boundary time at the bank's end
        late=BoundaryCondition(bank.duration, np.ones(DOFS), np.ones(DOFS)),
        # xi1 + xi2 peaks at 1.0029 near t_b + 0.006 for this bank's k = 12.5, so
        # the position offset of this state overflows there, and the velocity
        # offset at t_b + 0.1, where dxi1 = -4.5
        huge=BoundaryCondition(0.0, 1.797e308 * np.ones(DOFS), 1.797e308 * np.ones(DOFS)),
        far=BIG * signs,
        goal=goal,
        far_mean=WeightsDistribution(goal, np.eye(dim)),
        # variances near 1e308 and 1e-308, and factors whose squares overflow
        wide=WeightsDistribution(np.zeros(dim), 1e154 * np.eye(dim)),
        narrow=WeightsDistribution(np.zeros(dim), 1e-154 * np.eye(dim)),
        overflowing=WeightsDistribution(np.zeros(dim), 1e200 * np.eye(dim)),
        seq=GaussianSequence(*seq),
        tiny_seq=GaussianSequence([0.0, 1.0], np.zeros((2, DOFS)),
                                  1e-308 * np.ones((2, 1, 1)) * np.eye(DOFS)),
        huge_seq=GaussianSequence([0.0, 1.0], np.zeros((2, DOFS)),
                                  1e308 * np.ones((2, 1, 1)) * np.eye(DOFS)),
        spec=IntegratorSpec("rk4", 0.01),
    )


def _pairs(e, values, wdist):
    batch = TimePairBatch(np.array([[0.2, 0.5]]), np.full((1, 2 * DOFS), values))
    return pair_nll(batch, wdist, e["rest"], e["bank"])


def _demo(positions):
    positions = np.atleast_2d(positions)
    return Demonstration(np.linspace(0.0, 1.0, positions.shape[1]), positions)


def _ramp(scale):
    return scale * np.linspace(1.0, 2.0, 401)


# public name -> {case: (call of the environment, expected outcome)}, or the
# reason it computes nothing of its own
CONTRACT = {
    "MptrajError": "an exception class",
    "ValidationError": "an exception class",
    "IoError": "an exception class",
    "NumericalError": "an exception class",
    "DimensionError": "an exception class",
    "ReplanSegment": "a result record, made by replan_segment, whose cases run here",
    "SegmentPlan": "a result record, made by run_chain, whose cases run here",
    "DmpConfig": {
        "alpha 1e308": (lambda e: DmpConfig(BIG, 1.0, 2.0, 3, 1.0), FINITE),
        "grid_dt 5e-324": (lambda e: DmpConfig(25.0, 1.0, 2.0, 3, 1.0, 5e-324),
                           ValidationError),
    },
    "precompute_basis": {
        "alpha 1e308": (lambda e: precompute_basis(DmpConfig(BIG, 1.0, 2.0, 3, 1.0, 1 / 400)),
                        NumericalError),
        "tau 1e308": (lambda e: precompute_basis(DmpConfig(25.0, BIG, 2.0, 3, 1.0, 1 / 400)),
                      ValidationError),
    },
    "BasisBank": {
        "lookup at the ends": (lambda e: e["bank"].lookup(e["ends"]), FINITE),
        "lookup past the end": (lambda e: e["bank"].lookup([BIG]), ValidationError),
    },
    "ForcingBasis": {
        "phase ends": (lambda e: ForcingBasis(e["bank"].config).normalized_scaled([0.0, 1.0]),
                       FINITE),
        "raw at 1e308": (lambda e: ForcingBasis(e["bank"].config).raw([BIG, -BIG]), FLAGGED),
    },
    "phase": {
        "t 0 and 1e308": (lambda e: phase([0.0, BIG], e["bank"].config), FLAGGED),
    },
    "BenchScenario": {
        "duration 1e308": (lambda e: BenchScenario(duration=BIG), ValidationError),
    },
    "run_benchmark": {
        "one repetition": (lambda e: run_benchmark(
            BenchScenario(dofs=1, duration=1.0, rate_hz=100.0, num_basis=3), 1), FINITE),
    },
    "IntegratorSpec": {
        "dt 5e-324": (lambda e: IntegratorSpec("rk4", 5e-324), FINITE),
    },
    "integrate_dmp": {
        "weights 1e308": (lambda e: integrate_dmp(e["far"][:e["wd"]], [0.0], [0.0],
                                                  e["bank"].config, e["spec"]),
                          NumericalError),
        "state 1e308": (lambda e: integrate_dmp(np.zeros(e["wd"]), [BIG], [-BIG],
                                                e["bank"].config, e["spec"]),
                        NumericalError),
    },
    "BoundaryCondition": {
        "t_b and state 1e308": (lambda e: BoundaryCondition(BIG, [BIG], [-BIG]), FINITE),
    },
    "TrajectoryGenerator": {
        "positions at 1e308": (lambda e: TrajectoryGenerator(
            e["rest"], e["ends"], e["bank"]).positions(e["far"]), FINITE),
        "velocities at 1e308": pytest.param(
            lambda e: TrajectoryGenerator(e["rest"], [0.08], e["bank"]).velocities(
                e["goal"]), NumericalError, marks=GENERATOR_GAP),
        "state 1.797e308": pytest.param(
            lambda e: TrajectoryGenerator(e["huge"], [0.006], e["bank"]).positions(
                np.zeros(e["dim"])), NumericalError, marks=GENERATOR_GAP),
        "t_b at the end": (lambda e: TrajectoryGenerator(
            e["late"], [e["bank"].duration], e["bank"]).velocities(e["far"]), FINITE),
    },
    "folded_basis": {
        "positions at 1e308": (lambda e: folded_basis(
            e["rest"], e["ends"], e["bank"]).positions(e["far"]), FINITE),
    },
    "evaluate_position": {
        "weights 1e308": (lambda e: evaluate_position(e["far"], e["rest"], e["ends"],
                                                      e["bank"]), FINITE),
        "state 1.797e308": pytest.param(
            lambda e: evaluate_position(np.zeros(e["dim"]), e["huge"], [0.006], e["bank"]),
            NumericalError, marks=GENERATOR_GAP),
    },
    "evaluate_velocity": {
        "weights 1e308": pytest.param(
            lambda e: evaluate_velocity(e["goal"], e["rest"], [0.08], e["bank"]),
            NumericalError, marks=GENERATOR_GAP),
    },
    "WeightsDistribution": {
        "covariance of chol 1e200": (lambda e: e["overflowing"].covariance(),
                                     NumericalError),
        "covariance of chol 1e-154": (lambda e: e["narrow"].covariance(), FINITE),
        "from a covariance 1e308": (lambda e: WeightsDistribution.from_covariance(
            np.zeros(e["dim"]), BIG * np.eye(e["dim"])), FINITE),
    },
    "trajectory_distribution": {
        "at the ends": (lambda e: trajectory_distribution(e["unit"], e["rest"], e["ends"],
                                                          e["bank"]), FINITE),
        "variances 1e308": (lambda e: trajectory_distribution(e["wide"], e["rest"],
                                                              e["ends"], e["bank"]), FINITE),
        "chol 1e200": (lambda e: trajectory_distribution(e["overflowing"], e["rest"],
                                                         e["ends"], e["bank"]),
                       NumericalError),
        "mean 1e308": (lambda e: trajectory_distribution(e["far_mean"], e["rest"],
                                                         e["ends"], e["bank"]), FINITE),
        "state 1.797e308": (lambda e: trajectory_distribution(e["unit"], e["huge"], [0.006],
                                                              e["bank"]), NumericalError),
    },
    "per_time_marginals": {
        "chol 1e200": (lambda e: per_time_marginals(e["overflowing"], e["rest"], e["ends"],
                                                    e["bank"]), NumericalError),
        "variances 1e-308": (lambda e: per_time_marginals(e["narrow"], e["late"], e["ends"],
                                                          e["bank"]), FINITE),
    },
    "TrajectoryDistribution": {
        "covariance 1e308": (lambda e: TrajectoryDistribution(
            ((0.0, 0), (1.0, 0)), [BIG, -BIG], BIG * np.eye(2), 0.0), FINITE),
    },
    "marginal": {
        "of a covariance 1e308": (lambda e: marginal(TrajectoryDistribution(
            ((0.0, 0), (1.0, 0)), [BIG, -BIG], BIG * np.eye(2), 0.0), [1]), FINITE),
    },
    "gaussian_nll": {
        "values 1.7e308": (lambda e: gaussian_nll(trajectory_distribution(
            e["unit"], e["rest"], [0.1, 0.2], e["bank"]), np.full(2 * DOFS, 1.7e308)),
                           NumericalError),
        "variance 1e-308": (lambda e: gaussian_nll(TrajectoryDistribution(
            ((0.0, 0),), [0.0], [[1e-308]], 0.0), [2.0]), NumericalError),
        "residual past 1e308": (lambda e: gaussian_nll(TrajectoryDistribution(
            ((0.0, 0),), [-BIG], [[1.0]], 0.0), [BIG]), NumericalError),
    },
    "TimePairBatch": {
        "times and values 1e308": (lambda e: TimePairBatch([[0.0, BIG]], [[BIG, -BIG]]),
                                   FINITE),
    },
    "sample_time_pairs": {
        "times 0 and 1e308": (lambda e: sample_time_pairs([0.0, BIG], 3, 0), FINITE),
    },
    "pair_nll": {
        "values 1.7e308": (lambda e: _pairs(e, 1.7e308, WeightsDistribution(
            np.zeros(e["dim"]), math.sqrt(1e-3) * np.eye(e["dim"]))), NumericalError),
        "mean 1e308": (lambda e: _pairs(e, 0.0, e["far_mean"]), NumericalError),
        "variances 1e308": (lambda e: _pairs(e, 0.0, e["wide"]), FINITE),
        "chol 1e200": (lambda e: _pairs(e, 0.0, e["overflowing"]), NumericalError),
        "variances 1e-308": (lambda e: _pairs(e, 1.0, e["narrow"]), FINITE),
    },
    "sample_trajectories": {
        "variances 1e308": (lambda e: sample_trajectories(e["wide"], e["rest"], e["ends"],
                                                          e["bank"], 3, 0), FINITE),
        "chol 1e308": (lambda e: sample_trajectories(
            WeightsDistribution(np.zeros(e["dim"]), BIG * np.eye(e["dim"])), e["rest"],
            e["ends"], e["bank"], 3, 0), NumericalError),
        "state 1.797e308": (lambda e: sample_trajectories(e["unit"], e["huge"], [0.006],
                                                          e["bank"], 3, 0), NumericalError),
        "velocities, mean 1e308": (lambda e: sample_trajectories(
            e["far_mean"], e["rest"], [0.08], e["bank"], 3, 0, with_velocities=True),
                                   NumericalError),
    },
    "replan_segment": {
        "state 1.797e308": (lambda e: replan_segment(e["huge"], e["unit"], 0.5, e["bank"],
                                                     10.0), NumericalError),
        "chol 1e200": (lambda e: replan_segment(e["rest"], e["overflowing"], 0.5, e["bank"],
                                                10.0), NumericalError),
        "to the bank's end": (lambda e: replan_segment(e["rest"], e["narrow"],
                                                       e["bank"].duration, e["bank"], 10.0),
                              FINITE),
    },
    "run_chain": {
        "state 1.797e308": (lambda e: run_chain(e["huge"], [(e["unit"], 0.5)], e["bank"],
                                                10.0), NumericalError),
        "mean 1e308": (lambda e: run_chain(e["rest"], [(e["far_mean"], 0.5)], e["bank"],
                                           10.0), NumericalError),
        "sampled, mean 1e308": (lambda e: run_chain(
            e["rest"], [(e["far_mean"], 0.5)], e["bank"], 10.0, mode="sample", seed=0),
                                NumericalError),
    },
    "smoothness_metric": {
        "second difference past 1e308": (
            lambda e: smoothness_metric([[0.0, BIG, -BIG]], 1.0), NumericalError),
        "dt 1e-200": (lambda e: smoothness_metric([[0.0, 1.0, 0.0]], 1e-200),
                      NumericalError),
    },
    "Demonstration": {
        "first step 5e-324": (lambda e: Demonstration(
            [0.0, 5e-324, 1.0], [[0.0, BIG, 0.0]]).boundary_condition(), NumericalError),
    },
    "fit_weights": {
        "first step 5e-324": (lambda e: fit_weights(Demonstration(
            [0.0, 5e-324, 1.0], [[0.0, BIG, 0.0]]), e["bank"]), NumericalError),
        "positions 1.7e308": (lambda e: fit_weights(_demo(_ramp(0.85e308)), e["bank"]),
                              NumericalError),
    },
    "fit_distribution": {
        "fits at +-1e300": (lambda e: fit_distribution(
            [_demo(sign * _ramp(1e300)) for sign in (1.0, -1.0, 1.0)], e["bank"]),
                            NumericalError),
    },
    "LatentGaussian": {
        "variances 1e-308 and 1e308": (lambda e: LatentGaussian([BIG, -BIG], [1e-308, BIG]),
                                       FINITE),
    },
    "bayesian_aggregate": {
        "posterior mean past 1e308": (lambda e: bayesian_aggregate(
            LatentGaussian([0.0], [1.0]), [LatentGaussian([BIG], [1e-308])]),
                                      NumericalError),
        "means +-1e308": (lambda e: bayesian_aggregate(
            LatentGaussian([BIG], [BIG]), [LatentGaussian([-BIG], [BIG])]), NumericalError),
        "variances 1e-308 and 1e308": (lambda e: bayesian_aggregate(
            LatentGaussian([1.0], [1e-308]), [LatentGaussian([-1.0], [BIG])]), FINITE),
    },
    "GaussianSequence": {
        "covariances 1e308": (lambda e: e["huge_seq"], FINITE),
    },
    "ActivationProfile": {
        "activation 5e-324": (lambda e: ActivationProfile([0.0, 1.0], [[1.0, 5e-324]]),
                              FINITE),
    },
    "falling_ramp": {
        "times at 1e308": (lambda e: falling_ramp([-BIG, 0.0, BIG], -1.0, 1.0), FINITE),
    },
    "combine": {
        "variances 1e-308": (lambda e: combine(
            [e["tiny_seq"], e["tiny_seq"]],
            ActivationProfile([0.0, 1.0], np.ones((2, 2)))), NumericalError),
        "variances 1e308": (lambda e: combine(
            [e["huge_seq"], e["seq"]], ActivationProfile([0.0, 1.0], np.ones((2, 2)))),
                            FINITE),
    },
    "blend": {
        "variances 1e308": (lambda e: blend(e["huge_seq"], e["seq"], [1.0, 0.5]), FINITE),
        "variances 1e-308": (lambda e: blend(e["tiny_seq"], e["tiny_seq"], [0.5, 0.5]),
                             NumericalError),
    },
}


def _finite(result) -> bool:
    """Whether every float the result holds, in arrays, records and containers, is finite."""
    if isinstance(result, np.ndarray):
        return result.dtype.kind != "f" or bool(np.isfinite(result).all())
    if isinstance(result, float):
        return math.isfinite(result)
    if isinstance(result, (tuple, list)):
        return all(map(_finite, result))
    if isinstance(result, dict):
        return all(map(_finite, result.values()))
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    return True


REGIMES = {
    "faults ignored": lambda: np.errstate(all="ignore"),
    "CLI regime": lambda: numerical_errors("mptraj"),
}


def _cases():
    """(call, expected, regime) of every case in both regimes; a known gap's
    xfail holds where faults are ignored, as the CLI's regime raises there."""
    for name, cases in CONTRACT.items():
        if isinstance(cases, str):
            continue
        for case, entry in cases.items():
            # a plain (call, expected) pair, or a pytest.param that carries marks
            if not hasattr(entry, "marks"):
                entry = pytest.param(*entry)
            for regime in REGIMES:
                yield pytest.param(*entry.values, regime, id=f"{name}: {case} [{regime}]",
                                   marks=entry.marks if regime == "faults ignored" else ())


@pytest.mark.parametrize("call, expected, regime", _cases())
def test_finite_output_or_one_error(env, call, expected, regime):
    if expected == FLAGGED:
        expected = FINITE if regime == "faults ignored" else NumericalError
    if expected == FINITE:
        with REGIMES[regime]():
            result = call(env)
        assert _finite(result)
    else:
        # one MptrajError of the expected category: a NumericalError for an
        # overflow, never an error about a field the caller never passed
        with pytest.raises(MptrajError) as info, REGIMES[regime]():
            call(env)
        assert isinstance(info.value, expected), info.value


def test_every_public_name_has_an_entry():
    assert set(CONTRACT) == set(mptraj.__all__)


# (module, function) of each np.errstate that ignores faults, where a fault is
# expected and handled after it: the per-time einsum and the fold's
# covariances (_group_gaussians), the combined Gaussians, whose message names
# the time index, and the stacked inverses, which overflow on purpose
# (combine, _inverse_stack), the bank's self-check (precompute_basis), the
# basis widths (ForcingBasis) and the CSV writer's number text
# (fileio._cell_text), which takes inf and NaN cells apart
KEPT_IGNORES = {
    ("distribution.py", "_group_gaussians"), ("probops.py", "combine"),
    ("probops.py", "_inverse_stack"), ("basis.py", "precompute_basis"),
    ("basis.py", "ForcingBasis.__post_init__"), ("fileio.py", "_cell_text"),
}


def test_float_faults_take_the_route_in_errors():
    # errors.numerical_errors is the only code that makes numpy raise and turns
    # a FloatingPointError into a NumericalError
    named, raising, ignoring = set(), set(), set()
    for module, function, node in package_nodes():
        if "FloatingPointError" in (getattr(node, "id", None), getattr(node, "attr", None)):
            named.add(module)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.errstate":
            values = {ast.literal_eval(kw.value) for kw in node.keywords}
            if "raise" in values:
                raising.add(module)
            if "ignore" in values:
                ignoring.add((module, function))
    assert named <= {"errors.py"} and raising == {"errors.py"}
    assert ignoring == KEPT_IGNORES
