import dataclasses

import numpy as np

import mptraj
from mptraj.trajectory import GridFold

# the package surface; a name joins it deliberately, by editing this list.
# Routes that only cross-check production live in tests/reference.py.
EXPECTED_API = [
    "ActivationProfile", "BasisBank", "BenchScenario",
    "BoundaryCondition", "Demonstration", "DimensionError", "DmpConfig",
    "ForcingBasis", "GaussianSequence", "IntegratorSpec", "IoError",
    "LatentGaussian", "MptrajError", "NumericalError", "ReplanSegment",
    "SegmentPlan", "TimePairBatch", "TrajectoryDistribution",
    "TrajectoryGenerator", "ValidationError", "WeightsDistribution",
    "bayesian_aggregate", "blend", "combine", "evaluate_position",
    "evaluate_velocity", "falling_ramp", "fit_distribution", "fit_weights",
    "folded_basis", "gaussian_nll", "integrate_dmp", "marginal", "pair_nll", "per_time_marginals", "phase", "precompute_basis",
    "replan_segment", "run_benchmark", "run_chain", "sample_time_pairs",
    "sample_trajectories", "smoothness_metric", "trajectory_distribution",
]

# the ledger of settable values: every field of every public dataclass, in
# order.  A new option joins deliberately, by editing this table; a value the
# record can derive (a bank's grid, a config's beta, a forcing basis's centers,
# a plan's switch times, a segment's mean positions) is a property, not a field.
EXPECTED_FIELDS = {
    "ActivationProfile": ["times", "values"],
    "BasisBank": ["config", "table"],
    "BenchScenario": ["dofs", "duration", "rate_hz", "num_basis"],
    "BoundaryCondition": ["t_b", "y_b", "dy_b"],
    "Demonstration": ["times", "positions", "velocities"],
    "DmpConfig": ["alpha", "tau", "alpha_x", "num_basis", "duration", "grid_dt",
                  "basis_overlap"],
    "ForcingBasis": ["config"],
    "GaussianSequence": ["times", "means", "covs", "meta"],
    "IntegratorSpec": ["method", "dt"],
    "LatentGaussian": ["mean", "var"],
    "ReplanSegment": ["times", "velocities", "distribution"],
    "SegmentPlan": ["times", "positions", "velocities", "segment_ids", "pos_jumps",
                    "vel_jumps"],
    "TimePairBatch": ["times", "values"],
    "TrajectoryDistribution": ["index_set", "mean", "cov", "noise_var"],
    "WeightsDistribution": ["mean", "chol"],
}


def test_public_api_is_pinned():
    assert sorted(mptraj.__all__) == EXPECTED_API
    assert len(EXPECTED_API) == 44
    assert len(set(mptraj.__all__)) == len(mptraj.__all__)
    for name in mptraj.__all__:
        assert getattr(mptraj, name) is not None


def test_public_record_fields_are_pinned():
    records = {name: getattr(mptraj, name) for name in mptraj.__all__
               if dataclasses.is_dataclass(getattr(mptraj, name))}
    assert {name: [field.name for field in dataclasses.fields(record)]
            for name, record in records.items()} == EXPECTED_FIELDS
    assert (len(EXPECTED_FIELDS), sum(map(len, EXPECTED_FIELDS.values()))) == (15, 47)


def test_fold_stores_only_its_arrays_and_state(small_bank):
    # the bank's kept fold holds its boundary time, rows, times and the xi
    # factors that make offsets, no boundary state; a generator holds its
    # state, its offsets and the kept fold's rows and times, no view of them
    # under another name.  Neither aliases the caller's times array, which
    # stays writable
    bank = mptraj.BasisBank(small_bank.config, small_bank.table)
    bc = mptraj.BoundaryCondition(0.25, [0.1, -0.2], [0.3, 0.0])
    times = np.linspace(0.25, 0.75, 11)
    gen = mptraj.TrajectoryGenerator(bc, times, bank)
    moved = mptraj.TrajectoryGenerator(mptraj.BoundaryCondition(0.25, [1.0, 2.0], [0.0, 0.5]),
                                       times, bank)
    kept = bank._last_fold
    assert isinstance(kept, GridFold)
    assert sorted(vars(kept)) == ["_xi", "rows", "t_b", "times"]
    for fold in (gen, moved):
        assert sorted(vars(fold)) == ["bc", "offsets", "rows", "times"]
        assert fold.rows is kept.rows and fold.times is kept.times
    for fold in (kept, gen, moved):
        assert not np.shares_memory(fold.times, times)
    assert times.flags.writeable
