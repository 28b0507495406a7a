import mptraj

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
    "folded_basis", "gaussian_nll", "integrate_dmp", "make_forcing_basis",
    "marginal", "pair_nll", "per_time_marginals", "phase", "precompute_basis",
    "replan_segment", "run_benchmark", "run_chain", "sample_time_pairs",
    "sample_trajectories", "smoothness_metric", "trajectory_distribution",
]


def test_public_api_is_pinned():
    assert sorted(mptraj.__all__) == EXPECTED_API
    assert len(set(mptraj.__all__)) == len(mptraj.__all__)
    for name in mptraj.__all__:
        assert getattr(mptraj, name) is not None
