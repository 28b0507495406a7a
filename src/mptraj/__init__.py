"""Probabilistic movement-primitive trajectories from precomputed basis banks.

The workflow: precompute a BasisBank for a DmpConfig once, then evaluate
boundary-conditioned trajectories, trajectory distributions, and replanning
chains as cheap linear algebra against the bank.
"""

from .basis import BasisBank, DmpConfig, ForcingBasis, phase, precompute_basis
from .bench import BenchScenario, run_benchmark
from .distribution import (TimePairBatch, TrajectoryDistribution,
                           WeightsDistribution, gaussian_nll, marginal,
                           pair_nll, per_time_marginals, sample_time_pairs,
                           sample_trajectories, trajectory_distribution)
from .errors import (DimensionError, IoError, MptrajError, NumericalError,
                     ValidationError)
from .learning import (Demonstration, LatentGaussian, bayesian_aggregate,
                       fit_distribution, fit_weights)
from .oracle import IntegratorSpec, integrate_dmp
from .probops import (ActivationProfile, GaussianSequence, blend, combine,
                      falling_ramp)
from .replan import (ReplanSegment, SegmentPlan, replan_segment, run_chain,
                     smoothness_metric)
from .trajectory import (BoundaryCondition, TrajectoryGenerator,
                         evaluate_position, evaluate_velocity, folded_basis)

__version__ = "0.1.0"

__all__ = [
    "ActivationProfile", "BasisBank", "BenchScenario",
    "BoundaryCondition", "Demonstration", "DimensionError", "DmpConfig",
    "ForcingBasis", "GaussianSequence", "IntegratorSpec", "IoError",
    "LatentGaussian", "MptrajError", "NumericalError", "ReplanSegment",
    "SegmentPlan", "TimePairBatch", "TrajectoryDistribution",
    "TrajectoryGenerator", "ValidationError", "WeightsDistribution",
    "bayesian_aggregate", "blend", "combine", "evaluate_position",
    "evaluate_velocity", "falling_ramp", "fit_distribution", "fit_weights",
    "folded_basis", "gaussian_nll", "integrate_dmp", "marginal",
    "pair_nll", "per_time_marginals", "phase", "precompute_basis",
    "replan_segment", "run_benchmark", "run_chain", "sample_time_pairs",
    "sample_trajectories", "smoothness_metric", "trajectory_distribution",
]
