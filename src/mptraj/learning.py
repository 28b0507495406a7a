"""Fitting weights from demonstrations, and Bayesian aggregation of
factorized Gaussian observations.

fit_weights inverts the linear trajectory model per DoF: with the boundary
offset subtracted from the demonstrated positions, the weights solve a ridge
least-squares problem against the folded basis rows H, through one thin SVD
of H; fit_distribution folds each time grid once and solves for every DoF of
every demo on it, each demo's offsets built from that fold's xi factors.  The
default ridge is scale-free (1e-9 * trace(H^T H) / dim) so near-singular Gram
matrices stay factorizable without visibly biasing well-posed fits.

bayesian_aggregate fuses elementwise-independent Gaussians by precision
addition.  Observations are canonically sorted (lexicographically on the raw
bytes of mean, then variance) before the left-to-right summation, which makes
the result bit-exactly invariant to the order observations arrive in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisBank
from .distribution import WeightsDistribution
from .errors import (DimensionError, NumericalError, ValidationError,
                     check_finite_nonneg, numerical_errors, take_array)
from .trajectory import BoundaryCondition, folded_basis

DEFAULT_COV_FLOOR = 1e-8
# scale-free ridge factor: lam = RIDGE_SCALE * trace(H^T H) / dim
RIDGE_SCALE = 1e-9


@dataclass(frozen=True)
class Demonstration:
    """One demonstrated trajectory.  The boundary condition defaults to the
    first sample; velocities fall back to a first difference when absent."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray | None = None

    def __post_init__(self):
        times = take_array(self, "times", 1)
        positions = take_array(self, "positions", 2)
        if times.shape[0] < 2:
            raise ValidationError("a demonstration needs at least 2 time samples")
        if np.any(np.diff(times) <= 0.0):
            raise ValidationError("demonstration times must be strictly increasing")
        if positions.shape[1] != times.shape[0]:
            raise DimensionError(
                f"positions must have shape (D, {times.shape[0]}), got {positions.shape}")
        # taken after the checks above, so that a rejected demonstration copies
        # no velocities
        velocities = take_array(self, "velocities", 2)
        if velocities is not None and velocities.shape != positions.shape:
            raise DimensionError(
                f"velocities shape {velocities.shape} does not match "
                f"positions {positions.shape}")

    @property
    def dofs(self) -> int:
        return self.positions.shape[0]

    def boundary_condition(self) -> BoundaryCondition:
        if self.velocities is not None:
            dy_b = self.velocities[:, 0]
        else:
            dy_b = ((self.positions[:, 1] - self.positions[:, 0])
                    / (self.times[1] - self.times[0]))
        return BoundaryCondition(t_b=float(self.times[0]),
                                 y_b=self.positions[:, 0], dy_b=dy_b)


def _ridge_lstsq(design: np.ndarray, target: np.ndarray, ridge: float) -> np.ndarray:
    # ridge least squares through one thin SVD H = U S V^T of the design itself:
    # x = V diag(s / (s^2 + ridge)) U^T b.  Like least squares on the augmented
    # [H; sqrt(ridge) I], whose singular values are sqrt(s^2 + ridge), it keeps
    # the conditioning of H; forming the normal equations would square it
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rows, dim = design.shape
    # hypot neither overflows nor underflows where s^2 would
    augmented = np.hypot(s, np.sqrt(ridge))
    # lstsq's rank rule (rcond=None) on the augmented matrix, ridge rows and all
    rcond = np.finfo(float).eps * max(rows + dim if ridge > 0.0 else rows, dim)
    rank = np.count_nonzero(augmented > rcond * augmented[0])
    if rank < dim:
        raise NumericalError(
            f"design matrix is rank deficient ({rank} < {dim}); supply ridge > 0")
    gain = s / augmented / augmented
    return vt.T @ (gain[:, None] * (u.T @ target))


def _fit_grid(demos, bcs, bank: BasisBank, ridge: float | None) -> np.ndarray:
    """Weights (K, D*(N+1)) of K demos sampled at the same times: one fold at the
    first boundary state (one t_b for all), the position offsets of every demo's
    own state from its xi factors, and one ridge solve with K*D right-hand
    sides."""
    if demos[0].times.shape[0] < bank.weight_dim:
        raise ValidationError(
            f"demonstration has {demos[0].times.shape[0]} samples but the basis has "
            f"{bank.weight_dim} parameters per DoF; the fit would be underdetermined")
    fold = folded_basis(bcs[0], demos[0].times, bank)
    offsets = fold.state_offsets(np.concatenate([bc.y_b for bc in bcs]),
                                 np.concatenate([bc.dy_b for bc in bcs]), kind=0)
    # the target is written over the offsets: two (K*D, T) arrays at most
    target = np.subtract(np.concatenate([demo.positions for demo in demos]), offsets,
                         out=offsets)
    # einsum sums in memory order, so the default ridge is taken over C-ordered
    # (T, N+1) rows, not over the fold's transposed view
    design = np.ascontiguousarray(fold.rows[0].T)
    if ridge is None:
        ridge = RIDGE_SCALE * np.einsum("ij,ij->", design, design) / bank.weight_dim
    check_finite_nonneg("ridge", ridge)
    weights = _ridge_lstsq(design, target.T, ridge).T.reshape(len(demos), -1)
    if not np.isfinite(weights).all():
        raise NumericalError(
            "fitted weights are not finite; the demonstrations' values overflow the solve")
    return weights


def fit_weights(demo: Demonstration, bank: BasisBank,
                ridge: float | None = None,
                bc: BoundaryCondition | None = None) -> np.ndarray:
    """Least-squares weights-and-goal vector (flat, DoF blocks) for one demo."""
    if bc is None:
        bc = demo.boundary_condition()
    elif bc.dofs != demo.dofs:
        raise DimensionError(
            f"boundary condition has {bc.dofs} DoFs, demonstration has {demo.dofs}")
    return _fit_grid([demo], [bc], bank, ridge)[0]


def fit_distribution(demos, bank: BasisBank, ridge: float | None = None,
                     cov_floor: float = DEFAULT_COV_FLOOR) -> WeightsDistribution:
    """Empirical Gaussian over per-demonstration fits, one fold per time grid: mean
    of the fits, unbiased covariance plus cov_floor on the diagonal."""
    demos = list(demos)
    if len(demos) < 2:
        raise ValidationError(
            f"distribution fitting needs >= 2 demonstrations, got {len(demos)}")
    check_finite_nonneg("cov_floor", cov_floor)
    dofs, grids = demos[0].dofs, {}
    for i, demo in enumerate(demos):
        if demo.dofs != dofs:
            raise DimensionError(f"demonstration {i} has {demo.dofs} DoFs, expected {dofs}")
        grids.setdefault(demo.times.tobytes(), []).append(i)
    fits = np.empty((len(demos), dofs * bank.weight_dim))
    for members in grids.values():
        group = [demos[i] for i in members]
        fits[members] = _fit_grid(group, [d.boundary_condition() for d in group], bank, ridge)
    with numerical_errors("covariance of the fitted weights"):
        mean = fits.mean(axis=0)
        centered = fits - mean
        cov = (centered.T @ centered) / (len(demos) - 1)
        cov[np.diag_indices_from(cov)] += cov_floor
    return WeightsDistribution.from_covariance(mean, cov)


@dataclass(frozen=True)
class LatentGaussian:
    """Factorized Gaussian: elementwise finite mean and strictly positive
    variance.  A variance of +inf is a precision of 0: an observation that
    carries no information."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = take_array(self, "mean", 1)
        var = take_array(self, "var", 1, finite=False)
        if mean.shape != var.shape:
            raise DimensionError(
                f"mean {mean.shape} and var {var.shape} must be equal-length vectors")
        # negated so that NaN fails the check
        if not np.all(var > 0.0):
            raise ValidationError("variances must be strictly positive")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def bayesian_aggregate(prior: LatentGaussian, observations) -> LatentGaussian:
    """Posterior from elementwise precision addition over the observations.

    var  = 1 / (1/var_prior + sum_m 1/var_m)
    mean = mean_prior + var * sum_m (mean_m - mean_prior) / var_m

    An element whose total precision is 0 (the prior and every observation
    have variance +inf) is informed by nothing and keeps the prior's mean and
    variance.
    """
    observations = list(observations)
    if not observations:
        return prior
    for i, obs in enumerate(observations):
        if obs.dim != prior.dim:
            raise DimensionError(
                f"observation {i} has dimension {obs.dim}, prior has {prior.dim}")
    # canonical order makes the float sums independent of arrival order
    observations.sort(key=lambda obs: (obs.mean.tobytes(), obs.var.tobytes()))
    obs_mean = np.stack([obs.mean for obs in observations])
    obs_var = np.stack([obs.var for obs in observations])
    with numerical_errors("Bayesian aggregation"):
        # accumulate adds the rows strictly in order; sum may pair them up
        prec_sum = np.add.accumulate(1.0 / obs_var)[-1]
        shift_sum = np.add.accumulate((obs_mean - prior.mean) / obs_var)[-1]
        precision = 1.0 / prior.var + prec_sum
        # an element of total precision 0 keeps the prior: its update would
        # take 1/0 and then inf * 0
        informed = precision > 0.0
        mean, var = prior.mean.copy(), prior.var.copy()
        var[informed] = 1.0 / precision[informed]
        mean[informed] += var[informed] * shift_sum[informed]
    return LatentGaussian(mean=mean, var=var)
