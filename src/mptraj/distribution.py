"""Gaussian trajectory distributions induced by a Gaussian over weights.

A weights distribution N(mu_wg, L L^T) maps through the boundary-folded basis
H to a joint Gaussian over any selected (time, DoF) indices:

    mu  = xi1 y_b + xi2 dy_b + H^T mu_wg
    cov = G G^T + noise_var I,   G = H^T L

where the offset xi1 y_b + xi2 dy_b comes from the fold and G is formed per
DoF block, G_d = H^T L_d with L_d DoF d's row block of L.

Every read takes it over consecutive groups of caller-selected times (all
times, each time, each pair); full-horizon materialization is deliberately
not the default path.  Index layout is DoF-major within a group: all its
times of DoF 0, then DoF 1, ...

A group of two or more times forms G G^T as one stacked product per group.
The per-time read forms each D x D covariance as dot products along the
weight axis instead, entry (i, j) = h_t L_i . h_t L_j, cut where L's
triangular blocks are zero and taken one block of TIME_BLOCK times at a
time, so it makes no BLAS call per time and its temporaries stay bounded.

Covariances are carried as Cholesky factors end-to-end; sampling happens in
weight space (w = mu + L z), so every sample satisfies the boundary condition
exactly, bit for bit.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .basis import BasisBank
from .errors import (DimensionError, NumericalError, ValidationError,
                     check_count, check_finite_nonneg, check_int, check_numbers,
                     check_record, check_seed, finite_result, numerical_errors, take_array,
                     take_floats, take_value)
from .fileio import atomic_write_json, write_csv_table
from .trajectory import BoundaryCondition, GridFold, TrajectoryGenerator, weight_blocks

# the observation white-noise default keeps pair covariances invertible
DEFAULT_NOISE_VAR = 1e-6

# pairs per fold and stacked factorization in pair_nll; bounds its fold and
# (block, 2D, D(N+1)) intermediate for any batch size
PAIR_BLOCK = 256

# times per block of the per-time covariances; bounds their (D, D(N+1), block)
# intermediate for any number of times
TIME_BLOCK = 1024


@dataclass(frozen=True)
class WeightsDistribution:
    """Gaussian over the stacked weights-and-goal vector, as mean + lower
    Cholesky factor with a strictly positive diagonal."""

    mean: np.ndarray
    chol: np.ndarray

    def __post_init__(self):
        mean = take_array(self, "mean", 1)
        chol = take_array(self, "chol", 2)
        if chol.shape != (mean.shape[0], mean.shape[0]):
            raise DimensionError(
                f"Cholesky factor {chol.shape} does not match mean length {mean.shape[0]}")
        if np.any(np.triu(chol, k=1) != 0.0):
            raise ValidationError("Cholesky factor must be lower-triangular")
        if np.any(np.diag(chol) <= 0.0):
            raise ValidationError(
                "Cholesky diagonal must be strictly positive (use from_covariance)")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def covariance(self) -> np.ndarray:
        """L L^T; NumericalError if it overflows float64."""
        what = "weights covariance L L^T overflows float64"
        with numerical_errors(what):
            return finite_result(what, self.chol @ self.chol.T)

    @classmethod
    def from_covariance(cls, mean, cov) -> "WeightsDistribution":
        """The distribution of mean and covariance cov, a square matrix of the
        mean's length, factored by Cholesky."""
        mean = take_floats("WeightsDistribution.mean", mean, 1)
        cov = take_floats("cov", cov, None, finite=False)
        dim = mean.shape[0]
        if cov.shape != (dim, dim):
            raise DimensionError(f"cov has shape {cov.shape}, expected ({dim}, {dim}) "
                                 f"for a mean of length {dim}")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            eigs = np.linalg.eigvalsh(0.5 * (cov + cov.T))
            raise NumericalError(
                f"weights covariance is not positive definite "
                f"(minimum eigenvalue {eigs.min():.3e})") from exc
        return cls(mean=mean, chol=chol)


@dataclass(frozen=True)
class TrajectoryDistribution:
    """Joint Gaussian over an ordered list of (time, dof) indices."""

    index_set: tuple
    mean: np.ndarray
    cov: np.ndarray
    noise_var: float

    def __post_init__(self):
        index_set = take_value(self, "index_set", tuple)
        mean = take_array(self, "mean", 1)
        cov = take_array(self, "cov", 2)
        if cov.shape != (mean.shape[0], mean.shape[0]) or len(index_set) != mean.shape[0]:
            raise DimensionError(
                f"index set ({len(index_set)}), mean ({mean.shape}) and "
                f"cov ({cov.shape}) do not align")
        check_finite_nonneg("noise_var", self.noise_var)
        if not np.array_equal(cov, cov.T):
            raise ValidationError("trajectory covariance must be symmetric")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _time_covariances(rows: np.ndarray, chol: np.ndarray, dofs: int,
                      noise_var: float) -> np.ndarray:
    """Per-time covariances (T, D, D): entry (i, j) at time t is the dot
    product of h_t L_i and h_t L_j along the weight axis, plus noise_var on
    the diagonal, for folded position rows (N+1, T) and the lower Cholesky
    factor L.

    L_i's row block is zero beyond column (i+1)(N+1), so h_t L_i is formed
    only up to there, and entry (i, j), i >= j, sums only the first
    (j+1)(N+1) terms.  Each entry is written to both (i, j) and (j, i), so
    every covariance is exactly symmetric.  Times are taken TIME_BLOCK at a
    time through one (D, D(N+1), block) buffer."""
    width, count = rows.shape
    # (D, D(N+1), N+1): L_d^T, whose rows beyond (d+1)(N+1) are zero
    factors = chol.reshape(dofs, width, -1).transpose(0, 2, 1)
    covs = np.empty((count, dofs, dofs))
    gmat = np.empty((dofs, chol.shape[1], min(count, TIME_BLOCK)))
    for start in range(0, count, TIME_BLOCK):
        block = slice(start, start + TIME_BLOCK)
        part = rows[:, block]
        size = part.shape[1]
        for d in range(dofs):
            # (L_d^T h_t) for the block's times, a column per time
            cut = (d + 1) * width
            np.matmul(factors[d, :cut], part, out=gmat[d, :cut, :size])
        for j in range(dofs):
            cut = (j + 1) * width
            # (block, D - j): entries (j..D-1, j), the first on the diagonal
            dots = np.einsum("ikt,kt->ti", gmat[j:, :cut, :size], gmat[j, :cut, :size])
            dots[:, 0] += noise_var
            covs[block, j:, j] = dots
            covs[block, j, j:] = dots
    return covs


def _group_gaussians(wdist: WeightsDistribution, rows: np.ndarray, offsets: np.ndarray,
                     group: int, noise_var: float):
    """Gaussians of consecutive groups of `group` of a fold's times: means
    (B, D*group) and covariances (B, D*group, D*group) = G G^T + noise_var I,
    rows DoF-major within each group (dof0@t1..ts, dof1@t1..ts, ...).

    A group of one time takes its covariances from _time_covariances; larger
    groups form G G^T as one stacked product.  The one reader of a fold's
    arrays here: it takes the folded position rows (N+1, T) and position
    offsets (D, T) as stored.  A weights distribution of another dimension
    than the fold's D x (N+1) raises DimensionError, and one too wide for
    float64 overflows, which raises NumericalError."""
    check_finite_nonneg("noise_var", noise_var)
    dofs = offsets.shape[0]
    if wdist.dim != dofs * rows.shape[0]:
        raise DimensionError(
            f"weights distribution dimension {wdist.dim} does not match "
            f"{dofs} DoFs x {rows.shape[0]} parameters")
    count = rows.shape[1] // group
    # an overflow leaves inf or NaN, reported once below: the per-time einsum
    # returns inf with no flag even where numpy is set to raise
    with np.errstate(over="ignore", invalid="ignore"):
        means = offsets + wdist.mean.reshape(dofs, -1) @ rows
        means = means.reshape(dofs, count, group).transpose(1, 0, 2).reshape(
            count, dofs * group)
        if group == 1:
            covs = _time_covariances(rows, wdist.chol, dofs, noise_var)
        else:
            # (D, T, D(N+1)) -> (B, D*group, D(N+1)): row (d, s) of group b is h_t L_d
            gmat = (rows.T @ wdist.chol.reshape(dofs, -1, wdist.dim)).reshape(
                dofs, count, group, -1).transpose(1, 0, 2, 3).reshape(count, dofs * group, -1)
            # exactly symmetric as computed: numpy evaluates the stacked
            # G G^T with a symmetric rank-k update per group
            covs = gmat @ gmat.transpose(0, 2, 1)
            diag = np.arange(dofs * group)
            covs[:, diag, diag] += noise_var
    what = "trajectory mean or covariance overflows float64; the weights distribution is too wide"
    return finite_result(what, means), finite_result(what, covs)


def _nll_sum(covs: np.ndarray, resid: np.ndarray, singular: str) -> float:
    """Sum over the stack of log det(cov) + resid^T cov^-1 resid, without the
    2 pi constant; raises NumericalError(singular) if a cov is not positive definite."""
    try:
        factor = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(singular) from exc
    white = np.linalg.solve(factor, resid[:, :, None])
    return (2.0 * float(np.sum(np.log(np.diagonal(factor, axis1=1, axis2=2))))
            + float(np.sum(white * white)))


def _nll(what: str, dim: int, total: float) -> float:
    """0.5 (dim log 2 pi + total), the NLL `what` of a dim-dimensional
    Gaussian from the total of _nll_sum, if finite; NumericalError naming
    what otherwise."""
    nll = 0.5 * (dim * math.log(2.0 * math.pi) + total)
    # LAPACK's solve returns NaN for a residual too large for its pivots, and
    # pair_nll's finite block totals can overflow when added, with no flag
    if not math.isfinite(nll):
        raise NumericalError(f"{what} is not finite; the values lie too far from the "
                             f"mean for float64")
    return nll


def _fold_distribution(wdist: WeightsDistribution, fold: TrajectoryGenerator,
                       noise_var: float, index_times) -> TrajectoryDistribution:
    """Joint Gaussian over all times of an existing fold, DoF-major, with
    index_times naming the fold's times in the index set."""
    means, covs = _group_gaussians(wdist, fold.rows[0], fold.offsets[0],
                                   fold.times.shape[0], noise_var)
    index_set = tuple((float(t), d) for d in range(fold.bc.dofs) for t in index_times)
    return TrajectoryDistribution(index_set=index_set, mean=means[0], cov=covs[0],
                                  noise_var=noise_var)


def trajectory_distribution(wdist: WeightsDistribution, bc: BoundaryCondition,
                            times, bank: BasisBank,
                            noise_var: float = DEFAULT_NOISE_VAR) -> TrajectoryDistribution:
    """Joint Gaussian over all (requested time, DoF) pairs, DoF-major."""
    fold = TrajectoryGenerator(bc, times, bank)
    return _fold_distribution(wdist, fold, noise_var, fold.times)


def per_time_marginals(wdist: WeightsDistribution, bc: BoundaryCondition, times,
                       bank: BasisBank, noise_var: float = DEFAULT_NOISE_VAR):
    """Per-time D x D Gaussians (means (T, D), covs (T, D, D)), each
    covariance as dot products along the weight axis, TIME_BLOCK times at a
    time, without materializing the joint covariance."""
    fold = TrajectoryGenerator(bc, times, bank)
    means, covs = _group_gaussians(wdist, fold.rows[0], fold.offsets[0], 1, noise_var)
    return fold.times.copy(), means, covs


def marginal(dist: TrajectoryDistribution, subset) -> TrajectoryDistribution:
    """Sub-vector and sub-matrix at distinct integer positions into the index
    set; a float or bool position is rejected, not truncated or cast."""
    subset = np.atleast_1d(np.asarray(subset, dtype=object))
    if subset.ndim != 1 or subset.size == 0:
        raise ValidationError("subset must be a non-empty index list")
    # numpy's bool is no Integral; Python's is
    if not all(issubclass(kind, numbers.Integral) and kind is not bool
               for kind in set(map(type, subset))):
        raise ValidationError(f"marginal indices must be integers, got {subset.tolist()!r:.60}")
    if subset.min() < 0 or subset.max() >= dist.dim:
        raise ValidationError(
            f"marginal index out of range: {subset.min()}..{subset.max()} "
            f"for dimension {dist.dim}")
    subset = subset.astype(np.intp)
    if np.unique(subset).size != subset.size:
        raise ValidationError("marginal indices must be distinct (a repeated one "
                              "makes the covariance singular)")
    return TrajectoryDistribution(
        index_set=tuple(dist.index_set[i] for i in subset),
        mean=dist.mean[subset],
        cov=dist.cov[np.ix_(subset, subset)],
        noise_var=dist.noise_var)


def gaussian_nll(dist: TrajectoryDistribution, values) -> float:
    """Negative log density of finite `values` under the distribution."""
    values = take_floats("values", values, None).ravel()
    if values.shape[0] != dist.dim:
        raise DimensionError(
            f"observation length {values.shape[0]} does not match dimension {dist.dim}")
    with numerical_errors("Gaussian NLL"):
        total = _nll_sum(dist.cov[None], (values - dist.mean)[None],
                         "singular trajectory covariance; supply noise_var > 0 or a jitter")
    return _nll("Gaussian NLL", dist.dim, total)


def sample_trajectories(wdist: WeightsDistribution, bc: BoundaryCondition, times,
                        bank: BasisBank, count: int, seed,
                        with_velocities: bool = False):
    """count x D x len(times) positions from weight-space draws w = mu + L z,
    optionally paired with the matching velocities.

    Every sample adheres to the boundary condition exactly.  `seed` is an int
    seed or a numpy Generator; identical seeds give bit-identical output.
    """
    count = check_count("count", count)
    # a wrong-sized distribution fails before the count x dim normals are drawn
    weight_blocks(wdist.mean, bc.dofs, bank.weight_dim)
    rng = np.random.default_rng(check_seed(seed))
    z = rng.standard_normal((count, wdist.dim))
    what = "weight-space draws overflow float64; the weights distribution is too wide"
    # from about 256 x 77 draws the product runs on OpenBLAS threads, whose
    # overflows set no flag here
    with numerical_errors(what):
        draws = finite_result(what, wdist.mean + z @ wdist.chol.T)

    with numerical_errors("offsets of the boundary state; the state is too large"):
        fold = TrajectoryGenerator(bc, times, bank)
    with numerical_errors("sampled trajectories; the weights distribution is too wide"):
        positions = fold.positions(draws)
        return (positions, fold.velocities(draws)) if with_velocities else positions


@dataclass(frozen=True)
class TimePairBatch:
    """J time pairs, optionally with per-pair truth vectors (2D entries,
    DoF-major: dof0@t, dof0@t', dof1@t, ...).  Times and values must be
    finite, and the two times of a pair distinct."""

    times: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        times = take_array(self, "times", 2)
        if times.shape[1] != 2 or times.shape[0] < 1:
            raise DimensionError(f"pair times must have shape (J, 2), got {times.shape}")
        if np.any(times[:, 0] == times[:, 1]):
            raise ValidationError(
                "pairs with t == t' are forbidden (their covariance is singular at "
                "zero noise)")
        values = take_array(self, "values", 2)
        if values is not None and (values.shape[0] != times.shape[0] or values.shape[1] % 2):
            raise DimensionError(
                f"truth values must have shape (J, 2*D), got {values.shape}")

    @property
    def count(self) -> int:
        return self.times.shape[0]

    def with_values(self, values) -> "TimePairBatch":
        return TimePairBatch(times=self.times, values=values)


def sample_time_pairs(times, count: int, seed) -> TimePairBatch:
    """Uniformly random unordered pairs of distinct grid times (no truth values)."""
    times = take_floats("times", times, None, finite=False)
    # a strictly increasing grid (no NaN compares greater) is its own np.unique
    if not (times.ndim == 1 and (times[1:] > times[:-1]).all()):
        times = np.unique(times)
    if times.size < 2:
        raise ValidationError("pair sampling needs at least 2 distinct times")
    count = check_count("count", count)
    rng = np.random.default_rng(check_seed(seed))
    n = times.size
    first = rng.integers(0, n, size=count)
    second = rng.integers(0, n - 1, size=count)
    second = second + (second >= first)
    low = np.minimum(first, second)
    high = np.maximum(first, second)
    return TimePairBatch(times=np.stack([times[low], times[high]], axis=1))


def pair_nll(batch: TimePairBatch, wdist: WeightsDistribution, bc: BoundaryCondition,
             bank: BasisBank, noise_var: float = DEFAULT_NOISE_VAR) -> float:
    """Mean negative log-likelihood over the batch's 2D-dimensional pair Gaussians.

    Pair j's covariance is G_j G_j^T + noise_var I with G_j[(d, s), :] =
    h_{t_s} L_d, where L_d is DoF d's row block of wdist.chol (rows
    DoF-major: dof0@t, dof0@t', dof1@t, ...).  Pairs are scored PAIR_BLOCK
    at a time: each block's times are folded, and its covariances built,
    Cholesky-factored and whitened as stacked arrays, so memory stays bounded
    however large J is.  The fold is elementwise along time, so the result is
    bit for bit that of one fold of all 2J times.  A singular pair covariance
    (e.g. a pair time at t_b at zero noise) raises NumericalError.
    """
    if batch.values is None:
        raise ValidationError("pair batch carries no truth values")
    if batch.values.shape[1] != 2 * bc.dofs:
        raise DimensionError(
            f"truth vectors have {batch.values.shape[1]} entries, expected 2*{bc.dofs}")
    total = 0.0
    with numerical_errors("pair NLL"):
        for start in range(0, batch.count, PAIR_BLOCK):
            block = slice(start, start + PAIR_BLOCK)
            # random pair times: a fold of its own, leaving the bank's kept grid fold
            fold = GridFold(bc.t_b, batch.times[block].ravel(), bank)
            means, covs = _group_gaussians(wdist, fold.rows[0],
                                           fold.offsets(bc.y_b, bc.dy_b, kind=0), 2,
                                           noise_var)
            total += _nll_sum(covs, batch.values[block] - means,
                              "singular pair covariance; supply noise_var > 0 or "
                              "distinct pair times")
    return _nll("pair NLL", 2 * bc.dofs, total / batch.count)


def _unpack_lower(values: np.ndarray, dim: int) -> np.ndarray:
    if values.shape != (dim * (dim + 1) // 2,):
        raise DimensionError(
            f"packed lower triangle has shape {values.shape}, "
            f"expected ({dim * (dim + 1) // 2},) for dimension {dim}")
    mat = np.zeros((dim, dim))
    mat[np.tril_indices(dim)] = values
    return mat


def weights_distribution_json_dict(wdist: WeightsDistribution, dofs: int,
                                   num_basis: int) -> dict:
    return {
        "dofs": int(dofs),
        "num_basis": int(num_basis),
        "mean": wdist.mean.tolist(),
        "chol_lower": wdist.chol[np.tril_indices(wdist.dim)].tolist(),
    }


def write_weights_distribution_json(path: str, wdist: WeightsDistribution,
                                    dofs: int, num_basis: int) -> None:
    atomic_write_json(path, weights_distribution_json_dict(wdist, dofs, num_basis))


def weights_distribution_from_dict(data):
    """Returns (WeightsDistribution, dofs, num_basis)."""
    check_record(data, "weights-distribution", ("dofs", "num_basis", "mean", "chol_lower"))
    dofs = check_int("dofs", data["dofs"])
    num_basis = check_int("num_basis", data["num_basis"])
    mean = check_numbers("mean", data["mean"])
    dim = dofs * (num_basis + 1)
    if mean.shape != (dim,):
        raise DimensionError(
            f"mean has shape {mean.shape}, dofs*(num_basis+1) = {dim} entries expected")
    chol = _unpack_lower(check_numbers("chol_lower", data["chol_lower"]), dim)
    return WeightsDistribution(mean=mean, chol=chol), dofs, num_basis


def write_samples_csv(path: str, times, samples: np.ndarray) -> None:
    """Long-format sample dump: sample_id, t, dof0_pos, ... dof{D-1}_pos."""
    times = take_floats("times", times, 1, finite=False)
    samples = take_floats("samples", samples, None, finite=False)
    if samples.ndim != 3 or samples.shape[2] != times.shape[0]:
        raise DimensionError(
            f"samples must have shape (count, D, {times.shape[0]}), got {samples.shape}")
    header = ["sample_id", "t"] + [f"dof{d}_pos" for d in range(samples.shape[1])]
    write_csv_table(path, header, times, samples.transpose(0, 2, 1),
                    labels=np.arange(samples.shape[0]))
