"""Co-activation (combination) and blending of per-time Gaussian sequences.

Operations act on per-time D x D marginals, not on joint weight distributions.
Combination follows the activated product of Gaussians:

    cov*(t) = (sum_k a_k(t) cov_k(t)^-1)^-1
    mu*(t)  = cov*(t) sum_k a_k(t) cov_k(t)^-1 mu_k(t)

The sums run batched over (primitive, time): one Cholesky factorization and
one solve invert every active covariance at once, and one more pair inverts
the combined precisions.  Components with zero activation at a time step drop
out of the sums exactly, and a lone component with activation 1 is passed
through bit for bit (at activation a < 1 its covariance is divided by a).
A stack whose factorization fails is retried slice by slice, and each slice
that needs a diagonal jitter counts once in meta["jitter_applied"].  A
combined mean or covariance that is not finite raises NumericalError.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, NumericalError, ValidationError, check_int,
                     check_number, check_numbers, check_record, check_type, freeze)
from .fileio import atomic_write_json

# fallback added to a covariance diagonal when its Cholesky factorization fails
PRECISION_JITTER = 1e-12


@dataclass(frozen=True)
class GaussianSequence:
    """Per-time Gaussians: times (T,), means (T, D), covs (T, D, D).

    meta carries bookkeeping from the operation that produced the sequence
    (e.g. how many jitter fallbacks fired); it does not affect the numbers.
    """

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.atleast_1d(np.array(self.times, dtype=float))
        means = np.array(self.means, dtype=float)
        covs = np.array(self.covs, dtype=float)
        t_count = times.shape[0]
        if means.ndim != 2 or means.shape[0] != t_count:
            raise DimensionError(
                f"means must have shape ({t_count}, D), got {means.shape}")
        dofs = means.shape[1]
        if covs.shape != (t_count, dofs, dofs):
            raise DimensionError(
                f"covs must have shape ({t_count}, {dofs}, {dofs}), got {covs.shape}")
        for name, arr in (("times", times), ("means", means), ("covs", covs)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} must be finite")
        if not np.array_equal(covs, covs.transpose(0, 2, 1)):
            raise ValidationError("per-time covariances must be symmetric")
        freeze(self, times=times, means=means, covs=covs)

    @property
    def dofs(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class ActivationProfile:
    """Activation of K primitives sampled on the query grid: values (K, T) in
    [0, 1], with at least one primitive active at every time."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.atleast_1d(np.array(self.times, dtype=float))
        values = np.atleast_2d(np.array(self.values, dtype=float))
        if times.ndim != 1 or values.ndim != 2 or values.shape[1] != times.shape[0]:
            raise DimensionError(
                f"activation times and values must have shapes (T,) and (K, T), "
                f"got {times.shape} and {values.shape}")
        # negated so that NaN fails the check
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValidationError("activations must lie in [0, 1]")
        dead = np.flatnonzero(values.max(axis=0) <= 0.0)
        if dead.size:
            raise ValidationError(
                f"all activations vanish at t = {times[dead[0]]:.6g}")
        freeze(self, times=times, values=values)

    @property
    def count(self) -> int:
        return self.values.shape[0]


def falling_ramp(times, t_start: float, t_end: float) -> np.ndarray:
    """Activation 1 before t_start, linear to 0 at t_end, 0 after."""
    # an infinite end made the slope inf / inf; negated so that NaN fails
    if not -np.inf < t_start < t_end < np.inf:
        raise ValidationError(
            f"ramp needs finite t_start < t_end, got [{t_start}, {t_end}]")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return np.clip((t_end - times) / (t_end - t_start), 0.0, 1.0)


def _chol_with_jitter(mat: np.ndarray, counter: list, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        counter[0] += 1
        bumped = mat + PRECISION_JITTER * np.eye(mat.shape[0])
        try:
            return np.linalg.cholesky(bumped)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"{what} is singular even after {PRECISION_JITTER:g} jitter") from exc


def _inverse_stack(stack: np.ndarray, counter: list, what) -> np.ndarray:
    """Symmetric inverses of a stack (..., D, D) of SPD matrices through one
    batched Cholesky factorization.  When that fails, every slice is factored
    alone, so jitter is added, and counted, only where a slice needs it;
    what(*index) names a slice in the error."""
    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        chol = np.empty_like(stack)
        for index in np.ndindex(stack.shape[:-2]):
            chol[index] = _chol_with_jitter(stack[index], counter, what(*index))
    inv_l = np.linalg.solve(chol, np.eye(stack.shape[-1]))
    inv = np.swapaxes(inv_l, -1, -2) @ inv_l
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def _primitive_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0, bit for bit the loop adding each term to zeros: sum may
    pair terms up, accumulate adds in order; + 0.0 makes a -0.0 total +0.0."""
    return np.add.accumulate(terms)[-1] + 0.0


def combine(sequences, profile: ActivationProfile) -> GaussianSequence:
    """Activated product of the per-time Gaussians of several primitives."""
    sequences = list(sequences)
    if len(sequences) != profile.count:
        raise DimensionError(
            f"{len(sequences)} sequences but {profile.count} activation rows")
    if not sequences:
        raise ValidationError("combine needs at least one sequence")
    base = sequences[0]
    for seq in sequences[1:]:
        if seq.dofs != base.dofs:
            raise DimensionError("sequences disagree on dimension per time")
        if not np.array_equal(seq.times, base.times):
            raise ValidationError("sequences must share the query time grid")
    if not np.array_equal(profile.times, base.times):
        raise ValidationError("activation profile grid does not match the sequences")

    act = profile.values
    in_means = np.stack([seq.means for seq in sequences])
    in_covs = np.stack([seq.covs for seq in sequences])
    active = act > 0.0
    lone = active.sum(axis=0) == 1
    # only primitives active beside another one are factored; the identity in
    # every other slot factors cleanly and its zero or discarded weight adds
    # nothing to the sums below
    factored = active & ~lone
    jitter_events = [0]
    with np.errstate(over="ignore", invalid="ignore"):
        prec = _inverse_stack(
            np.where(factored[..., None, None], in_covs, np.eye(base.dofs)),
            jitter_events, lambda k, i: f"covariance of primitive {k} at index {i}")
        precision = _primitive_sum(act[..., None, None] * prec)
        shift = _primitive_sum(act[..., None] * (prec @ in_means[..., None])[..., 0])
        covs = _inverse_stack(precision, jitter_events,
                              lambda i: f"combined precision at index {i}")
        means = (covs @ shift[..., None])[..., 0]
        # a lone primitive passes through; its covariance widens by 1/a
        k_lone = act.argmax(axis=0)[lone]
        means[lone] = in_means[k_lone, lone]
        covs[lone] = in_covs[k_lone, lone] / act[k_lone, lone][:, None, None]
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
        raise NumericalError(
            f"combined Gaussian at index {i} (t = {base.times[i]:.6g}) is not finite")
    return GaussianSequence(times=base.times, means=means, covs=covs,
                            meta={"jitter_applied": jitter_events[0]})


def blend(seq_a: GaussianSequence, seq_b: GaussianSequence,
          activation) -> GaussianSequence:
    """Transition from seq_a to seq_b: activation a(t) on seq_a, 1 - a(t) on
    seq_b.  At a(t) = 1 or 0 the corresponding input passes through exactly."""
    activation = np.atleast_1d(np.asarray(activation, dtype=float))
    if activation.shape != seq_a.times.shape:
        raise DimensionError(
            f"activation must have shape {seq_a.times.shape}, got {activation.shape}")
    profile = ActivationProfile(times=seq_a.times,
                                values=np.stack([activation, 1.0 - activation]))
    return combine([seq_a, seq_b], profile)


def gaussian_sequence_json_dict(seq: GaussianSequence) -> dict:
    rows, cols = np.tril_indices(seq.dofs)
    records = [{"t": t, "mean": mean, "cov_lower": lower} for t, mean, lower in
               zip(seq.times.tolist(), seq.means.tolist(), seq.covs[:, rows, cols].tolist())]
    return {"dofs": seq.dofs, "records": records, "meta": dict(seq.meta)}


def write_gaussian_sequence_json(path: str, seq: GaussianSequence) -> None:
    atomic_write_json(path, gaussian_sequence_json_dict(seq))


def gaussian_sequence_from_dict(data) -> GaussianSequence:
    check_record(data, "Gaussian-sequence", ("dofs", "records"), ("meta",))
    dofs = check_int("dofs", data["dofs"])
    if dofs < 1:
        raise ValidationError(f"dofs must be >= 1, got {dofs}")
    meta = check_type("meta", data.get("meta", {}), dict)
    records = check_type("records", data["records"], list)
    for i, rec in enumerate(records):
        check_record(rec, f"Gaussian-sequence record {i}", ("t", "mean", "cov_lower"))
    times = np.array([check_number("t", rec["t"]) for rec in records])
    means = check_numbers("mean", [rec["mean"] for rec in records])
    lower = check_numbers("cov_lower", [rec["cov_lower"] for rec in records])
    width = dofs * (dofs + 1) // 2
    if lower.shape != (len(records), width):
        raise ValidationError(f"packed covariances have shape {lower.shape}, "
                              f"expected ({len(records)}, {width})")
    rows, cols = np.tril_indices(dofs)
    covs = np.zeros((len(records), dofs, dofs))
    covs[:, rows, cols] = lower
    covs[:, cols, rows] = lower
    return GaussianSequence(times=times, means=means, covs=covs, meta=dict(meta))
