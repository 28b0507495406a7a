"""Co-activation (combination) and blending of per-time Gaussian sequences.

Operations act on per-time D x D marginals, not on joint weight distributions.
Combination follows the activated product of Gaussians:

    cov*(t) = (sum_k a_k(t) cov_k(t)^-1)^-1
    mu*(t)  = cov*(t) sum_k a_k(t) cov_k(t)^-1 mu_k(t)

Only the times with two or more active primitives are combined.  The active
covariances at those times are gathered into one stack and inverted by one
Cholesky factorization run along the stack axis, every slice at once; one
more such factorization inverts the combined precisions there.  Components
with zero activation at a time step drop out of the sums exactly, and at a
time with one active component that component is passed through bit for bit
(at activation a < 1 its covariance is divided by a) without being factored.
Jitter is per slice: only a slice whose factorization meets a pivot that is
not > 0 gets a 1e-12 diagonal jitter and is factored once more, with no
retry pass over the rest of the stack, and each such slice counts once in
meta["jitter_applied"].  A combined mean or covariance that is not finite
raises NumericalError.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, NumericalError, ValidationError, check_count,
                     check_number, check_numbers, check_record, check_type, take_array,
                     take_floats)
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
        t_count = take_array(self, "times", 1).shape[0]
        means = take_array(self, "means", 2)
        covs = take_array(self, "covs", 3)
        if means.shape[0] != t_count:
            raise DimensionError(
                f"means must have shape ({t_count}, D), got {means.shape}")
        dofs = means.shape[1]
        if covs.shape != (t_count, dofs, dofs):
            raise DimensionError(
                f"covs must have shape ({t_count}, {dofs}, {dofs}), got {covs.shape}")
        if not np.array_equal(covs, covs.transpose(0, 2, 1)):
            raise ValidationError("per-time covariances must be symmetric")

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
        times = take_array(self, "times", 1)
        # the [0, 1] check below rejects NaN and inf with its own message
        values = take_array(self, "values", 2, finite=False)
        if values.shape[1] != times.shape[0]:
            raise DimensionError(
                f"activation times and values must have shapes (T,) and (K, T), "
                f"got {times.shape} and {values.shape}")
        if not values.shape[0]:
            raise ValidationError("an activation profile needs at least one primitive row")
        # negated so that NaN fails the check
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValidationError("activations must lie in [0, 1]")
        dead = np.flatnonzero(values.max(axis=0) <= 0.0)
        if dead.size:
            raise ValidationError(
                f"all activations vanish at t = {times[dead[0]]:.6g}")

    @property
    def count(self) -> int:
        return self.values.shape[0]


def falling_ramp(times, t_start: float, t_end: float) -> np.ndarray:
    """Activation 1 before t_start, linear to 0 at t_end, 0 after."""
    # an infinite end made the slope inf / inf; negated so that NaN fails
    if not -np.inf < t_start < t_end < np.inf:
        raise ValidationError(
            f"ramp needs finite t_start < t_end, got [{t_start}, {t_end}]")
    times = take_floats("times", times, 1, finite=False)
    return np.clip((t_end - times) / (t_end - t_start), 0.0, 1.0)


def _spd_inverse(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack-last (D, D, n) array of SPD matrices, and a mask of
    the slices whose factorization succeeded.

    The Cholesky factor L is built column by column; a pivot
    a_jj - sum_k l_jk^2 that is not > 0 fails its slice.  X = L^-1 follows by
    forward substitution and the inverse is sum_k X_ki X_kj.  Every sum runs
    in k order from zero, so the inverse is exactly symmetric and a slice's
    bits do not depend on the rest of the stack."""
    dofs, _, count = mats.shape
    chol = np.zeros_like(mats)
    factored = np.ones(count, dtype=bool)
    for j in range(dofs):
        dots = np.zeros((dofs - j, count))
        for k in range(j):
            dots += chol[j:, k] * chol[j, k]
        col = mats[j:, j] - dots
        factored &= col[0] > 0.0
        chol[j, j] = np.sqrt(col[0])
        chol[j + 1:, j] = col[1:] / chol[j, j]
    inv_l = np.zeros_like(mats)
    for i in range(dofs):
        dots = np.zeros((i, count))
        for k in range(i):
            dots[:k + 1] += chol[i, k] * inv_l[k, :k + 1]
        inv_l[i, :i] = -dots / chol[i, i]
        inv_l[i, i] = 1.0 / chol[i, i]
    inv = np.zeros_like(mats)
    for k in range(dofs):
        row = inv_l[k, :k + 1]
        inv[:k + 1, :k + 1] += row[:, None] * row[None, :]
    # inv is symmetric already; the sum turns an entry beyond half the float
    # range into inf, so that a precision round trip at the edge of float64
    # ends in the finiteness check
    return 0.5 * (inv + inv.transpose(1, 0, 2)), factored


def _inverse_stack(stack: np.ndarray, counter: list, what) -> np.ndarray:
    """Symmetric inverses of a flat stack (n, D, D) of SPD matrices, factored
    together along the stack axis.  Only the slices whose factorization fails
    get a diagonal jitter, counted once each, and are factored again; what(j)
    names slice j in the error when that fails too."""
    mats = np.ascontiguousarray(np.moveaxis(stack, 0, -1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv, factored = _spd_inverse(mats)
        failed = np.flatnonzero(~factored)
        if failed.size:
            counter[0] += failed.size
            jitter = PRECISION_JITTER * np.eye(stack.shape[-1])[..., None]
            inv[..., failed], factored = _spd_inverse(mats[..., failed] + jitter)
            if not factored.all():
                j = failed[np.flatnonzero(~factored)[0]]
                raise NumericalError(
                    f"{what(j)} is singular even after {PRECISION_JITTER:g} jitter")
    return np.ascontiguousarray(np.moveaxis(inv, -1, 0))


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
    # only the active slots at mixed times are factored; the zero precision
    # of every other slot there adds nothing to the sums below
    mixed = np.flatnonzero(~lone)
    slot_k, slot_m = np.nonzero(active[:, mixed])
    act_mixed = act[:, mixed]
    jitter_events = [0]
    means = np.empty_like(base.means)
    covs = np.empty_like(base.covs)
    with np.errstate(over="ignore", invalid="ignore"):
        prec = np.zeros((len(sequences), mixed.size, base.dofs, base.dofs))
        prec[slot_k, slot_m] = _inverse_stack(
            in_covs[slot_k, mixed[slot_m]], jitter_events,
            lambda j: f"covariance of primitive {slot_k[j]} at index {mixed[slot_m[j]]}")
        precision = _primitive_sum(act_mixed[..., None, None] * prec)
        shift = _primitive_sum(
            act_mixed[..., None] * (prec @ in_means[:, mixed, :, None])[..., 0])
        cov_mixed = _inverse_stack(precision, jitter_events,
                                   lambda j: f"combined precision at index {mixed[j]}")
        covs[mixed] = cov_mixed
        means[mixed] = (cov_mixed @ shift[..., None])[..., 0]
        # a lone primitive passes through; its covariance widens by 1/a
        k_lone = act.argmax(axis=0)[lone]
        means[lone] = in_means[k_lone, lone]
        covs[lone] = in_covs[k_lone, lone] / act[k_lone, lone][:, None, None]
    # an explicit pass: the inverses overflow on purpose, and the message names the index
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
    activation = take_floats("activation", activation, 1, finite=False)
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
    dofs = check_count("dofs", data["dofs"])
    meta = check_type("meta", data.get("meta", {}), dict)
    records = check_type("records", data["records"], list)
    if not records:
        raise ValidationError("the Gaussian sequence has no records")
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
