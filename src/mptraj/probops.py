"""Co-activation (combination) and blending of per-time Gaussian sequences.

Operations act on per-time D x D marginals, not on joint weight distributions.
Combination follows the activated product of Gaussians:

    cov*(t) = (sum_k a_k(t) cov_k(t)^-1)^-1
    mu*(t)  = cov*(t) sum_k a_k(t) cov_k(t)^-1 mu_k(t)

Components with zero activation at a time step drop out of the sums exactly,
and a lone component with activation 1 is passed through bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError, ValidationError
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
        if not np.array_equal(covs, covs.transpose(0, 2, 1)):
            raise ValidationError("per-time covariances must be symmetric")
        for arr in (times, means, covs):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)

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
        if values.shape[1] != times.shape[0]:
            raise DimensionError(
                f"activation values must have shape (K, {times.shape[0]}), "
                f"got {values.shape}")
        # negated so that NaN fails the check
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValidationError("activations must lie in [0, 1]")
        dead = np.flatnonzero(values.max(axis=0) <= 0.0)
        if dead.size:
            raise ValidationError(
                f"all activations vanish at t = {times[dead[0]]:.6g}")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def count(self) -> int:
        return self.values.shape[0]


def falling_ramp(times, t_start: float, t_end: float) -> np.ndarray:
    """Activation 1 before t_start, linear to 0 at t_end, 0 after."""
    if not t_end > t_start:
        raise ValidationError(f"ramp needs t_end > t_start, got [{t_start}, {t_end}]")
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


def _inverse_from_chol(chol: np.ndarray) -> np.ndarray:
    inv_l = np.linalg.solve(chol, np.eye(chol.shape[0]))
    inv = inv_l.T @ inv_l
    return 0.5 * (inv + inv.T)


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

    t_count = base.times.shape[0]
    dofs = base.dofs
    means = np.empty((t_count, dofs))
    covs = np.empty((t_count, dofs, dofs))
    jitter_events = [0]

    for i in range(t_count):
        weights = profile.values[:, i]
        active = np.flatnonzero(weights > 0.0)
        if active.size == 1:
            k = active[0]
            a = weights[k]
            if a == 1.0:
                means[i] = sequences[k].means[i]
                covs[i] = sequences[k].covs[i]
            else:
                means[i] = sequences[k].means[i]
                covs[i] = sequences[k].covs[i] / a
            continue
        precision = np.zeros((dofs, dofs))
        scaled_mean = np.zeros(dofs)
        for k in active:
            chol = _chol_with_jitter(sequences[k].covs[i], jitter_events,
                                     f"covariance of primitive {k} at index {i}")
            prec_k = _inverse_from_chol(chol)
            precision += weights[k] * prec_k
            scaled_mean += weights[k] * (prec_k @ sequences[k].means[i])
        chol = _chol_with_jitter(precision, jitter_events,
                                 f"combined precision at index {i}")
        covs[i] = _inverse_from_chol(chol)
        means[i] = covs[i] @ scaled_mean
        covs[i] = 0.5 * (covs[i] + covs[i].T)

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
    tril = np.tril_indices(seq.dofs)
    records = []
    for i, t in enumerate(seq.times):
        records.append({
            "t": float(t),
            "mean": seq.means[i].tolist(),
            "cov_lower": seq.covs[i][tril].tolist(),
        })
    return {"dofs": seq.dofs, "records": records, "meta": dict(seq.meta)}


def write_gaussian_sequence_json(path: str, seq: GaussianSequence) -> None:
    atomic_write_json(path, gaussian_sequence_json_dict(seq))


def gaussian_sequence_from_dict(data: dict) -> GaussianSequence:
    try:
        dofs = int(data["dofs"])
        records = data["records"]
        times = np.array([rec["t"] for rec in records], dtype=float)
        means = np.array([rec["mean"] for rec in records], dtype=float)
        covs = np.zeros((len(records), dofs, dofs))
        tril = np.tril_indices(dofs)
        for i, rec in enumerate(records):
            packed = np.asarray(rec["cov_lower"], dtype=float)
            if packed.shape != (dofs * (dofs + 1) // 2,):
                raise ValidationError(
                    f"record {i}: packed covariance has {packed.shape[0]} entries, "
                    f"expected {dofs * (dofs + 1) // 2}")
            covs[i][tril] = packed
            covs[i] = covs[i] + np.tril(covs[i], -1).T
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed Gaussian-sequence record: {exc}") from exc
    return GaussianSequence(times=times, means=means, covs=covs,
                            meta=dict(data.get("meta", {})))
