"""Output checks and the references they compare against.

Every check returns None when the output is correct and a one-line reason
when it is not.  The same functions serve the negative control: a perturbed
output fed to a check must come back with a reason.
"""
from __future__ import annotations

import numpy as np

# RK4 agreement, as a share of each DoF's amplitude: the acceptance tolerance
RK4_TOL = 1e-3
# agreement with a reference computed by another route
REL_TOL = 1e-9


def bit_exact(name: str, actual, expected) -> str | None:
    actual = np.ascontiguousarray(actual, dtype=float)
    expected = np.ascontiguousarray(expected, dtype=float)
    if actual.shape != expected.shape or actual.tobytes() != expected.tobytes():
        return f"{name}: not bit-exact"
    return None


def exactly_zero(name: str, values) -> str | None:
    values = np.asarray(values, dtype=float)
    if np.any(values != 0.0):
        return f"{name}: {np.max(np.abs(values)):.3e}, expected exactly 0"
    return None


def equal(name: str, actual, expected) -> str | None:
    if actual != expected:
        return f"{name}: {actual!r}, expected {expected!r}"
    return None


def rel_close(name: str, actual, reference, tol: float = REL_TOL) -> str | None:
    """|actual - reference| <= tol * max|reference|, row by row (per time,
    per pair); a NaN anywhere fails."""
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if actual.shape != reference.shape:
        return f"{name}: shape {actual.shape}, reference {reference.shape}"
    if reference.size == 0:
        return None
    rows = reference.shape[0] if reference.ndim else 1
    dev = np.abs(actual - reference).reshape(rows, -1).max(axis=1)
    scale = np.abs(reference).reshape(rows, -1).max(axis=1)
    if not np.all(dev <= tol * scale):
        worst = np.nanmax(dev / scale) if np.all(scale > 0) else np.inf
        return f"{name}: relative deviation {worst:.2e} (limit {tol:g})"
    return None


def rk4_agreement(closed, oracle) -> str | None:
    """Closed-form positions against RK4 on the same times, (D, T) each."""
    amplitude = np.ptp(oracle, axis=1)
    dev = np.max(np.abs(np.asarray(closed) - oracle), axis=1)
    if not np.all(dev <= RK4_TOL * amplitude):
        return (f"rk4: deviation {np.max(dev / amplitude):.2e} of amplitude "
                f"(limit {RK4_TOL:g})")
    return None


def pair_nll_reference(batch_times, values, mean, chol, bc, bank,
                       noise_var: float) -> float:
    """Mean pair NLL from a dense per-pair route: each pair's 2D x 2D joint
    Gaussian is built from the bank rows and the closed-form boundary fold,
    then scored by scipy's multivariate_normal."""
    from scipy.stats import multivariate_normal

    dofs, wd = bc.dofs, bank.weight_dim
    k = bank.config.decay_rate
    times = np.asarray(batch_times, dtype=float).ravel()
    rel = times - bc.t_b
    env = np.exp(-k * rel)
    xi1, xi2 = (1.0 + k * rel) * env, rel * env
    phi_b = bank.pos_rows(bc.t_b)[0]
    dphi_b = bank.vel_rows(bc.t_b)[0]
    h = bank.pos_rows(times) - xi1[:, None] * phi_b - xi2[:, None] * dphi_b
    cov_w = chol @ chol.T
    mean_blocks = mean.reshape(dofs, wd)
    total = 0.0
    for j in range(len(values)):
        rows = slice(2 * j, 2 * j + 2)
        h_pair = h[rows]
        design = np.zeros((2 * dofs, dofs * wd))
        for d in range(dofs):
            design[2 * d:2 * d + 2, d * wd:(d + 1) * wd] = h_pair
        mu = (xi1[rows] * bc.y_b[:, None] + xi2[rows] * bc.dy_b[:, None]
              + mean_blocks @ h_pair.T).ravel()
        cov = design @ cov_w @ design.T + noise_var * np.eye(2 * dofs)
        total -= multivariate_normal(mu, cov).logpdf(values[j])
    return total / len(values)


def combine_reference(means, covs, act):
    """Per-time precision sum over K primitives: means (K, T, D), covs
    (K, T, D, D), activations (K, T)."""
    prec = np.linalg.inv(covs)
    precision = np.einsum("kt,ktij->tij", act, prec)
    cov = np.linalg.inv(precision)
    shift = np.einsum("kt,ktij,ktj->ti", act, prec, means)
    return np.einsum("tij,tj->ti", cov, shift), cov


def combine_errors(name: str, means, covs, act, out_means, out_covs,
                   jitter_events) -> list:
    """A lone primitive at activation 1 passes through bit for bit; every
    other time matches the precision-sum reference; no jitter fired."""
    act = np.asarray(act, dtype=float)
    lone = ((act > 0.0).sum(axis=0) == 1) & (act.max(axis=0) == 1.0)
    idx = np.flatnonzero(lone)
    chosen = act.argmax(axis=0)[idx]
    ref_means, ref_covs = combine_reference(means, covs, act)
    rest = ~lone
    return [
        bit_exact(f"{name} lone-primitive means", out_means[idx], means[chosen, idx]),
        bit_exact(f"{name} lone-primitive covs", out_covs[idx], covs[chosen, idx]),
        rel_close(f"{name} means", out_means[rest], ref_means[rest]),
        rel_close(f"{name} covs", out_covs[rest], ref_covs[rest]),
        equal(f"{name} jitter events", jitter_events, 0),
    ]


def nudge(values, index=0):
    """A copy of `values` with one entry moved by one unit in the last place."""
    out = np.array(values, dtype=float)
    flat = out.reshape(-1)
    flat[index] = np.nextafter(flat[index], np.inf)
    return out
