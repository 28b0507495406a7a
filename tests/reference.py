"""Textbook routes of the closed-form solution, kept as test references.

The package evaluates trajectories through one boundary fold of the bank
(`mptraj.trajectory.folded_basis`).  The routes below are the steps of its
derivation: the homogeneous solutions, the growing goal integrals q1/q2 and
the constants c1/c2 solved through 1/Wronskian.  Their factors grow like
exp(k t), so they are usable only on short horizons, which is why they serve
as independent cross-checks and not as production code.

Beside them sit routes that the package replaced with faster ones: the pair
NLL through a dense block design matrix and scipy, the per-time combination
loop, and the per-value CSV writers.
"""
from dataclasses import dataclass

import numpy as np
from scipy.stats import multivariate_normal

from mptraj.probops import GaussianSequence, _chol_with_jitter
from mptraj.trajectory import weight_blocks


@dataclass(frozen=True)
class ComplementarySample:
    t: float
    y1: float
    y2: float
    dy1: float
    dy2: float

    @property
    def wronskian(self) -> float:
        return self.y1 * self.dy2 - self.dy1 * self.y2


def complementary(t: float, config) -> ComplementarySample:
    """Homogeneous solutions y1 = e^{-kt}, y2 = t e^{-kt} and their derivatives."""
    t = float(t)
    k = config.decay_rate
    e = np.exp(-k * t)
    return ComplementarySample(t=t, y1=e, y2=t * e, dy1=-k * e, dy2=(1.0 - k * t) * e)


def q_terms(t: float, config) -> tuple[float, float]:
    """Closed-form goal integrals q1 = (kt - 1) e^{kt} + 1, q2 = k (e^{kt} - 1)."""
    k = config.decay_rate
    arg = k * float(t)
    grow = np.exp(arg)
    return (arg - 1.0) * grow + 1.0, k * (grow - 1.0)


def solve_coefficients(bc, w_g, bank):
    """Per-DoF constants (c1, c2) of y = c1 y1 + c2 y2 + Phi^T w_g, solved from
    the boundary state and the basis values at t_b through 1/Wronskian, which
    grows like e^{2 k t_b}."""
    blocks = weight_blocks(w_g, bc.dofs, bank.weight_dim)
    phi_b = bank.pos_rows(bc.t_b)[0]
    dphi_b = bank.vel_rows(bc.t_b)[0]
    at_b = complementary(bc.t_b, bank.config)
    y1b, y2b, dy1b, dy2b = at_b.y1, at_b.y2, at_b.dy1, at_b.dy2
    wronskian = at_b.wronskian
    c1 = (dy2b * bc.y_b - y2b * bc.dy_b + blocks @ (y2b * dphi_b - dy2b * phi_b)) / wronskian
    c2 = (y1b * bc.dy_b - dy1b * bc.y_b + blocks @ (dy1b * phi_b - y1b * dphi_b)) / wronskian
    return c1, c2


def position_from_coefficients(c1, c2, w_g, times, bank) -> np.ndarray:
    """Direct evaluation y = c1 y1 + c2 y2 + Phi^T w_g."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    blocks = weight_blocks(w_g, c1.shape[0], bank.weight_dim)
    env = np.exp(-bank.config.decay_rate * times)
    return (c1[:, None] * env + c2[:, None] * (times * env)
            + blocks @ bank.pos_rows(times).T)


def velocity_from_coefficients(c1, c2, w_g, times, bank) -> np.ndarray:
    """Direct evaluation yd = c1 dy1 + c2 dy2 + dPhi^T w_g."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    blocks = weight_blocks(w_g, c1.shape[0], bank.weight_dim)
    k = bank.config.decay_rate
    env = np.exp(-k * times)
    return (c1[:, None] * (-k * env) + c2[:, None] * ((1.0 - k * times) * env)
            + blocks @ bank.vel_rows(times).T)


def pair_nll_dense(batch, wdist, bc, bank, noise_var) -> float:
    """Mean pair NLL through an explicit (2D, D(N+1)) block design matrix per
    pair, built from the bank rows and the closed-form xi1/xi2 (not through
    folded_basis), scored by scipy's multivariate_normal."""
    dofs, wd = bc.dofs, bank.weight_dim
    k = bank.config.decay_rate
    phi_b = bank.pos_rows(bc.t_b)[0]
    dphi_b = bank.vel_rows(bc.t_b)[0]
    cov_w = wdist.chol @ wdist.chol.T
    mean_blocks = wdist.mean.reshape(dofs, wd)
    total = 0.0
    for times, values in zip(batch.times, batch.values):
        rel = times - bc.t_b
        env = np.exp(-k * rel)
        xi1, xi2 = (1.0 + k * rel) * env, rel * env
        h_pair = bank.pos_rows(times) - xi1[:, None] * phi_b - xi2[:, None] * dphi_b
        design = np.zeros((2 * dofs, dofs * wd))
        for d in range(dofs):
            design[2 * d:2 * d + 2, d * wd:(d + 1) * wd] = h_pair
        mean = (xi1 * bc.y_b[:, None] + xi2 * bc.dy_b[:, None]
                + mean_blocks @ h_pair.T).ravel()
        cov = design @ cov_w @ design.T + noise_var * np.eye(2 * dofs)
        total -= multivariate_normal(mean, cov).logpdf(values)
    return total / batch.count


def combine_loop(sequences, profile) -> GaussianSequence:
    """Activated product of per-time Gaussians, one time step and one active
    primitive at a time: a lone active primitive passes through (its
    covariance divided by its activation), every other time sums the
    activation-weighted precisions of its active primitives."""
    def inverse(mat, counter, what):
        inv_l = np.linalg.solve(_chol_with_jitter(mat, counter, what),
                                np.eye(mat.shape[0]))
        inv = inv_l.T @ inv_l
        return 0.5 * (inv + inv.T)

    base = sequences[0]
    t_count, dofs = base.means.shape
    means = np.empty((t_count, dofs))
    covs = np.empty((t_count, dofs, dofs))
    jitter_events = [0]
    for i in range(t_count):
        weights = profile.values[:, i]
        active = np.flatnonzero(weights > 0.0)
        if active.size == 1:
            k = active[0]
            means[i] = sequences[k].means[i]
            if weights[k] == 1.0:
                covs[i] = sequences[k].covs[i]
            else:
                covs[i] = sequences[k].covs[i] / weights[k]
            continue
        precision = np.zeros((dofs, dofs))
        scaled_mean = np.zeros(dofs)
        for k in active:
            prec_k = inverse(sequences[k].covs[i], jitter_events,
                             f"covariance of primitive {k} at index {i}")
            precision += weights[k] * prec_k
            scaled_mean += weights[k] * (prec_k @ sequences[k].means[i])
        covs[i] = inverse(precision, jitter_events, f"combined precision at index {i}")
        means[i] = covs[i] @ scaled_mean
    return GaussianSequence(times=base.times, means=means, covs=covs,
                            meta={"jitter_applied": jitter_events[0]})


def write_trajectory_csv(path, times, positions, velocities, segment_ids=None):
    """Per-value writer of the trajectory CSV schema: t, dof0_pos, dof0_vel,
    ..., [segment_id], each float formatted on its own with 17 digits."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if velocities is not None:
        velocities = np.atleast_2d(np.asarray(velocities, dtype=float))
    header = ["t"]
    for d in range(positions.shape[0]):
        header.append(f"dof{d}_pos")
        if velocities is not None:
            header.append(f"dof{d}_vel")
    if segment_ids is not None:
        header.append("segment_id")
    lines = [",".join(header)]
    for j, t in enumerate(times):
        row = [f"{t:.17g}"]
        for d in range(positions.shape[0]):
            row.append(f"{positions[d, j]:.17g}")
            if velocities is not None:
                row.append(f"{velocities[d, j]:.17g}")
        if segment_ids is not None:
            row.append(str(int(segment_ids[j])))
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_samples_csv(path, times, samples):
    """Per-value writer of the long-format sample CSV: sample_id, t,
    dof0_pos, ..., each float formatted on its own with 17 digits."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    samples = np.asarray(samples, dtype=float)
    count, dofs, _ = samples.shape
    lines = [",".join(["sample_id", "t"] + [f"dof{d}_pos" for d in range(dofs)])]
    for c in range(count):
        for j, t in enumerate(times):
            row = [str(c), f"{t:.17g}"]
            row += [f"{samples[c, d, j]:.17g}" for d in range(dofs)]
            lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
