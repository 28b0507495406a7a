"""Textbook routes of the closed-form solution, kept as test references.

The package evaluates trajectories through one boundary fold of the bank
(`mptraj.trajectory.folded_basis`).  The routes below are the steps of its
derivation: the homogeneous solutions, the growing goal integrals q1/q2 and
the constants c1/c2 solved through 1/Wronskian.  Their factors grow like
exp(k t), so they are usable only on short horizons, which is why they serve
as independent cross-checks and not as production code.

Beside them sit routes that the package replaced with faster ones: the
row-major boundary fold, the row-by-row precompute recurrence and the
whole-grid precompute pass, the pair NLL through a dense block design
matrix and scipy, the pair NLL over one fold of all pair times, pair
time sampling from np.unique of every grid, the per-time combination
loop, the LAPACK inverse of a covariance stack, the per-demo fit loop,
the ridge least squares on the augmented design matrix, the loops that add
per-primitive or per-observation terms one at a time, the per-value CSV
writers, the float()-per-cell trajectory CSV reader, the per-point SVG plot
and the per-record Gaussian-sequence JSON.
stale_chain is the negative control of replanning: a chain that ignores the
executed state.
"""
import copy
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.stats import multivariate_normal

from mptraj import (BasisBank, BoundaryCondition, ForcingBasis, LatentGaussian,
                    NumericalError, ValidationError, fit_weights, phase, run_chain)
from mptraj.basis import _SCAN_BLOCK
from mptraj.distribution import PAIR_BLOCK, _group_gaussians, _nll_sum
from mptraj.learning import RIDGE_SCALE, _ridge_lstsq
from mptraj.probops import GaussianSequence
from mptraj.svgplot import (_HEIGHT, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _PALETTE,
                            _WIDTH)
from mptraj.trajectory import folded_basis, weight_blocks


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


def sequential_bank(config) -> BasisBank:
    """The basis bank with the decay recurrence advanced one grid row at a
    time, acc = exp(-k dt) * acc + increment: the sequential route that
    precompute_basis's blocked scan replaces.  No self-check."""
    m = config.grid_intervals
    dt = config.duration / m
    times = np.linspace(0.0, config.duration, m + 1)
    k = config.decay_rate
    f = (ForcingBasis(config).normalized_scaled(phase(times, config))
         / np.float64(config.tau)**2)
    fg = np.hstack([f, times[:, None] * f])
    decay = np.exp(-k * dt)
    big_ab = np.zeros_like(fg)
    big_ab[1:] = 0.5 * dt * (decay * fg[:-1] + fg[1:])
    acc = big_ab[0]
    for j in range(1, m + 1):
        big_ab[j] = acc = decay * acc + big_ab[j]
    n = config.num_basis
    big_a, big_b = big_ab[:, :n], big_ab[:, n:]
    kt = k * times
    env = np.exp(-kt)
    pos_basis = np.column_stack([times[:, None] * big_a - big_b, 1.0 - (1.0 + kt) * env])
    vel_basis = np.column_stack([(1.0 - kt)[:, None] * big_a + k * big_b,
                                 k * k * times * env])
    return BasisBank(config=config, table=np.stack([pos_basis.T, vel_basis.T]))


# overflow, 0/0 and x/0 leave a non-finite bank, which the self-check rejects
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def whole_grid_bank(config) -> BasisBank:
    """precompute_basis as one pass over the whole grid: every intermediate
    (forcing rows, increments, scan, self-check products) is a grid-sized
    array.  The chunked stream must give its table bit for bit, and raise
    where it raises."""
    forcing = ForcingBasis(config)
    m = config.grid_intervals
    dt = config.duration / m
    times = config.grid()
    k = config.decay_rate

    x = phase(times, config)
    # numpy's pow overflows to inf where Python's raises OverflowError
    f = forcing.normalized_scaled(x) / np.float64(config.tau)**2  # (M+1, N) integrand
    fg = np.hstack([f, times[:, None] * f])               # A and B integrands
    decay = np.exp(-k * dt)

    # A and B advance together as one 2N-wide recurrence; the trapezoid
    # increments do not depend on the accumulator, so each row starts as its
    # increment and the blocked scan overwrites it, block by block, with
    # scan @ increments + carry * (last row of the previous block)
    big_ab = np.zeros_like(fg)
    big_ab[1:] = 0.5 * dt * (decay * fg[:-1] + fg[1:])
    powers = decay ** np.arange(_SCAN_BLOCK + 1)         # all <= 1; 0**0 is 1
    lag = np.arange(_SCAN_BLOCK)
    scan = np.tril(powers[np.abs(lag[:, None] - lag)])   # decay^(i-l), i >= l
    carry = powers[1:, None]                             # decay^(i+1)
    acc = big_ab[0]
    for start in range(1, m + 1, _SCAN_BLOCK):
        block = big_ab[start:start + _SCAN_BLOCK]
        r = block.shape[0]
        block[:] = scan[:r, :r] @ block + carry[:r] * acc
        acc = block[-1]
    n = config.num_basis
    big_a, big_b = big_ab[:, :n], big_ab[:, n:]

    kt = k * times
    env = np.exp(-kt)
    # filled through its (M, N+1) views, the table becomes the bank's own
    table = np.empty((2, n + 1, m + 1))
    pos_basis, vel_basis = table[0].T, table[1].T
    pos_basis[:, :n] = times[:, None] * big_a - big_b
    vel_basis[:, :n] = (1.0 - kt)[:, None] * big_a + k * big_b
    pos_basis[:, n] = 1.0 - (1.0 + kt) * env
    vel_basis[:, n] = k * k * times * env

    fd = (pos_basis[2:] - pos_basis[:-2]) / (2.0 * dt)
    deviation = float(np.max(np.abs(fd - vel_basis[1:-1])))
    tol = 10.0 * dt
    # negated so that NaN fails the check
    if not (deviation <= tol and np.isfinite(vel_basis).all()):
        raise NumericalError(
            f"precomputation self-check failed: finite-difference derivative of the "
            f"position basis deviates from the velocity basis by {deviation:.3e} "
            f"(allowed {tol:.3e}); the grid step {dt:.3e} is too coarse for "
            f"alpha={config.alpha}, tau={config.tau}, num_basis={config.num_basis}")

    return BasisBank(config=config, table=table)


class RowMajorFold:
    """The boundary fold computed row-major, one time per row: each row kind
    gathered and lerped on its own from C-ordered (M, N+1) copies of the bank
    arrays, and the folded rows h_pos/h_vel built as C-ordered (T, N+1)
    arrays.  The layout the package folded in before its time-major table;
    the same formulas, so every value must agree bit for bit wherever the
    products take the same BLAS path."""

    def __init__(self, bc, times, bank):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        grid = bank.times
        t = np.concatenate(([bc.t_b], times))
        idx = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, grid.shape[0] - 2)
        frac = (t - grid[idx]) / (grid[idx + 1] - grid[idx])
        lo, hi = (1.0 - frac)[:, None], frac[:, None]
        phi, dphi = (lo * values[idx] + hi * values[idx + 1]
                     for values in (np.ascontiguousarray(bank.table[0].T),
                                    np.ascontiguousarray(bank.table[1].T)))
        k = bank.config.decay_rate
        rel = times - bc.t_b
        env = np.exp(-k * rel)
        xi1, xi2 = (1.0 + k * rel) * env, rel * env
        dxi1, dxi2 = -k * k * rel * env, (1.0 - k * rel) * env
        self.bc = bc
        self.pos_offset = xi1 * bc.y_b[:, None] + xi2 * bc.dy_b[:, None]
        self.vel_offset = dxi1 * bc.y_b[:, None] + dxi2 * bc.dy_b[:, None]
        self.h_pos = phi[1:] - xi1[:, None] * phi[0] - xi2[:, None] * dphi[0]
        self.h_vel = dphi[1:] - dxi1[:, None] * phi[0] - dxi2[:, None] * dphi[0]

    def _blocks(self, w_g):
        w_g = np.asarray(w_g, dtype=float)
        return w_g.reshape(w_g.shape[:-1] + (self.bc.dofs, self.h_pos.shape[1]))

    def positions(self, w_g):
        return self.pos_offset + self._blocks(w_g) @ self.h_pos.T

    def velocities(self, w_g):
        return self.vel_offset + self._blocks(w_g) @ self.h_vel.T


def row_major_fits(demos, bank) -> np.ndarray:
    """Weights (K, D*(N+1)) of K demos sampled at the same times, with the
    default ridge: the shared-grid fit on a RowMajorFold of the stacked
    boundary states, whose offsets include velocity rows no fit reads, the
    ridge summed over its C-ordered rows, and the package's own ridge solve."""
    bcs = [demo.boundary_condition() for demo in demos]
    stacked = BoundaryCondition(bcs[0].t_b, np.concatenate([bc.y_b for bc in bcs]),
                                np.concatenate([bc.dy_b for bc in bcs]))
    fold = RowMajorFold(stacked, demos[0].times, bank)
    target = np.concatenate([demo.positions for demo in demos]) - fold.pos_offset
    ridge = RIDGE_SCALE * np.einsum("ij,ij->", fold.h_pos, fold.h_pos) / bank.weight_dim
    return _ridge_lstsq(fold.h_pos, target.T, ridge).T.reshape(len(demos), -1)


def augmented_lstsq(design, target, ridge) -> np.ndarray:
    """Ridge least squares as lstsq (LAPACK gelsd) on the augmented design
    [H; sqrt(ridge) I] and the target padded with zeros, with the package's
    rank check: the route that the package's thin-SVD solve replaced, and the
    fit reference it is held to."""
    dim = design.shape[1]
    if ridge > 0.0:
        design = np.vstack([design, np.sqrt(ridge) * np.eye(dim)])
        target = np.vstack([target, np.zeros((dim, target.shape[1]))])
    solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < dim:
        raise NumericalError(
            f"design matrix is rank deficient ({rank} < {dim}); supply ridge > 0")
    return solution


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


def pair_nll_one_fold(batch, wdist, bc, bank, noise_var) -> float:
    """Mean pair NLL with all 2J pair times folded at once, each block of
    PAIR_BLOCK pairs scored from its columns of that one fold."""
    fold = folded_basis(bc, batch.times.ravel(), bank)
    total = 0.0
    for start in range(0, batch.count, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, batch.count)
        columns = copy.copy(fold)
        columns.rows = fold.rows[:, :, 2 * start:2 * stop]
        columns.offsets = fold.offsets[:, :, 2 * start:2 * stop]
        means, covs = _group_gaussians(wdist, columns, 2, noise_var)
        total += _nll_sum(covs, batch.values[start:stop] - means, "singular pair covariance")
    return 0.5 * (2 * bc.dofs * math.log(2.0 * math.pi) + total / batch.count)


def pair_times_by_unique(times, count, seed) -> np.ndarray:
    """The (count, 2) pair times sample_time_pairs draws, each from the
    sorted distinct times np.unique gives of every grid, sorted or not."""
    grid = np.unique(np.asarray(times, dtype=float))
    rng = np.random.default_rng(seed)
    first = rng.integers(0, grid.size, size=count)
    second = rng.integers(0, grid.size - 1, size=count)
    second = second + (second >= first)
    return np.stack([grid[np.minimum(first, second)], grid[np.maximum(first, second)]],
                    axis=1)


def stale_chain(initial, segments, bank, rate) -> np.ndarray:
    """Position jumps at the interior switches of a chain whose segments each
    restart from the initial y_b/dy_b at their switch time, instead of the
    executed state: the discontinuities of replanning without boundary
    handling.  Each segment is a one-segment run_chain."""
    t_b, prev_end, jumps = initial.t_b, None, []
    for wdist, horizon in segments:
        bc = BoundaryCondition(t_b, initial.y_b, initial.dy_b)
        plan = run_chain(bc, [(wdist, horizon)], bank, rate)
        if prev_end is not None:
            jumps.append(float(np.max(np.abs(plan.positions[:, 0] - prev_end))))
        prev_end = plan.positions[:, -1]
        t_b = float(plan.times[-1])
    return np.asarray(jumps)


def per_demo_fits(demos, bank, ridge=None) -> np.ndarray:
    """Weights (K, D*(N+1)) of K demos, one fit_weights call (one fold, one
    least squares) per demo: the loop that fit_distribution replaced."""
    return np.stack([fit_weights(demo, bank, ridge) for demo in demos])


def lapack_spd_inverse(stack, counter, what):
    """Symmetric inverses of a stack (n, D, D) of SPD matrices through one
    batched LAPACK Cholesky factorization and one solve against the identity,
    retrying every slice alone with a 1e-12 diagonal jitter when the stack
    fails: the route that probops' stack-axis factorization replaced."""
    def chol_with_jitter(mat, name):
        try:
            return np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            counter[0] += 1
            try:
                return np.linalg.cholesky(mat + 1e-12 * np.eye(mat.shape[0]))
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"{name} is singular even after 1e-12 jitter") from exc

    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        chol = np.stack([chol_with_jitter(mat, what(j)) for j, mat in enumerate(stack)])
    inv_l = np.linalg.solve(chol, np.broadcast_to(np.eye(stack.shape[-1]), stack.shape))
    inv = np.swapaxes(inv_l, -1, -2) @ inv_l
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def spd_inverse_one(mat):
    """Inverse of one SPD matrix in plain Python floats, or None where a pivot
    is not > 0: probops' stack-axis kernel for a single slice, in its pivot
    and summation order.  Column by column, pivot a_jj - sum_k l_jk^2; then
    X = L^-1 by forward substitution and inv_ij = sum_k X_ki X_kj, each sum
    in k order from 0.0."""
    a = mat.tolist()
    dofs = len(a)
    chol = [[0.0] * dofs for _ in range(dofs)]
    for j in range(dofs):
        for i in range(j, dofs):
            dot = 0.0
            for k in range(j):
                dot += chol[i][k] * chol[j][k]
            if i == j:
                pivot = a[j][j] - dot
                if not pivot > 0.0:
                    return None
                chol[j][j] = math.sqrt(pivot)
            else:
                chol[i][j] = (a[i][j] - dot) / chol[j][j]
    inv_l = [[0.0] * dofs for _ in range(dofs)]
    for i in range(dofs):
        for j in range(i):
            dot = 0.0
            for k in range(j, i):
                dot += chol[i][k] * inv_l[k][j]
            inv_l[i][j] = -dot / chol[i][i]
        inv_l[i][i] = 1.0 / chol[i][i]
    inv = [[0.0] * dofs for _ in range(dofs)]
    for i in range(dofs):
        for j in range(dofs):
            for k in range(max(i, j), dofs):
                inv[i][j] += inv_l[k][i] * inv_l[k][j]
    return np.array([[0.5 * (inv[i][j] + inv[j][i]) for j in range(dofs)]
                     for i in range(dofs)])


def combine_loop(sequences, profile) -> GaussianSequence:
    """Activated product of per-time Gaussians, one time step and one active
    primitive at a time: a lone active primitive passes through (its
    covariance divided by its activation), every other time sums the
    activation-weighted precisions of its active primitives."""
    def inverse(mat, counter, what):
        # a 1e-12 diagonal jitter where the factorization fails, counted once
        inv = spd_inverse_one(mat)
        if inv is None:
            counter[0] += 1
            inv = spd_inverse_one(mat + 1e-12 * np.eye(mat.shape[0]))
            if inv is None:
                raise NumericalError(f"{what} is singular even after 1e-12 jitter")
        return inv

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


def sum_loop(terms) -> np.ndarray:
    """Sum of the rows of terms, each added in order to zeros."""
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total = total + term
    return total


def bayesian_aggregate_loop(prior, observations) -> LatentGaussian:
    """Elementwise precision addition, one observation at a time, in the
    canonical order that bayesian_aggregate sorts into."""
    observations = sorted(observations,
                          key=lambda obs: (obs.mean.tobytes(), obs.var.tobytes()))
    prec_sum = np.zeros(prior.dim)
    shift_sum = np.zeros(prior.dim)
    for obs in observations:
        prec_sum = prec_sum + 1.0 / obs.var
        shift_sum = shift_sum + (obs.mean - prior.mean) / obs.var
    var = 1.0 / (1.0 / prior.var + prec_sum)
    return LatentGaussian(mean=prior.mean + var * shift_sum, var=var)


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


def read_trajectory_csv(path):
    """The trajectory CSV reader that parses every cell by float() on its
    own: (times, positions, velocities), or the ValidationError the package
    reader raises."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read().strip()
    if not text:
        raise ValidationError(f"empty trajectory file: {path}")
    lines = text.splitlines()
    header = [c.strip() for c in lines[0].split(",")]
    if header[0] != "t":
        raise ValidationError(f"trajectory CSV must start with a 't' column: {path}")
    if header.count("segment_id") > 1:
        raise ValidationError(f"column 'segment_id' repeats in {path}")
    columns = {"pos": {}, "vel": {}}
    for idx, name in enumerate(header[1:], start=1):
        if name == "segment_id":
            continue
        column = re.fullmatch(r"dof([0-9]{1,9})_(pos|vel)", name)
        if column is None:
            raise ValidationError(f"unrecognized trajectory column {name!r} in {path}")
        dof = int(column[1])
        if dof in columns[column[2]]:
            raise ValidationError(f"column {name!r} repeats DoF {dof} {column[2]} in {path}")
        columns[column[2]][dof] = idx
    pos_cols, vel_cols = columns["pos"], columns["vel"]
    if sorted(pos_cols) != list(range(len(pos_cols))) or not pos_cols:
        raise ValidationError(f"missing position columns in {path}")
    rows = [row.split(",") for row in lines[1:]]
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValidationError(
            f"trajectory rows in {path} must each have {len(header)} values")
    data = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError as exc:
                raise ValidationError(f"malformed trajectory row in {path}: {exc}") from exc
    positions = data[:, [pos_cols[d] for d in range(len(pos_cols))]].T
    velocities = None
    if vel_cols:
        if sorted(vel_cols) != sorted(pos_cols):
            raise ValidationError(f"velocity columns do not match position columns in {path}")
        velocities = data[:, [vel_cols[d] for d in range(len(vel_cols))]].T
    return data[:, 0], positions, velocities


def gaussian_sequence_json_dict(seq):
    """The JSON record list of a Gaussian sequence, one record and one
    indexing per time."""
    tril = np.tril_indices(seq.dofs)
    records = []
    for i, t in enumerate(seq.times):
        records.append({
            "t": float(t),
            "mean": seq.means[i].tolist(),
            "cov_lower": seq.covs[i][tril].tolist(),
        })
    return {"dofs": seq.dofs, "records": records, "meta": dict(seq.meta)}


class _Mapper:
    def __init__(self, x_low, x_high, y_low, y_high):
        if x_high <= x_low:
            x_high = x_low + 1.0
        if y_high <= y_low:
            pad = max(1.0, abs(y_low)) * 0.5
            y_low, y_high = y_low - pad, y_high + pad
        else:
            pad = 0.05 * (y_high - y_low)
            y_low, y_high = y_low - pad, y_high + pad
        self.x_low, self.x_high = x_low, x_high
        self.y_low, self.y_high = y_low, y_high

    def x(self, value):
        span = _WIDTH - _MARGIN_L - _MARGIN_R
        return _MARGIN_L + span * (value - self.x_low) / (self.x_high - self.x_low)

    def y(self, value):
        span = _HEIGHT - _MARGIN_T - _MARGIN_B
        return _HEIGHT - _MARGIN_B - span * (value - self.y_low) / (self.y_high - self.y_low)


def _points(mapper, times, values):
    return " ".join(f"{mapper.x(t):.2f},{mapper.y(v):.2f}"
                    for t, v in zip(times, values))


def line_plot(path, times, curves, bands=None, title=""):
    """Per-point writer of the SVG plot: curves is a list of (label, values),
    bands an aligned list of (lower, upper) tuples or None entries; every
    coordinate is mapped and formatted on its own.  No validation."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    curves = [(str(label), np.atleast_1d(np.asarray(vals, dtype=float)))
              for label, vals in curves]
    if bands is None:
        bands = [None] * len(curves)
    y_values = [vals for _, vals in curves]
    for band in bands:
        if band is not None:
            y_values += [np.asarray(band[0], dtype=float), np.asarray(band[1], dtype=float)]
    stacked = np.concatenate(y_values)
    mapper = _Mapper(float(times.min()), float(times.max()),
                     float(stacked.min()), float(stacked.max()))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')

    for i, band in enumerate(bands):
        if band is None:
            continue
        low, high = (np.asarray(b, dtype=float) for b in band)
        ring = (_points(mapper, times, high) + " "
                + _points(mapper, times[::-1], low[::-1]))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polygon points="{ring}" fill="{color}" fill-opacity="0.22" '
                     f'stroke="none"/>')

    axis_y = mapper.y(mapper.y_low)
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
                 f'y2="{axis_y:.2f}" stroke="#444" stroke-width="1"/>')
    parts.append(f'<line x1="{_MARGIN_L}" y1="{axis_y:.2f}" x2="{_WIDTH - _MARGIN_R}" '
                 f'y2="{axis_y:.2f}" stroke="#444" stroke-width="1"/>')
    label_style = 'font-family="sans-serif" font-size="11" fill="#444"'
    parts.append(f'<text x="{_MARGIN_L}" y="{_HEIGHT - 12}" {label_style}>'
                 f'{mapper.x_low:.3g}</text>')
    parts.append(f'<text x="{_WIDTH - _MARGIN_R}" y="{_HEIGHT - 12}" '
                 f'text-anchor="end" {label_style}>{mapper.x_high:.3g}</text>')
    parts.append(f'<text x="{_MARGIN_L - 6}" y="{axis_y:.2f}" text-anchor="end" '
                 f'{label_style}>{mapper.y_low:.3g}</text>')
    parts.append(f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + 4}" text-anchor="end" '
                 f'{label_style}>{mapper.y_high:.3g}</text>')

    for i, (label, vals) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline points="{_points(mapper, times, vals)}" '
                     f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        legend_y = _MARGIN_T + 14 * i
        parts.append(f'<line x1="{_WIDTH - _MARGIN_R - 90}" y1="{legend_y}" '
                     f'x2="{_WIDTH - _MARGIN_R - 70}" y2="{legend_y}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_WIDTH - _MARGIN_R - 64}" y="{legend_y + 4}" '
                     f'{label_style}>{label}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
