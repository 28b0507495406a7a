"""Boundary-condition-exact trajectory evaluation.

A trajectory with parameters w_g (per DoF: N weights plus the goal) and a
boundary state (y_b, dy_b) at time t_b is

    y(t)  = xi1 y_b + xi2 dy_b + (Phi(t) - xi1 Phi_b - xi2 dPhi_b)^T w_g
    yd(t) = dxi1 y_b + dxi2 dy_b + (dPhi(t) - dxi1 Phi_b - dxi2 dPhi_b)^T w_g

with xi1 = (1 + k dt) e^{-k dt}, xi2 = dt e^{-k dt}, dt = t - t_b and
k = alpha / (2 tau).  These are the stable simplifications of the
homogeneous-solution ratios over the Wronskian at t_b, whose factor 1/W
grows like e^{2 k t_b} and cancels against the numerators.  Adherence at
t_b is exact to the bit because the folded basis row vanishes there.

Querying t < t_b is permitted; the formulas stay valid but the intended use
is t >= t_b (the exponential in xi then grows with t_b - t).
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .basis import BasisBank
from .errors import DimensionError, ValidationError, check_finite_nonneg, freeze
from .fileio import read_text, write_csv_table

# bound on samples per query window or replanning segment: a 1 kHz controller
# over 1000 s
MAX_QUERY_SAMPLES = 10**6


@dataclass(frozen=True)
class BoundaryCondition:
    """Robot state (positions, velocities) at time t_b, one entry per DoF."""

    t_b: float
    y_b: np.ndarray
    dy_b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_b", check_finite_nonneg("boundary time", float(self.t_b)))
        y_b = np.atleast_1d(np.array(self.y_b, dtype=float))
        dy_b = np.atleast_1d(np.array(self.dy_b, dtype=float))
        if y_b.ndim != 1 or y_b.shape != dy_b.shape or not y_b.size:
            raise DimensionError(f"y_b {y_b.shape} and dy_b {dy_b.shape} must be "
                                 f"equal-length vectors of at least one DoF")
        if not (np.isfinite(y_b).all() and np.isfinite(dy_b).all()):
            raise ValidationError("boundary state y_b and dy_b must be finite")
        freeze(self, y_b=y_b, dy_b=dy_b)

    @property
    def dofs(self) -> int:
        return self.y_b.shape[0]


def window_steps(span: float, rate: float) -> int:
    """Sample periods in a window of length span sampled at rate, both finite.

    Raises ValidationError, before any grid is allocated, when the window
    would hold more than MAX_QUERY_SAMPLES samples.
    """
    # min() first, so that a product overflowing to inf still rounds
    steps = int(round(min(span * rate, MAX_QUERY_SAMPLES)))
    if steps + 1 > MAX_QUERY_SAMPLES:
        raise ValidationError(
            f"a {span:g} s window at {rate:g} Hz holds more than {MAX_QUERY_SAMPLES} "
            f"samples; lower the rate or shorten the window")
    return steps


def _xi_arrays(times: np.ndarray, t_b: float, k: float):
    """xi1, xi2 and their time derivatives dxi1, dxi2 at times."""
    rel = times - t_b
    env = np.exp(-k * rel)
    return ((1.0 + k * rel) * env, rel * env,
            -k * k * rel * env, (1.0 - k * rel) * env)


def weight_blocks(w_g, dofs: int, weight_dim: int) -> np.ndarray:
    """Validate a stacked weights-and-goal vector and view it as (D, N+1)."""
    w_g = np.asarray(w_g, dtype=float)
    if w_g.ndim != 1 or w_g.shape[0] != dofs * weight_dim:
        raise DimensionError(
            f"weights vector has {w_g.shape} entries, expected "
            f"{dofs}*{weight_dim} = {dofs * weight_dim}")
    return w_g.reshape(dofs, weight_dim)


class TrajectoryGenerator:
    """Boundary fold of the bank at fixed (bc, times), the one place the
    boundary state enters: y(t) = pos_offset + W h_pos^T and yd(t) =
    vel_offset + W h_vel^T for weight blocks W of shape (D, N+1).  Offsets
    are (D, T), the folded rows (T, N+1).  Shared by the deterministic,
    distribution, sampling and fitting paths; a replanning chain computes
    only the trace from it, one fold per segment.

    positions()/velocities() then cost one (D, N+1) x (N+1, T) product per
    weight vector, which is the online generation path worth benchmarking.
    """

    def __init__(self, bc: BoundaryCondition, times, bank: BasisBank):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.ndim != 1:
            raise DimensionError(f"query times must be a vector, got shape {times.shape}")
        if not times.size:
            raise ValidationError("query times must hold at least one time")
        # row 0 is the boundary row; the lerp is elementwise, so sharing one
        # lookup leaves every row unchanged
        phi, dphi = bank.rows(np.concatenate(([bc.t_b], times)))
        xi1, xi2, dxi1, dxi2 = _xi_arrays(times, bc.t_b, bank.config.decay_rate)
        self.bc = bc
        self.times = times
        self.pos_offset = xi1 * bc.y_b[:, None] + xi2 * bc.dy_b[:, None]
        self.vel_offset = dxi1 * bc.y_b[:, None] + dxi2 * bc.dy_b[:, None]
        self.h_pos = phi[1:] - xi1[:, None] * phi[0] - xi2[:, None] * dphi[0]
        self.h_vel = dphi[1:] - dxi1[:, None] * phi[0] - dxi2[:, None] * dphi[0]

    def _blocks(self, w_g) -> np.ndarray:
        """Weight blocks (..., D, N+1) of one vector or a stack (..., D*(N+1))."""
        dofs, weight_dim = self.bc.dofs, self.h_pos.shape[1]
        w_g = np.asarray(w_g, dtype=float)
        if w_g.ndim > 1 and w_g.shape[-1] == dofs * weight_dim:
            return w_g.reshape(w_g.shape[:-1] + (dofs, weight_dim))
        # one vector, or a stack with the wrong last axis: DimensionError
        return weight_blocks(w_g, dofs, weight_dim)

    def positions(self, w_g) -> np.ndarray:
        """Positions (..., D, T) of one weights vector or a stack of them."""
        return self.pos_offset + self._blocks(w_g) @ self.h_pos.T

    def velocities(self, w_g) -> np.ndarray:
        """Velocities (..., D, T), as positions()."""
        return self.vel_offset + self._blocks(w_g) @ self.h_vel.T


def folded_basis(bc: BoundaryCondition, times, bank: BasisBank) -> TrajectoryGenerator:
    return TrajectoryGenerator(bc, times, bank)


def evaluate_position(w_g, bc: BoundaryCondition, times, bank: BasisBank) -> np.ndarray:
    """Positions, shape (D, len(times)); exact boundary adherence at t_b."""
    return TrajectoryGenerator(bc, times, bank).positions(w_g)


def evaluate_velocity(w_g, bc: BoundaryCondition, times, bank: BasisBank) -> np.ndarray:
    """Velocities, shape (D, len(times)); equals dy_b exactly at t_b."""
    return TrajectoryGenerator(bc, times, bank).velocities(w_g)


def write_trajectory_csv(path: str, times, positions, velocities,
                         segment_ids=None) -> None:
    """Schema: t, dof0_pos, dof0_vel, ..., one row per time, 17 significant
    digits (lossless double round-trip).  segment_ids adds a trailing column."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if velocities is not None:
        velocities = np.atleast_2d(np.asarray(velocities, dtype=float))
        if positions.shape != velocities.shape:
            raise DimensionError(
                f"positions {positions.shape} and velocities {velocities.shape} "
                f"do not align")
    if positions.shape[1] != times.shape[0]:
        raise DimensionError(
            f"positions {positions.shape} and times {times.shape} do not align")
    header = ["t"]
    columns = [times]
    for d in range(positions.shape[0]):
        header.append(f"dof{d}_pos")
        columns.append(positions[d])
        if velocities is not None:
            header.append(f"dof{d}_vel")
            columns.append(velocities[d])
    if segment_ids is not None:
        segment_ids = np.asarray(segment_ids).astype(np.int64)
        if segment_ids.shape[0] != times.shape[0]:
            raise DimensionError("segment_ids must align with times")
        header.append("segment_id")
        columns.append(segment_ids)
    write_csv_table(path, header, np.column_stack(columns))


def read_trajectory_csv(path: str):
    """Inverse of write_trajectory_csv; returns (times, positions, velocities).

    Velocity columns are optional (demonstrations may carry positions only);
    absent velocities come back as None.
    """
    text = read_text(path).strip()
    if not text:
        raise ValidationError(f"empty trajectory file: {path}")
    lines = text.splitlines()
    header = [c.strip() for c in lines[0].split(",")]
    if header[0] != "t":
        raise ValidationError(f"trajectory CSV must start with a 't' column: {path}")
    pos_cols, vel_cols = {}, {}
    for idx, name in enumerate(header[1:], start=1):
        if name == "segment_id":
            continue
        column = re.fullmatch(r"dof(\d{1,9})_(pos|vel)", name)
        if column is None:
            raise ValidationError(f"unrecognized trajectory column {name!r} in {path}")
        cols, dof = (pos_cols if column[2] == "pos" else vel_cols), int(column[1])
        if dof in cols:  # dof0_pos and dof00_pos both name DoF 0
            raise ValidationError(f"column {name!r} repeats DoF {dof} {column[2]} in {path}")
        cols[dof] = idx
    if sorted(pos_cols) != list(range(len(pos_cols))) or not pos_cols:
        raise ValidationError(f"missing position columns in {path}")
    rows = lines[1:]
    # counted per row: a flat reshape would take a short row and a long one
    if not rows or any(row.count(",") != len(header) - 1 for row in rows):
        raise ValidationError(
            f"trajectory rows in {path} must each have {len(header)} values")
    cells = ",".join(rows).split(",")
    try:
        data = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError as exc:
        raise ValidationError(f"malformed trajectory row in {path}: {exc}") from exc
    data = data.reshape(len(rows), len(header))
    times = data[:, 0]
    positions = data[:, [pos_cols[d] for d in range(len(pos_cols))]].T
    velocities = None
    if vel_cols:
        if sorted(vel_cols) != sorted(pos_cols):
            raise ValidationError(f"velocity columns do not match position columns in {path}")
        velocities = data[:, [vel_cols[d] for d in range(len(vel_cols))]].T
    return times, positions, velocities
