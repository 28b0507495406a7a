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

import contextlib
import math
import re
from dataclasses import dataclass

import numpy as np

from .basis import BasisBank
from .errors import (DimensionError, ValidationError, check_finite_nonneg, take_array,
                     take_floats, take_value)
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
        check_finite_nonneg("boundary time", take_value(self, "t_b"))
        y_b = take_array(self, "y_b", 1)
        dy_b = take_array(self, "dy_b", 1)
        if y_b.shape != dy_b.shape or not y_b.size:
            raise DimensionError(f"y_b {y_b.shape} and dy_b {dy_b.shape} must be "
                                 f"equal-length vectors of at least one DoF")

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
    """(xi1, dxi1) and (xi2, dxi2) at times: the factors of the boundary
    position and velocity, each pair of shape (2, 1, T), position kind first."""
    rel = times - t_b
    krel = k * rel
    env = np.exp(-krel)
    first, second = np.empty((2, 2, 1, times.shape[0]))
    # written in place: the bits of each product, without a temporary and a copy
    np.multiply(1.0 + krel, env, out=first[0, 0])
    np.multiply(-k * k * rel, env, out=first[1, 0])
    np.multiply(rel, env, out=second[0, 0])
    np.multiply(1.0 - krel, env, out=second[1, 0])
    return first, second


def weight_blocks(w_g, dofs: int, weight_dim: int) -> np.ndarray:
    """Validate a stacked weights-and-goal vector and view it as (D, N+1)."""
    return _as_blocks(take_floats("w_g", w_g, 1, finite=False), dofs, weight_dim)


def _as_blocks(w_g: np.ndarray, dofs: int, weight_dim: int) -> np.ndarray:
    """Float weights (..., D*(N+1)) viewed as blocks (..., D, N+1)."""
    if w_g.shape[-1:] != (dofs * weight_dim,):
        raise DimensionError(
            f"weights vector has {w_g.shape} entries, expected "
            f"{dofs}*{weight_dim} = {dofs * weight_dim}")
    return w_g.reshape(w_g.shape[:-1] + (dofs, weight_dim))


class GridFold:
    """Boundary fold of the bank at fixed (t_b, times), with no boundary
    state: the folded position and velocity rows, one read-only (2, N+1, T)
    array `rows`, time-major like the bank's table, its own read-only copy of
    the times, and the xi factors from which offsets() makes any state's
    offsets.  The rows vanish at t_b, which makes adherence exact to the bit.

    TrajectoryGenerator reads the bank's kept fold through kept_fold(); a
    fold made here directly is one the bank does not keep.
    """

    def __init__(self, t_b: float, times, bank: BasisBank):
        times = take_floats("times", times, 1, finite=False)
        if not times.size:
            raise ValidationError("query times must hold at least one time")
        # column 0 is the boundary time; the lerp is elementwise, so sharing
        # one lookup leaves every row unchanged.  The times are the tail of
        # that array, so the fold's copy of them costs nothing more
        stamped = np.concatenate(([t_b], times))
        table = bank.lookup(stamped)
        self._xi = first, second = _xi_arrays(stamped[1:], t_b, bank.config.decay_rate)
        self.rows = table[:, :, 1:] - first * table[0, :, :1] - second * table[1, :, :1]
        # read-only before the times are sliced off, so that their view is too;
        # setflags costs half of what the flags attribute does
        stamped.setflags(write=False)
        self.rows.setflags(write=False)
        self.t_b, self.times = t_b, stamped[1:]

    def offsets(self, y_b, dy_b, kind=slice(None)) -> np.ndarray:
        """Offsets (2, S, T), position kind first, of S boundary positions y_b
        and velocities dy_b at this fold's t_b and times, or the (S, T) offsets
        of one kind: xi1 * y_b + xi2 * dy_b, with the second product added
        into the first.  Several states, such as those of demos sharing a
        grid, cost one array, and kind=0 builds no velocity offsets."""
        first, second = self._xi
        out = first[kind] * np.asarray(y_b)[:, None]
        out += second[kind] * np.asarray(dy_b)[:, None]
        return out


def kept_fold(t_b: float, times, bank: BasisBank) -> GridFold:
    """The bank's kept fold if it is at t_b and times, equal in every bit (so
    -0.0 is not 0.0); otherwise a new fold, which the bank keeps instead."""
    times = take_floats("times", times, 1, finite=False)
    kept = bank._last_fold
    # the sign tells -0.0 from 0.0, which compare equal; comparing t_b's bytes
    # would take 20 times as long on the miss every query at a new t_b makes
    if (kept is None or kept.t_b != t_b or math.copysign(1, kept.t_b) != math.copysign(1, t_b)
            or not np.array_equal(times.view(np.int64), kept.times.view(np.int64))):
        kept = GridFold(t_b, times, bank)
        object.__setattr__(bank, "_last_fold", kept)
    return kept


class TrajectoryGenerator:
    """A boundary state on the bank's fold at (bc.t_b, times), the one place
    the state enters: y(t) = offsets[0] + W rows[0] and yd(t) = offsets[1] +
    W rows[1] for weight blocks W of shape (D, N+1).  Shared by the
    deterministic, distribution and sampling paths; a replanning chain
    computes only the trace from it.

    It stores the fold's read-only `rows` and `times` (see GridFold) beside
    the state and its (2, D, T) `offsets`; readers index them directly.
    Every generator reads the bank's kept fold (kept_fold), so generators of
    one grid share its rows, and a generator of another grid replaces it.

    positions()/velocities() then cost one (D, N+1) x (N+1, T) product per
    weight vector against a contiguous row slice, with the offset added into
    it, which is the online generation path worth benchmarking.
    """

    def __init__(self, bc: BoundaryCondition, times, bank: BasisBank):
        fold = kept_fold(bc.t_b, times, bank)
        self.bc, self.times, self.rows = bc, fold.times, fold.rows
        self.offsets = fold.offsets(bc.y_b, bc.dy_b)

    def _blocks(self, w_g) -> np.ndarray:
        """Weight blocks (..., D, N+1) of one vector or a stack (..., D*(N+1)),
        all finite: a NaN or inf weight would give a NaN trajectory."""
        return _as_blocks(take_floats("w_g", w_g, None),
                          self.bc.dofs, self.rows.shape[1])

    def positions(self, w_g) -> np.ndarray:
        """Positions (..., D, T) of one weights vector or a stack of them."""
        # the offset is added into the product, which allocates only the output;
        # IEEE addition commutes, so every bit is that of offset + product
        out = self._blocks(w_g) @ self.rows[0]
        out += self.offsets[0]
        return out

    def velocities(self, w_g) -> np.ndarray:
        """Velocities (..., D, T), as positions()."""
        out = self._blocks(w_g) @ self.rows[1]
        out += self.offsets[1]
        return out


def folded_basis(bc: BoundaryCondition, times, bank: BasisBank) -> TrajectoryGenerator:
    """TrajectoryGenerator(bc, times, bank), a public name kept for callers
    outside the package."""
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
    digits (lossless double round-trip).  segment_ids, finite integers of
    magnitude at most 2**53, adds a trailing column."""
    times = take_floats("times", times, 1, finite=False)
    positions = take_floats("positions", positions, 2, finite=False)
    if velocities is not None:
        velocities = take_floats("velocities", velocities, 2, finite=False)
        if positions.shape != velocities.shape:
            raise DimensionError(
                f"positions {positions.shape} and velocities {velocities.shape} "
                f"do not align")
    if positions.shape[1] != times.shape[0]:
        raise DimensionError(
            f"positions {positions.shape} and times {times.shape} do not align")
    header = ["t"]
    columns = []
    for d in range(positions.shape[0]):
        header.append(f"dof{d}_pos")
        columns.append(positions[d])
        if velocities is not None:
            header.append(f"dof{d}_vel")
            columns.append(velocities[d])
    if segment_ids is not None:
        ids = np.asarray(segment_ids)
        if ids.shape != times.shape:
            raise DimensionError("segment_ids must align with times")
        values = ids.astype(float)
        # float64 holds every integer up to 2**53 in magnitude; integer ids are
        # bounded before the conversion rounds them (2**53 + 1 reads as 2**53)
        bounded = ids if ids.dtype.kind in "iuO" else values
        valid = (bounded >= -2**53) & (bounded <= 2**53) & (values == np.trunc(values))
        if not valid.all():
            raise ValidationError(f"segment_ids must be finite integers of magnitude at "
                                  f"most 2**53, got {ids[~valid].tolist()[0]}")
        header.append("segment_id")
        columns.append(values)
    write_csv_table(path, header, times, np.column_stack(columns)[None])


def read_trajectory_csv(path: str):
    """Inverse of write_trajectory_csv; returns (times, positions, velocities).

    Velocity columns are optional (demonstrations may carry positions only);
    absent velocities come back as None.  Every cell parses as Python's
    float() parses it: numpy's C reader runs first, and float() parses the
    files it refuses.  So a cell such as 1_0, or a digit of another script,
    which only float() reads, is taken, and a file with a cell float()
    refuses ends in float()'s error for the first such cell.
    """
    text = read_text(path).strip()
    if not text:
        raise ValidationError(f"empty trajectory file: {path}")
    lines = text.splitlines()
    header = [c.strip() for c in lines[0].split(",")]
    if header[0] != "t":
        raise ValidationError(f"trajectory CSV must start with a 't' column: {path}")
    if header.count("segment_id") > 1:
        raise ValidationError(f"column 'segment_id' repeats in {path}")
    pos_cols, vel_cols = {}, {}
    for idx, name in enumerate(header[1:], start=1):
        if name == "segment_id":
            continue
        column = re.fullmatch(r"dof([0-9]{1,9})_(pos|vel)", name)
        if column is None:
            raise ValidationError(f"unrecognized trajectory column {name!r} in {path}")
        cols, dof = (pos_cols if column[2] == "pos" else vel_cols), int(column[1])
        if dof in cols:  # dof0_pos and dof00_pos both name DoF 0
            raise ValidationError(f"column {name!r} repeats DoF {dof} {column[2]} in {path}")
        cols[dof] = idx
    if sorted(pos_cols) != list(range(len(pos_cols))) or not pos_cols:
        raise ValidationError(f"missing position columns in {path}")
    rows = lines[1:]
    width = ValidationError(f"trajectory rows in {path} must each have {len(header)} values")
    if not rows:
        raise width
    # numpy's C reader takes a cell only where float() takes it, and with
    # float()'s value, but for one character: it strips the unit separator
    # \x1f around a cell as space, and float() refuses it.  It refuses rows of
    # unequal width, and skips a blank one, which the shape shows
    data = None
    if "\x1f" not in text:
        with contextlib.suppress(ValueError):
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=float)
        if data is not None and data.shape != (len(rows), len(header)):
            raise width
    if data is None:
        # counted per row: a flat reshape would take a short row and a long one
        if any(row.count(",") != len(header) - 1 for row in rows):
            raise width
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
