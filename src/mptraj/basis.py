"""Phase variable, RBF forcing basis, and the offline position/velocity
basis bank.

The trajectory model is the critically damped spring-damper ODE

    tau^2 ydd = alpha * (beta * (g - y) - tau * yd) + x(t) * phi(x)^T w

solved in closed form.  With k = alpha / (2 tau) the homogeneous solutions are
y1 = exp(-k t) and y2 = t exp(-k t), and the particular solution reduces to a
linear model in the stacked weights-and-goal vector w_g.  Everything the
online path needs per grid time is one (N+1)-row for positions and one for
velocities; this module computes those rows offline.

Numerical stability: the variation-of-constants integrals contain the growing
factor exp(k t'), which must never be materialized.  The bank is built from
the decayed integrals

    A(t) = (1/tau^2) * int_0^t exp(-k (t - s)) x(s) phi_n(s) ds
    B(t) = (1/tau^2) * int_0^t exp(-k (t - s)) s x(s) phi_n(s) ds

advanced by the exact decay recurrence
A(t+dt) = d A(t) + u(t+dt), with d = exp(-k dt) and the trapezoid increment
u(t+dt) = (dt/2) (d f(t) + f(t+dt)).  The recurrence is evaluated as a blocked
scan: within a block of b rows, A at row i of the block is
sum_{l <= i} d^(i-l) u_l + d^(i+1) A_prev, one product with the b x b
lower-triangular matrix of powers d^(i-l), where A_prev is the last row of the
previous block.  Every power of d is at most 1, so every evaluated exponent is
<= 0.  The weight columns are then t*A - B (position) and (1 - k t)*A + k*B
(velocity); the goal columns have exact closed forms 1 - (1 + k t) exp(-k t)
and k^2 t exp(-k t).
"""
from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, IoError, NumericalError, ValidationError,
                     check_finite_positive, check_int, check_number, check_record, freeze)
from .fileio import atomic_write_bytes

# version of the bank file layout; load() rejects any other
BANK_FORMAT = 2

# bounds on bank grid points and on grid points x weight_dim (the cells of
# one basis array), checked before precompute_basis allocates them
MAX_GRID_POINTS = 10**6
MAX_BANK_CELLS = 2 * 10**7

# rows per block of the blocked scan in precompute_basis
_SCAN_BLOCK = 64

_CONFIG_REQUIRED = ("alpha", "tau", "alpha_x", "num_basis", "duration")
_CONFIG_OPTIONAL = ("grid_dt", "basis_overlap", "beta")


@dataclass(frozen=True)
class DmpConfig:
    """ODE and basis hyperparameters.

    beta is fixed to alpha/4 (critical damping); passing any other value is an
    error.  grid_dt defaults to duration/3000; at most MAX_GRID_POINTS grid points
    and MAX_BANK_CELLS cells (grid points x weight_dim).
    """

    alpha: float
    tau: float
    alpha_x: float
    num_basis: int
    duration: float
    grid_dt: float | None = None
    basis_overlap: float = 0.3
    beta: float | None = None

    def __post_init__(self):
        for name in ("alpha", "tau", "alpha_x", "duration"):
            object.__setattr__(self, name,
                               check_finite_positive(name, float(getattr(self, name))))
        num_basis = self.num_basis
        if isinstance(num_basis, float) and num_basis.is_integer():
            num_basis = int(num_basis)
        num_basis = check_int("num_basis", num_basis)
        if num_basis < 2:
            raise ValidationError(
                f"num_basis must be at least 2 (width rule needs neighbors), got {num_basis}")
        object.__setattr__(self, "num_basis", num_basis)

        grid_dt = self.duration / 3000.0 if self.grid_dt is None else float(self.grid_dt)
        object.__setattr__(self, "grid_dt", check_finite_positive("grid_dt", grid_dt))

        overlap = float(self.basis_overlap)
        if not 0.0 < overlap < 1.0:
            raise ValidationError(f"basis_overlap must lie in (0, 1), got {overlap}")
        object.__setattr__(self, "basis_overlap", overlap)

        beta = self.alpha / 4.0 if self.beta is None else float(self.beta)
        if beta != self.alpha / 4.0:
            raise ValidationError(
                f"beta must equal alpha/4 = {self.alpha / 4.0} (critical damping), got {beta}")
        object.__setattr__(self, "beta", beta)

        if self.grid_points > MAX_GRID_POINTS:
            raise ValidationError(
                f"grid too fine: duration/grid_dt yields more than {MAX_GRID_POINTS} "
                f"points; raise grid_dt")
        cells = self.grid_points * self.weight_dim
        if cells > MAX_BANK_CELLS:
            raise ValidationError(
                f"bank too large: {self.grid_points} grid points x {self.weight_dim} "
                f"columns = {cells} cells, more than {MAX_BANK_CELLS}; raise grid_dt "
                f"or lower num_basis")
        if self.grid_points < 4 * self.num_basis:
            raise ValidationError(
                f"grid too coarse: duration/grid_dt yields {self.grid_points} points, "
                f"need at least 4*num_basis = {4 * self.num_basis}")

    @property
    def decay_rate(self) -> float:
        """Repeated characteristic root k = alpha / (2 tau)."""
        return self.alpha / (2.0 * self.tau)

    @property
    def grid_intervals(self) -> int:
        # min() first, so that a quotient overflowing to inf still rounds
        return int(round(min(self.duration / self.grid_dt, MAX_GRID_POINTS)))

    @property
    def grid_points(self) -> int:
        return self.grid_intervals + 1

    @property
    def weight_dim(self) -> int:
        """Per-DoF parameter count: N weights plus the goal."""
        return self.num_basis + 1

    def canonical_json(self) -> str:
        return json.dumps({name: getattr(self, name)
                           for name in _CONFIG_REQUIRED + _CONFIG_OPTIONAL},
                          sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data) -> "DmpConfig":
        check_record(data, "config", _CONFIG_REQUIRED, _CONFIG_OPTIONAL)
        return cls(**{name: check_int(name, value) if name == "num_basis"
                      else check_number(name, value) for name, value in data.items()})


def phase(t, config: DmpConfig) -> float | np.ndarray:
    """Exponentially decaying phase x = exp(-alpha_x t / tau): a float for a
    scalar t, an array of t's shape otherwise."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValidationError("phase is undefined for negative time")
    x = np.exp(-config.alpha_x * t / config.tau)
    return float(x) if t.ndim == 0 else x


@dataclass(frozen=True)
class ForcingBasis:
    """Gaussian RBFs over the phase domain."""

    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        freeze(self, centers=np.array(self.centers, dtype=float),
               widths=np.array(self.widths, dtype=float))

    @property
    def num_basis(self) -> int:
        return self.centers.shape[0]

    def raw(self, x) -> np.ndarray:
        """Unnormalized activations, shape (..., N)."""
        x = np.asarray(x, dtype=float)
        return np.exp(-self.widths * (x[..., None] - self.centers) ** 2)

    def normalized_scaled(self, x) -> np.ndarray:
        """Forcing feature rows x * phi_i(x) / sum_j phi_j(x); rows sum to x."""
        x = np.asarray(x, dtype=float)
        raw = self.raw(x)
        return x[..., None] * raw / raw.sum(axis=-1, keepdims=True)


def make_forcing_basis(config: DmpConfig) -> ForcingBasis:
    """RBFs centered at the phase images of N time-uniform points on [0, duration].

    Width h_i = -ln(overlap) / (c_{i+1} - c_i)^2, so each basis evaluates to
    basis_overlap at its next neighbor's center; the last basis reuses its
    neighbor's width.
    """
    n = config.num_basis
    t_centers = np.linspace(0.0, config.duration, n)
    centers = phase(t_centers, config)
    gaps = np.diff(centers)
    widths = -np.log(config.basis_overlap) / gaps**2
    widths = np.append(widths, widths[-1])
    return ForcingBasis(centers, widths)


def _is_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a and b view the same elements in the same order."""
    return (a.shape == b.shape and a.strides == b.strides
            and a.__array_interface__["data"][0] == b.__array_interface__["data"][0])


@dataclass(frozen=True)
class BasisBank:
    """Immutable offline artifact: per grid time, the (N+1) position basis row
    (N weight columns plus the goal column) and the velocity analog.

    Both row kinds live in one read-only, time-major table of shape
    (2, N+1, M), the attribute `table`: row kind (position, velocity), then
    basis column, then grid point.  pos_basis and vel_basis are its (M, N+1)
    views.  lookup() gathers and interpolates both kinds at once, so every
    elementwise step of it, and of the boundary fold that consumes it, runs
    along the time axis.  Bank files keep the C-ordered (M, N+1) arrays.
    """

    config: DmpConfig
    times: np.ndarray
    pos_basis: np.ndarray
    vel_basis: np.ndarray

    def __post_init__(self):
        n_pts = self.times.shape[0]
        dim = self.config.weight_dim
        if self.pos_basis.shape != (n_pts, dim) or self.vel_basis.shape != (n_pts, dim):
            raise DimensionError(
                f"basis arrays {self.pos_basis.shape} do not match grid/config {(n_pts, dim)}")
        # the (M, N+1) views of one (2, N+1, M) table, as precompute_basis
        # builds them, are adopted as they are; other arrays are copied in
        table = self.pos_basis.base
        if not (isinstance(table, np.ndarray) and table.shape == (2, dim, n_pts)
                and table.flags.c_contiguous
                and all(_is_view(rows, plane.T) for rows, plane
                        in zip((self.pos_basis, self.vel_basis), table))):
            table = np.empty((2, dim, n_pts))
            table[0], table[1] = self.pos_basis.T, self.vel_basis.T
        freeze(self, times=self.times, table=table)
        freeze(self, pos_basis=table[0].T, vel_basis=table[1].T)

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    @property
    def num_basis(self) -> int:
        return self.config.num_basis

    @property
    def weight_dim(self) -> int:
        return self.config.weight_dim

    def _lerp(self, t, table: np.ndarray) -> np.ndarray:
        """table (..., M) at query times t, interpolated along its last axis:
        shape (..., T), from one range check and one searchsorted."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.size == 0:
            return np.empty(table.shape[:-1] + (0,))
        times = self.times
        # negated so that NaN fails the check
        if not (t.min() >= times[0] and t.max() <= times[-1]):
            raise ValidationError(
                f"query time not finite or outside bank range [0, {self.duration}]: "
                f"[{t.min()}, {t.max()}]")
        # t >= times[0] makes idx >= 0, so only the end needs bounding
        idx = np.minimum(np.searchsorted(times, t, side="right") - 1, times.shape[0] - 2)
        upper = idx + 1
        start = times[idx]
        frac = (t - start) / (times[upper] - start)
        # endpoint-exact lerp: frac 0 or 1 returns the stored row bitwise
        return (1.0 - frac) * table[..., idx] + frac * table[..., upper]

    def lookup(self, t) -> np.ndarray:
        """Both row kinds at query times t, time-major: shape (2, N+1, T),
        position rows first (linear interpolation off-grid)."""
        return self._lerp(t, self.table)

    def rows(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(pos_rows(t), vel_rows(t)) from one lookup, bit for bit."""
        pos, vel = self.lookup(t)
        return pos.T, vel.T

    def pos_rows(self, t) -> np.ndarray:
        """Position basis rows (T, N+1) at query times (linear interpolation
        off-grid)."""
        return self._lerp(t, self.table[0]).T

    def vel_rows(self, t) -> np.ndarray:
        return self._lerp(t, self.table[1]).T

    def content_checksum(self) -> str:
        digest = hashlib.sha256(self.config.canonical_json().encode("utf-8"))
        for arr in (self.times, self.pos_basis, self.vel_basis):
            digest.update(np.ascontiguousarray(arr))
        return digest.hexdigest()

    def save(self, path: str) -> None:
        """Lossless binary container: arrays bit-exact plus a config echo."""
        buffer = io.BytesIO()
        config_raw = np.frombuffer(self.config.canonical_json().encode("utf-8"),
                                   dtype=np.uint8)
        checksum_raw = np.frombuffer(self.content_checksum().encode("ascii"),
                                     dtype=np.uint8)
        # C-ordered (M, N+1) copies of the table's views: the file layout
        # predates the table and does not depend on it
        np.savez(buffer, format=np.array(BANK_FORMAT), times=self.times,
                 pos_basis=np.ascontiguousarray(self.pos_basis),
                 vel_basis=np.ascontiguousarray(self.vel_basis),
                 config_json=config_raw, checksum=checksum_raw)
        atomic_write_bytes(path, buffer.getvalue())

    @classmethod
    def load(cls, path: str) -> "BasisBank":
        try:
            with np.load(path, allow_pickle=False) as data:
                if "format" not in data.files or data["format"].tolist() != BANK_FORMAT:
                    raise ValidationError(
                        f"bank file {path} is not in format {BANK_FORMAT}, which this "
                        f"version reads; re-run mptraj precompute to rebuild it")
                config = DmpConfig.from_dict(
                    json.loads(data["config_json"].tobytes().decode("utf-8")))
                times = data["times"]
                # one row kind read at a time, straight into the table
                table = np.empty((2, config.weight_dim, times.shape[0]))
                for plane, name in zip(table, ("pos_basis", "vel_basis")):
                    rows = data[name]
                    if rows.shape != plane.T.shape:
                        raise DimensionError(f"basis arrays {rows.shape} do not match "
                                             f"grid/config {plane.T.shape}")
                    plane.T[...] = rows
                bank = cls(config=config, times=times, pos_basis=table[0].T,
                           vel_basis=table[1].T)
                stored = data["checksum"].tobytes().decode("ascii")
        except OSError as exc:
            raise IoError(f"cannot read bank {path}: {exc}") from exc
        except (KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise ValidationError(f"not a bank file: {path}: {exc}") from exc
        if bank.content_checksum() != stored:
            raise ValidationError(f"bank file {path} failed its checksum")
        return bank


# overflow, 0/0 and x/0 leave a non-finite bank, which the self-check rejects
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def precompute_basis(config: DmpConfig) -> BasisBank:
    """Assemble the basis bank on the uniform grid (the offline step).

    The p-integrals have no closed form and are computed by trapezoidal
    quadrature through the blocked decay scan described in the module docstring;
    no evaluated exponent is ever positive.  A finite-difference
    self-consistency check (d/dt position rows == velocity rows) guards
    against a grid too coarse for the configured dynamics.
    """
    forcing = make_forcing_basis(config)
    m = config.grid_intervals
    dt = config.duration / m
    times = np.linspace(0.0, config.duration, m + 1)
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

    return BasisBank(config=config, times=times, pos_basis=pos_basis,
                     vel_basis=vel_basis)
