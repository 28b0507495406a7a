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

Row 0, where A = B = 0 and every table column is 0, seeds the scan with its
forcing row.  The rows after it are scanned in chunks of _CHUNK_ROWS rows,
whole scan blocks, so every block, and every product in it, falls where a
whole-grid pass puts it; between chunks only the accumulator row A_prev and
the last forcing row f(t) of the trapezoid pass on.  The self-check then
reads the finished table, a chunk at a time, so a build holds the table plus
one chunk's temporaries; a default grid of 3000 intervals is a single chunk.
"""
from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, IoError, NumericalError, ValidationError,
                     check_finite_positive, check_int, check_number, check_record, freeze,
                     take_floats, take_value)
from .fileio import atomic_write_bytes

# version of the bank file layout; load() rejects any other
BANK_FORMAT = 3

# bounds on bank grid points and on grid points x weight_dim (the cells of
# one basis array), checked before precompute_basis allocates them
MAX_GRID_POINTS = 10**6
MAX_BANK_CELLS = 2 * 10**7

# rows per block of the blocked scan in precompute_basis
_SCAN_BLOCK = 64
# rows per chunk of precompute_basis's scan and of its self-check (row 0
# seeds the scan): whole scan blocks, and enough of them that a default grid
# of 3000 intervals is one chunk
_CHUNK_ROWS = 48 * _SCAN_BLOCK

_CONFIG_REQUIRED = ("alpha", "tau", "alpha_x", "num_basis", "duration")
_CONFIG_OPTIONAL = ("grid_dt", "basis_overlap", "beta")


@dataclass(frozen=True)
class DmpConfig:
    """ODE and basis hyperparameters.

    beta is the property alpha/4 (critical damping); from_dict accepts a "beta"
    key of that value only.  grid_dt defaults to duration/3000; at most
    MAX_GRID_POINTS grid points and MAX_BANK_CELLS cells (grid points x weight_dim).
    """

    alpha: float
    tau: float
    alpha_x: float
    num_basis: int
    duration: float
    grid_dt: float | None = None
    basis_overlap: float = 0.3

    def __post_init__(self):
        for name in ("alpha", "tau", "alpha_x", "duration"):
            check_finite_positive(name, take_value(self, name))
        num_basis = self.num_basis
        if isinstance(num_basis, float) and num_basis.is_integer():
            num_basis = int(num_basis)
        num_basis = check_int("num_basis", num_basis)
        if num_basis < 2:
            raise ValidationError(
                f"num_basis must be at least 2 (width rule needs neighbors), got {num_basis}")
        object.__setattr__(self, "num_basis", num_basis)

        if self.grid_dt is None:
            object.__setattr__(self, "grid_dt", self.duration / 3000.0)
        check_finite_positive("grid_dt", take_value(self, "grid_dt"))

        overlap = take_value(self, "basis_overlap")
        if not 0.0 < overlap < 1.0:
            raise ValidationError(f"basis_overlap must lie in (0, 1), got {overlap}")

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
    def beta(self) -> float:
        return self.alpha / 4.0

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

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.grid_points)

    def canonical_json(self) -> str:
        return json.dumps({name: getattr(self, name)
                           for name in _CONFIG_REQUIRED + _CONFIG_OPTIONAL},
                          sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data) -> "DmpConfig":
        check_record(data, "config", _CONFIG_REQUIRED, _CONFIG_OPTIONAL)
        values = {name: check_int(name, value) if name == "num_basis"
                  else check_number(name, value) for name, value in data.items()}
        config = cls(**{name: value for name, value in values.items() if name != "beta"})
        if values.get("beta", config.beta) != config.beta:
            raise ValidationError(f"beta must equal alpha/4 = {config.beta} "
                                  f"(critical damping), got {values['beta']}")
        return config


def phase(t, config: DmpConfig) -> float | np.ndarray:
    """Exponentially decaying phase x = exp(-alpha_x t / tau): a float for a
    scalar t, an array of t's shape otherwise."""
    t = take_floats("t", t, None, finite=False)
    # negated so that NaN fails the check
    if not np.all(t >= 0.0):
        raise ValidationError("phase is undefined for negative or NaN time")
    x = np.exp(-config.alpha_x * t / config.tau)
    return float(x) if t.ndim == 0 else x


@dataclass(frozen=True)
class ForcingBasis:
    """Gaussian RBFs over the phase domain, fixed by the config: centered at
    the phase images of N time-uniform points on [0, duration], with width
    h_i = -ln(overlap) / (c_{i+1} - c_i)^2, so each basis evaluates to
    basis_overlap at its next neighbor's center; the last basis reuses its
    neighbor's width.  Every width must be finite, so no two centers may
    coincide.  centers and widths are derived, read-only attributes."""

    config: DmpConfig

    def __post_init__(self):
        config = self.config
        centers = phase(np.linspace(0.0, config.duration, config.num_basis), config)
        with np.errstate(divide="ignore", over="ignore"):
            widths = -np.log(config.basis_overlap) / np.diff(centers)**2
        # centers that coincide, or whose gap squared underflows, give
        # infinite widths, which no grid step can mend
        if not np.isfinite(widths).all():
            raise ValidationError(
                f"basis centers coincide or lie too close for float64: the phase "
                f"exp(-alpha_x*t/tau) underflows toward 0 or rounds to 1 with "
                f"alpha_x*duration/tau = "
                f"{config.alpha_x * config.duration / config.tau:.6g}")
        freeze(self, centers=centers, widths=np.append(widths, widths[-1]))

    @property
    def num_basis(self) -> int:
        return self.config.num_basis

    def raw(self, x) -> np.ndarray:
        """Unnormalized activations, shape (..., N)."""
        x = take_floats("x", x, None, finite=False)
        return np.exp(-self.widths * (x[..., None] - self.centers) ** 2)

    def normalized_scaled(self, x) -> np.ndarray:
        """Forcing feature rows x * phi_i(x) / sum_j phi_j(x); rows sum to x."""
        x = take_floats("x", x, None, finite=False)
        raw = self.raw(x)
        return x[..., None] * raw / raw.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class BasisBank:
    """Immutable offline artifact: per grid time, the (N+1) position basis row
    (N weight columns plus the goal column) and the velocity analog.

    A bank is its config and its table; `times` is config.grid(), not a field.
    Both row kinds live in one read-only, time-major table of shape
    (2, N+1, M): row kind (position, velocity), then basis column, then grid
    point.  lookup() gathers and interpolates both kinds at once, so every
    elementwise step of it, and of the boundary fold that consumes it, runs
    along the time axis.  A bank file holds the same two things: the config
    and the table as it is.

    Beside them a bank keeps one entry that is no field: `_last_fold`, the
    trajectory.GridFold of the last grid a TrajectoryGenerator read (None
    until the first), so that readers of one time grid share its rows.  It
    holds the grid's folded rows, times and xi factors, no boundary state.
    """

    config: DmpConfig
    table: np.ndarray

    def __post_init__(self):
        shape = (2, self.config.weight_dim, self.config.grid_points)
        # a float64 C-ordered table is stored as given, not copied
        table = np.ascontiguousarray(
            take_floats("BasisBank.table", self.table, None, finite=False))
        if table.shape != shape:
            raise DimensionError(
                f"basis table {table.shape} does not match grid/config {shape}")
        freeze(self, times=self.config.grid(), table=table)
        object.__setattr__(self, "_last_fold", None)

    @property
    def duration(self) -> float:
        return self.config.duration

    @property
    def num_basis(self) -> int:
        return self.config.num_basis

    @property
    def weight_dim(self) -> int:
        return self.config.weight_dim

    def lookup(self, t) -> np.ndarray:
        """Both row kinds at query times t, time-major: shape (2, N+1, T),
        position rows first, from one range check and one searchsorted
        (linear interpolation off-grid)."""
        t = take_floats("t", t, 1, finite=False)
        table = self.table
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

    def pos_rows(self, t) -> np.ndarray:
        """Position basis rows (T, N+1) at query times (linear interpolation
        off-grid)."""
        return self.lookup(t)[0].T

    def vel_rows(self, t) -> np.ndarray:
        return self.lookup(t)[1].T

    def content_checksum(self) -> str:
        digest = hashlib.sha256(self.config.canonical_json().encode("utf-8"))
        digest.update(self.table)
        return digest.hexdigest()

    def save(self, path: str) -> None:
        """Lossless binary container: the format key, the config echo, the
        table bit-exact and its content checksum."""
        buffer = io.BytesIO()
        config_raw = np.frombuffer(self.config.canonical_json().encode("utf-8"),
                                   dtype=np.uint8)
        checksum_raw = np.frombuffer(self.content_checksum().encode("ascii"),
                                     dtype=np.uint8)
        np.savez(buffer, format=np.array(BANK_FORMAT), config_json=config_raw,
                 table=self.table, checksum=checksum_raw)
        atomic_write_bytes(path, buffer.getvalue())

    @classmethod
    def load(cls, path: str) -> "BasisBank":
        try:
            with np.load(path, allow_pickle=False) as data:
                version = data["format"] if "format" in data.files else None
                # a 0-d integer: 3.0, True and [3] are not format 3
                if not (version is not None and version.shape == ()
                        and version.dtype.kind in "iu" and version == BANK_FORMAT):
                    raise ValidationError(
                        f"bank file {path} is not in format {BANK_FORMAT}, which this "
                        f"version reads; re-run mptraj precompute to rebuild it")
                config = json.loads(data["config_json"].tobytes().decode("utf-8"))
                try:
                    bank = cls(config=DmpConfig.from_dict(config), table=data["table"])
                # the config's and the table's own checks, which do not name the file
                except (DimensionError, ValidationError) as exc:
                    raise type(exc)(f"bank file {path}: {exc}") from exc
                stored = data["checksum"].tobytes().decode("ascii")
        except OSError as exc:
            raise IoError(f"cannot read bank {path}: {exc}") from exc
        except (KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise ValidationError(f"not a bank file: {path}: {exc}") from exc
        if bank.content_checksum() != stored:
            raise ValidationError(f"bank file {path} failed its checksum")
        # the checksum is a content hash, not a seal: a file edited and
        # hashed again passes it
        if not np.isfinite(bank.table).all():
            raise ValidationError(f"bank file {path} holds non-finite basis values")
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

    Row 0 seeds the scan, and rows 1..M-1 follow in chunks of _CHUNK_ROWS
    rows, so chunks and scan blocks share their borders; only the
    accumulator row and the last forcing row pass from one chunk to the
    next, and the self-check reads the finished table.  Beside the table a
    build holds the grid times and one chunk's temporaries, fewer than
    10 * _CHUNK_ROWS * num_basis floats, and every value is bit for bit the
    one a whole-grid pass gives.
    """
    forcing = ForcingBasis(config)
    m = config.grid_intervals
    dt = config.duration / m
    times = config.grid()
    k = config.decay_rate
    n = config.num_basis
    # numpy's pow overflows to inf where Python's raises OverflowError
    tau2 = np.float64(config.tau)**2
    decay = np.exp(-k * dt)
    powers = decay ** np.arange(_SCAN_BLOCK + 1)         # all <= 1; 0**0 is 1
    lag = np.arange(_SCAN_BLOCK)
    scan = np.tril(powers[np.abs(lag[:, None] - lag)])   # decay^(i-l), i >= l
    carry = powers[1:, None]                             # decay^(i+1)

    def integrand(t):
        """The A and B integrand rows [f, t f] at times t."""
        f = forcing.normalized_scaled(phase(t, config)) / tau2
        return np.hstack([f, t[:, None] * f])

    table = None

    def fill(lo, hi, acc, fg_last):
        """Fill table columns lo..hi-1 from A and B at row lo-1 (acc) and
        their integrands there (fg_last); return both at row hi-1.  The
        chunk's temporaries die with the call."""
        nonlocal table
        t = times[lo:hi]
        fg = integrand(t)

        # A and B advance together as one 2N-wide recurrence; the trapezoid
        # increments do not depend on the accumulator, so each row starts as
        # its increment and the blocked scan overwrites it, block by block,
        # with scan @ increments + carry * (last row of the previous block)
        big_ab = np.empty_like(fg)
        big_ab[1:] = 0.5 * dt * (decay * fg[:-1] + fg[1:])
        big_ab[0] = 0.5 * dt * (decay * fg_last + fg[0])
        for start in range(0, hi - lo, _SCAN_BLOCK):
            block = big_ab[start:start + _SCAN_BLOCK]
            r = block.shape[0]
            block[:] = scan[:r, :r] @ block + carry[:r] * acc
            acc = block[-1]
        big_a, big_b = big_ab[:, :n], big_ab[:, n:]

        kt = k * t
        env = np.exp(-kt)
        if table is None:
            # allocated above the first chunk's buffers: the allocator returns
            # freed memory at the top of the heap to the system, so buffers
            # freed below the live table are reused by the next build without
            # page faults (about 480 per build of a 3001-point bank otherwise)
            table = np.empty((2, n + 1, m + 1))
            table[..., 0] = 0.0
        # filled through its (M, N+1) views, the table becomes the bank's own
        pos, vel = table[0].T[lo:hi], table[1].T[lo:hi]
        pos[:, :n] = t[:, None] * big_a - big_b
        vel[:, :n] = (1.0 - kt)[:, None] * big_a + k * big_b
        pos[:, n] = 1.0 - (1.0 + kt) * env
        vel[:, n] = k * k * t * env
        return acc.copy(), fg[-1].copy()

    # row 0 seeds the scan: A = B = 0 there, so each chunk starts a scan block
    acc, fg_last = np.zeros(2 * n), integrand(times[:1])[0]
    for lo in range(1, m + 1, _CHUNK_ROWS):
        acc, fg_last = fill(lo, min(lo + _CHUNK_ROWS, m + 1), acc, fg_last)

    # the self-check: the centered difference of rows 1..M-2 of each position
    # column against its velocity column, a chunk at a time
    pos, vel = table
    deviation = -np.inf
    for lo in range(1, m, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, m)
        fd = (pos[:, lo + 1:hi + 1] - pos[:, lo - 1:hi - 1]) / (2.0 * dt)
        # np.maximum, not max(): a NaN deviation must survive every later chunk
        deviation = np.maximum(deviation, np.max(np.abs(fd - vel[:, lo:hi])))

    deviation = float(deviation)
    tol = 10.0 * dt
    # an explicit pass, a correctness gate that no float flag stands for;
    # negated so that NaN fails the check
    if not (deviation <= tol and np.isfinite(vel).all()):
        raise NumericalError(
            f"precomputation self-check failed: finite-difference derivative of the "
            f"position basis deviates from the velocity basis by {deviation:.3e} "
            f"(allowed {tol:.3e}); the grid step {dt:.3e} is too coarse for "
            f"alpha={config.alpha}, tau={config.tau}, num_basis={config.num_basis}")

    return BasisBank(config=config, table=table)
