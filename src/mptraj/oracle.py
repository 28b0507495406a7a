"""Classic numerically integrated movement primitive.

Serves two distinct purposes, kept deliberately separate:

  * rk4 at fine dt is the correctness oracle the closed-form bank is checked
    against;
  * explicit-euler at the trajectory rate is the timed baseline (the
    integration style per-step pipelines have to run).

The forcing term reuses the exact same basis construction as the bank, so any
disagreement is attributable to the solution method, not the model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import DmpConfig, ForcingBasis, make_forcing_basis
from .errors import NumericalError, ValidationError
from .trajectory import weight_blocks

_METHODS = ("explicit-euler", "rk4")


@dataclass(frozen=True)
class IntegratorSpec:
    method: str
    dt: float

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(
                f"unknown integrator '{self.method}'; expected one of {_METHODS}")
        if not self.dt > 0.0:
            raise ValidationError(f"dt must be > 0, got {self.dt}")


def _scaled_row(basis: ForcingBasis, x: float) -> np.ndarray:
    # scalar fast path of ForcingBasis.normalized_scaled, called once per step
    raw = np.exp(-basis.widths * (x - basis.centers) ** 2)
    return (x / raw.sum()) * raw


def integrate_dmp(w_g, y0, dy0, config: DmpConfig, spec: IntegratorSpec):
    """Integrate the second-order system from (y0, dy0).

    Returns (times, positions, velocities) on the integrator grid i*dt,
    i = 0..ceil(duration/dt).  Raises NumericalError with the step index if
    the state leaves the finite range (divergence).
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    v = np.atleast_1d(np.asarray(dy0, dtype=float)).copy()
    if y.shape != v.shape or y.ndim != 1:
        raise ValidationError(
            f"y0 and dy0 must be equal-length vectors, got {y.shape} and {v.shape}")
    dofs = y.shape[0]
    blocks = weight_blocks(w_g, dofs, config.weight_dim)
    wmat = blocks[:, :-1]
    goal = blocks[:, -1]

    basis = make_forcing_basis(config)
    alpha, beta, tau = config.alpha, config.beta, config.tau
    inv_tau_sq = 1.0 / tau ** 2
    x_rate = config.alpha_x / tau
    dt = spec.dt

    def accel(t, pos, vel):
        forcing = wmat @ _scaled_row(basis, math.exp(-x_rate * t))
        return (alpha * (beta * (goal - pos) - tau * vel) + forcing) * inv_tau_sq

    def euler_step(t, y, v):
        return y + dt * v, v + dt * accel(t, y, v)

    half, sixth = 0.5 * dt, dt / 6.0

    def rk4_step(t, y, v):
        a1 = accel(t, y, v)
        y2, v2 = y + half * v, v + half * a1
        a2 = accel(t + half, y2, v2)
        y3, v3 = y + half * v2, v + half * a2
        a3 = accel(t + half, y3, v3)
        y4, v4 = y + dt * v3, v + dt * a3
        a4 = accel(t + dt, y4, v4)
        return (y + sixth * (v + 2.0 * (v2 + v3) + v4),
                v + sixth * (a1 + 2.0 * (a2 + a3) + a4))

    step = euler_step if spec.method == "explicit-euler" else rk4_step
    steps = int(math.ceil(config.duration / dt - 1e-12))
    times = dt * np.arange(steps + 1)
    if abs(times[-1] - config.duration) <= 1e-9 * max(1.0, config.duration):
        times[-1] = config.duration
    positions = np.empty((dofs, steps + 1))
    velocities = np.empty((dofs, steps + 1))
    positions[:, 0] = y
    velocities[:, 0] = v

    for i in range(steps):
        y, v = step(times[i], y, v)
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(v))):
            raise NumericalError(
                f"{spec.method} diverged at step {i + 1} (t = {times[i + 1]:.6g})")
        positions[:, i + 1] = y
        velocities[:, i + 1] = v
    return times, positions, velocities
