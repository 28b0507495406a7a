"""Classic numerically integrated movement primitive.

Serves two distinct purposes, kept deliberately separate:

  * rk4 at fine dt is the correctness oracle the closed-form bank is checked
    against;
  * explicit-euler at the trajectory rate is the timed baseline (the
    integration style per-step pipelines have to run).

The forcing term uses the bank's basis: the same centers, widths and
normalization as ForcingBasis, though not bit for bit.  Its per-step row,
_scaled_row, computes (x / sum phi) * phi where ForcingBasis.normalized_scaled
computes x * phi / sum phi, so the rows differ in the last bits at most
phases; the scalar fast path keeps the Euler baseline cheap.  A disagreement
beyond that rounding is attributable to the solution method, not the model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import DmpConfig, ForcingBasis
from .errors import NumericalError, ValidationError, check_finite_positive, take_floats
from .trajectory import MAX_QUERY_SAMPLES, weight_blocks

_METHODS = ("explicit-euler", "rk4")


@dataclass(frozen=True)
class IntegratorSpec:
    method: str
    dt: float

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(
                f"unknown integrator '{self.method}'; expected one of {_METHODS}")
        check_finite_positive("dt", self.dt)


def _scaled_row(basis: ForcingBasis, x: float) -> np.ndarray:
    # scalar fast path of ForcingBasis.normalized_scaled, called once per step
    raw = np.exp(-basis.widths * (x - basis.centers) ** 2)
    return (x / raw.sum()) * raw


def integrate_dmp(w_g, y0, dy0, config: DmpConfig, spec: IntegratorSpec):
    """Integrate the second-order system from (y0, dy0).

    Returns (times, positions, velocities) on the integrator grid i*dt,
    i = 0..ceil(duration/dt).  Non-finite inputs, and a grid of more than
    MAX_QUERY_SAMPLES times, raise ValidationError before anything is
    integrated; NumericalError with the step index reports a state that
    leaves the finite range (divergence).
    """
    y = take_floats("y0", y0, 1)
    v = take_floats("dy0", dy0, 1)
    if y.shape != v.shape:
        raise ValidationError(
            f"y0 and dy0 must be equal-length vectors, got {y.shape} and {v.shape}")
    dofs = y.shape[0]
    blocks = weight_blocks(take_floats("w_g", w_g, 1), dofs, config.weight_dim)
    dt = spec.dt
    # min() first, so that a quotient overflowing to inf still fails here
    steps = int(math.ceil(min(config.duration / dt, MAX_QUERY_SAMPLES) - 1e-12))
    if steps + 1 > MAX_QUERY_SAMPLES:
        raise ValidationError(
            f"a {config.duration:g} s integration at dt = {dt:g} takes more than "
            f"{MAX_QUERY_SAMPLES} steps; raise dt")
    wmat = blocks[:, :-1]
    goal = blocks[:, -1]

    basis = ForcingBasis(config)
    alpha, beta, tau = config.alpha, config.beta, config.tau
    inv_tau_sq = 1.0 / tau ** 2
    x_rate = config.alpha_x / tau

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
    times = dt * np.arange(steps + 1)
    if abs(times[-1] - config.duration) <= 1e-9 * max(1.0, config.duration):
        times[-1] = config.duration
    positions = np.empty((dofs, steps + 1))
    velocities = np.empty((dofs, steps + 1))
    positions[:, 0] = y
    velocities[:, 0] = v

    for i in range(steps):
        y, v = step(times[i], y, v)
        # an explicit pass, so that the message names the step that diverged
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(v))):
            raise NumericalError(
                f"{spec.method} diverged at step {i + 1} (t = {times[i + 1]:.6g})")
        positions[:, i + 1] = y
        velocities[:, i + 1] = v
    return times, positions, velocities
