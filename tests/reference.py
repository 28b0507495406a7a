"""Textbook routes of the closed-form solution, kept as test references.

The package evaluates trajectories through one boundary fold of the bank
(`mptraj.trajectory.folded_basis`).  The routes below are the steps of its
derivation: the homogeneous solutions, the growing goal integrals q1/q2 and
the constants c1/c2 solved through 1/Wronskian.  Their factors grow like
exp(k t), so they are usable only on short horizons, which is why they serve
as independent cross-checks and not as production code.
"""
from dataclasses import dataclass

import numpy as np

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
