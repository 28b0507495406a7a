"""The lookups the bank's kept grid fold saves, per steady cycle of each
workload shape: the reads of one grid share one fold, so a steady cycle
looks up only the times it has not folded before.  Counted through
BasisBank.lookup, which every fold calls once."""
import numpy as np

from mptraj import (ActivationProfile, BoundaryCondition, Demonstration, DmpConfig,
                    GaussianSequence, TrajectoryGenerator, blend, combine, falling_ramp,
                    fit_distribution, pair_nll, per_time_marginals, precompute_basis,
                    sample_time_pairs, sample_trajectories)
from tests.conftest import counted_lookups, random_weights_distribution


def _state(rng, dofs, t_b=0.0):
    return BoundaryCondition(t_b, rng.standard_normal(dofs), rng.standard_normal(dofs))


def test_policy_update_cycle_looks_up_only_its_pair_blocks(monkeypatch):
    # 16 rollouts of 7 DoF on a 3001-point grid, 32 scored pairs of each, a
    # refit on 8: the sampling reads the grid the last refit folded
    bank = precompute_basis(DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=10,
                                      duration=3.0))
    rng = np.random.default_rng(38)
    wdist = random_weights_distribution(7, bank.weight_dim, rng, scale=0.1)
    bc = _state(rng, 7)
    times = np.arange(3001) / 1000
    lookups = counted_lookups(monkeypatch)
    for _ in range(2):
        lookups.clear()
        pos, vel = sample_trajectories(wdist, bc, times, bank, 16, rng,
                                       with_velocities=True)
        for rollout in pos:
            pairs = sample_time_pairs(times, 32, rng)
            truth = rollout[:, np.rint(pairs.times * 1000).astype(int)]
            truth = truth.transpose(1, 0, 2).reshape(32, -1)
            pair_nll(pairs.with_values(truth + 1e-3 * rng.standard_normal(truth.shape)),
                     wdist, bc, bank)
        wdist = fit_distribution([Demonstration(times, p, v)
                                  for p, v in zip(pos[:8], vel[:8])], bank, cov_floor=1e-4)
    assert lookups == [2 * 32 + 1] * 16


def test_compose_request_looks_up_nothing(monkeypatch):
    # per-time marginals of 3 primitives on one 1001-point grid, each from
    # its own state at t_b = 0, then combine and blend
    bank = precompute_basis(DmpConfig(alpha=25.0, tau=1.0, alpha_x=2.0, num_basis=10,
                                      duration=1.0))
    rng = np.random.default_rng(39)
    times = np.linspace(0.0, 1.0, 1001)
    profile = ActivationProfile(times, np.full((3, times.size), 0.5))
    ramp = falling_ramp(times, 0.3, 0.7)
    lookups = counted_lookups(monkeypatch)
    for _ in range(2):
        lookups.clear()
        seqs = [GaussianSequence(*per_time_marginals(
            random_weights_distribution(2, bank.weight_dim, rng), _state(rng, 2), times, bank))
            for _ in range(3)]
        combine(seqs, profile)
        blend(seqs[0], seqs[1], ramp)
    assert lookups == []


def test_online_query_at_a_new_boundary_time_looks_up_once(monkeypatch):
    # 0.2 s at 1 kHz from a state at a t_b no read has folded before
    bank = precompute_basis(DmpConfig(alpha=25.0, tau=10.0, alpha_x=2.0, num_basis=10,
                                      duration=10.0, grid_dt=1e-3))
    rng = np.random.default_rng(40)
    w = rng.standard_normal(7 * bank.weight_dim)
    offsets = np.arange(201) / 1000
    lookups = counted_lookups(monkeypatch)
    for t_b in (2.5, 3.75):
        lookups.clear()
        gen = TrajectoryGenerator(_state(rng, 7, t_b), t_b + offsets, bank)
        gen.positions(w), gen.velocities(w)
        assert lookups == [offsets.size + 1]
