"""Property tests of the headline invariants: boundary adherence to the bit,
order-invariant aggregation, lone-primitive passthrough and batched
combination against the per-time loop."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mptraj import (ActivationProfile, BoundaryCondition, GaussianSequence,
                    LatentGaussian, NumericalError, TrajectoryGenerator,
                    WeightsDistribution, bayesian_aggregate, combine,
                    sample_trajectories)
from tests.reference import combine_loop

VALUES = st.floats(-1e3, 1e3)


@st.composite
def boundary_cases(draw, bank):
    dofs = draw(st.integers(1, 4))
    t_b = draw(st.floats(0.0, bank.duration, exclude_max=True))
    y_b = draw(hnp.arrays(float, dofs, elements=VALUES))
    dy_b = draw(hnp.arrays(float, dofs, elements=VALUES))
    w = draw(hnp.arrays(float, dofs * bank.weight_dim, elements=VALUES))
    return BoundaryCondition(t_b, y_b, dy_b), w


class TestBoundaryAdherence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), chol_scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    def test_bit_exact_at_boundary(self, small_bank, data, chol_scale, seed):
        bc, w = data.draw(boundary_cases(small_bank))
        times = np.concatenate([[bc.t_b], np.linspace(bc.t_b, small_bank.duration, 5)])
        gen = TrajectoryGenerator(bc, times, small_bank)
        assert np.array_equal(gen.positions(w)[:, 0], bc.y_b)
        assert np.array_equal(gen.velocities(w)[:, 0], bc.dy_b)

        wdist = WeightsDistribution(mean=w, chol=chol_scale * np.eye(w.shape[0]))
        pos, vel = sample_trajectories(wdist, bc, times, small_bank, 8, seed,
                                       with_velocities=True)
        assert np.array_equal(pos[:, :, 0], np.broadcast_to(bc.y_b, pos[:, :, 0].shape))
        assert np.array_equal(vel[:, :, 0], np.broadcast_to(bc.dy_b, vel[:, :, 0].shape))


@st.composite
def latent_gaussians(draw, dim):
    mean = draw(hnp.arrays(float, dim, elements=VALUES))
    var = draw(hnp.arrays(float, dim, elements=st.floats(1e-3, 1e3)))
    return LatentGaussian(mean, var)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4), count=st.integers(1, 8))
def test_aggregate_is_order_invariant_to_the_bit(data, dim, count):
    prior = data.draw(latent_gaussians(dim))
    observations = data.draw(st.lists(latent_gaussians(dim), min_size=count,
                                      max_size=count))
    order = data.draw(st.permutations(range(count)))
    forward = bayesian_aggregate(prior, observations)
    permuted = bayesian_aggregate(prior, [observations[i] for i in order])
    assert np.array_equal(forward.mean, permuted.mean)
    assert np.array_equal(forward.var, permuted.var)


def _random_sequences(seed, t_count, dofs, primitives, singular=False):
    """Per-time Gaussians of several primitives with SPD covariances; with
    singular, primitive 0 has a rank-deficient covariance at time 0."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, t_count)
    sequences = []
    for k in range(primitives):
        a = rng.standard_normal((t_count, dofs, dofs))
        covs = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(dofs)
        if singular and k == 0:
            covs[0] = a[0, :, 1:] @ a[0, :, 1:].T
        covs = 0.5 * (covs + covs.transpose(0, 2, 1))
        means = rng.uniform(-1e3, 1e3, (t_count, dofs))
        sequences.append(GaussianSequence(times=times, means=means, covs=covs))
    return times, sequences


@settings(max_examples=60, deadline=None)
@given(data=st.data(), t_count=st.integers(1, 6), dofs=st.integers(1, 3),
       primitives=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_combine_passes_lone_primitive_through(data, t_count, dofs, primitives, seed):
    times, sequences = _random_sequences(seed, t_count, dofs, primitives)
    # per time, one primitive at activation 1 and every other at 0
    lone = data.draw(st.lists(st.integers(0, primitives - 1), min_size=t_count,
                              max_size=t_count))
    values = np.zeros((primitives, t_count))
    values[lone, np.arange(t_count)] = 1.0
    out = combine(sequences, ActivationProfile(times, values))
    for i, k in enumerate(lone):
        assert np.array_equal(out.means[i], sequences[k].means[i])
        assert np.array_equal(out.covs[i], sequences[k].covs[i])


ACTIVATION = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 1.0))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), t_count=st.integers(1, 64), dofs=st.integers(1, 4),
       primitives=st.integers(1, 4), singular=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_combine_matches_per_time_loop(data, t_count, dofs, primitives, singular, seed):
    times, sequences = _random_sequences(seed, t_count, dofs, primitives, singular)
    values = data.draw(hnp.arrays(float, (primitives, t_count), elements=ACTIVATION))
    # a time with every activation at 0 takes its last primitive at 1
    values[-1, values.max(axis=0) == 0.0] = 1.0
    profile = ActivationProfile(times, values)
    try:
        ref = combine_loop(sequences, profile)
    except NumericalError as exc:
        # a jittered singular covariance can leave the combined precision
        # beyond repair; both routes must then fail on the same slice
        with pytest.raises(NumericalError, match=re.escape(str(exc))):
            combine(sequences, profile)
        return
    out = combine(sequences, profile)
    for got, want in ((out.means, ref.means), (out.covs, ref.covs)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert out.meta["jitter_applied"] == ref.meta["jitter_applied"]
    lone = (values > 0.0).sum(axis=0) == 1
    assert np.array_equal(out.means[lone], ref.means[lone])
    assert np.array_equal(out.covs[lone], ref.covs[lone])
