import numpy as np
import pytest

from mptraj import (BoundaryCondition, Demonstration, DimensionError,
                    LatentGaussian, NumericalError, ValidationError,
                    bayesian_aggregate, evaluate_position, evaluate_velocity,
                    fit_distribution, fit_weights)
from tests.conftest import random_weights_distribution


def _synth_demo(w, bc, times, bank, with_velocities=True):
    pos = evaluate_position(w, bc, times, bank)
    vel = evaluate_velocity(w, bc, times, bank) if with_velocities else None
    return Demonstration(times, pos, vel)


class TestDemonstration:
    def test_needs_two_samples(self):
        with pytest.raises(ValidationError, match="at least 2"):
            Demonstration(np.array([0.0]), np.array([[1.0]]))

    @pytest.mark.parametrize("times, positions, velocities", [
        ([0.0, 0.5, np.nan], [[1.0, 2.0, 3.0]], None),
        ([0.0, 0.5, 1.0], [[1.0, np.nan, 3.0]], None),
        ([0.0, 0.5, 1.0], [[1.0, 2.0, 3.0]], [[0.0, np.inf, 0.0]])])
    def test_non_finite_rejected(self, times, positions, velocities):
        with pytest.raises(ValidationError, match="finite"):
            Demonstration(np.array(times), np.array(positions),
                          None if velocities is None else np.array(velocities))

    def test_needs_increasing_times(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            Demonstration(np.array([0.0, 0.0]), np.zeros((1, 2)))

    def test_velocity_fallback_is_first_difference(self):
        demo = Demonstration(np.array([0.0, 0.5, 1.0]),
                             np.array([[1.0, 2.0, 2.5]]))
        bc = demo.boundary_condition()
        assert bc.t_b == 0.0
        assert bc.y_b[0] == 1.0
        assert bc.dy_b[0] == 2.0

    def test_explicit_velocities_win(self):
        demo = Demonstration(np.array([0.0, 1.0]), np.array([[1.0, 2.0]]),
                             np.array([[0.25, 0.0]]))
        assert demo.boundary_condition().dy_b[0] == 0.25


class TestFitWeights:
    def test_recovers_known_weights(self, small_bank):
        rng = np.random.default_rng(31)
        w_true = rng.standard_normal(2 * small_bank.weight_dim) * 3.0
        bc = BoundaryCondition(0.0, rng.standard_normal(2),
                               rng.standard_normal(2))
        times = np.arange(401) / 400
        demo = _synth_demo(w_true, bc, times, small_bank)
        w_fit = fit_weights(demo, small_bank, ridge=1e-16, bc=bc)
        assert np.max(np.abs(w_fit - w_true)) < 1e-6

    def test_first_difference_boundary_still_reconstructs(self, small_bank):
        # without stored velocities the extracted boundary velocity is a
        # first difference; weights shift, but the reconstruction stays close
        rng = np.random.default_rng(31)
        w_true = rng.standard_normal(2 * small_bank.weight_dim) * 3.0
        bc = BoundaryCondition(0.0, rng.standard_normal(2),
                               rng.standard_normal(2))
        times = np.arange(401) / 400
        demo = _synth_demo(w_true, bc, times, small_bank, with_velocities=False)
        w_fit = fit_weights(demo, small_bank, ridge=1e-16)
        recon = evaluate_position(w_fit, demo.boundary_condition(), times,
                                  small_bank)
        rmse = float(np.sqrt(np.mean((recon - demo.positions) ** 2)))
        assert rmse < 5e-3 * np.ptp(demo.positions)

    def test_constant_demo_fits_goal_only(self, small_bank):
        times = np.arange(401) / 400
        demo = Demonstration(times, np.full((1, times.size), 0.7))
        w = fit_weights(demo, small_bank)
        assert abs(w[-1] - 0.7) < 1e-5
        assert np.max(np.abs(w[:-1])) < 1e-3

    def test_huge_ridge_shrinks_to_zero(self, small_bank):
        rng = np.random.default_rng(33)
        bc = BoundaryCondition(0.0, np.array([0.3]), np.array([0.0]))
        times = np.arange(401) / 400
        demo = _synth_demo(rng.standard_normal(small_bank.weight_dim), bc,
                           times, small_bank)
        w = fit_weights(demo, small_bank, ridge=1e12)
        assert np.max(np.abs(w)) < 1e-6

    def test_underdetermined_demo_rejected(self, small_bank):
        times = np.linspace(0.0, 1.0, small_bank.weight_dim - 1)
        demo = Demonstration(times, np.zeros((1, times.size)))
        with pytest.raises(ValidationError, match="underdetermined"):
            fit_weights(demo, small_bank)

    def test_rank_deficiency_reported_without_ridge(self, small_bank):
        # a sample exactly at the boundary time contributes an all-zero
        # design row, so weight_dim samples cannot reach full rank
        rng = np.random.default_rng(35)
        bc = BoundaryCondition(0.0, rng.standard_normal(1),
                               rng.standard_normal(1))
        times = np.linspace(0.0, 1.0, small_bank.weight_dim)
        demo = _synth_demo(rng.standard_normal(small_bank.weight_dim), bc,
                           times, small_bank)
        with pytest.raises(NumericalError, match="rank deficient"):
            fit_weights(demo, small_bank, ridge=0.0, bc=bc)
        fit_weights(demo, small_bank, bc=bc)  # default ridge handles it

    def test_negative_ridge_rejected(self, small_bank):
        demo = Demonstration(np.arange(401) / 400, np.zeros((1, 401)))
        with pytest.raises(ValidationError):
            fit_weights(demo, small_bank, ridge=-1.0)

    @pytest.mark.parametrize("ridge", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_ridge_rejected(self, small_bank, ridge):
        # an infinite ridge ended in an SVD that did not converge; a NaN
        # ridge fitted with no ridge at all
        demo = Demonstration(np.arange(401) / 400, np.zeros((1, 401)))
        with pytest.raises(ValidationError, match="ridge must be finite and >= 0"):
            fit_weights(demo, small_bank, ridge=ridge)


class TestFitDistribution:
    @pytest.mark.parametrize("cov_floor", [-1.0, np.inf, np.nan],
                             ids=["neg", "inf", "nan"])
    def test_negative_or_non_finite_cov_floor_rejected(self, small_bank, cov_floor):
        demo = Demonstration(np.arange(401) / 400, np.zeros((1, 401)))
        with pytest.raises(ValidationError, match="cov_floor must be finite and >= 0"):
            fit_distribution([demo, demo], small_bank, cov_floor=cov_floor)

    def test_matches_weight_space_moments(self, small_bank):
        # dual route: fitting noiseless demos synthesized from known weight
        # draws must reproduce the draws' empirical mean and covariance
        rng = np.random.default_rng(101)
        wdist = random_weights_distribution(2, small_bank.weight_dim, rng)
        bc = BoundaryCondition(0.0, rng.standard_normal(2),
                               rng.standard_normal(2))
        times = np.arange(401) / 400
        draws = wdist.mean + rng.standard_normal((60, wdist.dim)) @ wdist.chol.T
        demos = [_synth_demo(w, bc, times, small_bank) for w in draws]
        fitted = fit_distribution(demos, small_bank, ridge=1e-16,
                                  cov_floor=1e-10)
        emp_cov = np.cov(draws.T) + 1e-10 * np.eye(wdist.dim)
        assert np.max(np.abs(fitted.mean - draws.mean(axis=0))) < 1e-6
        assert np.max(np.abs(fitted.covariance() - emp_cov)) < 1e-6

    def test_identical_demos_leave_floor_only(self, small_bank):
        rng = np.random.default_rng(37)
        bc = BoundaryCondition(0.0, rng.standard_normal(1),
                               rng.standard_normal(1))
        times = np.arange(401) / 400
        demo = _synth_demo(rng.standard_normal(small_bank.weight_dim), bc,
                           times, small_bank)
        fitted = fit_distribution([demo, demo], small_bank, ridge=1e-16)
        floor = 1e-8 * np.eye(small_bank.weight_dim)
        assert np.array_equal(fitted.covariance(), floor)

    def test_needs_two_demos(self, small_bank):
        demo = Demonstration(np.arange(401) / 400, np.zeros((1, 401)))
        with pytest.raises(ValidationError, match=">= 2"):
            fit_distribution([demo], small_bank)

    def test_dof_mismatch_rejected(self, small_bank):
        times = np.arange(401) / 400
        one = Demonstration(times, np.zeros((1, 401)))
        two = Demonstration(times, np.zeros((2, 401)))
        with pytest.raises(DimensionError):
            fit_distribution([one, two], small_bank)


class TestBayesianAggregate:
    def test_unit_example(self):
        prior = LatentGaussian(np.array([0.0]), np.array([1.0]))
        obs = LatentGaussian(np.array([1.0]), np.array([1.0]))
        post = bayesian_aggregate(prior, [obs])
        assert abs(post.mean[0] - 0.5) < 1e-15
        assert abs(post.var[0] - 0.5) < 1e-15

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(41)
        prior = LatentGaussian(rng.standard_normal(6),
                               rng.uniform(0.1, 2.0, 6))
        obs = [LatentGaussian(rng.standard_normal(6),
                              rng.uniform(0.1, 2.0, 6)) for _ in range(5)]
        batch = bayesian_aggregate(prior, obs)
        state = prior
        for o in obs:
            state = bayesian_aggregate(state, [o])
        assert np.max(np.abs(batch.mean - state.mean)) < 1e-10
        assert np.max(np.abs(batch.var - state.var)) < 1e-10

    def test_permutation_invariance_is_bit_exact(self):
        rng = np.random.default_rng(43)
        prior = LatentGaussian(rng.standard_normal(4),
                               rng.uniform(0.1, 2.0, 4))
        obs = [LatentGaussian(rng.standard_normal(4),
                              rng.uniform(0.1, 2.0, 4)) for _ in range(7)]
        forward = bayesian_aggregate(prior, obs)
        shuffled = bayesian_aggregate(prior, obs[::-1])
        rotated = bayesian_aggregate(prior, obs[3:] + obs[:3])
        assert np.array_equal(forward.mean, shuffled.mean)
        assert np.array_equal(forward.var, shuffled.var)
        assert np.array_equal(forward.mean, rotated.mean)
        assert np.array_equal(forward.var, rotated.var)

    def test_posterior_variance_never_grows(self):
        rng = np.random.default_rng(45)
        prior = LatentGaussian(rng.standard_normal(3),
                               rng.uniform(0.5, 2.0, 3))
        obs = [LatentGaussian(rng.standard_normal(3),
                              rng.uniform(0.5, 2.0, 3)) for _ in range(4)]
        post = bayesian_aggregate(prior, obs)
        assert np.all(post.var < prior.var)
        for o in obs:
            assert np.all(post.var < o.var)

    def test_uninformative_observation_barely_moves_prior(self):
        prior = LatentGaussian(np.array([2.0]), np.array([1.0]))
        vague = LatentGaussian(np.array([-50.0]), np.array([1e12]))
        post = bayesian_aggregate(prior, [vague])
        assert abs(post.mean[0] - 2.0) < 1e-9
        assert abs(post.var[0] - 1.0) < 1e-9

    def test_empty_observations_return_prior(self):
        prior = LatentGaussian(np.array([1.0]), np.array([2.0]))
        assert bayesian_aggregate(prior, []) is prior

    def test_dimension_mismatch(self):
        prior = LatentGaussian(np.zeros(2), np.ones(2))
        obs = LatentGaussian(np.zeros(3), np.ones(3))
        with pytest.raises(DimensionError):
            bayesian_aggregate(prior, [obs])

    def test_variance_must_be_positive(self):
        with pytest.raises(ValidationError):
            LatentGaussian(np.zeros(2), np.array([1.0, 0.0]))
