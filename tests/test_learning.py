import math
import tracemalloc

import numpy as np
import pytest

import mptraj.learning
from mptraj import (BoundaryCondition, Demonstration, DimensionError, DmpConfig,
                    LatentGaussian, NumericalError, ValidationError,
                    bayesian_aggregate, evaluate_position, evaluate_velocity,
                    fit_distribution, fit_weights, folded_basis, precompute_basis,
                    sample_trajectories)
from mptraj.learning import RIDGE_SCALE
from tests.conftest import random_weights_distribution
from tests.reference import (augmented_lstsq, bayesian_aggregate_loop, per_demo_fits,
                             row_major_fits)


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
        with pytest.raises(NumericalError, match="rank deficient") as err:
            fit_weights(demo, small_bank, ridge=0.0, bc=bc)
        # the rank is lstsq's on the same design, so the message is its message
        fold = folded_basis(bc, times, small_bank)
        with pytest.raises(NumericalError) as ref:
            augmented_lstsq(np.ascontiguousarray(fold.rows[0].T),
                            (demo.positions - fold.offsets[0]).T, 0.0)
        assert str(err.value) == str(ref.value)
        fit_weights(demo, small_bank, bc=bc)  # default ridge handles it

    @pytest.mark.parametrize("positions, velocities", [
        (np.full(401, 1.7e308), None), (np.zeros(401), np.full(401, 1.7e308))],
        ids=["positions", "velocities"])
    def test_overflowing_fit_raises(self, small_bank, positions, velocities):
        # demos near the largest double overflow the solve and raise, never
        # returning inf or NaN weights (lstsq on the augmented design returned
        # NaN weights for the second)
        demo = Demonstration(np.arange(401) / 400, positions[None],
                             None if velocities is None else velocities[None])
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="fitted weights are not finite"):
                fit_weights(demo, small_bank)
            with pytest.raises(NumericalError, match="fitted weights are not finite"):
                fit_distribution([demo, demo], small_bank)

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


def _ridge_objective(design, target, weights, ridge) -> np.ndarray:
    """||H x - b||^2 + ridge ||x||^2 per right-hand side, in np.longdouble."""
    design, target, weights = (np.asarray(a, dtype=np.longdouble)
                               for a in (design, target, weights))
    residual = design @ weights - target
    return ((residual * residual).sum(axis=0)
            + np.longdouble(ridge) * (weights * weights).sum(axis=0))


class TestRidgeSolve:
    """The thin-SVD ridge solve against lstsq on the augmented design, the fit
    reference, on fine-grid banks whose designs grow ill-conditioned with N."""

    @pytest.fixture(scope="class", params=[5, 10, 20], ids=lambda n: f"N={n}")
    def problem(self, request):
        """A 3-DoF noisy demo on a bank with grid_dt 1e-4: the demo, the bank and
        the fit's design, target and default ridge, built as the fit builds them."""
        bank = precompute_basis(DmpConfig(alpha=25.0, tau=1.0, alpha_x=2.0,
                                          num_basis=request.param, duration=1.0,
                                          grid_dt=1e-4))
        rng = np.random.default_rng(request.param)
        times = np.arange(1001) / 1000
        bc = BoundaryCondition(0.0, rng.standard_normal(3), rng.standard_normal(3))
        clean = evaluate_position(rng.standard_normal(3 * bank.weight_dim) * 3.0, bc,
                                  times, bank)
        demo = Demonstration(times, clean + 1e-3 * rng.standard_normal(clean.shape))
        fold = folded_basis(demo.boundary_condition(), times, bank)
        design = np.ascontiguousarray(fold.rows[0].T)
        target = (demo.positions - fold.offsets[0]).T
        ridge = RIDGE_SCALE * np.einsum("ij,ij->", design, design) / bank.weight_dim
        return demo, bank, design, target, ridge

    def test_fits_agree_with_the_reference(self, problem):
        demo, bank, design, target, ridge = problem
        fit = fit_weights(demo, bank).reshape(3, -1).T
        reference = augmented_lstsq(design, target, ridge)
        assert np.max(np.abs(fit - reference)) <= 1e-9 * np.max(np.abs(reference))

    @pytest.mark.parametrize("default_ridge", [True, False], ids=["default-ridge", "ridge-0"])
    def test_objective_no_larger_than_the_reference(self, problem, default_ridge):
        demo, bank, design, target, ridge = problem
        ridge = ridge if default_ridge else 0.0
        fit = fit_weights(demo, bank, ridge=ridge).reshape(3, -1).T
        reference = augmented_lstsq(design, target, ridge)
        ours = _ridge_objective(design, target, fit, ridge)
        theirs = _ridge_objective(design, target, reference, ridge)
        assert np.all(ours <= theirs * (1 + np.longdouble(1e-12)))


class TestFitDistribution:
    @pytest.mark.parametrize("cov_floor", [-1.0, np.inf, np.nan],
                             ids=["neg", "inf", "nan"])
    def test_negative_or_non_finite_cov_floor_rejected(self, small_bank, cov_floor):
        demo = Demonstration(np.arange(401) / 400, np.zeros((1, 401)))
        with pytest.raises(ValidationError, match="cov_floor must be finite and >= 0"):
            fit_distribution([demo, demo], small_bank, cov_floor=cov_floor)

    def test_overflowing_covariance_is_numerical_error(self, small_bank):
        # fits near +-1e300 square past float64: once a ValidationError
        # naming WeightsDistribution.chol, a field the caller never passed
        times = np.arange(401) / 400
        ramp = 1e300 * np.linspace(1.0, 2.0, 401)[None]
        demos = [Demonstration(times, sign * ramp) for sign in (1.0, -1.0, 1.0)]
        with pytest.raises(NumericalError, match=r"^floating-point overflow encountered "
                           r"in \w+ \(covariance of the fitted weights\)$"):
            fit_distribution(demos, small_bank)

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


def _count_folds(monkeypatch) -> list:
    """Records the times of every fold the learning module makes; fails on
    any fit_weights call."""
    folds, fold = [], mptraj.learning.folded_basis

    def counted(bc, times, bank):
        folds.append(np.asarray(times))
        return fold(bc, times, bank)

    def forbidden(*args, **kwargs):
        raise AssertionError("fit_distribution called fit_weights")

    monkeypatch.setattr(mptraj.learning, "folded_basis", counted)
    monkeypatch.setattr(mptraj.learning, "fit_weights", forbidden)
    return folds


def _assert_matches_per_demo_fits(fitted, demos, bank, cov_floor):
    """fit_distribution's moments against those of one fit per demo: weights
    to 1e-10 of max|w| (the shared least squares blocks its right-hand sides
    differently, so the last bits move with cond(h_pos)), the covariance to
    the same bound times the spread of the fits, and the mean trajectory on
    each demo's grid to 1e-12 of max|y|."""
    fits = per_demo_fits(demos, bank)
    mean = fits.mean(axis=0)
    centered = fits - mean
    cov = centered.T @ centered / (len(demos) - 1) + cov_floor * np.eye(mean.shape[0])
    scale = np.max(np.abs(fits))
    assert np.max(np.abs(fitted.mean - mean)) <= 1e-10 * scale
    assert (np.max(np.abs(fitted.covariance() - cov))
            <= 1e-10 * scale * np.max(np.abs(centered)))
    for demo in demos:
        bc = demo.boundary_condition()
        recon = evaluate_position(fitted.mean, bc, demo.times, bank)
        reference = evaluate_position(mean, bc, demo.times, bank)
        assert np.max(np.abs(recon - reference)) <= 1e-12 * np.max(np.abs(demo.positions))


class TestSharedGridFit:
    @pytest.fixture(scope="class")
    def bank(self):
        # the policy-update workload's bank: 3001 grid points, N = 10
        return precompute_basis(DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0,
                                          num_basis=10, duration=3.0))

    @staticmethod
    def _rollouts(bank, dofs, times, count, seed):
        """count demos drawn from one weights distribution, each from its own
        boundary state; every other demo carries no velocities, so its
        boundary velocity is a first difference."""
        rng = np.random.default_rng(seed)
        wdist = random_weights_distribution(dofs, bank.weight_dim, rng, scale=2.0)
        demos = []
        for i in range(count):
            bc = BoundaryCondition(float(times[0]), rng.standard_normal(dofs),
                                   rng.standard_normal(dofs))
            pos, vel = sample_trajectories(wdist, bc, times, bank, 1, rng,
                                           with_velocities=True)
            demos.append(Demonstration(times, pos[0], vel[0] if i % 2 else None))
        return demos

    def test_policy_update_shape_is_one_fold(self, bank, monkeypatch):
        # 8 demos x 7 DoF x 3001 t, as each policy update refits them
        demos = self._rollouts(bank, 7, np.arange(3001) / 1000, 8, seed=61)
        folds = _count_folds(monkeypatch)
        fitted = fit_distribution(demos, bank, cov_floor=1e-4)
        assert len(folds) == 1
        monkeypatch.undo()
        _assert_matches_per_demo_fits(fitted, demos, bank, 1e-4)

    def test_interleaved_grids_fold_once_each(self, bank, monkeypatch):
        # two grids with different boundary times, listed A, B, A, B, ...
        grid_a = np.arange(3001) / 1000
        grid_b = 0.5 + np.arange(2001) / 1000
        demos_a = self._rollouts(bank, 3, grid_a, 3, seed=62)
        demos_b = self._rollouts(bank, 3, grid_b, 3, seed=63)
        demos = [demo for pair in zip(demos_a, demos_b) for demo in pair]
        folds = _count_folds(monkeypatch)
        fitted = fit_distribution(demos, bank, cov_floor=1e-6)
        assert len(folds) == 2
        assert sorted(times[0] for times in folds) == [0.0, 0.5]
        monkeypatch.undo()
        _assert_matches_per_demo_fits(fitted, demos, bank, 1e-6)

    def test_shared_fit_equals_per_demo_fit_for_one_demo_per_grid(self, bank):
        # each grid holds one demo, so each least squares has the right-hand
        # sides of one fit_weights call
        demos = [self._rollouts(bank, 2, np.arange(1000 + i) / 1000, 1, seed=64 + i)[0]
                 for i in range(3)]
        fitted = fit_distribution(demos, bank)
        assert np.array_equal(fitted.mean, per_demo_fits(demos, bank).mean(axis=0))

    @pytest.mark.parametrize("dofs", [1, 2, 7])
    def test_default_ridge_is_summed_over_c_ordered_rows(self, bank, dofs):
        # einsum sums in memory order: a ridge summed over the fold's
        # transposed rows moves the fits in their last bits
        demos = self._rollouts(bank, dofs, np.arange(3001) / 1000, 4, seed=70 + dofs)
        assert np.array_equal(fit_weights(demos[0], bank), row_major_fits(demos[:1], bank)[0])
        self._assert_equals_row_major_fits(demos, bank)

    def test_unstacked_target_keeps_its_bits(self, bank):
        # 8 demos x 7 DoF, as each policy update refits them: the reference
        # folds the stacked boundary states, the fit one state and the offsets
        demos = self._rollouts(bank, 7, np.arange(3001) / 1000, 8, seed=69)
        self._assert_equals_row_major_fits(demos, bank)

    @staticmethod
    def _assert_equals_row_major_fits(demos, bank, cov_floor=1e-4):
        """fit_distribution's mean and Cholesky factor equal, bit for bit,
        those it would form from reference.row_major_fits."""
        fits = row_major_fits(demos, bank)
        fitted = fit_distribution(demos, bank, cov_floor=cov_floor)
        mean = fits.mean(axis=0)
        centered = fits - mean
        cov = centered.T @ centered / (len(demos) - 1)
        cov[np.diag_indices_from(cov)] += cov_floor
        assert np.array_equal(fitted.mean, mean)
        assert np.array_equal(fitted.chol, np.linalg.cholesky(cov))

    def test_refit_peaks_below_three_targets(self, bank):
        # the target is written over the position offsets, and neither a
        # stacked fold nor velocity offsets are built: the fit's peak stays
        # below three (K*D, T) arrays, numpy's buffers as tracemalloc sees them
        demos = self._rollouts(bank, 7, np.arange(3001) / 1000, 8, seed=61)
        fit_distribution(demos, bank)
        tracemalloc.start()
        try:
            fit_distribution(demos, bank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (8 * 7) * 3001 * 8

    def test_underdetermined_grid_rejected(self, small_bank):
        times = np.linspace(0.0, 1.0, small_bank.weight_dim - 1)
        demo = Demonstration(times, np.zeros((1, times.size)))
        with pytest.raises(ValidationError, match="underdetermined"):
            fit_distribution([demo, demo], small_bank)

    @pytest.mark.parametrize("ridge", [-1.0, np.inf, np.nan], ids=["neg", "inf", "nan"])
    def test_invalid_ridge_rejected(self, small_bank, ridge):
        demo = Demonstration(np.arange(401) / 400, np.zeros((1, 401)))
        with pytest.raises(ValidationError, match="ridge must be finite and >= 0"):
            fit_distribution([demo, demo], small_bank, ridge=ridge)


class TestBayesianAggregate:
    # the posterior mean overflows: once a ValidationError naming
    # LatentGaussian.mean, a field the caller never passed
    @pytest.mark.parametrize("obs_var", [1e-308, 1e-10], ids=repr)
    def test_overflowing_posterior_is_numerical_error(self, obs_var):
        prior = LatentGaussian(np.array([0.0]), np.array([1e-308]))
        obs = LatentGaussian(np.array([1e308]), np.array([obs_var]))
        with pytest.raises(NumericalError, match=r"^floating-point overflow encountered "
                           r"in \w+ \(Bayesian aggregation\)$"):
            bayesian_aggregate(prior, [obs])

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

    # one observation axis: numpy sums the terms pairwise, not in order
    @pytest.mark.parametrize("dim, count", [(1, 200), (1, 9), (4, 50)])
    def test_sums_match_the_observation_loop_bit_for_bit(self, dim, count):
        rng = np.random.default_rng(47)
        prior = LatentGaussian(rng.standard_normal(dim), rng.uniform(0.1, 2.0, dim))
        obs = [LatentGaussian(rng.standard_normal(dim) * 10.0 ** rng.integers(-6, 6),
                              np.exp(3.0 * rng.standard_normal(dim)))
               for _ in range(count)]
        # -0.0 observed against a +0.0 prior mean leaves only -0.0 shift terms
        zero = LatentGaussian(np.zeros(dim), np.ones(dim))
        signed = LatentGaussian(np.full(dim, -0.0), np.ones(dim))
        for prior, obs in ((prior, obs), (zero, [signed, signed])):
            got = bayesian_aggregate(prior, obs)
            want = bayesian_aggregate_loop(prior, obs)
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.var.tobytes() == want.var.tobytes()

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

    # an element with variance +inf in the prior and in every observation
    # has total precision 0: nothing informs it, and it keeps the prior
    def test_element_informed_by_nothing_keeps_the_prior(self):
        rng = np.random.default_rng(49)
        var = rng.uniform(0.1, 2.0, 3)
        prior = LatentGaussian(rng.standard_normal(3), [var[0], np.inf, var[2]])
        obs = [LatentGaussian(rng.standard_normal(3), [v, np.inf, np.inf])
               for v in rng.uniform(0.1, 2.0, 4)]
        post = bayesian_aggregate(prior, obs)
        assert post.mean[1] == prior.mean[1] and post.var[1] == np.inf
        # every other element is the one it is aggregated on its own
        for i in (0, 2):
            alone = bayesian_aggregate_loop(
                LatentGaussian(prior.mean[[i]], prior.var[[i]]),
                [LatentGaussian(o.mean[[i]], o.var[[i]]) for o in obs])
            assert post.mean[[i]].tobytes() == alone.mean.tobytes()
            assert post.var[[i]].tobytes() == alone.var.tobytes()

    def test_all_uninformative_returns_the_prior(self):
        prior = LatentGaussian(np.array([2.0, -0.5]), np.array([np.inf, np.inf]))
        obs = [LatentGaussian(np.array([-50.0, 3.0]), np.array([np.inf, np.inf]))] * 3
        post = bayesian_aggregate(prior, obs)
        assert np.array_equal(post.mean, prior.mean)
        assert np.array_equal(post.var, prior.var)

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

    @pytest.mark.parametrize("mean, var, message", [
        ([math.nan], [1.0], r"^LatentGaussian\.mean must be finite$"),
        ([math.inf], [1.0], r"^LatentGaussian\.mean must be finite$"),
        ([-math.inf], [1.0], r"^LatentGaussian\.mean must be finite$"),
        ([1.0], [math.nan], "variances must be strictly positive")],
        ids=["nan-mean", "inf-mean", "-inf-mean", "nan-var"])
    def test_non_finite_rejected(self, mean, var, message):
        # each once gave a posterior mean of nan or inf
        with pytest.raises(ValidationError, match=message):
            LatentGaussian(mean, var)

    def test_infinite_variance_drops_out_exactly(self):
        # a variance of +inf is a precision of 0: no information
        prior = LatentGaussian(np.array([2.0, -1.0]), np.array([1.0, 3.0]))
        post = bayesian_aggregate(prior, [LatentGaussian([-50.0, 7.0], [math.inf] * 2)])
        assert np.array_equal(post.mean, prior.mean) and np.array_equal(post.var, prior.var)
