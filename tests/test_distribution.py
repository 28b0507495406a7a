import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mptraj import (BasisBank, BoundaryCondition, Demonstration, DimensionError,
                    DmpConfig, NumericalError, TimePairBatch, TrajectoryDistribution,
                    TrajectoryGenerator, ValidationError, WeightsDistribution, evaluate_position,
                    fit_distribution, fit_weights, gaussian_nll, marginal,
                    pair_nll, per_time_marginals, precompute_basis, replan_segment,
                    sample_time_pairs, sample_trajectories, trajectory_distribution)
from mptraj.distribution import (PAIR_BLOCK, TIME_BLOCK, _group_gaussians,
                                 weights_distribution_from_dict,
                                 weights_distribution_json_dict)
from tests.conftest import SMALL_CONFIG, counted_lookups, random_weights_distribution
from tests.reference import (pair_nll_dense, pair_nll_one_fold, pair_times_by_unique,
                             stacked_time_covariances)

LN_TWO_PI = 1.8378770664093455


def _case(bank, dofs=2, seed=0, t_b=0.0):
    rng = np.random.default_rng(seed)
    wdist = random_weights_distribution(dofs, bank.weight_dim, rng)
    bc = BoundaryCondition(t_b, rng.standard_normal(dofs),
                           rng.standard_normal(dofs))
    return wdist, bc


def _pair_nll_loop(batch, wdist, bc, bank, noise_var):
    """Per-pair reference route: one joint distribution and one NLL per pair."""
    total = 0.0
    for j in range(batch.count):
        dist = trajectory_distribution(wdist, bc, batch.times[j], bank, noise_var)
        total += gaussian_nll(dist, batch.values[j])
    return total / batch.count


def _rollout_pairs(wdist, bc, bank, times, noise_var, rng):
    """Pair batch whose truth values are one weight-space draw at the pair
    times plus observation noise, DoF-major per pair."""
    count, dofs = times.shape[0], bc.dofs
    draw = sample_trajectories(wdist, bc, times.ravel(), bank, 1, rng)[0]
    values = draw.reshape(dofs, count, 2).transpose(1, 0, 2).reshape(count, 2 * dofs)
    values = values + math.sqrt(noise_var) * rng.standard_normal(values.shape)
    return TimePairBatch(times, values)


class TestWeightsDistribution:
    def test_rejects_upper_entries(self):
        chol = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="lower-triangular"):
            WeightsDistribution(np.zeros(2), chol)

    @pytest.mark.parametrize("mean, chol", [
        ([np.nan, 0.0], np.eye(2)), ([0.0, 0.0], np.diag([1.0, np.inf]))])
    def test_rejects_non_finite(self, mean, chol):
        with pytest.raises(ValidationError, match="finite"):
            WeightsDistribution(np.array(mean), chol)

    def test_rejects_zero_diagonal(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            WeightsDistribution(np.zeros(2), np.zeros((2, 2)))

    def test_from_covariance_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + 0.5 * np.eye(4)
        wdist = WeightsDistribution.from_covariance(rng.standard_normal(4), cov)
        np.testing.assert_allclose(wdist.covariance(), cov, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (1,), ()], ids=str)
    def test_from_covariance_needs_a_square_matrix_of_the_means_length(self, shape,
                                                                       monkeypatch):
        # (1, 2) and (2, 1) once broadcast to a (2, 2) sum and ended in its
        # negative eigenvalue; (1,) and () in a bare LinAlgError
        def factor(_):
            raise AssertionError("factored")

        monkeypatch.setattr(np.linalg, "cholesky", factor)
        with pytest.raises(DimensionError, match=rf"^cov has shape {re.escape(str(shape))}, "
                           r"expected \(1, 1\) for a mean of length 1$"):
            WeightsDistribution.from_covariance(np.zeros(1), np.ones(shape))

    def test_from_covariance_rejects_indefinite(self):
        cov = np.diag([1.0, -2.0])
        with pytest.raises(NumericalError, match="not positive definite"):
            WeightsDistribution.from_covariance(np.zeros(2), cov)


class TestTrajectoryDistribution:
    def test_index_set_is_dof_major(self, small_bank):
        wdist, bc = _case(small_bank)
        times = np.array([0.0, 0.5, 1.0])
        dist = trajectory_distribution(wdist, bc, times, small_bank)
        assert dist.index_set == ((0.0, 0), (0.5, 0), (1.0, 0),
                                  (0.0, 1), (0.5, 1), (1.0, 1))

    @pytest.mark.parametrize("dofs", [1, 2, 7])
    def test_covariances_exactly_symmetric(self, small_bank, dofs):
        # nothing symmetrizes the Gram products G G^T: numpy forms them exactly
        # symmetric, per time, per pair block and over the whole window
        wdist, bc = _case(small_bank, dofs=dofs, seed=dofs)
        times = np.linspace(0.0, 1.0, 25)
        _, _, covs = per_time_marginals(wdist, bc, times, small_bank)
        fold = TrajectoryGenerator(bc, times[1:], small_bank)
        _, pair_covs = _group_gaussians(wdist, fold.rows[0], fold.offsets[0], 2, 0.0)
        joint = trajectory_distribution(wdist, bc, times, small_bank).cov
        for stack in (covs, pair_covs, joint[None]):
            np.testing.assert_array_equal(stack, stack.transpose(0, 2, 1))

    def test_mean_is_mean_weight_trajectory(self, small_bank):
        wdist, bc = _case(small_bank, seed=3)
        times = np.linspace(0.0, 1.0, 9)
        dist = trajectory_distribution(wdist, bc, times, small_bank)
        pos = evaluate_position(wdist.mean, bc, times, small_bank)
        np.testing.assert_array_equal(dist.mean.reshape(2, 9), pos)

    def test_covariance_against_explicit_columns(self, small_bank):
        # independent route: build the weight-to-position map column by
        # column with unit weight vectors and a zero boundary, then form
        # H Sigma_w H^T directly
        wdist, bc = _case(small_bank, seed=5)
        times = np.linspace(0.2, 0.9, 4)
        dist = trajectory_distribution(wdist, bc, times, small_bank,
                                       noise_var=1e-4)
        zero_bc = BoundaryCondition(bc.t_b, np.zeros(2), np.zeros(2))
        columns = []
        for j in range(wdist.dim):
            e = np.zeros(wdist.dim)
            e[j] = 1.0
            columns.append(evaluate_position(e, zero_bc, times, small_bank).ravel())
        hmat = np.stack(columns, axis=1)
        expected = hmat @ wdist.covariance() @ hmat.T + 1e-4 * np.eye(8)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(dist.cov, expected, atol=1e-12 * scale)
        # the per-time blocks are the (t, t) entries of both DoFs
        _, _, covs = per_time_marginals(wdist, bc, times, small_bank, noise_var=1e-4)
        for j in range(times.shape[0]):
            idx = [j, times.shape[0] + j]
            np.testing.assert_allclose(covs[j], expected[np.ix_(idx, idx)],
                                       atol=1e-12 * scale)

    def test_positive_semidefinite_without_noise(self, small_bank):
        wdist, bc = _case(small_bank, seed=7)
        times = np.linspace(0.0, 1.0, 12)
        dist = trajectory_distribution(wdist, bc, times, small_bank,
                                       noise_var=0.0)
        eigs = np.linalg.eigvalsh(dist.cov)
        assert eigs.min() > -1e-12 * max(1.0, eigs.max())

    def test_boundary_time_has_zero_variance(self, small_bank):
        wdist, bc = _case(small_bank, t_b=0.25, seed=9)
        dist = trajectory_distribution(wdist, bc, np.array([0.25, 0.8]),
                                       small_bank, noise_var=0.0)
        for idx, (t, _) in enumerate(dist.index_set):
            if t == 0.25:
                assert dist.cov[idx, idx] == 0.0

    def test_negative_noise_rejected(self, small_bank):
        wdist, bc = _case(small_bank)
        with pytest.raises(ValidationError):
            trajectory_distribution(wdist, bc, [0.5], small_bank, noise_var=-1.0)

    @pytest.mark.parametrize("noise_var", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_noise_rejected_by_every_read(self, small_bank, noise_var):
        wdist, bc = _case(small_bank)
        batch = TimePairBatch(np.array([[0.2, 0.7]]), np.zeros((1, 4)))
        for read in (lambda: trajectory_distribution(wdist, bc, [0.5], small_bank,
                                                     noise_var=noise_var),
                     lambda: per_time_marginals(wdist, bc, [0.5], small_bank,
                                                noise_var=noise_var),
                     lambda: pair_nll(batch, wdist, bc, small_bank, noise_var=noise_var),
                     lambda: TrajectoryDistribution(((0.0, 0),), np.zeros(1), np.eye(1),
                                                    noise_var)):
            with pytest.raises(ValidationError, match="noise_var must be finite"):
                read()

    def test_empty_query_rejected_by_every_read(self, small_bank):
        # the fold's group reshapes raised a bare ValueError on zero times;
        # sampling and positions returned empty arrays
        wdist, bc = _case(small_bank)
        for read in (lambda: trajectory_distribution(wdist, bc, [], small_bank),
                     lambda: per_time_marginals(wdist, bc, [], small_bank),
                     lambda: sample_trajectories(wdist, bc, [], small_bank, 2, seed=0),
                     lambda: evaluate_position(wdist.mean, bc, [], small_bank)):
            with pytest.raises(ValidationError, match="at least one time"):
                read()
        assert small_bank.lookup([]).shape == (2, small_bank.weight_dim, 0)

    @pytest.mark.parametrize("mean, cov", [
        ([math.nan], [[1.0]]), ([math.inf], [[1.0]]),
        ([0.0], [[math.inf]]), ([0.0], [[math.nan]])],
        ids=["nan-mean", "inf-mean", "inf-cov", "nan-cov"])
    def test_non_finite_rejected(self, mean, cov):
        # each once reached gaussian_nll, which returned nan or inf
        with pytest.raises(ValidationError, match="must be finite"):
            TrajectoryDistribution(((0.0, 0),), mean, cov, 0.0)

    def test_asymmetric_cov_rejected(self):
        cov = np.array([[1.0, 0.1], [0.2, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            TrajectoryDistribution(((0.0, 0), (1.0, 0)), np.zeros(2), cov, 0.0)


def _overflowing_case(bank):
    """A weights distribution whose covariance G G^T overflows float64 at any
    time after a rest state's boundary time."""
    wdist = WeightsDistribution(np.zeros(bank.weight_dim), 1e200 * np.eye(bank.weight_dim))
    return wdist, BoundaryCondition(0.0, [0.0], [0.0]), [0.5, 0.7]


class TestOverflow:
    """Each read forms its means and covariances in one place and reports an
    overflow there.  The joint reads once raised ValidationError from the
    record; per_time_marginals returned infinite covariances and pair_nll
    returned inf, each after a RuntimeWarning."""

    def test_trajectory_distribution(self, small_bank):
        wdist, bc, times = _overflowing_case(small_bank)
        with pytest.raises(NumericalError, match="overflows"):
            trajectory_distribution(wdist, bc, times, small_bank)

    def test_per_time_marginals(self, small_bank):
        wdist, bc, times = _overflowing_case(small_bank)
        with pytest.raises(NumericalError, match="overflows"):
            per_time_marginals(wdist, bc, times, small_bank)

    def test_pair_nll(self, small_bank):
        wdist, bc, times = _overflowing_case(small_bank)
        batch = TimePairBatch(np.array([times]), np.zeros((1, 2)))
        with pytest.raises(NumericalError, match="overflows"):
            pair_nll(batch, wdist, bc, small_bank)

    def test_sample_trajectories(self, small_bank):
        # the weight-space draws overflow: once a ValidationError naming w_g,
        # after a RuntimeWarning from the product
        wdist = WeightsDistribution(np.zeros(6), 1e308 * np.eye(6))
        with pytest.raises(NumericalError, match="draws overflow float64; the weights "
                                                 "distribution is too wide"):
            sample_trajectories(wdist, BoundaryCondition(0.0, [0.0], [0.0]), [0.5, 0.7],
                                small_bank, 3, seed=0)

    def test_one_draw_overflowing_on_a_blas_thread(self):
        # one draw of 512 x 77 overflows, in a row OpenBLAS computes on another
        # thread, which sets no flag for it: without the pass over the draws
        # the generator refuses it as a ValidationError about w_g, an argument
        # the caller never passed
        bank = precompute_basis(DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=10,
                                          duration=3.0))
        scale = 1.797e308 / 3.5
        z = np.random.default_rng(0).standard_normal((512, 77))
        assert np.flatnonzero(np.abs(z[:, -1]) > 3.5).tolist() == [454]
        chol = np.eye(77)
        chol[-1, -1] = scale
        with pytest.raises(NumericalError, match="draws overflow float64; the weights "
                                                 "distribution is too wide"):
            sample_trajectories(WeightsDistribution(np.zeros(77), chol),
                                BoundaryCondition(0.0, np.zeros(7), np.zeros(7)), [0.5],
                                bank, 512, seed=0)

    @pytest.mark.parametrize("with_velocities", [False, True])
    def test_sample_trajectories_products(self, with_velocities):
        # 16 finite draws of 7 DoF x 11 weights over 3001 times, as a policy
        # update samples them, whose product passes float64 where the weights'
        # signs match the rows: positions with weights at the float64 limit,
        # velocities, whose rows are larger, with weights whose positions
        # stay finite.  Velocities once came back inf with no error
        bank = precompute_basis(DmpConfig(alpha=25.0, tau=3.0, alpha_x=2.0, num_basis=10,
                                          duration=3.0))
        bc = BoundaryCondition(0.0, np.zeros(7), np.zeros(7))
        times = np.arange(3001) / 1000
        rows = TrajectoryGenerator(bc, times, bank).rows[int(with_velocities)]
        signs = np.sign(rows[:, np.argmax(np.abs(rows).sum(axis=0))])
        scale = 1.2e308 if with_velocities else 1.797e308
        wdist = WeightsDistribution(np.tile(scale * signs, 7), np.eye(77))
        if with_velocities:
            assert np.isfinite(sample_trajectories(wdist, bc, times, bank, 16, seed=0)).all()
        with pytest.raises(NumericalError, match=r"^floating-point overflow encountered in "
                           r"matmul \(sampled trajectories; the weights distribution is "
                           r"too wide\)$"):
            sample_trajectories(wdist, bc, times, bank, 16, seed=0,
                                with_velocities=with_velocities)


@pytest.fixture(scope="module")
def three_basis_bank():
    return precompute_basis(DmpConfig(alpha=25.0, tau=1.0, alpha_x=2.0, num_basis=3,
                                      duration=1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNllOverflow:
    """An NLL that float64 cannot hold is one NumericalError naming the read,
    with no RuntimeWarning before it.  Each case once returned nan, or inf
    after an overflow warning."""

    REST = BoundaryCondition(0.0, np.zeros(2), np.zeros(2))

    def test_pair_nll_of_values_beyond_the_pair_covariance(self, three_basis_bank):
        # LAPACK's solve returned NaN for the finite residual, with no flag
        dim = 2 * three_basis_bank.weight_dim
        wdist = WeightsDistribution(np.zeros(dim), math.sqrt(1e-3) * np.eye(dim))
        batch = TimePairBatch(np.array([[0.2, 0.5]]), np.full((1, 4), 1.7e308))
        with pytest.raises(NumericalError, match=r"^pair NLL is not finite"):
            pair_nll(batch, wdist, self.REST, three_basis_bank)

    def test_gaussian_nll_of_values_beyond_the_covariance(self, three_basis_bank):
        dim = 2 * three_basis_bank.weight_dim
        dist = trajectory_distribution(WeightsDistribution(np.zeros(dim), np.eye(dim)),
                                       self.REST, [0.1, 0.2], three_basis_bank)
        for regime in ("ignore", "raise"):
            with np.errstate(all=regime), pytest.raises(
                    NumericalError, match=r"^Gaussian NLL is not finite"):
                gaussian_nll(dist, np.full(4, 1.7e308))

    def test_pair_nll_of_a_mean_at_1e308(self, three_basis_bank):
        dim = 2 * three_basis_bank.weight_dim
        wdist = WeightsDistribution(np.full(dim, 1e308), math.sqrt(1e-3) * np.eye(dim))
        batch = TimePairBatch(np.array([[0.2, 0.5]]), np.zeros((1, 4)))
        with pytest.raises(NumericalError, match=r"^floating-point overflow encountered "
                                                 r"in \w+ \(pair NLL\)$"):
            pair_nll(batch, wdist, self.REST, three_basis_bank)

    def test_pair_nll_of_block_totals_past_float64(self, three_basis_bank):
        # each block of PAIR_BLOCK pairs sums to a finite 1.2e308, and the two
        # blocks' sum overflowed to inf with no warning
        dim = 2 * three_basis_bank.weight_dim
        wdist = WeightsDistribution(np.zeros(dim), np.eye(dim))

        def batch(count, value):
            return TimePairBatch(np.tile([[0.2, 0.5]], (count, 1)), np.full((count, 4), value))
        block = 2 * PAIR_BLOCK * pair_nll(batch(PAIR_BLOCK, 1e150), wdist, self.REST,
                                          three_basis_bank)
        value = 1e150 * math.sqrt(1.2e308 / block)
        assert math.isfinite(pair_nll(batch(PAIR_BLOCK, value), wdist, self.REST,
                                      three_basis_bank))
        with pytest.raises(NumericalError, match=r"^pair NLL is not finite"):
            pair_nll(batch(2 * PAIR_BLOCK, value), wdist, self.REST, three_basis_bank)

    def test_weights_covariance(self):
        # L L^T of chol 1e200 I once returned inf
        with pytest.raises(NumericalError, match=r"\(weights covariance L L\^T overflows"):
            WeightsDistribution(np.zeros(2), 1e200 * np.eye(2)).covariance()


# every read of a weights distribution, as (wdist, bc, bank) -> result
READS = {
    "trajectory_distribution": lambda wdist, bc, bank: trajectory_distribution(
        wdist, bc, [0.2, 0.6], bank),
    "per_time_marginals": lambda wdist, bc, bank: per_time_marginals(
        wdist, bc, [0.2, 0.6], bank),
    "pair_nll": lambda wdist, bc, bank: pair_nll(
        TimePairBatch(np.array([[0.2, 0.6]]), np.zeros((1, 2 * bc.dofs))), wdist, bc, bank),
    "sample_trajectories": lambda wdist, bc, bank: sample_trajectories(
        wdist, bc, [0.2, 0.6], bank, 3, seed=0),
    "replan_segment": lambda wdist, bc, bank: replan_segment(bc, wdist, 0.5, bank, 10.0),
}


def _wrong_sized_case(bank, dofs=2):
    """A D-DoF state and a distribution of D (N+2) entries: a multiple of D
    that a bare reshape(D, -1) would take."""
    dim = dofs * (bank.weight_dim + 1)
    return (WeightsDistribution(np.zeros(dim), np.eye(dim)),
            BoundaryCondition(0.0, np.zeros(dofs), np.zeros(dofs)))


@pytest.mark.parametrize("read", READS)
def test_every_read_rejects_a_wrong_weights_dimension(small_bank, read):
    wdist, bc = _wrong_sized_case(small_bank)
    with pytest.raises(DimensionError, match=f"{wdist.dim}"):
        READS[read](wdist, bc, small_bank)


def test_sampling_checks_the_dimension_before_drawing(small_bank):
    wdist, bc = _wrong_sized_case(small_bank)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(DimensionError):
        sample_trajectories(wdist, bc, [0.2, 0.6], small_bank, 3, rng)
    assert rng.bit_generator.state == state


class TestMarginal:
    def test_sub_block_is_bit_exact(self, small_bank):
        wdist, bc = _case(small_bank, seed=11)
        times = np.linspace(0.0, 1.0, 5)
        dist = trajectory_distribution(wdist, bc, times, small_bank)
        sub = marginal(dist, [1, 3, 8])
        assert sub.index_set == tuple(dist.index_set[i] for i in (1, 3, 8))
        assert np.array_equal(sub.mean, dist.mean[[1, 3, 8]])
        assert np.array_equal(sub.cov, dist.cov[np.ix_([1, 3, 8], [1, 3, 8])])

    def test_out_of_range(self, small_bank):
        wdist, bc = _case(small_bank)
        dist = trajectory_distribution(wdist, bc, [0.5], small_bank)
        with pytest.raises(ValidationError, match="out of range"):
            marginal(dist, [0, 2])
        # once a RuntimeWarning and a bound of -9223372036854775808
        with pytest.raises(ValidationError, match="out of range: 0..10000000000000000000 "):
            marginal(dist, [0, 10**19])

    # cast to int: [0.7, 2.9] selected (0, 2), [True, False] (1, 0), and
    # [-0.5] passed the range check as 0
    @pytest.mark.parametrize("subset", [[0.7, 2.9], [True, False], [-0.5],
                                        np.array([1.0]), np.array([True]), [1e20]],
                             ids=repr)
    def test_non_integer_indices_rejected(self, small_bank, subset):
        wdist, bc = _case(small_bank)
        dist = trajectory_distribution(wdist, bc, [0.5, 0.7], small_bank)
        with pytest.raises(ValidationError, match="must be integers"):
            marginal(dist, subset)

    def test_repeated_index_rejected(self, small_bank):
        # [0, 0] once returned an exactly singular covariance
        wdist, bc = _case(small_bank)
        dist = trajectory_distribution(wdist, bc, [0.5, 0.7], small_bank)
        with pytest.raises(ValidationError, match="distinct"):
            marginal(dist, [0, 0])
        with pytest.raises(ValidationError, match="distinct"):
            marginal(dist, np.array([3, 1, 3]))

    def test_numpy_integer_indices_accepted(self, small_bank):
        wdist, bc = _case(small_bank)
        dist = trajectory_distribution(wdist, bc, [0.5, 0.7], small_bank)
        for subset in (np.array([2, 0], dtype=np.int32), [np.int64(2), 0], np.uint8(3)):
            sub = marginal(dist, subset)
            picked = np.atleast_1d(np.asarray(subset, dtype=int))
            assert np.array_equal(sub.mean, dist.mean[picked])

    def test_per_time_marginals_match_joint(self, small_bank):
        wdist, bc = _case(small_bank, seed=13)
        times = np.linspace(0.0, 1.0, 6)
        dist = trajectory_distribution(wdist, bc, times, small_bank,
                                       noise_var=1e-5)
        mtimes, means, covs = per_time_marginals(wdist, bc, times, small_bank,
                                                 noise_var=1e-5)
        t_count = times.shape[0]
        scale = np.max(np.abs(dist.cov))
        for j in range(t_count):
            idx = [j, t_count + j]
            np.testing.assert_allclose(means[j], dist.mean[idx], atol=1e-13)
            np.testing.assert_allclose(covs[j], dist.cov[np.ix_(idx, idx)],
                                       atol=1e-12 * scale)


class TestNll:
    def test_matches_scipy(self, small_bank):
        wdist, bc = _case(small_bank, seed=15)
        times = np.linspace(0.1, 1.0, 4)
        dist = trajectory_distribution(wdist, bc, times, small_bank,
                                       noise_var=1e-4)
        rng = np.random.default_rng(1)
        values = dist.mean + 0.1 * rng.standard_normal(dist.dim)
        ours = gaussian_nll(dist, values)
        ref = -stats.multivariate_normal(mean=dist.mean, cov=dist.cov).logpdf(values)
        assert ours == pytest.approx(ref, rel=1e-9)

    def test_identity_at_mean_is_half_dim_ln_two_pi(self):
        dist = TrajectoryDistribution(((0.0, 0), (1.0, 0)), np.array([0.3, -0.7]),
                                      np.eye(2), 1.0)
        assert gaussian_nll(dist, dist.mean) == pytest.approx(LN_TWO_PI, abs=1e-12)

    def test_singular_covariance_reported(self):
        dist = TrajectoryDistribution(((0.0, 0), (1.0, 0)), np.zeros(2),
                                      np.zeros((2, 2)), 0.0)
        with pytest.raises(NumericalError, match="noise_var"):
            gaussian_nll(dist, np.zeros(2))

    def test_length_mismatch(self):
        dist = TrajectoryDistribution(((0.0, 0),), np.zeros(1), np.eye(1), 0.0)
        with pytest.raises(DimensionError):
            gaussian_nll(dist, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_non_finite_observation_rejected(self, bad):
        # once returned nan
        dist = TrajectoryDistribution(((0.0, 0), (1.0, 0)), np.zeros(2), np.eye(2), 1.0)
        with pytest.raises(ValidationError, match=r"^values must be finite$"):
            gaussian_nll(dist, [0.0, bad])


class TestSampling:
    def test_deterministic_under_seed(self, small_bank):
        wdist, bc = _case(small_bank, seed=17)
        times = np.linspace(0.0, 1.0, 8)
        a = sample_trajectories(wdist, bc, times, small_bank, 5, seed=42)
        b = sample_trajectories(wdist, bc, times, small_bank, 5, seed=42)
        c = sample_trajectories(wdist, bc, times, small_bank, 5, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_every_sample_hits_boundary_exactly(self, small_bank):
        wdist, bc = _case(small_bank, t_b=0.5, seed=19)
        times = np.array([0.0, 0.5, 1.0])
        pos, vel = sample_trajectories(wdist, bc, times, small_bank, 64,
                                       seed=0, with_velocities=True)
        np.testing.assert_array_equal(pos[:, :, 1], np.broadcast_to(bc.y_b, (64, 2)))
        np.testing.assert_array_equal(vel[:, :, 1], np.broadcast_to(bc.dy_b, (64, 2)))

    def test_moments_approach_analytic(self, small_bank):
        wdist, bc = _case(small_bank, seed=21)
        times = np.array([0.3, 0.8])
        count = 20000
        pos = sample_trajectories(wdist, bc, times, small_bank, count, seed=5)
        flat = pos.reshape(count, -1)
        dist = trajectory_distribution(wdist, bc, times, small_bank,
                                       noise_var=0.0)
        emp_mean = flat.mean(axis=0)
        emp_cov = np.cov(flat.T)
        scale = np.linalg.norm(dist.cov)
        assert np.linalg.norm(emp_mean - dist.mean.reshape(2, 2).ravel()) < 0.05 * math.sqrt(np.trace(dist.cov))
        assert np.linalg.norm(emp_cov - dist.cov.reshape(4, 4)) < 0.05 * scale

    def test_count_validation(self, small_bank):
        wdist, bc = _case(small_bank)
        with pytest.raises(ValidationError):
            sample_trajectories(wdist, bc, [0.5], small_bank, 0, seed=0)

    # each ended in a bare numpy TypeError
    @pytest.mark.parametrize("count", [2.5, True, "3", 1e20], ids=repr)
    def test_non_integer_count_rejected(self, small_bank, count):
        wdist, bc = _case(small_bank)
        with pytest.raises(ValidationError, match="count must be an integer, got"):
            sample_trajectories(wdist, bc, [0.5], small_bank, count, seed=0)
        with pytest.raises(ValidationError, match="count must be an integer, got"):
            sample_time_pairs(np.linspace(0.0, 1.0, 5), count, seed=0)

    def test_nan_time_rejected(self, small_bank):
        wdist, bc = _case(small_bank)
        with pytest.raises(ValidationError, match="not finite"):
            sample_trajectories(wdist, bc, [np.nan], small_bank, 2, seed=0)

    # -1 ended in numpy's ValueError, 1.5 in a TypeError; True ran as seed 1
    @pytest.mark.parametrize("seed, message", [(-1, "seed must be >= 0"),
                                               (1.5, "seed must be an integer"),
                                               (True, "seed must be an integer")],
                             ids=repr)
    def test_bad_seed_rejected(self, small_bank, seed, message):
        wdist, bc = _case(small_bank)
        with pytest.raises(ValidationError, match=message):
            sample_trajectories(wdist, bc, [0.5], small_bank, 2, seed=seed)
        with pytest.raises(ValidationError, match=message):
            sample_time_pairs(np.linspace(0.0, 1.0, 5), 3, seed=seed)

    def test_generator_and_none_seeds_accepted(self, small_bank):
        wdist, bc = _case(small_bank)
        a = sample_trajectories(wdist, bc, [0.5], small_bank, 2, np.random.default_rng(4))
        b = sample_trajectories(wdist, bc, [0.5], small_bank, 2, np.int64(4))
        assert np.array_equal(a, b)
        assert sample_trajectories(wdist, bc, [0.5], small_bank, 2, None).shape == (2, 2, 1)
        assert sample_time_pairs(np.linspace(0.0, 1.0, 5), 3, None).count == 3


class TestTimePairs:
    def test_equal_times_rejected(self):
        with pytest.raises(ValidationError, match="t == t'"):
            TimePairBatch(np.array([[0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_times_and_values_rejected(self, small_bank, bad):
        # a NaN pair would otherwise score as a NaN mean NLL, with no error
        with pytest.raises(ValidationError, match=r"^TimePairBatch\.times must be finite$"):
            TimePairBatch(np.array([[0.2, bad]]))
        batch = TimePairBatch(np.array([[0.2, 0.7]]))
        with pytest.raises(ValidationError, match=r"^TimePairBatch\.values must be finite$"):
            batch.with_values(np.array([[0.0, bad, 0.0, 0.0]]))

    def test_sampled_pairs_are_distinct_and_sorted(self, small_bank):
        times = np.linspace(0.0, 1.0, 11)
        batch = sample_time_pairs(times, 500, seed=3)
        assert batch.count == 500
        assert np.all(batch.times[:, 0] < batch.times[:, 1])
        assert np.all(np.isin(batch.times, times))

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 1.0, 11), [0.7, 0.1, 0.4, 0.9, 0.2], [0.0, 0.5, 0.5, 1.0, 0.25],
        [0.0, np.nan, 0.5, 1.0, 0.75], [-0.0, 0.5, 1.0], [0.5, -0.0, 0.0, 1.0],
        [[0.0, 0.5], [1.0, 0.25]]],
        ids=["sorted", "unsorted", "duplicates", "nan", "negative-zero", "both-zeros", "2d"])
    @pytest.mark.parametrize("count", [1, 40])
    def test_pair_times_are_those_of_np_unique(self, times, count):
        # a strictly increasing grid is used as given, any other goes through
        # np.unique; both draw the same pair times, bit for bit
        expected = pair_times_by_unique(times, count, 7)
        if np.isnan(expected).any():
            with pytest.raises(ValidationError, match="must be finite"):
                sample_time_pairs(times, count, 7)
        else:
            got = sample_time_pairs(times, count, 7).times
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_pair_frequencies_are_uniform(self):
        # 5 grid times -> 10 unordered pairs; chi-square with 9 degrees of
        # freedom has a 0.999 quantile of 27.9
        times = np.linspace(0.0, 1.0, 5)
        batch = sample_time_pairs(times, 100000, seed=11)
        keys = [tuple(p) for p in batch.times]
        _, counts = np.unique(keys, axis=0, return_counts=True)
        assert counts.size == 10
        expected = 100000 / 10
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 27.9

    def test_pair_nll_identity_case(self, small_bank):
        # degenerate weights plus unit observation noise: at the mean each
        # 2-entry pair contributes exactly ln(2 pi); the factor's G G^T
        # underflows to exactly 0
        dim = small_bank.weight_dim
        wdist = WeightsDistribution(np.zeros(dim), 1e-200 * np.eye(dim))
        bc = BoundaryCondition(0.0, np.zeros(1), np.zeros(1))
        batch = TimePairBatch(np.array([[0.2, 0.7], [0.1, 0.9]]))
        means = np.zeros((2, 2))
        nll = pair_nll(batch.with_values(means), wdist, bc, small_bank,
                       noise_var=1.0)
        assert nll == pytest.approx(LN_TWO_PI, abs=1e-12)

    def test_pair_nll_requires_values(self, small_bank):
        wdist, bc = _case(small_bank)
        batch = sample_time_pairs(np.linspace(0, 1, 6), 3, seed=0)
        with pytest.raises(ValidationError, match="truth values"):
            pair_nll(batch, wdist, bc, small_bank)


@pytest.fixture(scope="module")
def pair_banks():
    """Banks of 10 and 25 basis functions over the small configuration's horizon."""
    return {num_basis: precompute_basis(DmpConfig(**dict(SMALL_CONFIG, num_basis=num_basis)))
            for num_basis in (10, 25)}


class TestBatchedPairNll:
    # the constant term 2D ln(2 pi) / 2 sets the rounding scale, so a mean
    # NLL that happens to cancel to near zero is held to the same absolute
    # error as every other case
    @staticmethod
    def _assert_matches(got, expected, dofs, tol=1e-12):
        assert got == pytest.approx(expected, rel=tol, abs=tol * dofs * LN_TWO_PI)

    @settings(max_examples=40, deadline=None)
    @given(dofs=st.integers(1, 4), count=st.integers(1, 64),
           t_b=st.floats(1e-3, 0.9), noise_var=st.floats(1e-8, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_pair_loop(self, small_bank, dofs, count, t_b, noise_var,
                                   seed):
        rng = np.random.default_rng(seed)
        wdist, bc = _case(small_bank, dofs=dofs, seed=seed, t_b=t_b)
        times = rng.uniform(t_b, small_bank.duration, size=(count, 2))
        batch = _rollout_pairs(wdist, bc, small_bank, times, noise_var, rng)
        got = pair_nll(batch, wdist, bc, small_bank, noise_var)
        self._assert_matches(got, _pair_nll_loop(batch, wdist, bc, small_bank, noise_var),
                             dofs)
        # the dense route scores through scipy's eigendecomposition, which
        # resolves a pair covariance with eigenvalues 1e-8 and ~1 only to
        # ~1e-9 relative (worst of 1200 draws over this domain: 6.5e-9)
        self._assert_matches(got, pair_nll_dense(batch, wdist, bc, small_bank, noise_var),
                             dofs, tol=1e-7)

    def test_batch_larger_than_block(self, small_bank):
        rng = np.random.default_rng(29)
        wdist, bc = _case(small_bank, dofs=3, seed=29, t_b=0.1)
        times = sample_time_pairs(np.linspace(0.1, 1.0, 901), PAIR_BLOCK + 17, rng).times
        batch = _rollout_pairs(wdist, bc, small_bank, times, 1e-6, rng)
        self._assert_matches(pair_nll(batch, wdist, bc, small_bank, 1e-6),
                             _pair_nll_loop(batch, wdist, bc, small_bank, 1e-6), 3)

    @pytest.mark.parametrize("num_basis", [10, 25])
    @pytest.mark.parametrize("dofs", [1, 2, 7])
    def test_block_folds_equal_one_fold(self, pair_banks, dofs, num_basis):
        # each block folds its own times, and every fold step is elementwise
        # along time, so the NLL is bit for bit that of one fold of all pair
        # times: one pair, a block short, full or one over, and several blocks
        bank = pair_banks[num_basis]
        for count in (1, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1, 2 * PAIR_BLOCK + 1):
            for noise_var in (1e-6, 1e-2):
                rng = np.random.default_rng(count)
                wdist, bc = _case(bank, dofs=dofs, seed=count, t_b=0.1)
                times = rng.uniform(0.1, bank.duration, size=(count, 2))
                batch = _rollout_pairs(wdist, bc, bank, times, noise_var, rng)
                assert (pair_nll(batch, wdist, bc, bank, noise_var)
                        == pair_nll_one_fold(batch, wdist, bc, bank, noise_var))

    def test_peak_memory_is_one_blocks(self, pair_banks):
        # one fold of all pair times made the peak grow with the batch: 5.3x
        # from one block's pairs to 20 000 (7 DoFs, 10 basis functions)
        bank = pair_banks[10]
        wdist, bc = _case(bank, dofs=7, seed=41)
        rng = np.random.default_rng(41)
        peaks = []
        for count in (PAIR_BLOCK, 20000):
            batch = TimePairBatch(rng.uniform(0.05, bank.duration, size=(count, 2)),
                                  rng.standard_normal((count, 14)))
            tracemalloc.start()
            try:
                pair_nll(batch, wdist, bc, bank)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_negative_noise_rejected(self, small_bank):
        wdist, bc = _case(small_bank)
        batch = TimePairBatch(np.array([[0.2, 0.7]]), np.zeros((1, 4)))
        with pytest.raises(ValidationError, match="noise_var"):
            pair_nll(batch, wdist, bc, small_bank, noise_var=-1e-9)

    def test_value_width_and_weights_dimension(self, small_bank):
        wdist, bc = _case(small_bank)
        batch = TimePairBatch(np.array([[0.2, 0.7]]), np.zeros((1, 2)))
        with pytest.raises(DimensionError, match="truth vectors"):
            pair_nll(batch, wdist, bc, small_bank)
        one_dof = BoundaryCondition(0.0, np.zeros(1), np.zeros(1))
        with pytest.raises(DimensionError, match="weights distribution"):
            pair_nll(batch, wdist, one_dof, small_bank)

    def test_singular_boundary_pair_at_zero_noise(self, small_bank):
        # the folded row vanishes at t_b, so a pair time there has zero
        # variance for any weights and the pair covariance is exactly
        # singular once the noise is zero; the regular pair before it must
        # not mask the failure
        dim = small_bank.weight_dim
        wdist = WeightsDistribution(np.zeros(dim), np.eye(dim))
        bc = BoundaryCondition(0.25, np.zeros(1), np.zeros(1))
        batch = TimePairBatch(np.array([[0.3, 0.8], [0.25, 0.9]]),
                              np.zeros((2, 2)))
        with pytest.raises(NumericalError, match="singular pair covariance"):
            pair_nll(batch, wdist, bc, small_bank, noise_var=0.0)


class TestTimeCovariances:
    """The per-time covariances are dot products along the weight axis, taken
    TIME_BLOCK times at a time; the stacked G G^T product, one per time,
    referees them."""

    @pytest.mark.parametrize("count", [1, TIME_BLOCK - 1, TIME_BLOCK, TIME_BLOCK + 1,
                                       3 * TIME_BLOCK + 5])
    @pytest.mark.parametrize("dofs", [1, 2, 3, 7])
    def test_match_the_stacked_product(self, pair_banks, dofs, count):
        # one time, a block short, full or one over, and several blocks
        bank = pair_banks[10]
        wdist, bc = _case(bank, dofs=dofs, seed=count + dofs)
        fold = TrajectoryGenerator(bc, np.linspace(0.05, bank.duration, count), bank)
        means, covs = _group_gaussians(wdist, fold.rows[0], fold.offsets[0], 1, 1e-6)
        expected = stacked_time_covariances(wdist, fold, 1e-6)
        assert covs.shape == expected.shape == (count, dofs, dofs)
        np.testing.assert_array_equal(covs, covs.transpose(0, 2, 1))
        assert np.max(np.abs(covs - expected)) <= 2e-15 * np.max(np.abs(expected))
        # the means are the mean weights' positions, bit for bit
        np.testing.assert_array_equal(means, fold.positions(wdist.mean).T)

    def test_working_memory_is_one_blocks(self, pair_banks):
        # the stacked product held all of G, (D, T, D(N+1)) floats, so the
        # memory beyond the returned arrays grew with T: 4.5 MB at one block
        # of times, 89 MB at 20 (7 DoFs, 10 basis functions)
        bank = pair_banks[10]
        wdist, bc = _case(bank, dofs=7, seed=43)
        extra = []
        for count in (TIME_BLOCK, 20 * TIME_BLOCK):
            fold = TrajectoryGenerator(bc, np.linspace(0.05, bank.duration, count), bank)
            tracemalloc.start()
            try:
                means, covs = _group_gaussians(wdist, fold.rows[0], fold.offsets[0], 1, 1e-6)
                extra.append(tracemalloc.get_traced_memory()[1] - means.nbytes - covs.nbytes)
            finally:
                tracemalloc.stop()
        assert extra[1] <= 1.5 * extra[0]


def _bits(out) -> list:
    """The bytes of every array in a read's output: a record's fields, a
    tuple's items or one array."""
    if dataclasses.is_dataclass(out):
        out = vars(out).values()
    elif isinstance(out, np.ndarray):
        out = (out,)
    return [np.asarray(item).tobytes() for item in out]


class TestGridFoldMemo:
    """The grid reads share the fold the bank keeps and give the bits of a
    new bank, which keeps none."""

    @staticmethod
    def _case(bank):
        wdist, bc = _case(bank, dofs=2, seed=4, t_b=0.1)
        _, other = _case(bank, dofs=2, seed=5, t_b=0.1)
        times = np.linspace(0.1, 1.0, 37)
        pos, vel = sample_trajectories(wdist, bc, times, bank, 3, seed=1,
                                       with_velocities=True)
        demos = [Demonstration(times, p, v) for p, v in zip(pos, vel)]
        return wdist, bc, other, times, demos

    READS = {
        "sample_trajectories": lambda wdist, bc, times, demos, bank: sample_trajectories(
            wdist, bc, times, bank, 5, seed=2, with_velocities=True),
        "per_time_marginals": lambda wdist, bc, times, demos, bank: per_time_marginals(
            wdist, bc, times, bank),
        "trajectory_distribution": lambda wdist, bc, times, demos, bank: (
            trajectory_distribution(wdist, bc, times, bank)),
        "fit_distribution": lambda wdist, bc, times, demos, bank: fit_distribution(
            demos, bank),
        "fit_weights": lambda wdist, bc, times, demos, bank: fit_weights(demos[1], bank),
    }

    @pytest.mark.parametrize("read", READS)
    def test_warm_read_equals_a_new_bank(self, small_bank, read):
        wdist, bc, other, times, demos = self._case(small_bank)
        warm = BasisBank(small_bank.config, small_bank.table)
        # kept at another state of the same t_b, in another array of the times
        rows = TrajectoryGenerator(other, times.copy(), warm).rows
        got = self.READS[read](wdist, bc, times, demos, warm)
        assert TrajectoryGenerator(other, times, warm).rows is rows
        fresh = BasisBank(small_bank.config, small_bank.table)
        assert _bits(got) == _bits(self.READS[read](wdist, bc, times, demos, fresh))

    def test_pair_nll_leaves_the_kept_fold(self, small_bank):
        wdist, bc, _, times, _ = self._case(small_bank)
        bank = BasisBank(small_bank.config, small_bank.table)
        rows = TrajectoryGenerator(bc, times, bank).rows
        pairs = sample_time_pairs(times, 300, seed=3)
        values = np.random.default_rng(3).standard_normal((300, 4))
        nll = pair_nll(pairs.with_values(values), wdist, bc, bank)
        assert TrajectoryGenerator(bc, times, bank).rows is rows
        assert nll == pair_nll(pairs.with_values(values), wdist, bc,
                               BasisBank(small_bank.config, small_bank.table))

    def test_policy_update_cycle_folds_its_grid_once(self, small_bank, monkeypatch):
        # sample 16 rollouts, score 32 pairs of each, refit on 8: the grid is
        # looked up on the first cycle only (the sampling and the fit each
        # folded it once a cycle before); every block of pair times once
        bank = BasisBank(small_bank.config, small_bank.table)
        wdist, bc = _case(bank, dofs=2, seed=6)
        times = np.arange(401) / 400
        rng = np.random.default_rng(8)
        lookups = counted_lookups(monkeypatch)
        grid, pairs = [], []
        for _ in range(3):
            lookups.clear()
            pos, vel = sample_trajectories(wdist, bc, times, bank, 16, rng,
                                           with_velocities=True)
            for rollout in pos:
                batch = sample_time_pairs(times, 32, rng)
                truth = rollout[:, np.rint(batch.times * 400).astype(int)]
                truth = truth.transpose(1, 0, 2).reshape(32, -1)
                pair_nll(batch.with_values(truth + 1e-3 * rng.standard_normal(truth.shape)),
                         wdist, bc, bank)
            wdist = fit_distribution([Demonstration(times, p, v)
                                      for p, v in zip(pos[:8], vel[:8])],
                                     bank, cov_floor=1e-4)
            grid.append(lookups.count(times.size + 1))
            pairs.append(lookups.count(2 * 32 + 1))
        assert grid == [1, 0, 0]
        assert pairs == [16, 16, 16]


class TestJson:
    def test_weights_round_trip_bit_exact(self, small_bank):
        rng = np.random.default_rng(23)
        wdist = random_weights_distribution(2, small_bank.weight_dim, rng)
        data = weights_distribution_json_dict(wdist, dofs=2,
                                              num_basis=small_bank.config.num_basis)
        back, dofs, num_basis = weights_distribution_from_dict(data)
        assert (dofs, num_basis) == (2, small_bank.config.num_basis)
        assert np.array_equal(back.mean, wdist.mean)
        assert np.array_equal(back.chol, wdist.chol)

    @pytest.mark.parametrize("field, value", [
        ("dofs", 1.9), ("dofs", True), ("dofs", "2"), ("num_basis", 5.0)])
    def test_integer_fields_must_be_integers(self, small_bank, field, value):
        # int() truncated 1.9 to 1 and read true as 1
        rng = np.random.default_rng(24)
        wdist = random_weights_distribution(1, small_bank.weight_dim, rng)
        data = weights_distribution_json_dict(wdist, dofs=1,
                                              num_basis=small_bank.config.num_basis)
        data[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            weights_distribution_from_dict(data)
