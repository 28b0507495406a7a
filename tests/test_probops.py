import json

import numpy as np
import pytest

from mptraj import (ActivationProfile, DimensionError, GaussianSequence,
                    NumericalError, ValidationError, blend, combine, falling_ramp)
from mptraj.probops import (_primitive_sum, gaussian_sequence_from_dict,
                            gaussian_sequence_json_dict)
from tests import reference


def _random_sequence(rng, times, dofs=2, scale=1.0):
    t_count = times.shape[0]
    means = rng.standard_normal((t_count, dofs))
    covs = np.empty((t_count, dofs, dofs))
    for i in range(t_count):
        a = rng.standard_normal((dofs, dofs))
        covs[i] = scale * (a @ a.T + 0.5 * np.eye(dofs))
    return GaussianSequence(times=times, means=means, covs=covs)


class TestContainers:
    def test_sequence_shape_checks(self):
        times = np.array([0.0, 1.0])
        with pytest.raises(DimensionError):
            GaussianSequence(times, np.zeros((3, 2)), np.zeros((3, 2, 2)))
        with pytest.raises(ValidationError, match="symmetric"):
            GaussianSequence(times, np.zeros((2, 2)),
                             np.array([[[1.0, 0.3], [0.2, 1.0]]] * 2))

    @pytest.mark.parametrize("field", ["times", "means", "covs"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sequence_rejected(self, field, value):
        # a NaN mean was accepted, and a NaN covariance was reported as
        # asymmetric
        arrays = {"times": np.array([0.0, 1.0]), "means": np.zeros((2, 2)),
                  "covs": np.array([np.eye(2)] * 2)}
        arrays[field].flat[-1] = value
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            GaussianSequence(**arrays)

    def test_activation_range_checks(self):
        times = np.array([0.0, 1.0])
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            ActivationProfile(times, np.array([[0.5, 1.2]]))
        with pytest.raises(ValidationError, match="vanish at t = 1"):
            ActivationProfile(times, np.array([[1.0, 0.0], [0.5, 0.0]]))

    def test_nan_activation_rejected(self):
        # NaN compares false both ways, so a one-sided range test let it
        # through and combine wrote a zero-precision Gaussian
        times = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            ActivationProfile(times, np.array([[1.0, np.nan, 0.5], [0.0, np.nan, 0.5]]))

    def test_falling_ramp(self):
        times = np.array([0.0, 1.0, 1.5, 2.0, 3.0])
        ramp = falling_ramp(times, 1.0, 2.0)
        np.testing.assert_array_equal(ramp, [1.0, 1.0, 0.5, 0.0, 0.0])
        for t_start, t_end in ((2.0, 1.0), (1.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
            with pytest.raises(ValidationError, match="ramp needs"):
                falling_ramp(times, t_start, t_end)


class TestCombine:
    def test_lone_full_activation_is_bit_copy(self):
        rng = np.random.default_rng(0)
        times = np.linspace(0.0, 1.0, 4)
        seq_a = _random_sequence(rng, times)
        seq_b = _random_sequence(rng, times)
        profile = ActivationProfile(times, np.stack([np.ones(4), np.zeros(4)]))
        out = combine([seq_a, seq_b], profile)
        assert np.array_equal(out.means, seq_a.means)
        assert np.array_equal(out.covs, seq_a.covs)

    def test_lone_partial_activation_scales_covariance(self):
        rng = np.random.default_rng(1)
        times = np.array([0.0, 0.5])
        seq = _random_sequence(rng, times)
        profile = ActivationProfile(times, np.full((1, 2), 0.25))
        out = combine([seq], profile)
        assert np.array_equal(out.means, seq.means)
        np.testing.assert_array_equal(out.covs, seq.covs / 0.25)

    def test_self_combination_halves_covariance(self):
        rng = np.random.default_rng(2)
        times = np.linspace(0.0, 1.0, 5)
        seq = _random_sequence(rng, times)
        profile = ActivationProfile(times, np.ones((2, 5)))
        out = combine([seq, seq], profile)
        np.testing.assert_allclose(out.covs, seq.covs / 2.0, rtol=1e-12)
        np.testing.assert_allclose(out.means, seq.means, rtol=0, atol=1e-12)

    def test_matches_explicit_product_formula(self):
        # independent route: dense inverses straight from the definition
        rng = np.random.default_rng(3)
        times = np.array([0.0, 0.4, 0.9])
        seqs = [_random_sequence(rng, times) for _ in range(3)]
        values = rng.uniform(0.05, 1.0, size=(3, 3))
        profile = ActivationProfile(times, values)
        out = combine(seqs, profile)
        for i in range(3):
            precision = sum(values[k, i] * np.linalg.inv(seqs[k].covs[i])
                            for k in range(3))
            cov = np.linalg.inv(precision)
            mean = cov @ sum(values[k, i] * np.linalg.inv(seqs[k].covs[i])
                             @ seqs[k].means[i] for k in range(3))
            np.testing.assert_allclose(out.covs[i], cov, rtol=1e-9)
            np.testing.assert_allclose(out.means[i], mean, rtol=0, atol=1e-9)

    def test_singular_covariance_uses_jitter_once(self):
        times = np.array([0.0])
        singular = GaussianSequence(times, np.zeros((1, 2)),
                                    np.array([[[1.0, 1.0], [1.0, 1.0]]]))
        healthy = GaussianSequence(times, np.ones((1, 2)), np.eye(2)[None])
        profile = ActivationProfile(times, np.ones((2, 1)))
        out = combine([singular, healthy], profile)
        assert out.meta["jitter_applied"] == 1
        assert np.all(np.isfinite(out.covs))

    def test_singular_covariance_in_inactive_slot_needs_no_jitter(self):
        times = np.array([0.0, 1.0])
        singular = GaussianSequence(times, np.zeros((2, 2)),
                                    np.array([[[1.0, 1.0], [1.0, 1.0]]] * 2))
        healthy = GaussianSequence(times, np.ones((2, 2)), np.array([np.eye(2)] * 2))
        # the singular primitive is off at both times, once beside two others
        profile = ActivationProfile(times, np.array([[0.0, 0.0], [0.5, 1.0],
                                                     [0.5, 0.0]]))
        out = combine([singular, healthy, healthy], profile)
        assert out.meta["jitter_applied"] == 0
        np.testing.assert_allclose(out.covs[0], np.eye(2), rtol=1e-15)

    def test_each_singular_slice_counts_once(self):
        times = np.array([0.0, 0.5, 1.0])
        covs = np.array([[[1.0, 1.0], [1.0, 1.0]], np.eye(2), [[4.0, 2.0], [2.0, 1.0]]])
        singular = GaussianSequence(times, np.zeros((3, 2)), covs)
        healthy = GaussianSequence(times, np.ones((3, 2)), np.array([np.eye(2)] * 3))
        profile = ActivationProfile(times, np.full((2, 3), 0.5))
        out = combine([singular, healthy], profile)
        assert out.meta["jitter_applied"] == 2

    def test_lone_indefinite_covariance_passes_through(self):
        # a lone primitive is never factored, so its covariance is copied even
        # where no Cholesky factor exists
        times = np.array([0.0, 1.0])
        odd = GaussianSequence(times, np.ones((2, 2)),
                               np.array([[[1.0, 0.0], [0.0, -1.0]]] * 2))
        healthy = GaussianSequence(times, np.zeros((2, 2)), np.array([np.eye(2)] * 2))
        profile = ActivationProfile(times, np.array([[1.0, 0.5], [0.0, 0.0]]))
        out = combine([odd, healthy], profile)
        assert np.array_equal(out.means, odd.means)
        assert np.array_equal(out.covs[0], odd.covs[0])
        assert np.array_equal(out.covs[1], odd.covs[1] / 0.5)
        assert out.meta["jitter_applied"] == 0

    def test_unrepairable_slice_is_named(self):
        times = np.array([0.0])
        odd = GaussianSequence(times, np.zeros((1, 2)),
                               np.array([[[1.0, 0.0], [0.0, -1.0]]]))
        healthy = GaussianSequence(times, np.ones((1, 2)), np.eye(2)[None])
        profile = ActivationProfile(times, np.ones((2, 1)))
        with pytest.raises(NumericalError, match="primitive 0 at index 0"):
            combine([odd, healthy], profile)

    def test_non_finite_result_is_numerical_error(self):
        # the precision round trip of covariances near the float limit
        # overflows; the result used to be returned full of inf and NaN
        times = np.array([0.0, 0.5, 1.0])
        seq = GaussianSequence(times, np.ones((3, 2)), np.array([1e308 * np.eye(2)] * 3))
        profile = ActivationProfile(times, np.array([[1.0, 0.5, 0.0],
                                                     [0.0, 0.5, 1.0]]))
        with pytest.raises(NumericalError, match=r"index 1 \(t = 0.5\) is not finite"):
            combine([seq, seq], profile)

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        seq_a = _random_sequence(rng, np.array([0.0, 1.0]))
        seq_b = _random_sequence(rng, np.array([0.0, 2.0]))
        profile = ActivationProfile(np.array([0.0, 1.0]), np.ones((2, 2)))
        with pytest.raises(ValidationError, match="time grid"):
            combine([seq_a, seq_b], profile)

    # a trailing axis of one: numpy sums the terms pairwise, not in order
    @pytest.mark.parametrize("shape", [(3, 40, 2, 2), (9, 1, 1, 1), (30, 1, 1),
                                       (12, 3, 1), (2, 5, 3)])
    def test_primitive_sum_matches_the_loop_bit_for_bit(self, shape):
        rng = np.random.default_rng(9)
        terms = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        terms[rng.random(shape) < 0.2] = -0.0
        for terms in (terms, np.full(shape, -0.0)):
            got = _primitive_sum(terms)
            assert got.tobytes() == reference.sum_loop(terms).tobytes()

    def test_count_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        seq = _random_sequence(rng, np.array([0.0, 1.0]))
        profile = ActivationProfile(np.array([0.0, 1.0]), np.ones((2, 2)))
        with pytest.raises(DimensionError):
            combine([seq], profile)


class TestBlend:
    def test_endpoints_pass_through_bitwise(self):
        rng = np.random.default_rng(6)
        times = np.linspace(0.0, 2.0, 9)
        seq_a = _random_sequence(rng, times)
        seq_b = _random_sequence(rng, times)
        activation = falling_ramp(times, 0.5, 1.5)
        out = blend(seq_a, seq_b, activation)
        head = activation == 1.0
        tail = activation == 0.0
        assert np.array_equal(out.means[head], seq_a.means[head])
        assert np.array_equal(out.covs[head], seq_a.covs[head])
        assert np.array_equal(out.means[tail], seq_b.means[tail])
        assert np.array_equal(out.covs[tail], seq_b.covs[tail])

    def test_transition_tightens_covariance(self):
        # mid-ramp both primitives are active, so the product has more
        # precision than either factor alone would contribute at a = 1
        rng = np.random.default_rng(7)
        times = np.array([1.0])
        seq_a = _random_sequence(rng, times)
        seq_b = _random_sequence(rng, times)
        out = blend(seq_a, seq_b, np.array([0.5]))
        both = np.linalg.inv(out.covs[0])
        only_a = 0.5 * np.linalg.inv(seq_a.covs[0])
        eigs = np.linalg.eigvalsh(both - only_a)
        assert eigs.min() > 0.0

    def test_activation_shape_checked(self):
        rng = np.random.default_rng(8)
        seq = _random_sequence(rng, np.array([0.0, 1.0]))
        with pytest.raises(DimensionError):
            blend(seq, seq, np.array([1.0]))


class TestJson:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(9)
        seq = _random_sequence(rng, np.linspace(0.0, 1.0, 3), dofs=3)
        data = gaussian_sequence_json_dict(seq)
        back = gaussian_sequence_from_dict(data)
        assert np.array_equal(back.times, seq.times)
        assert np.array_equal(back.means, seq.means)
        assert np.array_equal(back.covs, seq.covs)

    @pytest.mark.parametrize("dofs", [1, 2, 7])
    def test_json_equals_per_record_writer(self, dofs):
        rng = np.random.default_rng(dofs)
        seq = _random_sequence(rng, np.linspace(0.0, 1.0, 41), dofs=dofs)
        seq.meta["jitter_applied"] = 3
        assert (json.dumps(gaussian_sequence_json_dict(seq), indent=1)
                == json.dumps(reference.gaussian_sequence_json_dict(seq), indent=1))

    def test_packed_length_checked(self):
        data = {"dofs": 2, "records": [{"t": 0.0, "mean": [0.0, 0.0],
                                        "cov_lower": [1.0, 0.0]}], "meta": {}}
        with pytest.raises(ValidationError, match="packed covariance"):
            gaussian_sequence_from_dict(data)

    @pytest.mark.parametrize("dofs", [1.5, 2.0, True, "2"])
    def test_dofs_must_be_an_integer(self, dofs):
        # int() truncated 1.5 to 1 and read true as 1
        data = {"dofs": dofs, "records": [{"t": 0.0, "mean": [0.0],
                                           "cov_lower": [1.0]}], "meta": {}}
        with pytest.raises(ValidationError, match="dofs must be an integer"):
            gaussian_sequence_from_dict(data)
