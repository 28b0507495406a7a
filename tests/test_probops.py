import json
import re
from fractions import Fraction

import numpy as np
import pytest

from mptraj import (ActivationProfile, DimensionError, GaussianSequence,
                    NumericalError, ValidationError, blend, combine, falling_ramp)
from mptraj.probops import (_inverse_stack, _primitive_sum, gaussian_sequence_from_dict,
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

    # the slots factored are gathered from the mixed times only, so an error
    # after lone times must still name the primitive and index of the input
    def test_slot_after_lone_times_is_named(self):
        times = np.array([0.0, 0.5, 1.0])
        covs = np.array([np.eye(2), np.eye(2), [[1.0, 0.0], [0.0, -1.0]]])
        odd = GaussianSequence(times, np.zeros((3, 2)), covs)
        healthy = GaussianSequence(times, np.ones((3, 2)), np.array([np.eye(2)] * 3))
        profile = ActivationProfile(times, np.array([[1.0, 1.0, 0.5], [0.0, 0.0, 0.5]]))
        with pytest.raises(NumericalError, match=re.escape(
                "covariance of primitive 1 at index 2 is singular even after 1e-12 jitter")):
            combine([healthy, odd], profile)

    def test_non_finite_result_after_lone_times_is_named(self):
        times = np.array([0.0, 0.5, 1.0])
        tiny = GaussianSequence(times, np.ones((3, 2)), np.array([1e-310 * np.eye(2)] * 3))
        healthy = GaussianSequence(times, np.ones((3, 2)), np.array([np.eye(2)] * 3))
        profile = ActivationProfile(times, np.array([[1.0, 1.0, 0.5], [0.0, 0.0, 0.5]]))
        with pytest.raises(NumericalError, match=re.escape(
                "combined Gaussian at index 2 (t = 1) is not finite")):
            combine([healthy, tiny], profile)

    def test_every_time_lone_factors_nothing(self):
        # every covariance is indefinite, so factoring any of them would raise
        times = np.linspace(0.0, 1.0, 5)
        rng = np.random.default_rng(7)
        seqs = [GaussianSequence(times, rng.standard_normal((5, 2)),
                                 np.array([[[1.0, 0.5], [0.5, -1.0]]] * 5) * (k + 1))
                for k in range(3)]
        owner = np.array([0, 2, 1, 1, 0])
        values = np.zeros((3, 5))
        values[owner, np.arange(5)] = 1.0
        out = combine(seqs, ActivationProfile(times, values))
        for i, k in enumerate(owner):
            assert out.means[i].tobytes() == seqs[k].means[i].tobytes()
            assert out.covs[i].tobytes() == seqs[k].covs[i].tobytes()
        assert out.meta["jitter_applied"] == 0

    @pytest.mark.parametrize("dofs", [1, 2, 3])
    def test_every_slot_active_matches_the_loop_bit_for_bit(self, dofs):
        rng = np.random.default_rng(8)
        times = np.linspace(0.0, 1.0, 20)
        seqs = [_random_sequence(rng, times, dofs) for _ in range(3)]
        profile = ActivationProfile(times, rng.uniform(0.05, 1.0, size=(3, 20)))
        out = combine(seqs, profile)
        ref = reference.combine_loop(seqs, profile)
        assert out.means.tobytes() == ref.means.tobytes()
        assert out.covs.tobytes() == ref.covs.tobytes()
        assert out.meta["jitter_applied"] == ref.meta["jitter_applied"] == 0

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


def _exact_inverse(mat):
    """Inverse of a float matrix in exact rationals, by Gauss-Jordan."""
    dofs = mat.shape[0]
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(dofs)]
            for i, row in enumerate(mat.tolist())]
    for c in range(dofs):
        p = next(r for r in range(c, dofs) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(dofs):
            if r != c:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return [row[dofs:] for row in rows]


def _scaled_error(got, mat):
    """Largest entry error of got, the computed inverse of mat, relative to
    the exact inverse's largest entry and divided by mat's condition number.
    Unscaled, the worst slice of a sample is the one with the largest
    condition number, which spreads the ratio of two routes' worst cases
    over 0.4-2.3 from sample to sample; scaled, both routes' worst cases sit
    near the same bound."""
    exact = _exact_inverse(mat)
    largest = max(abs(e) for row in exact for e in row)
    error = max(abs(Fraction(g) - e) for g_row, e_row in zip(got.tolist(), exact)
                for g, e in zip(g_row, e_row))
    return float(error / largest) / np.linalg.cond(mat)


class TestInverseStack:
    @pytest.mark.parametrize("dofs", [1, 2, 3, 7])
    def test_matches_lapack_on_well_conditioned_stacks(self, dofs):
        rng = np.random.default_rng(10 + dofs)
        a = rng.standard_normal((300, dofs, dofs))
        stack = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(dofs)
        got = _inverse_stack(stack, [0], str)
        want = reference.lapack_spd_inverse(stack, [0], str)
        scale = np.abs(want).max(axis=(1, 2))
        assert (np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * scale).all()
        if dofs == 1:
            assert got.tobytes() == want.tobytes()

    # a rank-deficient covariance plus the 1e-12 jitter has a condition
    # number near 1e12, so both routes lose digits; the kernel may not lose
    # notably more than LAPACK
    @pytest.mark.parametrize("dofs", [1, 2, 3])
    def test_as_accurate_as_lapack_on_jittered_rank_deficient_slices(self, dofs):
        rng = np.random.default_rng(20 + dofs)
        b = rng.standard_normal((1000, dofs, dofs - 1))
        stack = b @ b.transpose(0, 2, 1) + 1e-12 * np.eye(dofs)
        stack = 0.5 * (stack + stack.transpose(0, 2, 1))
        kernel_counter, lapack_counter = [0], [0]
        routes = (_inverse_stack(stack, kernel_counter, str),
                  reference.lapack_spd_inverse(stack, lapack_counter, str))
        assert kernel_counter == lapack_counter == [0]
        kernel, lapack = (np.array([_scaled_error(got, mat) for got, mat in zip(route, stack)])
                          for route in routes)
        assert np.median(kernel) <= 1.5 * np.median(lapack)
        assert kernel.max() <= 1.5 * lapack.max()

    def test_combine_and_blend_call_no_lapack_inverse(self, monkeypatch):
        rng = np.random.default_rng(11)
        cases = []
        for dofs in (1, 2, 3):
            times = np.linspace(0.0, 1.0, 30)
            seqs = [_random_sequence(rng, times, dofs) for _ in range(3)]
            values = rng.uniform(0.05, 1.0, size=(3, 30))
            values[1:, :10] = 0.0
            cases.append((seqs, ActivationProfile(times, values), falling_ramp(times, 0.2, 0.8)))

        def refuse(*args, **kwargs):
            raise AssertionError("a LAPACK inverse was called")

        for name in ("cholesky", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for seqs, profile, ramp in cases:
            for out in (combine(seqs, profile), blend(seqs[0], seqs[1], ramp)):
                assert np.isfinite(out.covs).all() and np.isfinite(out.means).all()

    def test_jitter_stays_on_the_failing_slices(self):
        # each of these factors in exact arithmetic, so one pivot is exactly 0
        deficient = {17: [[1.0, 2.0, 2.0], [2.0, 4.0, 4.0], [2.0, 4.0, 4.0]],
                     600: [[4.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 1.0]],
                     1111: [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]}
        rng = np.random.default_rng(12)
        times = np.linspace(0.0, 1.0, 1200)
        seq_a = _random_sequence(rng, times, dofs=3)
        seq_b = _random_sequence(rng, times, dofs=3)
        covs = seq_a.covs.copy()
        for i, mat in deficient.items():
            covs[i] = mat
        seq_a = GaussianSequence(times, seq_a.means, covs)
        failing = sum(reference.spd_inverse_one(mat) is None
                      for seq in (seq_a, seq_b) for mat in seq.covs)
        out = blend(seq_a, seq_b, np.full(1200, 0.5))
        assert out.meta["jitter_applied"] == failing == len(deficient)

        keep = np.setdiff1d(np.arange(1200), list(deficient))
        alone = blend(*(GaussianSequence(times[keep], seq.means[keep], seq.covs[keep])
                        for seq in (seq_a, seq_b)), np.full(keep.size, 0.5))
        assert alone.meta["jitter_applied"] == 0
        assert out.means[keep].tobytes() == alone.means.tobytes()
        assert out.covs[keep].tobytes() == alone.covs.tobytes()


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
