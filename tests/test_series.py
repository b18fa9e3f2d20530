"""Tests for truncated power-series containers and generators."""

import numpy as np
import pytest

from padepencil import (
    NonFinite,
    PowerSeries,
    gen_from_poles,
    gen_geometric_noisy,
    gen_log_series,
    horner,
)

from helpers import gen_quadratic_eps, maclaurin_of_rational


class TestPowerSeries:
    def test_basic_container(self):
        s = PowerSeries([1.0, 2.0, 3.0])
        assert len(s) == 3
        assert s.coeff(0) == 1.0
        assert s.coeff(2) == 3.0
        assert s.t == 15.0

    def test_negative_index_reads_zero(self):
        s = PowerSeries([1.0, 2.0])
        assert s.coeff(-1) == 0.0
        assert s.coeff(-7) == 0.0

    def test_out_of_range_index_raises(self):
        s = PowerSeries([1.0, 2.0])
        with pytest.raises(IndexError):
            s.coeff(2)

    def test_coefficients_are_read_only(self):
        s = PowerSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            PowerSeries([1.0, np.nan])
        with pytest.raises(NonFinite):
            PowerSeries([np.inf, 1.0])

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            PowerSeries([1.0], t=0.0)
        with pytest.raises(ValueError):
            PowerSeries([1.0], t=-3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries([])

    def test_truncate(self):
        s = PowerSeries([1.0, 2.0, 3.0, 4.0], t=9.0)
        head = s.truncate(2)
        assert len(head) == 2
        assert head.t == 9.0
        np.testing.assert_allclose(head.coeffs, [1.0, 2.0])
        with pytest.raises(ValueError):
            s.truncate(0)
        with pytest.raises(ValueError):
            s.truncate(5)


class TestEvalTruncated:
    def test_constant_term_at_origin(self):
        s = PowerSeries([7.0, 1.0, 1.0])
        assert horner(s.coeffs, 0.0) == 7.0

    def test_finite_geometric_sum(self):
        s = PowerSeries(np.ones(8))
        z = 0.5
        expected = (1 - z**8) / (1 - z)
        assert abs(horner(s.coeffs, z) - expected) < 1e-14

    def test_matches_long_division_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            numer = rng.normal(size=3)
            denom = np.concatenate([[1.0], rng.uniform(-0.4, 0.4, 2)])
            c = maclaurin_of_rational(numer, denom, 40)
            z = rng.uniform(-0.5, 0.5)
            direct = np.polyval(numer[::-1], z) / np.polyval(denom[::-1], z)
            assert abs(horner(PowerSeries(c).coeffs, z) - direct) < 1e-10


class TestGeometricNoisy:
    def test_exact_when_noise_free(self):
        s = gen_geometric_noisy(12, 0.0)
        np.testing.assert_array_equal(s.coeffs, np.ones(12))
        assert s.t == 15.0

    def test_noise_is_bounded_and_tagged(self):
        s = gen_geometric_noisy(50, 1e-6, rng=np.random.default_rng(3))
        dev = np.abs(s.coeffs - 1.0)
        assert dev.max() <= 1e-6
        assert dev.max() > 1e-8  # noise actually applied
        assert s.t == pytest.approx(6.0)

    def test_reproducible_from_seed(self):
        a = gen_geometric_noisy(20, 1e-3, rng=np.random.default_rng(42))
        b = gen_geometric_noisy(20, 1e-3, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_rng_required_when_noisy(self):
        with pytest.raises(ValueError):
            gen_geometric_noisy(10, 1e-6)


class TestLogSeries:
    def test_leading_coefficients(self):
        s = gen_log_series(6)
        assert s.coeff(0) == pytest.approx(np.log(1.2))
        assert s.coeff(1) == pytest.approx(-1.0 / 1.2)
        assert s.coeff(5) == pytest.approx(-(1.0 / 5.0) * (1.0 / 1.2) ** 5)

    def test_partial_sum_approximates_log(self):
        # log(1.2 - z) converges well inside |z| < 1.2
        s = gen_log_series(41)
        for z in (0.3, -0.5, 0.2j):
            expected = np.log(1.2 - z)
            assert abs(horner(s.coeffs, z) - expected) < 1e-12


class TestFromPoles:
    def test_two_pole_example(self):
        s = gen_from_poles([2.0, -1.0], [1.0, 3.0], 4)
        np.testing.assert_allclose(s.coeffs, [4.0, -2.5, 3.25, -2.875], atol=1e-15)

    def test_matches_long_division_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            poles, weights = rng.uniform(1.0, 3.0, 2), rng.normal(size=2)
            # sum_j w_j/(1 - z/p_j) written over a common denominator
            numer = [weights[0] + weights[1],
                     -(weights[0] / poles[1] + weights[1] / poles[0])]
            denom = [1.0, -(1 / poles[0] + 1 / poles[1]), 1 / (poles[0] * poles[1])]
            expected = maclaurin_of_rational(numer, denom, 12)
            got = gen_from_poles(poles, weights, 12)
            np.testing.assert_allclose(got.coeffs, expected, atol=1e-12)

    def test_zero_pole_rejected(self):
        with pytest.raises(ValueError):
            gen_from_poles([1.0, 0.0], [1.0, 1.0], 5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gen_from_poles([1.0, 2.0], [1.0], 5)


def test_quadratic_eps_triple():
    s = gen_quadratic_eps(1e-8)
    np.testing.assert_allclose(s.coeffs, [1.0, 1e-8, 1.0])
    exact = gen_quadratic_eps(0.0)
    np.testing.assert_array_equal(exact.coeffs, [1.0, 0.0, 1.0])
