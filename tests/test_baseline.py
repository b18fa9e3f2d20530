"""Tests for the direct and SVD denominator solvers."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padepencil import (
    Collapse,
    Conformation,
    DegenerateError,
    PowerSeries,
    RationalApproximant,
    dm_denominator,
    gen_from_poles,
    gen_geometric_noisy,
    numerator_from_denominator,
    svd_denominator,
)
from padepencil.baseline import combined_window

from helpers import (
    gen_quadratic_eps,
    list_combined_window,
    maclaurin_of_rational,
    random_oracle,
    toeplitz_dm_denominator,
    toeplitz_svd_denominator,
)


class TestConformation:
    def test_coefficient_count(self):
        assert Conformation(m=3, k=0).n == 7
        assert Conformation(m=10, k=-1).n == 20
        assert Conformation(m=2, k=5).n == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            Conformation(m=-1, k=0)
        with pytest.raises(ValueError):
            Conformation(m=2, k=-4)  # numerator degree below -1


class TestRationalApproximant:
    def test_stores_complex_arrays(self):
        ra = RationalApproximant([1.0, 2.0], [1.0, -1.0])
        assert ra.numer.dtype == complex
        assert ra.denom.dtype == complex

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalApproximant([1.0], [0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(Exception):
            RationalApproximant([np.inf], [1.0])


class TestDmDenominator:
    def test_geometric_single_pole(self):
        s = gen_geometric_noisy(4, 0.0)
        b = dm_denominator(s, Conformation(m=1, k=1))
        np.testing.assert_allclose(b, [1.0, -1.0], atol=1e-14)

    def test_empty_denominator_when_m_zero(self):
        s = PowerSeries([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(dm_denominator(s, Conformation(m=0, k=2)), [1.0])

    def test_degenerate_quadratic_raises(self):
        # ones with c_2 exactly 1: the 1x1 system has a zero pivot
        s = gen_quadratic_eps(0.0)
        with pytest.raises(DegenerateError):
            dm_denominator(s, Conformation(m=1, k=0))

    def test_overfitted_pole_count_is_degenerate(self):
        # a single-pole series fit with m >= 2 makes the Toeplitz matrix
        # exactly rank one
        s = gen_geometric_noisy(10, 0.0)
        for m, k in [(2, 0), (3, -1), (4, 1)]:
            with pytest.raises(DegenerateError):
                dm_denominator(s, Conformation(m=m, k=k))

    def test_recovers_denominator_of_rational_oracle(self):
        from numpy.polynomial import polynomial as npoly

        rng = np.random.default_rng(13)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(-1, 3))
            poles, weights = random_oracle(rng, m)
            denom = npoly.polyfromroots(poles)
            denom = denom / denom[0]
            conf = Conformation(m=m, k=k)
            s = gen_from_poles(poles, weights, conf.n)
            b = dm_denominator(s, conf)
            np.testing.assert_allclose(b / b[0], denom, atol=1e-7 * np.abs(denom).max())

    def test_insufficient_coefficients(self):
        from padepencil import InsufficientCoefficients

        s = PowerSeries([1.0, 1.0, 1.0])
        with pytest.raises(InsufficientCoefficients):
            dm_denominator(s, Conformation(m=3, k=0))


class TestSvdDenominator:
    def test_matches_dm_when_well_conditioned(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            m = int(rng.integers(1, 5))
            poles, weights = random_oracle(rng, m)
            conf = Conformation(m=m, k=0)
            s = gen_from_poles(poles, weights, conf.n)
            b_dm = dm_denominator(s, conf)
            b_svd = svd_denominator(s, conf)
            np.testing.assert_allclose(b_svd / b_svd[0], b_dm / b_dm[0], atol=1e-8)

    def test_null_vector_property(self):
        rng = np.random.default_rng(19)
        poles, weights = random_oracle(rng, 3)
        conf = Conformation(m=3, k=1)
        s = gen_from_poles(poles, weights, conf.n)
        b = svd_denominator(s, conf)
        # rebuild the m x (m+1) coefficient matrix and check C b ~ 0
        rows = [[s.coeffs[conf.m + conf.k + 1 + r - j] for j in range(conf.m + 1)]
                for r in range(conf.m)]
        C = np.array(rows, dtype=complex)
        assert np.linalg.norm(C @ b) <= 1e-10 * np.linalg.norm(C)

    def test_degenerate_quadratic_returns_monomial(self):
        # where the direct solve fails outright, the null vector is (0, 1)
        s = gen_quadratic_eps(0.0)
        b = svd_denominator(s, Conformation(m=1, k=0))
        assert abs(b[0]) <= 1e-14
        assert b[1] == 1.0

    def test_largest_entry_normalised_to_one(self):
        rng = np.random.default_rng(23)
        poles, weights = random_oracle(rng, 2)
        conf = Conformation(m=2, k=0)
        s = gen_from_poles(poles, weights, conf.n)
        b = svd_denominator(s, conf)
        assert np.abs(b).max() == pytest.approx(1.0, abs=1e-15)


class TestNumeratorFromDenominator:
    def test_geometric_numerator(self):
        s = gen_geometric_noisy(4, 0.0)
        conf = Conformation(m=1, k=1)
        a = numerator_from_denominator(s, [1.0, -1.0], conf)
        # (1 - z) * (1 + z + z^2 + ...) = 1, carried to degree m + k = 2
        np.testing.assert_allclose(a, [1.0, 0.0, 0.0], atol=1e-14)

    def test_two_pole_example(self):
        conf = Conformation(m=2, k=-1)
        s = gen_from_poles([2.0, -1.0], [1.0, 3.0], conf.n)
        a = numerator_from_denominator(s, [1.0, 0.5, -0.5], conf)
        np.testing.assert_allclose(a, [4.0, -0.5], atol=1e-12)

    def test_unit_denominator_passes_head_through(self):
        s = PowerSeries([3.0, 1.0, 4.0, 1.0, 5.0])
        a = numerator_from_denominator(s, [1.0], Conformation(m=0, k=2))
        np.testing.assert_allclose(a, [3.0, 1.0, 4.0])

    def test_negative_degree_collapses(self):
        # a filtering-shrunk degree-0 denominator under k = -2 leaves no
        # numerator terms at all
        s = PowerSeries([1.0, 1.0, 1.0])
        with pytest.raises(Collapse):
            numerator_from_denominator(s, [1.0], Conformation(m=2, k=-2))

    def test_round_trip_matches_series(self):
        # numer/denom from the solver must reproduce the input series
        # through order n-1
        rng = np.random.default_rng(29)
        for _ in range(6):
            m = int(rng.integers(1, 4))
            poles, weights = random_oracle(rng, m)
            conf = Conformation(m=m, k=int(rng.integers(-1, 2)))
            s = gen_from_poles(poles, weights, conf.n)
            b = dm_denominator(s, conf)
            a = numerator_from_denominator(s, b, conf)
            again = maclaurin_of_rational(a, b, conf.n)
            np.testing.assert_allclose(again, s.coeffs, atol=1e-7 * np.abs(s.coeffs).max())


@st.composite
def window_cases(draw):
    """A series and a conformation [m+k/m] at size l, m 1-40, k from -m
    (so leading window entries are the zeros of negative indices) up to
    5.  Coefficients are random with magnitudes 1e-3..1e3, noisy
    1/(1-z), or either with some entries exactly zero."""
    m = draw(st.integers(1, 40))
    k = draw(st.integers(-m, 5))
    l = draw(st.integers(1, m))
    n = 2 * m + k + 1 + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        c = 10.0 ** rng.uniform(-3, 3, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    else:
        c = 1.0 + 1e-6 * rng.uniform(-1, 1, n)
    if draw(st.booleans()):
        c = np.where(rng.uniform(size=n) < 0.2, 0.0, c)
    return PowerSeries(c), Conformation(m, k), l


def _outcome(solve, s, conf):
    """Result bits, or the error type and message."""
    try:
        return solve(s, conf).view(np.int64).tolist()
    except DegenerateError as exc:
        return type(exc), str(exc)


class TestOneWindow:
    """The direct and SVD systems read the Hankel window with its columns
    reversed, bit for bit as the Toeplitz matrices they were built from."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(window_cases())
    def test_bitwise_against_toeplitz(self, case):
        s, conf, l = case
        H = combined_window(s, conf, l)
        assert H.dtype == complex
        np.testing.assert_array_equal(H.view(np.int64), list_combined_window(s, conf, l).view(np.int64))
        assert _outcome(dm_denominator, s, conf) == _outcome(toeplitz_dm_denominator, s, conf)
        assert _outcome(svd_denominator, s, conf) == _outcome(toeplitz_svd_denominator, s, conf)
