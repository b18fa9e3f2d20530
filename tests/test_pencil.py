"""Tests for the matrix-pencil pole solver and pole-residue algebra."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padepencil import (
    Collapse,
    Conformation,
    DuplicatePole,
    InsufficientCoefficients,
    NonFinite,
    PoleResidueForm,
    PowerSeries,
    RankDeficient,
    SingularVandermonde,
    dm_denominator,
    eval_pole_residue,
    eval_rational,
    gen_from_poles,
    gen_geometric_noisy,
    gen_log_series,
    pm1,
)
from padepencil.baseline import combined_window
from padepencil.numerics import qr_solve
from padepencil.pencil import build_blocks, pm1_poles, pm1_residues, residue_system, to_rational

from helpers import (
    gen_quadratic_eps,
    greedy_match_error,
    loop_pole_residue_terms,
    polyfromroots_denominator,
    random_oracle,
)


class TestWindow:
    def test_small_example_blocks(self):
        s = PowerSeries([1.0, 2.0, 3.0, 4.0])
        conf = Conformation(m=2, k=-1)
        H = combined_window(s, conf, 2)
        np.testing.assert_array_equal(H, [[1, 2, 3], [2, 3, 4]])
        window = build_blocks(s, conf)
        np.testing.assert_array_equal(window[:, :-1], [[1, 2], [2, 3]])
        np.testing.assert_array_equal(window[:, 1:], [[2, 3], [3, 4]])
        assert window[:, :-1].shape == (2, 2)

    def test_window_shape_follows_l(self):
        s = PowerSeries(np.arange(1.0, 9.0))
        conf = Conformation(m=4, k=-1)
        assert combined_window(s, conf, 2).shape == (6, 3)
        for l in (0, 5):
            with pytest.raises(ValueError):
                combined_window(s, conf, l)

    def test_negative_offsets_read_zero(self):
        s = PowerSeries([5.0, 6.0, 7.0])
        H = combined_window(s, Conformation(m=2, k=-2), 2)
        np.testing.assert_array_equal(H, [[0, 5, 6], [5, 6, 7]])

    def test_too_short_series_raises(self):
        s = PowerSeries([1.0, 2.0, 3.0])
        with pytest.raises(InsufficientCoefficients):
            combined_window(s, Conformation(m=3, k=0), 3)


class TestPoles:
    def test_geometric_single_pole(self):
        s = gen_geometric_noisy(2, 0.0)
        poles = pm1_poles(build_blocks(s, Conformation(m=1, k=-1)))
        np.testing.assert_allclose(poles, [1.0], atol=1e-14)

    def test_poles_sorted_by_magnitude_then_phase(self):
        true = np.array([1j, -1.0, 2.0])
        conf = Conformation(m=3, k=-1)
        s = gen_from_poles(true, [1.0, 1.0, 1.0], conf.n)
        poles = pm1_poles(build_blocks(s, conf))
        np.testing.assert_allclose(poles, true, atol=1e-9)

    def test_rank_deficient_pencil_raises_by_default(self):
        s = gen_log_series(41)
        window = build_blocks(s, Conformation(m=20, k=0))
        with pytest.raises(RankDeficient):
            pm1_poles(window)

    def test_rank_check_can_be_disabled(self):
        s = gen_log_series(41)
        window = build_blocks(s, Conformation(m=20, k=0))
        poles = pm1_poles(window, rank_rtol=0.0)
        assert poles.size == 20
        assert np.all(np.isfinite(poles))

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        true, weights = random_oracle(rng, 3)
        conf = Conformation(m=3, k=0)
        s = gen_from_poles(true, weights, conf.n)
        scaled = PowerSeries(137.0386 * s.coeffs)
        p1 = pm1_poles(build_blocks(s, conf))
        p2 = pm1_poles(build_blocks(scaled, conf))
        np.testing.assert_allclose(p1, p2, atol=1e-12 * np.abs(p1).max())


class TestResidues:
    def test_geometric_weight(self):
        s = gen_geometric_noisy(2, 0.0)
        e = pm1_residues(s, [1.0], Conformation(m=1, k=-1))
        np.testing.assert_allclose(e, [1.0], atol=1e-14)

    def test_two_pole_square_and_least_squares(self):
        conf = Conformation(m=2, k=-1)
        s = gen_from_poles([2.0, -1.0], [1.0, 3.0], conf.n)
        e_sq = pm1_residues(s, [2.0, -1.0], conf)
        e_ls = qr_solve(*residue_system(s, [2.0, -1.0], conf, use_all_rows=True))
        np.testing.assert_allclose(e_sq, [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(e_ls, [1.0, 3.0], atol=1e-12)

    def test_origin_pole_tolerated_only_in_trivial_row(self):
        s = PowerSeries([1.0, 1.0, 1.0])
        conf = Conformation(m=1, k=0)
        # single square row never inverts the pole
        e = pm1_residues(s, [0.0], conf)
        np.testing.assert_allclose(e, [1.0])
        D, _ = residue_system(s, [0.0], conf, use_all_rows=True)
        assert not np.all(np.isfinite(D))
        with pytest.raises(SingularVandermonde):
            pm1_residues(s, [0.0, 2.0], conf)

    def test_coincident_poles_raise(self):
        conf = Conformation(m=2, k=-1)
        s = gen_from_poles([2.0, -1.0], [1.0, 3.0], conf.n)
        with pytest.raises(SingularVandermonde):
            pm1_residues(s, [2.0, 2.0 * (1 + 1e-16)], conf)

    def test_empty_pole_list_rejected(self):
        s = PowerSeries([1.0, 1.0])
        with pytest.raises(ValueError):
            pm1_residues(s, [], Conformation(m=1, k=-1))


def form_of(terms) -> PoleResidueForm:
    """The form with no head and the given (pole, weight) pairs."""
    return PoleResidueForm(head=[], poles=[p for p, _ in terms], weights=[e for _, e in terms])


def pairs_of(prf: PoleResidueForm) -> tuple:
    """The form's terms as (pole, weight) pairs of Python complex numbers."""
    return tuple(zip(prf.poles.tolist(), prf.weights.tolist()))


class TestPoleResidueForm:
    def test_terms_sorted(self):
        prf = PoleResidueForm(head=[], poles=[2.0, 1j, -1.0], weights=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(prf.poles, [1j, -1.0, 2.0])
        np.testing.assert_allclose(prf.weights, [2.0, 3.0, 1.0])

    def test_duplicate_pole_rejected(self):
        with pytest.raises(DuplicatePole):
            PoleResidueForm(head=[], poles=[1.0, 1.0 + 1e-14], weights=[1.0, 2.0])

    def test_arrays_are_read_only_and_counts_must_match(self):
        prf = PoleResidueForm(head=[1.0], poles=[2.0], weights=[3.0])
        for values in (prf.head, prf.poles, prf.weights):
            with pytest.raises(ValueError):
                values[0] = 0
        with pytest.raises(ValueError, match="2 poles but 1 weights"):
            PoleResidueForm(head=[], poles=[1.0, 2.0], weights=[1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            PoleResidueForm(head=[], poles=[np.inf], weights=[1.0])

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_duplicate_check_and_order_match_the_pairwise_loop(self, data):
        # Poles over 200 decades, some repeated with a relative offset
        # around the 1e-12 threshold or shared magnitudes (phase ties).
        n = data.draw(st.integers(0, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        poles = list(10.0 ** rng.uniform(-100, 100, n) * np.exp(2j * np.pi * rng.uniform(size=n)))
        for _ in range(data.draw(st.integers(0, 3))):
            if poles:
                p = poles[data.draw(st.integers(0, len(poles) - 1))]
                rel = data.draw(st.sampled_from([0.0, 1e-13, 9.9e-13, 1e-12, 1.01e-12, 1e-11]))
                twist = data.draw(st.sampled_from([1.0, 1j, -1.0, np.exp(0.3j)]))
                poles.insert(data.draw(st.integers(0, len(poles))), p * (1 + rel * twist))
        terms = [(p, complex(i, -i)) for i, p in enumerate(poles)]
        try:
            want = loop_pole_residue_terms(terms)
        except DuplicatePole as exc:
            with pytest.raises(DuplicatePole) as got:
                form_of(terms)
            assert str(got.value) == str(exc)
        else:
            assert pairs_of(form_of(terms)) == want

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_duplicate_check_at_the_band_edge_matches_the_pairwise_loop(self, data):
        # A pole is compared with the next ones in modulus up to the band
        # edge s(1+4e-12)+1e-300, and not at all when no neighbour lies
        # within it.  Real poles put moduli exactly at the edge, one ulp
        # inside or one outside, beside true duplicates and far poles.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 12))
        poles = list(10.0 ** rng.uniform(-305, 300, n) * rng.choice([-1.0, 1.0], n))
        for _ in range(data.draw(st.integers(1, 4))):
            s = abs(poles[data.draw(st.integers(0, len(poles) - 1))])
            edge = np.float64(s) * (1 + 4e-12) + 1e-300
            q = data.draw(st.sampled_from([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]))
            poles.insert(data.draw(st.integers(0, len(poles))), float(q) * data.draw(st.sampled_from([-1.0, 1.0])))
        if data.draw(st.booleans()):
            p = poles[data.draw(st.integers(0, len(poles) - 1))]
            rel = data.draw(st.sampled_from([9.9e-13, 1.01e-12]))
            poles.insert(data.draw(st.integers(0, len(poles))), p * (1 + rel))
        terms = [(p, complex(i, 1.0)) for i, p in enumerate(poles)]
        try:
            want = loop_pole_residue_terms(terms)
        except DuplicatePole as exc:
            with pytest.raises(DuplicatePole, match=f"^{re.escape(str(exc))}$"):
                form_of(terms)
        else:
            assert pairs_of(form_of(terms)) == want

    def test_duplicate_check_where_the_tolerance_underflows(self):
        # Below about 1e-296, 1e-12 of a modulus is subnormal or zero, so
        # the modulus band must not rely on a relative width alone.
        rng = np.random.default_rng(17)
        for _ in range(500):
            poles = list(10.0 ** rng.uniform(-323, -290, 4) * np.exp(2j * np.pi * rng.uniform(size=4)))
            p = poles[int(rng.integers(4))]
            step = complex(rng.choice([5e-324, -1e-323]), rng.choice([0.0, 5e-324]))
            poles.insert(int(rng.integers(5)), p + step)
            poles.insert(int(rng.integers(6)), p * (1 + rng.choice([9.9e-13, 1.01e-12])))
            terms = [(p, 1.0) for p in poles]
            try:
                want = loop_pole_residue_terms(terms)
            except DuplicatePole as exc:
                with pytest.raises(DuplicatePole, match=f"^{re.escape(str(exc))}$"):
                    form_of(terms)
            else:
                assert pairs_of(form_of(terms)) == want

    def test_moduli_near_overflow(self):
        # A finite pole whose modulus overflows is non-finite, alone or
        # not; a finite modulus near the largest double overflows no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for terms in ([(1.0, 1.0), (1.5e308 + 1.5e308j, 1.0), (2.0, 1.0)], [(1.5e308 + 1.5e308j, 1.0)]):
                with pytest.raises(NonFinite, match="pole moduli must be finite"):
                    form_of(terms)
            big = np.finfo(float).max
            prf = PoleResidueForm(head=[], poles=[big, -big, 1.0], weights=[1.0, 1.0, 1.0])
        assert prf.poles.tolist() == [1.0, big, -big]


class TestToRationalDenominator:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_bitwise_against_polyfromroots(self, data):
        # Distinct random, real, conjugate and origin poles.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 30))
        poles = list(10.0 ** rng.uniform(-3, 3, n) * np.exp(2j * np.pi * rng.uniform(size=n)))
        for _ in range(data.draw(st.integers(0, 4))):
            kind = data.draw(st.sampled_from(["real", "conjugate", "origin"]))
            new = {"real": complex(rng.uniform(-3, 3)), "origin": 0j, "conjugate": poles[0].conjugate()}
            poles.insert(data.draw(st.integers(0, len(poles))), new[kind])
        try:
            prf = PoleResidueForm(head=[], poles=poles, weights=[1.0] * len(poles))
        except DuplicatePole:
            return
        s = PowerSeries(rng.standard_normal(prf.poles.size) + 0j)
        denom = to_rational(prf, s, Conformation(m=prf.poles.size, k=-1)).denom
        np.testing.assert_array_equal(denom.view(np.int64), polyfromroots_denominator(prf.poles).view(np.int64))


class TestToRational:
    def test_two_pole_coefficients(self):
        conf = Conformation(m=2, k=-1)
        s = gen_from_poles([2.0, -1.0], [1.0, 3.0], conf.n)
        prf, ra, _ = pm1(s, conf)
        np.testing.assert_allclose(ra.numer, [4.0, -0.5], atol=1e-10)
        np.testing.assert_allclose(ra.denom, [1.0, 0.5, -0.5], atol=1e-10)

    def test_origin_pole_gives_monomial_over_monomial(self):
        s = gen_quadratic_eps(0.0)
        prf, ra, _ = pm1(s, Conformation(m=1, k=0))
        np.testing.assert_allclose(prf.poles, [0.0], atol=1e-14)
        # denominator vanishes at 0, so the largest entry is scaled to 1
        np.testing.assert_allclose(ra.denom, [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(ra.numer, [0.0, 1.0], atol=1e-14)

    def test_head_only_form(self):
        s = PowerSeries([3.0, 1.0, 4.0])
        conf = Conformation(m=0, k=1)
        prf = PoleResidueForm(head=[3.0, 1.0], poles=(), weights=())
        assert prf.shift == 2
        ra = to_rational(prf, s, conf)
        np.testing.assert_allclose(ra.numer, [3.0, 1.0])
        np.testing.assert_allclose(ra.denom, [1.0])

    def test_empty_form_with_negative_offset_collapses(self):
        s = PowerSeries([1.0, 1.0])
        conf = Conformation(m=1, k=-1)
        prf = PoleResidueForm(head=[], poles=(), weights=())
        with pytest.raises(Collapse):
            to_rational(prf, s, conf)


class TestPm1Composed:
    def test_round_trip_recovers_poles_and_values(self):
        rng = np.random.default_rng(37)
        for _ in range(12):
            m = int(rng.integers(1, 6))
            k = int(rng.integers(-1, 3))
            true_p, true_w = random_oracle(rng, m)
            conf = Conformation(m=m, k=k)
            s = gen_from_poles(true_p, true_w, conf.n)
            prf, ra, _ = pm1(s, conf)
            assert greedy_match_error(prf.poles, true_p) < 1e-7
            if k == -1:
                # only the plain partial-fraction offset reproduces the
                # generating weights; other offsets absorb d_j^{k+1}
                for p, w in zip(true_p, true_w):
                    j = int(np.argmin(np.abs(prf.poles - p)))
                    assert abs(prf.weights[j] - w) < 1e-7 * abs(w)
            for ang in (0.3, 2.1, 4.0):
                z = 0.3 * np.min(np.abs(true_p)) * np.exp(1j * ang)
                want = np.sum(true_w / (1.0 - z / true_p))
                got = eval_pole_residue(prf, z)
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want))

    def test_both_forms_evaluate_identically(self):
        rng = np.random.default_rng(41)
        true_p, true_w = random_oracle(rng, 3, radial_center=1.5)
        for k in (-1, 0, 2):
            conf = Conformation(m=3, k=k)
            s = gen_from_poles(true_p, true_w, conf.n)
            prf, ra, _ = pm1(s, conf)
            for _ in range(10):
                z = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
                a = eval_pole_residue(prf, z)
                b = eval_rational(ra, z)
                assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)

    def test_denominator_matches_direct_method(self):
        rng = np.random.default_rng(43)
        true_p, true_w = random_oracle(rng, 4)
        conf = Conformation(m=4, k=0)
        s = gen_from_poles(true_p, true_w, conf.n)
        b_dm = dm_denominator(s, conf)
        _, ra, _ = pm1(s, conf)
        np.testing.assert_allclose(ra.denom / ra.denom[0], b_dm / b_dm[0],
                                   atol=1e-9 * np.abs(b_dm / b_dm[0]).max())
