"""Tests for the iterated spurious-pole filter."""

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padepencil import (
    Collapse,
    Conformation,
    ConvergenceFailure,
    PowerSeries,
    eval_rational,
    gen_from_poles,
    gen_geometric_noisy,
    gen_log_series,
    pm2,
)
from padepencil import filtering, numerics, pencil
from padepencil.errors import RankDeficient
from padepencil.filtering import count_filtered, reduced_poles
from padepencil.pencil import vandermonde_accepts
from padepencil.numerics import singular_values, svd
from padepencil.pencil import combined_window, pm1_poles

from helpers import (
    coefficient_residual,
    gen_quadratic_eps,
    greedy_match_error,
    mp_pencil,
    pm2_cases,
    random_oracle,
    wide_series,
)


def vandermonde(poles, rows):
    """Rows x len(poles) matrix with entry p_j^-r at (r, j)."""
    return (1.0 / np.asarray(poles, dtype=complex)) ** np.arange(rows)[:, None]


def sigma_ratio(D):
    sigma = singular_values(D)
    return sigma[-1] / sigma[0]


class TestCountFiltered:
    def test_threshold_arithmetic(self):
        assert count_filtered([1.0, 1e-5], t=4) == 1
        assert count_filtered([1.0, 0.5, 0.3], t=14) == 0
        assert count_filtered([1.0, 1e-15], t=14) == 1
        assert count_filtered([1.0, 1e-15], t=16) == 0

    def test_zero_leading_value_keeps_one_direction(self):
        assert count_filtered([0.0, 0.0], t=14) == 1
        assert count_filtered([0.0], t=14) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            count_filtered([], t=14)

    @pytest.mark.parametrize("t", [-309, -400, -308.3, -(10**400)], ids=["-309", "-400", "-308.3", "-10**400"])
    def test_t_whose_threshold_overflows_is_a_value_error(self, t):
        with pytest.raises(ValueError, match=r"^accuracy t = -"):
            count_filtered([1.0, 0.5], t)
        with pytest.raises(ValueError, match=r"^accuracy t = -"):
            vandermonde_accepts(np.ones((3, 2)), t)

    def test_results_at_the_edge_of_the_accepted_t(self):
        # 10^308 is finite; a NaN t filters nothing and -inf everything;
        # an all-zero spectrum and a non-finite D need no threshold.
        assert count_filtered([1.0, 0.5], -308) == 2
        assert count_filtered([1.0, 0.5], 0) == 1
        assert count_filtered([1.0, 0.5], np.nan) == 0
        assert count_filtered([1.0, 0.5], -np.inf) == 2
        assert count_filtered([0.0, 0.0], -400) == 1
        assert not vandermonde_accepts(np.full((3, 2), np.nan), -400)
        assert not vandermonde_accepts(np.ones((3, 2)), 0)
        assert vandermonde_accepts(np.ones((3, 2)), np.nan)

    def test_rank_one_window(self):
        # 1-pole series fit with m=5: all but one direction filterable
        s = gen_geometric_noisy(10, 0.0)
        H = combined_window(s, Conformation(m=5, k=-1), 5)
        assert count_filtered(svd(H).sigma, t=12) == 4


class TestReducedPoles:
    def test_geometric_pole(self):
        s = gen_geometric_noisy(2, 0.0)
        H = combined_window(s, Conformation(m=1, k=-1), 1)
        np.testing.assert_allclose(reduced_poles(svd(H)), [1.0], atol=1e-14)

    def test_degenerate_quadratic_origin_pole(self):
        s = gen_quadratic_eps(0.0)
        H = combined_window(s, Conformation(m=1, k=0), 1)
        np.testing.assert_allclose(reduced_poles(svd(H)), [0.0], atol=1e-14)

    def test_equivalent_to_plain_pencil(self):
        # with l = m and nothing filtered the reduced eigenproblem is the
        # plain pencil in different coordinates
        rng = np.random.default_rng(47)
        true_p, true_w = random_oracle(rng, 2)
        conf = Conformation(m=2, k=-1)
        s = gen_from_poles(true_p, true_w, conf.n)
        lam = reduced_poles(svd(combined_window(s, conf, conf.m)))
        direct = pm1_poles(combined_window(s, conf, conf.m))
        np.testing.assert_allclose(lam, direct, atol=1e-9 * np.abs(direct).max())

    def test_single_column_window_rejected(self):
        with pytest.raises(ValueError):
            reduced_poles(svd(np.ones((3, 1))))


class TestVandermondeAccepts:
    def test_distinct_wide_poles_pass_only_once_equilibrated(self):
        # Moduli 0.05 to 60: the columns' scales d^23 span 30 decades, so
        # the raw ratio fails, while the poles themselves are far apart.
        poles = np.array([0.05, 0.3, 1.5, 8.0, 60.0]) * np.exp(1j * np.array([0.3, 2.0, -1.0, 2.8, -2.4]))
        D = vandermonde(poles, 24)
        assert sigma_ratio(D) < 1e-15
        assert sigma_ratio(D / np.abs(D).max(axis=0)) > 1e-10
        assert vandermonde_accepts(D, 15.0)

    def test_near_coincident_pair_fails_both_ratios(self):
        poles = np.array([0.5, 0.5 * (1 + 1e-10), 2.0j, 40.0])
        D = vandermonde(poles, 12)
        assert sigma_ratio(D) < 1e-8
        assert sigma_ratio(D / np.abs(D).max(axis=0)) < 1e-8
        assert not vandermonde_accepts(D, 8.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(np.inf, np.nan)])
    def test_non_finite_d_fails_without_lapack(self, bad, monkeypatch, capfd):
        def no_lapack(D):
            raise AssertionError("a non-finite D reached LAPACK")

        monkeypatch.setattr(pencil, "singular_values", no_lapack)
        D = vandermonde([0.5, 2.0], 6)
        D[5, 0] = bad
        assert not vandermonde_accepts(D, 15.0)
        out, err = capfd.readouterr()
        assert out + err == ""

    def test_a_raw_pass_takes_one_look(self, monkeypatch):
        # What the raw ratio accepts costs one SVD, as it did before the
        # equilibrated look; a raw failure costs exactly one more.
        calls = []

        def counted(D):
            calls.append(D.shape)
            return singular_values(D)

        monkeypatch.setattr(pencil, "singular_values", counted)
        assert vandermonde_accepts(vandermonde([0.8, 1.2j, -1.5], 10), 15.0)
        assert calls == [(10, 3)]
        calls.clear()
        assert not vandermonde_accepts(vandermonde([0.5, 0.5 * (1 + 1e-10), 2.0j], 10), 8.0)
        assert calls == [(10, 3), (10, 3)]

    @pytest.mark.parametrize("t", [400.0, np.inf])
    def test_zero_threshold_passes_every_finite_d_without_lapack(self, t, monkeypatch):
        # 10^-t is 0, so sigma_min >= 0 passes a near-coincident pair too,
        # as pm1's residue step at t = inf needs; a non-finite D still fails.
        def no_lapack(D):
            raise AssertionError("a zero threshold reached LAPACK")

        monkeypatch.setattr(pencil, "singular_values", no_lapack)
        D = vandermonde([0.5, 0.5 * (1 + 1e-10), 2.0j], 10)
        assert vandermonde_accepts(D, t)
        D[9, 0] = np.inf
        assert not vandermonde_accepts(D, t)

    @pytest.mark.parametrize("t", [-308.0, -308.2])
    def test_threshold_times_sigma_max_overflows_quietly(self, t):
        # 10^-t is finite, but 10^-t sigma_max is not: the comparison
        # reads inf and rejects D, with no overflow warning.
        assert not vandermonde_accepts(np.ones((3, 2)), t)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_finite_column_agrees_with_the_ratio_rule(self, data):
        # Moduli from 1e-300 to 1e308, zeros among them, so that some
        # columns' 2-norms overflow; t from 0 to 400, and NaN.
        rows = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        moduli = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-300, 308).map(lambda e: 10.0**e)),
                                    min_size=rows, max_size=rows))
        D = (np.array(moduli) * np.exp(2j * np.pi * rng.uniform(size=rows)))[:, None]
        t = data.draw(st.one_of(st.floats(0, 400), st.just(np.nan)))
        tol = 10.0 ** (-t)
        dsig = singular_values(D)
        if dsig[-1] < tol * dsig[0]:
            dsig = singular_values(D * np.ldexp(1.0, -np.frexp(np.abs(D).max(axis=0))[1]))
        assert vandermonde_accepts(D, t) == (not dsig[-1] < tol * dsig[0])


class TestPm2:
    def test_degenerate_quadratic_becomes_constant(self):
        prf, ra, report = pm2(PowerSeries([1.0, 0.0, 1.0], t=14), Conformation(m=1, k=0))
        assert prf.poles.size == 0
        np.testing.assert_allclose(ra.numer, [1.0])
        np.testing.assert_allclose(ra.denom, [1.0])
        assert report.head_only
        assert report.final_l == 0
        np.testing.assert_allclose(report.origin_poles_removed, [0.0], atol=1e-14)

    def test_overfitted_geometric_collapses_to_one_pole(self):
        conf = Conformation(m=5, k=-1)
        s = gen_geometric_noisy(conf.n, 0.0)
        prf, ra, report = pm2(s, conf)
        np.testing.assert_allclose(prf.poles, [1.0], atol=1e-12)
        np.testing.assert_allclose(prf.weights, [1.0], atol=1e-12)
        assert [(it.l_before, it.n_s_removed) for it in report.iterations] == [(5, 4), (1, 0)]
        assert report.final_l == 1
        assert report.defect_estimate == 8

    def test_noiseless_oracle_keeps_exactly_the_true_poles(self):
        # the filter must settle on the true pole count, not overshoot
        rng = np.random.default_rng(51)
        true_p, true_w = random_oracle(rng, 3)
        conf = Conformation(m=6, k=-1)
        s = replace(gen_from_poles(true_p, true_w, conf.n), t=12)
        prf, ra, report = pm2(s, conf)
        assert prf.poles.size == 3
        assert greedy_match_error(prf.poles, true_p) < 1e-7
        assert greedy_match_error(prf.weights, true_w) < 1e-7
        assert [(it.l_before, it.n_s_removed) for it in report.iterations] == [(6, 3), (3, 0)]

    def test_noiseless_exactness_sweep(self):
        rng = np.random.default_rng(1009)
        for _ in range(12):
            m_true = int(rng.integers(1, 6))
            m = m_true + int(rng.integers(1, 4))
            true_p, true_w = random_oracle(rng, m_true)
            conf = Conformation(m=m, k=int(rng.integers(-1, 2)))
            s = replace(gen_from_poles(true_p, true_w, conf.n), t=12)
            prf, _, _ = pm2(s, conf)
            assert prf.poles.size == m_true
            assert greedy_match_error(prf.poles, true_p) < 1e-7

    def test_overdetermined_residual_is_small(self):
        rng = np.random.default_rng(53)
        true_p, true_w = random_oracle(rng, 3)
        conf = Conformation(m=6, k=-1)
        s = gen_from_poles(true_p, true_w, conf.n)
        prf, _, _ = pm2(s, conf)
        assert coefficient_residual(s, conf, prf) <= 10.0 ** (-s.t + 2)

    def test_noisy_geometric_single_pole(self):
        s = gen_geometric_noisy(20, 1e-6, rng=np.random.default_rng(7))
        prf, ra, report = pm2(s, Conformation(m=10, k=-1))  # s.t = -log10(eps) = 6
        assert prf.poles.size == 1
        assert abs(prf.poles[0] - 1.0) <= 100 * 1e-6
        assert report.defect_estimate == 2 * (10 - report.final_l)

    def test_accuracy_is_read_from_the_series(self):
        # The same noisy coefficients trusted to 15 digits keep noise
        # directions that t = 6 filters away.
        s = gen_geometric_noisy(20, 1e-6, rng=np.random.default_rng(7))
        conf = Conformation(m=10, k=-1)
        assert pm2(s, conf).report.final_l == 1
        assert pm2(replace(s, t=15), conf).report.final_l > 1

    def test_log_series_poles_settle_on_branch_cut(self):
        prf, ra, report = pm2(replace(gen_log_series(41), t=14), Conformation(m=20, k=0))
        assert report.final_l == 11
        assert ra.denom.size - 1 <= 14
        assert all(p.real >= 1.1 and abs(p.imag) <= 0.05 for p in prf.poles)
        assert [(it.l_before, it.n_s_removed) for it in report.iterations] == \
            [(20, 8), (12, 1), (11, 0)]

    def test_cubic_monomial_origin_poles_batched(self):
        # z^3 at [3/3]: the pencil produces origin poles only; the batched
        # drop removes both surviving ones in a single pass
        s = PowerSeries([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], t=14)
        conf = Conformation(m=3, k=0)
        prf, ra, report = pm2(s, conf)
        assert report.head_only
        assert [it.l_before for it in report.iterations] == [3, 2]
        np.testing.assert_allclose(report.origin_poles_removed, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(ra.numer, [0.0])
        np.testing.assert_allclose(ra.denom, [1.0])

    def test_degree_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="m >= 1"):
            pm2(PowerSeries([1.0, 2.0]), Conformation(m=0, k=1))

    def test_collapse_when_no_polynomial_part_remains(self):
        with pytest.raises(Collapse):
            pm2(PowerSeries([1.0, 0.0]), Conformation(m=1, k=-1))

    def test_head_only_collapse_names_k(self):
        with pytest.raises(Collapse, match=r"no poles left and k=-1 < 0 leaves no polynomial part"):
            pm2(PowerSeries([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), Conformation(m=3, k=-1))

    def test_negative_zero_series_gives_positive_zero_numerator(self):
        # The head is the series' own c_0, c_1, signed zeros included; the
        # zero approximant's numerator is +0.0 all the same.
        s = PowerSeries(np.full(10, -0.0))
        prf, ra, report = pm2(s, Conformation(m=4, k=1))
        assert report.head_only and prf.poles.size == 0
        assert np.signbit(prf.head.real).all() and prf.head.size == 2
        assert ra.numer.tolist() == [0j, 0j]
        assert not np.signbit(ra.numer.view(float)).any()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=pm2_cases())
    def test_every_pass_lowers_l(self, case):
        # Each pass returns or lowers l by at least one, so pm2 needs no
        # pass budget: the trajectory starts at m and strictly falls.
        s, conf, kind = case
        m = conf.m
        try:
            report = pm2(s, conf).report
        except Collapse:
            return
        ls = [it.l_before for it in report.iterations]
        assert len(ls) <= m
        assert all(a > b for a, b in zip(ls, ls[1:]))
        if kind == "zero":
            assert ls == [] and report.head_only
        else:
            assert ls[0] == m and report.final_l <= ls[-1]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=pm2_cases())
    def test_passes_account_for_every_reduction(self, case):
        # Each pass records its cause and the l it leaves: the drops of l
        # by cause sum to m - final_l, the report's counts are those of
        # its passes, and only an accepted last pass has no cause.
        s, conf, kind = case
        try:
            report = pm2(s, conf).report
        except Collapse:
            return
        its = report.iterations
        if not its:
            assert kind == "zero" and report.final_l == 0
            return
        for it, after in zip(its, its[1:]):
            assert it.cause is not None and it.l_after == after.l_before
        drops = Counter()
        for it in its:
            drops[it.cause] += it.l_before - it.l_after
        assert (its[-1].cause is None) == (report.final_l > 0)
        assert its[-1].l_after == report.final_l
        assert drops[None] == 0 and sum(drops.values()) == conf.m - report.final_l
        assert drops["rank_filter"] == sum(it.n_s_removed for it in its)
        assert drops["origin_drop"] == len(report.origin_poles_removed)
        assert drops["vandermonde"] == report.d_matrix_reductions

    def test_rank_deficient_retry_lowers_l_by_one(self, monkeypatch):
        # The first reduced pencil raises RankDeficient: that pass is
        # recorded as a retry that leaves l - 1, and the solve goes on
        # from there to an accepted pass.
        calls = []

        def deficient_once(sr):
            calls.append(sr)
            if len(calls) == 1:
                raise RankDeficient("reduced pencil lost rank")
            return reduced_poles(sr)

        monkeypatch.setattr(filtering, "reduced_poles", deficient_once)
        conf = Conformation(m=3, k=-1)
        s = replace(gen_from_poles([2.0, -3.0, 1.5j], [1.0, 0.5, 2.0], conf.n), t=12)
        prf, ra, report = pm2(s, conf)
        first, last = report.iterations[0], report.iterations[-1]
        assert (first.l_before, first.cause, first.l_after) == (3, "rank_deficient_retry", 2)
        assert last.cause is None and report.final_l == last.l_after == prf.poles.size >= 1
        assert len(calls) == len(report.iterations)
        assert np.all(np.isfinite(ra.denom))

    def test_zero_series_short_circuits(self):
        prf, ra, report = pm2(PowerSeries(np.zeros(10)), Conformation(m=4, k=1))
        assert report.head_only
        assert report.defect_estimate == 8
        np.testing.assert_allclose(ra.numer, [0.0, 0.0])
        np.testing.assert_allclose(ra.denom, [1.0])
        # negative k has no head but the zero approximant still stands
        prf2, ra2, _ = pm2(PowerSeries(np.zeros(10)), Conformation(m=4, k=-1))
        assert prf2.poles.size == 0
        np.testing.assert_allclose(ra2.numer, [0.0])

    def test_report_serialises(self):
        s = gen_geometric_noisy(20, 1e-6, rng=np.random.default_rng(7))
        _, _, report = pm2(s, Conformation(m=10, k=-1))
        d = report.to_dict()
        assert set(d) == {"iterations", "origin_poles_removed", "d_matrix_reductions",
                          "final_l", "defect_estimate", "head_only"}
        assert d["final_l"] == report.final_l
        for it in d["iterations"]:
            assert set(it) == {"l_before", "singular_values", "n_s_removed"}
            assert all(isinstance(v, float) for v in it["singular_values"])

    @pytest.mark.parametrize("m, seed, period", [
        pytest.param(60, 9, 7, id="60-9"),
        pytest.param(140, 0, 9, id="140-0"),
    ])
    def test_wide_magnitude_input_shrinks_l_quietly(self, m, seed, period, capfd):
        # Magnitudes 10^(6 cos(2 pi j/period) +- 0.5), random phases: a
        # tiny spurious pole overflows the residue Vandermonde (on the
        # first pass, and on the first three at m = 140).  That pass must
        # count as a conditioning reduction: no NonFinite, no numpy
        # warning, and no LAPACK complaint about the inf matrix.
        prf, ra, report = pm2(wide_series(m, seed, period=period), Conformation(m=m, k=-1))
        out, err = capfd.readouterr()
        assert "DLASCL" not in out + err
        assert report.d_matrix_reductions >= 1
        assert 1 <= report.final_l == prf.poles.size < m
        assert np.all(np.isfinite(prf.poles)) and np.all(np.isfinite(ra.denom))

    def test_finite_wide_vandermonde_is_accepted_quietly(self, capfd):
        # m = 90, seed 26: the first D is finite and its raw ratio fails,
        # but its equilibrated one passes, so l = 90 stands after one pass
        # and the overflowing D of later passes (which used to print a
        # DLASCL complaint) is never formed.
        prf, ra, report = pm2(wide_series(90, 26), Conformation(m=90, k=-1))
        out, err = capfd.readouterr()
        assert "DLASCL" not in out + err
        assert len(report.iterations) == 1 and report.d_matrix_reductions == 0
        assert report.final_l == prf.poles.size == 90
        assert np.all(np.isfinite(prf.poles)) and np.all(np.isfinite(prf.weights))
        assert np.all(np.isfinite(ra.numer)) and np.all(np.isfinite(ra.denom))

    def test_wide_input_keeps_every_pole_of_the_50_digit_pencil(self):
        # Pole moduli 0.005 to 190: the raw Vandermonde ratio alone
        # rejected five passes in a row and left 7 of the 12 poles, whose
        # form misfit the coefficients by 82 %.
        conf = Conformation(m=12, k=-1)
        s = wide_series(12, 0, amplitude=5.0)
        prf, _, report = pm2(s, conf)
        assert len(report.iterations) == 1 and report.final_l == 12
        ref, _ = mp_pencil(s.coeffs, 12)
        assert greedy_match_error(prf.poles, ref) <= 1e-9
        assert coefficient_residual(s, conf, prf) <= 1e-11

    @pytest.mark.parametrize("seed", range(10))
    def test_wide_inputs_fit_in_one_pass(self, seed):
        # Amplitude 6 at m = 12: every seed keeps all 12 poles, and the
        # worst misfit measured is 2.7e-11 (seed 8).
        conf = Conformation(m=12, k=-1)
        s = wide_series(12, seed)
        prf, _, report = pm2(s, conf)
        assert len(report.iterations) == 1 and report.final_l == 12
        assert coefficient_residual(s, conf, prf) <= 1e-10

    def test_residue_conditioning_svd_failure_is_mapped(self, monkeypatch):
        # A LAPACK failure in the residue Vandermonde's singular values
        # reaches the caller as ConvergenceFailure, not LinAlgError.
        def failing_values_only(a, signature):
            # zgesdd's failure as the gufunc reports it: an invalid flag
            return np.zeros(a.shape[:-1]) / np.zeros(a.shape[:-1])

        gufuncs = SimpleNamespace(eigvals=numerics._umath_linalg.eigvals, svd=failing_values_only)
        monkeypatch.setattr(numerics, "_umath_linalg", gufuncs)
        # Two poles, 1 and -2: a one-column D would pass without an SVD.
        j = np.arange(20)
        s = PowerSeries(1 + (-0.5) ** j + 1e-6 * np.random.default_rng(7).uniform(-0.5, 0.5, 20), t=6.0)
        with pytest.raises(ConvergenceFailure, match="residue Vandermonde"):
            pm2(s, Conformation(m=10, k=-1))

    def test_approximant_matches_function_inside_disk(self):
        # end to end: the filtered PA of a noisy geometric series still
        # tracks 1/(1-z) well inside the unit disk
        s = gen_geometric_noisy(20, 1e-8, rng=np.random.default_rng(19))
        _, ra, _ = pm2(s, Conformation(m=10, k=-1))
        for x in np.linspace(-0.8, 0.8, 9):
            assert abs(eval_rational(ra, x) - 1.0 / (1.0 - x)) < 1e-5
