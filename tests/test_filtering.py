"""Tests for the iterated spurious-pole filter."""

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
from padepencil import numerics
from padepencil.filtering import count_filtered, reduced_poles
from padepencil.numerics import svd
from padepencil.pencil import combined_window, pm1_poles, residue_system

from helpers import gen_quadratic_eps, greedy_match_error, random_oracle


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
        D, rhs = residue_system(s, prf.poles, conf, use_all_rows=True)
        resid = np.linalg.norm(D @ prf.weights - rhs) / np.linalg.norm(rhs)
        assert resid <= 10.0 ** (-s.t + 2)

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
    @given(st.data())
    def test_every_pass_lowers_l(self, data):
        # Each pass returns or lowers l by at least one, so pm2 needs no
        # pass budget: the trajectory starts at m and strictly falls.
        m = data.draw(st.integers(1, 30))
        conf = Conformation(m, data.draw(st.integers(-1, 3)))
        n = conf.n
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["geometric", "wide", "zero", "polynomial"]))
        if kind == "geometric":
            s = gen_geometric_noisy(n, 10.0 ** -rng.uniform(1, 12), rng)
        elif kind == "wide":
            amp, period = rng.uniform(1, 6), int(rng.integers(3, 12))
            expo = amp * np.cos(2 * np.pi * np.arange(n) / period) + rng.uniform(-0.5, 0.5, n)
            s = PowerSeries(10.0**expo * np.exp(2j * np.pi * rng.uniform(size=n)))
        elif kind == "zero":
            s = PowerSeries(np.zeros(n))
        else:
            degree = int(rng.integers(0, max(conf.k, 0) + 1))
            s = PowerSeries(np.where(np.arange(n) <= degree, rng.uniform(-1, 1, n), 0.0))
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

    @pytest.mark.parametrize("m, seed", [(60, 9), (90, 26)])
    def test_wide_magnitude_input_shrinks_l_quietly(self, m, seed, capfd):
        # Magnitudes 10^(6 cos(2 pi j/7) +- 0.5), random phases: a tiny
        # spurious pole overflows the residue Vandermonde.  That pass
        # must count as a conditioning reduction: no NonFinite, no
        # numpy warning, and no LAPACK complaint about the inf matrix
        # (the second case used to print one from DLASCL).
        rng = np.random.default_rng(seed)
        expo = 6.0 * np.cos(2 * np.pi * np.arange(2 * m) / 7) + rng.uniform(-0.5, 0.5, 2 * m)
        s = PowerSeries(10.0**expo * np.exp(2j * np.pi * rng.uniform(size=2 * m)))
        prf, ra, report = pm2(s, Conformation(m=m, k=-1))
        out, err = capfd.readouterr()
        assert "DLASCL" not in out + err
        assert report.d_matrix_reductions >= 1
        assert 1 <= report.final_l == prf.poles.size < m
        assert np.all(np.isfinite(prf.poles)) and np.all(np.isfinite(ra.denom))

    def test_residue_conditioning_svd_failure_is_mapped(self, monkeypatch):
        # A LAPACK failure in the residue Vandermonde's singular values
        # reaches the caller as ConvergenceFailure, not LinAlgError.
        def failing_values_only(a, signature):
            # zgesdd's failure as the gufunc reports it: an invalid flag
            return np.zeros(a.shape[:-1]) / np.zeros(a.shape[:-1])

        gufuncs = SimpleNamespace(eigvals=numerics._umath_linalg.eigvals, svd=failing_values_only)
        monkeypatch.setattr(numerics, "_umath_linalg", gufuncs)
        s = gen_geometric_noisy(20, 1e-6, rng=np.random.default_rng(7))
        with pytest.raises(ConvergenceFailure, match="residue Vandermonde"):
            pm2(s, Conformation(m=10, k=-1))

    def test_approximant_matches_function_inside_disk(self):
        # end to end: the filtered PA of a noisy geometric series still
        # tracks 1/(1-z) well inside the unit disk
        s = gen_geometric_noisy(20, 1e-8, rng=np.random.default_rng(19))
        _, ra, _ = pm2(s, Conformation(m=10, k=-1))
        for x in np.linspace(-0.8, 0.8, 9):
            assert abs(eval_rational(ra, x) - 1.0 / (1.0 - x)) < 1e-5
