"""Tests for the shared linear-algebra wrappers."""

import ctypes
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padepencil import (
    AllZero,
    Conformation,
    ConvergenceFailure,
    DegenerateError,
    NonFinite,
    PowerSeries,
    RankDeficient,
    dm_denominator,
    gen_geometric_noisy,
    gen_log_series,
)
from padepencil import numerics
from padepencil.baseline import combined_window
from padepencil.numerics import (
    DEFAULT_RANK_RTOL,
    complex_pairs,
    eigenvalues,
    poly_from_roots,
    polynomial_roots,
    qr_solve,
    svd,
)

from helpers import numpy_svd, scipy_qr_solve


class TestSvd:
    def test_reconstruction_over_random_shapes(self):
        # U is not formed: A V has orthogonal columns whose norms are sigma.
        rng = np.random.default_rng(2)
        for _ in range(20):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            a = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            res = svd(a)
            r = min(rows, cols)
            assert res.sigma.shape == (r,) and res.Vh.shape == (cols, cols)
            np.testing.assert_allclose(res.Vh @ res.Vh.conj().T, np.eye(cols), atol=1e-12)
            assert np.all(np.diff(res.sigma) <= 1e-15)
            assert np.all(res.sigma >= 0)
            norms = np.linalg.norm(a @ res.Vh.conj().T, axis=0)
            np.testing.assert_allclose(norms[:r], res.sigma, atol=1e-12)
            np.testing.assert_allclose(norms[r:], 0, atol=1e-12)

    def test_non_finite_input_raises(self):
        with pytest.raises(NonFinite):
            svd(np.array([[1.0, np.nan]]))

    def test_non_finite_input_is_quiet(self, capfd):
        rng = np.random.default_rng(3)
        for shape in ((1, 1), (9, 2), (40, 7), (7, 40), (30, 29), (386, 15)):
            for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)):
                A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                A.flat[rng.integers(A.size)] = bad
                with pytest.raises(NonFinite):
                    svd(A)
        out, err = capfd.readouterr()
        assert out == "" and err == ""

    def test_non_convergence_is_mapped(self, monkeypatch):
        # dbdsdc info > 0 on the near-square and tall paths, the invalid
        # flag of numpy's zgesdd gufunc on the other shapes
        def dbdsdc_not_converging(*args):
            ctypes.c_int64.from_address(args[-3]).value = 3  # INFO, before UPLO's and COMPQ's lengths

        monkeypatch.setattr(numerics, "_dbdsdc", dbdsdc_not_converging)
        for shape in ((5, 6), (6, 5), (9, 2)):
            with pytest.raises(ConvergenceFailure, match="dbdsdc info=3"):
                svd(np.ones(shape))

        def not_converging(a, signature):
            # zgesdd's failure as the gufunc reports it: an invalid flag
            return a, np.zeros(min(a.shape)) / 0, a

        monkeypatch.setattr(numerics, "_umath_linalg", SimpleNamespace(svd_f=not_converging))
        with pytest.raises(ConvergenceFailure):
            svd(np.ones((2, 3)))


#: Column counts for the bitwise SVD test: zunmlq (forming Vh) blocks
#: from q = 34 and zgeqrf from q = 129.
SVD_WIDTHS = (1, 2, 9, 33, 34, 35, 128, 129, 130, 200)


def _near_threshold(q, num=17, den=9):
    """Row counts around floor(num*q/den), at least q: zgesdd's QR
    threshold by default, the end of its path 6 for 5/3."""
    t = num * q // den
    return [max(q, t - 1), t, t + 1]


@st.composite
def svd_cases(draw):
    """Tall p x q matrices with p from q to 3q+5, near floor(17q/9) often,
    and q up to 200; wide shapes; the Hankel window of a noisy geometric,
    log or wide-magnitude series; zero columns, the zero matrix and
    magnitudes 1e+-150."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["plain", "zero_column", "zero", "1e150", "1e-150", "wide", "hankel"]))
    if kind == "hankel":
        m = draw(st.integers(2, 150))
        k = draw(st.integers(-1, 1))
        n = 2 * m + k + 1
        series = draw(st.sampled_from(["geometric", "log", "wide_magnitude"]))
        if series == "geometric":
            s = gen_geometric_noisy(n, 10.0 ** draw(st.floats(-12, -1)), rng)
        elif series == "log":
            s = gen_log_series(n)
        else:
            expo = draw(st.floats(1, 8)) * np.cos(2 * np.pi * np.arange(n) / draw(st.integers(5, 11)))
            s = PowerSeries(10.0 ** (expo + rng.uniform(-0.5, 0.5, n)) * np.exp(2j * np.pi * rng.uniform(size=n)))
        return combined_window(s, Conformation(m, k), draw(st.integers(1, m)))
    q = draw(st.one_of(st.integers(1, 40), st.sampled_from(SVD_WIDTHS)))
    p = draw(st.one_of(st.sampled_from(_near_threshold(q)), st.integers(q, 3 * q + 5)))
    A = 10.0 ** draw(st.floats(-8, 8)) * (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)))
    if kind == "zero_column":
        A[:, rng.integers(q, size=draw(st.integers(1, q)))] = 0
    elif kind == "zero":
        A = np.zeros((p, q))
    elif kind in ("1e150", "1e-150"):
        A = A / np.abs(A).max() * float(kind)
    elif kind == "wide":
        A = A.T.copy()
    return A


def _assert_same_svd(A):
    sigma, Vh = numpy_svd(A)
    res = svd(A)
    np.testing.assert_array_equal(res.sigma.view(np.int64), sigma.view(np.int64))
    np.testing.assert_array_equal(res.Vh.view(np.int64), Vh.view(np.int64))


class TestSvdBitwise:
    """svd forms no U, yet its sigma and Vh bits are numpy's full SVD's."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(svd_cases())
    def test_against_numpy_full_svd(self, A):
        _assert_same_svd(A)

    def test_matrices_zgesdd_scales_first(self):
        # zgesdd scales a matrix whose largest modulus lies outside
        # [SMLNUM, BIGNUM] before its QR.  Each case has only A, or only
        # its triangle R, outside that range.
        rng = np.random.default_rng(17)
        p, q = 200, 100
        # A's largest entry is the norm of R's last column, folded onto
        # one row: about 8 times R's largest entry.
        R0 = np.triu(rng.uniform(0.5, 1, (q, q)) * np.exp(2j * np.pi * rng.uniform(size=(q, q))))
        v = np.zeros(p, dtype=complex)
        v[:q] = R0[:, -1]
        v[0] -= np.linalg.norm(R0[:, -1])
        big = (np.eye(p) - 2 * np.outer(v, v.conj()) / np.vdot(v, v))[:, :q] @ R0
        phases = np.exp(2j * np.pi * rng.uniform(size=(p, q)))
        cases = [
            big * (1.2 * numerics._BIGNUM / np.abs(big).max()),  # A above BIGNUM, R below
            0.9 * numerics._SMLNUM * phases,  # A below SMLNUM, R(0,0) above it
            0.2 * numerics._BIGNUM * phases,  # A below BIGNUM, R(0,0) above it
        ]
        for A in cases:
            _assert_same_svd(A)

    @pytest.mark.parametrize("q", SVD_WIDTHS)
    def test_around_the_qr_threshold(self, q):
        rng = np.random.default_rng(q)
        for p in _near_threshold(q):
            _assert_same_svd(rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)))

    @pytest.mark.parametrize("n", (2, 3, 9, 33, 34, 35, 80, 128))
    def test_around_the_bidiagonal_limit(self, n):
        # zgesdd bidiagonalizes A itself (path 6/6t) while the long side
        # is below floor(5n/3); above it comes path 5 or the QR/LQ paths.
        rng = np.random.default_rng(n)
        for long in _near_threshold(n, 5, 3):
            for shape in ((long, n), (n, long)):
                _assert_same_svd(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    @pytest.mark.parametrize("m", (80, 101, 150, 200))
    def test_first_pass_hankel_windows(self, m):
        # pm2's first window is m x (m+1); at these sizes the workspace
        # zgebrd and zunmbr get sets the Vh bits.
        rng = np.random.default_rng(m)
        n = 2 * m + 1
        expo = 5 * np.cos(2 * np.pi * np.arange(n) / 7) + rng.uniform(-0.5, 0.5, n)
        for s in (gen_log_series(n), gen_geometric_noisy(n, 1e-8, rng),
                  PowerSeries(10.0**expo * np.exp(2j * np.pi * rng.uniform(size=n)))):
            _assert_same_svd(combined_window(s, Conformation(m, 0), m))

    def test_other_shapes_stay_on_numpy(self, monkeypatch):
        # LQ-path (q >= 17p/9), wide path-5 and tall path-5 shapes: zgesdd
        # does not bidiagonalize A there, so neither may svd.
        def no_zgebrd(*args):
            raise AssertionError("zgebrd called on a shape zgesdd does not bidiagonalize")

        monkeypatch.setattr(numerics, "_zgebrd", no_zgebrd)
        rng = np.random.default_rng(23)
        for shape in ((2, 3), (3, 5), (3, 6), (10, 19), (10, 17), (16, 10), (17, 10), (1, 4)):
            _assert_same_svd(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    @pytest.mark.parametrize("shape", ((30, 31), (31, 30), (101, 100)))
    def test_scaling_limits_are_exact(self, shape, monkeypatch):
        # zgesdd scales A when max|A| < SMLNUM or > BIGNUM (both powers of
        # two).  An entry exactly at a limit keeps the bidiagonal path;
        # one ulp beyond it sends the matrix to numpy.
        calls = []
        real = numerics._zgebrd
        monkeypatch.setattr(numerics, "_zgebrd", lambda *args: (calls.append(1), real(*args)))
        rng = np.random.default_rng(29)
        B = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        B *= 0.25 / np.abs(B).max()
        for limit, beyond in ((numerics._SMLNUM, 0.0), (numerics._BIGNUM, np.inf)):
            for entry, inside in ((limit, True), (np.nextafter(limit, beyond), False)):
                A = B * limit
                A[3, 2] = entry
                calls.clear()
                _assert_same_svd(A)
                assert bool(calls) == inside, (limit, entry)

    def test_vh_read_after_other_calls_is_numpys(self):
        # Vh is formed on first read, from the buffer of its own call.
        rng = np.random.default_rng(31)
        mats = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in ((5, 6), (6, 5), (40, 41), (130, 60))]
        results = [svd(A) for A in mats]
        for A, res in zip(mats, results):
            sigma = numpy_svd(A)[0]
            np.testing.assert_array_equal(res.sigma.view(np.int64), sigma.view(np.int64))
            svd(A[::-1])
        for A, res in zip(mats, results):
            Vh = numpy_svd(A)[1]
            np.testing.assert_array_equal(res.Vh.view(np.int64), Vh.view(np.int64))
            assert res.Vh.flags.c_contiguous and res.Vh is res.Vh

    @pytest.mark.parametrize("shape", ((5, 6), (6, 5), (9, 2), (300, 100)))
    def test_vh_is_formed_on_first_read(self, shape, monkeypatch):
        # Near-square and tall results alike call zunmbr only when .Vh is
        # first read, and once.
        calls = []
        real = numerics._zunmbr
        monkeypatch.setattr(numerics, "_zunmbr", lambda *args: (calls.append(1), real(*args)))
        rng = np.random.default_rng(41)
        A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        res = svd(A)
        assert calls == []
        for _ in range(2):
            np.testing.assert_array_equal(res.Vh.view(np.int64), numpy_svd(A)[1].view(np.int64))
        assert calls == [1]

    def test_vh_read_by_many_threads_is_formed_once(self):
        # Forming Vh writes into the result's buffer with the GIL released;
        # threads that read it at once must all get numpy's bits, on a
        # near-square and a tall window.
        rng = np.random.default_rng(37)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for shape in ((150, 151), (300, 100)):
                A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                want = numpy_svd(A)[1]
                for _ in range(3):
                    res = svd(A)
                    with ThreadPoolExecutor(max_workers=8) as pool:
                        got = list(pool.map(lambda _: res.Vh, range(8), timeout=60))
                    for Vh in got:
                        np.testing.assert_array_equal(Vh.view(np.int64), want.view(np.int64))
        finally:
            sys.setswitchinterval(interval)


class TestComplexPairs:
    @pytest.mark.parametrize(
        "values",
        [np.array([1 + 2j, -0.0 - 0.0j, complex(np.inf, np.nan), 5e-324j]), np.array([1.0, -0.0, np.inf]),
         np.array([3, -1]), [1j, 2], 2.5 - 1j, np.array([], dtype=complex), ()],
    )
    def test_float_pairs_of_each_value(self, values):
        got = complex_pairs(values)
        want = [[float(v.real), float(v.imag)] for v in np.atleast_1d(values)]
        assert json.dumps(got) == json.dumps(want)
        assert all(type(x) is float for pair in got for x in pair)


class TestEigenvalues:
    def test_companion_pair(self):
        # characteristic polynomial x^2 - 5x + 6
        lam = eigenvalues(np.array([[0.0, 1.0], [-6.0, 5.0]]))
        np.testing.assert_allclose(sorted(lam.real), [2.0, 3.0], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            lam = eigenvalues(a)
            assert abs(lam.sum() - np.trace(a)) < 1e-10 * np.abs(a).sum()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_bitwise_against_numpy_eigvals(self, data):
        # Random dense matrices and companion matrices, real and complex,
        # over a wide range of scales.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 60))
        scale = 10.0 ** data.draw(st.integers(-150, 150))
        if data.draw(st.booleans()):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        else:
            A = np.diag(np.ones(n - 1, dtype=complex), -1)
            A[0] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if data.draw(st.booleans()):
            A = A.real.astype(complex)
        A = A * scale
        np.testing.assert_array_equal(eigenvalues(A).view(np.int64), np.linalg.eigvals(A).view(np.int64))


class TestGufuncRoutes:
    """singular_values, solve and convolve call numpy's cores directly and
    must give the bits of the numpy functions that wrap them."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_singular_values_bitwise_against_numpy_svd(self, data):
        # Dense matrices of any shape and tall Vandermonde matrices in
        # inverse poles, as pm2's residue check builds them, over a wide
        # range of scales.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        p, q = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        if data.draw(st.booleans()):
            A = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
            A = A * 10.0 ** data.draw(st.integers(-150, 150))
        else:
            d = 10.0 ** rng.uniform(-1, 1, q) * np.exp(2j * np.pi * rng.uniform(size=q))
            A = d ** np.arange(max(p, q))[:, None]
        if data.draw(st.booleans()):
            A = A.real.astype(complex)
        want = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_array_equal(numerics.singular_values(A).view(np.int64), want.view(np.int64))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_solve_bitwise_against_numpy_solve(self, data):
        # Random and Hankel systems, some exactly singular: a zero column
        # or a repeated row makes LU meet an exactly zero pivot.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 40))
        if data.draw(st.booleans()):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        else:
            c = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            A = c[np.arange(n)[:, None] + np.arange(n)]
        A = A * 10.0 ** data.draw(st.integers(-150, 150))
        singular = data.draw(st.sampled_from([None, "zero column", "repeated row"]))
        if singular == "zero column":
            A[:, data.draw(st.integers(0, n - 1))] = 0
        elif singular == "repeated row" and n > 1:
            A[-1] = A[0]
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        try:
            want = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            with pytest.raises(RankDeficient, match=f"^{exc}$"):
                numerics.solve(A, b)
        else:
            np.testing.assert_array_equal(numerics.solve(A, b).view(np.int64), want.view(np.int64))

    def test_singular_direct_system_keeps_its_message(self):
        # [1, 0, 1] at [1/1]: the 1x1 direct system is exactly zero.
        with pytest.raises(DegenerateError, match=r"^direct 1x1 denominator system is singular: Singular matrix$"):
            dm_denominator(PowerSeries([1.0, 0.0, 1.0]), Conformation(m=1, k=0))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_convolve_bitwise_against_numpy_convolve(self, data):
        # Either operand the longer, with exact zeros and wide scales.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a, v = (rng.standard_normal(size) + 1j * rng.standard_normal(size)
                for size in (data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))))
        for x in (a, v):
            x *= 10.0 ** rng.uniform(-100, 100, x.size)
            x[rng.uniform(size=x.size) < 0.2] = 0
        got = numerics.convolve(a, v)
        np.testing.assert_array_equal(got.view(np.int64), np.convolve(a, v).view(np.int64))


class TestQrSolve:
    def test_square_system(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=4)
        np.testing.assert_allclose(qr_solve(a, b), np.linalg.solve(a, b), atol=1e-12)

    def test_overdetermined_least_squares(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        b = rng.normal(size=7) + 1j * rng.normal(size=7)
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(qr_solve(a, b), expected, atol=1e-10)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"need p >= q >= 1, got shape \(2, 3\)"):
            qr_solve(np.ones((2, 3)), np.ones(2))

    def test_mismatched_right_hand_side_rejected(self):
        with pytest.raises(ValueError, match="rhs has 2 rows, expected 3"):
            qr_solve(np.ones((3, 2)), np.ones(2))

    def test_matrix_right_hand_side(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(5, 2))
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(qr_solve(a, b), expected, atol=1e-10)

    def test_rank_deficient_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16], [0.0, 0.0]])
        with pytest.raises(RankDeficient):
            qr_solve(a, np.ones(3))

    def test_rtol_zero_disables_threshold(self):
        # ill conditioned but numerically nonsingular: rtol=0 must not raise
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
        b = np.ones(2)
        x = qr_solve(a, b, rtol=0.0)
        np.testing.assert_allclose(a @ x, b, atol=1e-5)
        # parallel rows leave a roundoff-size pivot: caught by the default
        # threshold, let through (as a finite vector) when disabled
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(RankDeficient):
            qr_solve(a, b, rtol=DEFAULT_RANK_RTOL)
        assert np.all(np.isfinite(qr_solve(a, b, rtol=0.0)))

    def test_no_right_hand_side(self):
        # ztrtrs still checks the pivots with no right-hand side.
        A = np.random.default_rng(4).standard_normal((5, 3))
        assert _qr_outcome(qr_solve, A, np.zeros((5, 0)), 0.0) == ((3, 0), [[], [], []])
        A[:, 1] = 0
        assert _qr_outcome(qr_solve, A, np.zeros((5, 0)), 0.0) is RankDeficient

    def test_exactly_singular_raises_even_with_rtol_zero(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(RankDeficient):
            qr_solve(a, np.ones(2), rtol=0.0)


@st.composite
def qr_cases(draw):
    """Least-squares systems from 1 x 1 to 201 x 200 at magnitudes 1e+-8:
    well and badly scaled columns, repeated (rank-deficient) and zero
    (exact zero pivot) columns, real matrices and non-finite entries."""
    q = draw(st.one_of(st.integers(1, 12), st.sampled_from([33, 64, 129, 200])))
    p = min(q + draw(st.integers(0, 20)), 201) if q == 200 else q + draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = 10.0 ** draw(st.floats(-8, 8)) * (rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q)))
    nrhs = draw(st.sampled_from([None, 1, 3]))
    shape = (p,) if nrhs is None else (p, nrhs)
    B = 10.0 ** draw(st.floats(-8, 8)) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    kind = draw(st.sampled_from(["plain", "scaled", "repeated", "zero", "real", "non_finite"]))
    i, j = rng.integers(0, q, 2)
    if kind == "scaled":
        A = A * 10.0 ** rng.uniform(-8, 8, q)
    elif kind == "repeated" and i != j:
        A[:, j] = A[:, i] * (1 + 1j)
    elif kind == "zero":
        A[:, j] = 0
    elif kind == "real":
        A, B = A.real.copy(), B.real.copy()
    elif kind == "non_finite":
        (A if rng.uniform() < 0.5 else B).flat[0] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return A, B, draw(st.sampled_from([0.0, DEFAULT_RANK_RTOL]))


def _qr_outcome(solve, A, B, rtol):
    """Solution shape and bits, or the error type."""
    try:
        X = solve(A, B, rtol=rtol)
    except (NonFinite, RankDeficient) as exc:
        return type(exc)
    return X.shape, np.ascontiguousarray(X).view(np.int64).tolist()


class TestQrSolveBitwise:
    """qr_solve calls LAPACK directly, bit for bit as the scipy qr and
    solve_triangular path it replaces."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(qr_cases())
    def test_against_scipy_path(self, case):
        A, B, rtol = case
        assert _qr_outcome(qr_solve, A, B, rtol) == _qr_outcome(scipy_qr_solve, A, B, rtol)

    def test_exact_zero_pivot_is_quiet(self, capfd):
        rng = np.random.default_rng(12)
        cases = [np.array([[1.0, 1.0], [0.0, 0.0]]), np.zeros((3, 1))]
        for q in (2, 5, 40):
            A = rng.standard_normal((q + 3, q)) + 1j * rng.standard_normal((q + 3, q))
            A[:, rng.integers(q)] = 0
            cases.append(A)
        for A in cases:
            for B in (np.ones(A.shape[0]), np.ones((A.shape[0], 2))):
                assert _qr_outcome(qr_solve, A, B, 0.0) is RankDeficient
                assert _qr_outcome(scipy_qr_solve, A, B, 0.0) is RankDeficient
        out, err = capfd.readouterr()
        assert out == "" and err == ""


#: (p, q) for every width in SVD_WIDTHS at five aspect ratios: square,
#: inside zgesdd's path 6 (4q/3), at its QR threshold floor(17q/9), and
#: 2q + 1 and 3q rows.
BUILD_SHAPES = sorted({(max(p, q), q) for q in SVD_WIDTHS for p in (q, 4 * q // 3, 17 * q // 9, 2 * q + 1, 3 * q)})


class TestOneLapackBuild:
    """numerics runs zgeqrf, zungqr, ztrtrs, zgebrd, dbdsdc and zunmbr,
    and queries zgesdd's workspace, in numpy's OpenBLAS; scipy.linalg's
    own build, the reference here, gives the same workspace sizes and
    the same bytes."""

    @pytest.mark.parametrize("p, q", BUILD_SHAPES)
    def test_workspace_queries(self, p, q):
        geqrf_lwork, ungqr, gesdd_lwork = sla.get_lapack_funcs(("geqrf_lwork", "ungqr", "gesdd_lwork"), dtype=complex)
        _, work, _ = ungqr(np.zeros((p, q), dtype=complex), np.zeros(q, dtype=complex), lwork=-1)
        want = (geqrf_lwork(p, q)[0], work[0], gesdd_lwork(p, q, compute_uv=1, full_matrices=1)[0])
        assert numerics._workspace(p, q) == tuple(int(w.real) for w in want)
        assert numerics._workspace(q, p)[2] == int(gesdd_lwork(q, p, compute_uv=1, full_matrices=1)[0].real)

    @pytest.mark.parametrize("p, q", BUILD_SHAPES)
    def test_qr_routines(self, p, q):
        # zgeqrf and zungqr directly, ztrtrs through qr_solve.
        rng = np.random.default_rng(p * 1000 + q)
        A = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        qr_work, q_work, _ = numerics._workspace(p, q)
        geqrf, ungqr = sla.get_lapack_funcs(("geqrf", "ungqr"), dtype=complex)
        qr, tau, _, _ = geqrf(A, lwork=qr_work)
        Q, _, _ = ungqr(qr, tau, lwork=q_work)
        size, (tau_at, work_at, _, info_at), _, (P, Q_, QR_WORK, Q_WORK, _) = numerics._qr_layout(p, q, 1)
        buf, base, factor = numerics._buffer(A, size)
        numerics._zgeqrf(P, Q_, base, P, base + tau_at, base + work_at, QR_WORK, base + info_at)
        assert factor.tobytes("F") == qr.tobytes("F")
        assert buf[tau_at // 16 : tau_at // 16 + q].tobytes() == tau.tobytes()
        numerics._zungqr(P, Q_, Q_, base, P, base + tau_at, base + work_at, Q_WORK, base + info_at)
        assert factor.tobytes("F") == Q.tobytes("F")
        for shape in ((p,), (p, 3)):
            B = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert _qr_outcome(qr_solve, A, B, 0.0) == _qr_outcome(scipy_qr_solve, A, B, 0.0)

    @pytest.mark.parametrize("p, q", BUILD_SHAPES)
    def test_svd_routines(self, p, q):
        # zgeqrf, then zgebrd, dbdsdc and zunmbr on R, on the tall shapes;
        # zgebrd, dbdsdc and zunmbr on the near-square ones and their
        # transposes; numpy's gufunc on the rest; against scipy's zgesdd.
        rng = np.random.default_rng(p * 1000 + q + 1)
        for shape in ((p, q), (q, p)):
            A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            _, sigma, Vh = sla.svd(A, full_matrices=True, lapack_driver="gesdd")
            res = svd(A)
            assert res.sigma.tobytes() == sigma.tobytes()
            assert res.Vh.tobytes() == Vh.tobytes()


class TestPolyFromRoots:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_bitwise_against_polyfromroots(self, data):
        # Random roots plus repeated, real, conjugate and origin ones.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(0, 40))
        roots = list(10.0 ** rng.uniform(-3, 3, n) * np.exp(2j * np.pi * rng.uniform(size=n)))
        for _ in range(data.draw(st.integers(0 if n else 1, 6))):
            kind = data.draw(st.sampled_from(["repeated", "real", "conjugate", "origin"]))
            if kind == "real" or not roots:
                new = complex(rng.uniform(-3, 3))
            elif kind == "origin":
                new = 0j
            else:
                new = roots[data.draw(st.integers(0, len(roots) - 1))]
                new = new.conjugate() if kind == "conjugate" else new
            roots.insert(data.draw(st.integers(0, len(roots))), new)
        r = np.array(roots, dtype=complex)
        want = np.polynomial.polynomial.polyfromroots(r)
        np.testing.assert_array_equal(poly_from_roots(r).view(np.int64), want.view(np.int64))


class TestPolynomialRoots:
    def test_quadratic(self):
        # 2 - 3z + z^2 = (z - 1)(z - 2)
        roots = np.sort_complex(polynomial_roots(np.array([2.0, -3.0, 1.0])))
        np.testing.assert_allclose(roots, [1.0, 2.0], atol=1e-12)

    def test_trailing_zero_leading_coefficients_trimmed(self):
        full = polynomial_roots(np.array([2.0, -3.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(np.sort_complex(full), [1.0, 2.0], atol=1e-12)

    def test_constant_has_no_roots(self):
        assert polynomial_roots(np.array([5.0])).size == 0

    def test_monomial_root_at_origin(self):
        np.testing.assert_allclose(polynomial_roots(np.array([0.0, 1.0])), [0.0])

    def test_all_zero_raises(self):
        with pytest.raises(AllZero):
            polynomial_roots(np.zeros(4))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty coefficient array"):
            polynomial_roots([])

    def test_nan_coefficient_raises_nonfinite(self):
        with pytest.raises(NonFinite, match="must be finite"):
            polynomial_roots([1.0, np.nan])

    @pytest.mark.parametrize("shape", [(3, 3), (1, 3), (3, 1)])
    def test_not_one_dimensional_raises(self, shape):
        with pytest.raises(ValueError, match="1-D"):
            polynomial_roots(np.ones(shape))

    @pytest.mark.parametrize(
        "coeffs",
        [[1e300, 1.0, 1e-300], [1e300, 1e-300], [1.0, 0.0, 0.0, 1e-310], [1e-300, 1e300, 1e-300]],
        ids=["companion_overflows", "linear_root_overflows", "subnormal_leading", "tiny_ends"],
    )
    def test_overflow_raises_nonfinite_quietly(self, coeffs, capfd):
        # numpy's polyroots divides by the leading coefficient; when that
        # overflows it used to warn and then raise LinAlgError or return inf.
        with pytest.raises(NonFinite):
            polynomial_roots(coeffs)
        assert capfd.readouterr() == ("", "")

    def test_eigen_failure_is_convergence_failure(self, monkeypatch):
        def fail(a, signature):
            # zgeev's failure as the gufunc reports it: an invalid flag
            return np.zeros(a.shape[:-1]) / np.zeros(a.shape[:-1])

        monkeypatch.setattr(numerics, "_umath_linalg", SimpleNamespace(eigvals=fail))
        with pytest.raises(ConvergenceFailure):
            polynomial_roots([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("appended", [1, 2, 3, 5])
    @pytest.mark.parametrize("zero", [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
    def test_exact_highest_order_zeros_bitwise(self, appended, zero):
        # The zeros are stripped by hand; the roots keep polyroots' bits,
        # also with zero coefficients inside and degrees that drop to 0 or 1.
        rng = np.random.default_rng(appended)
        bases = [np.array([3.0 - 1j]), np.array([0.0, 2.0 + 0.5j]), np.array([-1.5, 0.0, 0.0, 2.0j]),
                 np.array([0.0, 0.0, 1.0, -0.0, 4.0 - 2j])]
        for degree in (5, 12, 30):
            base = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            base[rng.choice(degree, degree // 3, replace=False)] = 0
            bases += [base, base.real.astype(complex)]
        for base in bases:
            c = np.concatenate([base, np.full(appended, zero)])
            want = np.polynomial.polynomial.polyroots(c)
            got = polynomial_roots(c)
            assert got.dtype == want.dtype == complex
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_bitwise_against_polyroots_when_finite(self, data):
        # Any input whose numpy roots are finite keeps numpy's bits; where
        # numpy's eigen-solve does not converge, ConvergenceFailure; the
        # rest raise NonFinite instead of warning or returning inf.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(2, 41))
        spread = data.draw(st.sampled_from([0.0, 3.0, 30.0, 300.0]))
        c = 10.0 ** rng.uniform(-spread, spread, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        if data.draw(st.booleans()):
            c = c.real.astype(complex)
        with np.errstate(all="ignore"):
            try:
                want = np.polynomial.polynomial.polyroots(c) if np.isfinite(c[:-1] / c[-1]).all() else None
            except np.linalg.LinAlgError:
                with pytest.raises(ConvergenceFailure):
                    polynomial_roots(c)
                return
        if want is not None and np.isfinite(want).all():
            np.testing.assert_array_equal(polynomial_roots(c).view(np.int64), want.view(np.int64))
        else:
            with pytest.raises(NonFinite):
                polynomial_roots(c)


#: Run in a fresh interpreter with scipy.linalg imported never, before or
#: after padepencil (argv[1]); prints the scipy modules loaded and a hash
#: of fixed outputs of every path that calls LAPACK through ctypes.
_IMPORT_ORDER_CHILD = """
import hashlib, json, sys
import numpy as np
order = sys.argv[1]
if order == "first":
    import scipy.linalg
import padepencil.cli
from padepencil import Conformation, gen_log_series, pm2
from padepencil.numerics import qr_solve, svd
if order == "after":
    import scipy.linalg
rng = np.random.default_rng(14)
def cmat(p, q):
    return rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
h = hashlib.sha256()
for p, q in ((19, 10), (60, 30)):
    h.update(qr_solve(cmat(p, q), cmat(p, 1)[:, 0]).tobytes())
tall = svd(cmat(386, 15))
window = svd(cmat(60, 61))
h.update(tall.sigma.tobytes() + tall.Vh.tobytes() + window.sigma.tobytes() + window.Vh.tobytes())
res = pm2(gen_log_series(201), Conformation(100, 0))
h.update(res.rational.numer.tobytes() + res.rational.denom.tobytes())
for it in res.report.iterations:
    h.update(it.singular_values.tobytes())
print(json.dumps({"scipy_linalg": "scipy.linalg" in sys.modules, "hash": h.hexdigest()}))
"""


def _fresh_interpreter(code: str, *args: str) -> str:
    src = str(Path(numerics.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=120).stdout


class TestLapackLoading:
    def test_import_loads_no_scipy_module(self):
        out = _fresh_interpreter("import sys, padepencil, padepencil.cli; "
                                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"

    def test_import_orders_give_the_same_bits(self):
        runs = {order: json.loads(_fresh_interpreter(_IMPORT_ORDER_CHILD, order)) for order in
                ("never", "first", "after")}
        assert runs["never"] == {"scipy_linalg": False, "hash": runs["never"]["hash"]}
        for order in ("first", "after"):
            assert runs[order] == {"scipy_linalg": True, "hash": runs["never"]["hash"]}
