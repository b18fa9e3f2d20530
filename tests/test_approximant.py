"""Tests for approximant evaluation, meshes and error sweeps."""

import cmath

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from padepencil import (
    DuplicatePole,
    PoleHit,
    PoleResidueForm,
    RationalApproximant,
    ZeroPole,
    error_sweep,
    eval_pole_residue,
    eval_rational,
    horner,
    poles_and_zeros,
    unit_disk_mesh,
)
from padepencil.experiments import STUDY_GRID

from helpers import (
    loop_unit_disk_mesh,
    pointwise_error_sweep,
    scalar_eval_pole_residue,
    scalar_eval_rational,
    scalar_horner,
)


class TestEvalRational:
    def test_polynomial_over_one(self):
        ra = RationalApproximant([1.0, 2.0, 3.0], [1.0])
        assert eval_rational(ra, 2.0) == 1 + 4 + 12

    def test_simple_pole(self):
        ra = RationalApproximant([1.0], [1.0, -1.0])  # 1/(1-z)
        assert eval_rational(ra, 0.5) == pytest.approx(2.0)
        with pytest.raises(PoleHit):
            eval_rational(ra, 1.0)

    def test_complex_argument(self):
        ra = RationalApproximant([0.0, 1.0], [1.0, 0.0, 1.0])  # z/(1+z^2)
        z = 0.3 + 0.4j
        assert eval_rational(ra, z) == pytest.approx(z / (1 + z * z))


class TestEvalPoleResidue:
    def test_single_term(self):
        prf = PoleResidueForm(head=[], poles=[2.0], weights=[3.0])
        #  3/(1 - z/2) at z=1 -> 6
        assert eval_pole_residue(prf, 1.0) == pytest.approx(6.0)

    def test_head_and_shift_composition(self):
        # head 1 + 2z, then z^2 * 5/(1 - z/3)
        prf = PoleResidueForm(head=[1.0, 2.0], poles=[3.0], weights=[5.0])
        z = 0.5
        expected = 1 + 2 * z + z**2 * 5 / (1 - z / 3)
        assert eval_pole_residue(prf, z) == pytest.approx(expected)

    def test_large_argument_stays_finite(self):
        prf = PoleResidueForm(head=[], poles=[2.0], weights=[1.0])
        #  p/(p - z) -> 0 as |z| grows; no overflow
        assert abs(eval_pole_residue(prf, 1e12)) < 1e-11

    def test_pole_hit(self):
        prf = PoleResidueForm(head=[], poles=[2.0], weights=[1.0])
        with pytest.raises(PoleHit):
            eval_pole_residue(prf, 2.0)

    def test_origin_pole_with_zero_weight_is_skipped(self):
        prf = PoleResidueForm(head=[], poles=[0.0, 2.0], weights=[0.0, 1.0])
        assert eval_pole_residue(prf, 1.0) == pytest.approx(2.0)

    def test_origin_pole_with_weight_rejected(self):
        prf = PoleResidueForm(head=[], poles=[0.0], weights=[1.0])
        with pytest.raises(ZeroPole):
            eval_pole_residue(prf, 0.5)


class TestPolesAndZeros:
    def test_sorted_roots(self):
        # (z-2)(z+1) over (z-1)(z+3): low-first coefficient arrays
        ra = RationalApproximant([-2.0, -1.0, 1.0], [-3.0, 2.0, 1.0])
        poles, zeros = poles_and_zeros(ra)
        np.testing.assert_allclose(poles, [1.0, -3.0], atol=1e-12)
        np.testing.assert_allclose(zeros, [-1.0, 2.0], atol=1e-12)

    def test_zero_numerator_gives_no_zeros(self):
        ra = RationalApproximant([0.0, 0.0], [1.0, 1.0])
        poles, zeros = poles_and_zeros(ra)
        np.testing.assert_allclose(poles, [-1.0], atol=1e-15)
        assert zeros.shape == (0,) and zeros.dtype == complex


class TestUnitDiskMesh:
    def test_coarse_counts(self):
        assert unit_disk_mesh(1.0).size == 5
        assert unit_disk_mesh(0.5).size == 13

    def test_fine_count(self):
        # lattice points with i^2 + j^2 <= 50^2
        assert unit_disk_mesh(0.02).size == 7845

    def test_all_points_inside_closed_disk(self):
        mesh = unit_disk_mesh(0.1)
        assert np.abs(mesh).max() <= 1.0 + 1e-15
        # symmetric about both axes
        assert mesh.sum() == pytest.approx(0.0, abs=1e-12)

    def test_spacing_validated(self):
        with pytest.raises(ValueError):
            unit_disk_mesh(0.0)
        with pytest.raises(ValueError):
            unit_disk_mesh(1.5)


class TestErrorSweep:
    def test_exact_match_gives_zeros(self):
        ra = RationalApproximant([1.0], [1.0, -1.0])
        sweep = error_sweep(lambda z: eval_rational(ra, z),
                            lambda z: 1.0 / (1.0 - z),
                            np.linspace(-0.5, 0.5, 11))
        assert sweep.max_unflagged() < 1e-15
        assert not sweep.flagged.any()

    def test_pole_hit_is_flagged_not_fatal(self):
        ra = RationalApproximant([1.0], [1.0, -1.0])
        pts = np.array([0.5, 1.0, 2.0])
        sweep = error_sweep(lambda z: eval_rational(ra, z),
                            lambda z: 1.0 / (1.0 - z),
                            pts)
        assert list(sweep.flagged) == [False, True, False]
        assert sweep.errors[1] == np.inf
        assert sweep.max_unflagged() == 0.0
        assert sweep.max_unflagged(slice(1, 2)) == np.inf

    def test_reference_zero_division_is_flagged(self):
        sweep = error_sweep(lambda z: 0.0, lambda z: 1.0 / z, np.array([0.0, 1.0]))
        assert sweep.flagged[0]
        assert not sweep.flagged[1]

    def test_overflow_is_flagged(self):
        ra = RationalApproximant([4j], [2.2250738585072014e-308j])  # 4/tiny overflows to inf
        sweep = error_sweep(lambda z: eval_rational(ra, z), lambda z: 0.0, np.array([0.0]))
        assert sweep.flagged[0]
        assert sweep.errors[0] == np.inf

    def test_max_unflagged_over_a_part(self):
        pts = np.array([0.0, 1.0, 2.0, 3.0])
        sweep = error_sweep(lambda z: z * z, lambda z: 1.0 / (z - 3.0), pts)
        assert list(sweep.flagged) == [False, False, False, True]
        assert sweep.max_unflagged() == 5.0
        assert sweep.max_unflagged(slice(0, 2)) == 1.5

    def test_all_flagged_gives_inf(self):
        sweep = error_sweep(lambda z: 1.0 / z, lambda z: 0.0, np.array([0.0, 0.0]))
        assert sweep.flagged.all()
        assert sweep.max_unflagged() == np.inf

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            error_sweep(lambda z: z, lambda z: z, [])


class TestArrayEvaluation:
    def test_rational_array_marks_pole_hits(self):
        ra = RationalApproximant([1.0], [1.0, -1.0])
        vals = eval_rational(ra, np.array([0.5, 1.0, 2.0]))
        assert vals.shape == (3,)
        assert vals[1] == np.inf
        np.testing.assert_allclose(vals[[0, 2]], [2.0, -1.0])

    def test_pole_residue_array_marks_pole_hits(self):
        prf = PoleResidueForm(head=[1.0], poles=[2.0], weights=[1.0])
        vals = eval_pole_residue(prf, np.array([[0.0, 2.0]]))
        assert vals.shape == (1, 2)
        assert vals[0, 0] == 1.0 and vals[0, 1] == np.inf

    def test_origin_pole_with_weight_rejected_for_arrays(self):
        prf = PoleResidueForm(head=[], poles=[0.0, 2.0], weights=[1.0, 1.0])
        with pytest.raises(ZeroPole):
            eval_pole_residue(prf, np.array([0.5, 2.0]))


# -- bitwise agreement with point-by-point evaluation

_part = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_coeff = st.builds(complex, _part, _part)
_point = st.complex_numbers(max_magnitude=100.0, allow_nan=False, allow_infinity=False)


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.int64)


def _assert_matches_pointwise(new, old, points):
    """new(points) against old(z) at each point: same bits, and inf
    (array) where old raised PoleHit (scalar); also new(z) per point."""
    got = new(points)
    assert got.shape == points.shape
    for z, g in zip(points, got):
        try:
            want = old(z)
        except PoleHit:
            assert g == np.inf
            with pytest.raises(PoleHit):
                new(z)
            continue
        np.testing.assert_array_equal(_bits(g), _bits(want))
        np.testing.assert_array_equal(_bits(new(z)), _bits(want))


def _expected_sweep(approx, reference, points):
    """The old point-by-point sweep, plus its one intended change: a
    point where either value is non-finite without raising (an
    overflow) is flagged too, with error inf."""
    errors, flagged = pointwise_error_sweep(approx, reference, points)
    with np.errstate(all="ignore"):
        for i, z in enumerate(points):
            if not flagged[i] and not (cmath.isfinite(approx(z)) and cmath.isfinite(reference(z))):
                errors[i] = np.inf
                flagged[i] = True
    return errors, flagged


@st.composite
def rational_and_points(draw):
    points = draw(st.lists(_point, min_size=1, max_size=12))
    numer = draw(st.lists(_coeff, min_size=1, max_size=8))
    if draw(st.booleans()):
        # (z - r) * q(z) with r one of the points: an exact pole hit
        r = draw(st.sampled_from(points))
        denom = [-r, 1.0 + 0j]
    else:
        denom = draw(st.lists(_coeff, min_size=1, max_size=8))
    assume(any(denom))
    return RationalApproximant(numer, denom), np.array(points, dtype=complex)


@st.composite
def pole_residue_and_points(draw):
    head = draw(st.lists(_coeff, max_size=3))
    poles = draw(st.lists(_point.filter(lambda p: p != 0), min_size=0, max_size=6, unique=True))
    weights = draw(st.lists(_coeff, min_size=len(poles), max_size=len(poles)))
    origin = draw(st.booleans())  # add a zero-weight origin term, skipped
    points = draw(st.lists(_point, min_size=1, max_size=12))
    if poles:
        points += draw(st.lists(st.sampled_from(poles), max_size=3))  # exact hits
    if origin:
        poles, weights = poles + [0j], weights + [0j]
    try:
        prf = PoleResidueForm(head=head, poles=poles, weights=weights)
    except DuplicatePole:
        assume(False)
    return prf, np.array(points, dtype=complex)


_SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestBitwiseAgainstPointwise:
    @_SETTINGS
    @given(st.lists(_coeff, min_size=1, max_size=10), st.lists(_point, min_size=1, max_size=12))
    def test_horner(self, coeffs, points):
        coeffs, points = np.array(coeffs, dtype=complex), np.array(points, dtype=complex)
        got = horner(coeffs, points)
        want = [scalar_horner(coeffs, z) for z in points]
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @_SETTINGS
    @given(rational_and_points())
    def test_eval_rational(self, case):
        ra, points = case
        _assert_matches_pointwise(lambda z: eval_rational(ra, z), lambda z: scalar_eval_rational(ra, z), points)

    @_SETTINGS
    @given(pole_residue_and_points())
    def test_eval_pole_residue(self, case):
        prf, points = case
        _assert_matches_pointwise(
            lambda z: eval_pole_residue(prf, z), lambda z: scalar_eval_pole_residue(prf, z), points
        )

    @_SETTINGS
    @given(rational_and_points(), pole_residue_and_points())
    def test_error_sweep(self, rcase, pcase):
        ra, points = rcase
        prf, _ = pcase
        sweep = error_sweep(lambda z: eval_rational(ra, z), lambda z: eval_pole_residue(prf, z), points)
        errors, flagged = _expected_sweep(
            lambda z: scalar_eval_rational(ra, z), lambda z: scalar_eval_pole_residue(prf, z), points
        )
        np.testing.assert_array_equal(sweep.flagged, flagged)
        np.testing.assert_array_equal(sweep.errors.view(np.int64), errors.view(np.int64))
        good = errors[~flagged]
        assert sweep.max_unflagged() == (good.max() if good.size else np.inf)

    @pytest.mark.parametrize("spacing", [1.0, 0.5, 0.1, 0.03, 0.02])
    def test_unit_disk_mesh(self, spacing):
        mesh = unit_disk_mesh(spacing)
        want = loop_unit_disk_mesh(spacing)
        assert mesh.shape == want.shape
        np.testing.assert_array_equal(_bits(mesh), _bits(want))


class TestHornerAtStudySizes:
    """horner against the scalar loop at the sizes the studies evaluate,
    where its buffers are reused across many coefficients."""

    @staticmethod
    def _assert_pointwise(coeffs, points):
        with np.errstate(all="ignore"):
            want = [scalar_horner(coeffs, z) for z in points.tolist()]
        np.testing.assert_array_equal(_bits(horner(coeffs, points)), _bits(want))

    def test_study_grid(self):
        rng = np.random.default_rng(12)
        for degree in (1, 5, 10, 20):
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            self._assert_pointwise(coeffs, STUDY_GRID)

    def test_log_branch_mesh(self):
        mesh = 0.5 * unit_disk_mesh(0.02)
        rng = np.random.default_rng(21)
        for degree in range(1, 22):
            scale = 10.0 ** rng.integers(-8, 9, degree + 1)
            coeffs = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * scale
            self._assert_pointwise(coeffs, mesh)

    @pytest.mark.parametrize("z", [0.3 - 0.7j, -2.0, 1e200 + 1e200j])
    def test_scalar_point(self, z):
        coeffs = np.array([1.5 - 0.5j, -0.0, 2.0 + 1j, 1e-3j])
        got = horner(coeffs, np.complex128(z))
        assert np.ndim(got) == 0
        with np.errstate(all="ignore"):
            want = scalar_horner(coeffs, complex(z))
        np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_single_coefficient(self):
        for c in (2.5 - 1j, -0.0 + 0j, complex(0.0, -0.0)):
            self._assert_pointwise(np.array([c]), STUDY_GRID)
            self._assert_pointwise(np.array([c]), np.array([np.inf, -1.0, complex(0.0, -0.0)]))

    def test_inputs_are_left_unchanged(self):
        coeffs = np.array([1.0 + 2j, -3.0, 0.5j])
        z = STUDY_GRID.copy()
        before = (coeffs.copy(), z.copy())
        horner(coeffs, z)
        horner(coeffs, z[::7])  # a strided view of the caller's array
        np.testing.assert_array_equal(_bits(coeffs), _bits(before[0]))
        np.testing.assert_array_equal(_bits(z), _bits(before[1]))


class TestErrorSweepWarnings:
    def test_no_warning_on_flagged_points(self):
        ra = RationalApproximant([1.0], [1.0, -1.0])  # 1/(1-z), pole at 1
        prf = PoleResidueForm(head=[], poles=[2.0], weights=[1.0])  # pole at 2
        pts = np.array([0.0, 0.5, 1.0, 2.0])
        on_denominator = error_sweep(lambda z: eval_rational(ra, z), lambda z: 0.0, pts)
        on_pole = error_sweep(lambda z: eval_pole_residue(prf, z), lambda z: 0.0, pts)
        on_reference = error_sweep(lambda z: 0.0, lambda z: 1.0 / z, pts)
        assert list(on_denominator.flagged) == [False, False, True, False]
        assert list(on_pole.flagged) == [False, False, False, True]
        assert list(on_reference.flagged) == [True, False, False, False]
        for sweep in (on_denominator, on_pole, on_reference):
            assert np.all(sweep.errors[sweep.flagged] == np.inf)
            assert np.all(np.isfinite(sweep.errors[~sweep.flagged]))
