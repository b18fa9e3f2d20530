"""Tests for the pole/zero taxonomy."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padepencil import classify_roots
from padepencil.classify import DOUBLET_TOL

from helpers import numpy_scalar_classify_roots


def test_system_pole_claimed_within_tolerance():
    tax = classify_roots([1.004], [], [1.0])
    assert tax.system_poles == (1.004 + 0j,)
    assert not tax.unclassified


def test_system_tolerance_widens_with_noise():
    # 0.05 away: too far at the 1e-2 floor, fine once eps stretches it
    assert not classify_roots([1.05], [], [1.0]).system_poles
    tax = classify_roots([1.05], [], [1.0], eps=1e-3)
    assert tax.system_poles == (1.05 + 0j,)


def test_nearest_pole_wins_the_system_slot():
    tax = classify_roots([1.006, 0.998], [], [1.0])
    assert tax.system_poles == (0.998 + 0j,)
    assert ("pole", 1.006 + 0j) in tax.unclassified


def test_doublet_pairing_prefers_closest_pairs():
    # one pole, two candidate zeros: the nearer zero is consumed
    tax = classify_roots([0.5], [0.501, 0.52], [])
    assert tax.doublets == ((0.5 + 0j, 0.501 + 0j),)
    assert ("zero", 0.52 + 0j) in tax.unclassified


def test_doublet_distance_cap():
    tax = classify_roots([0.5], [0.9], [])
    assert not tax.doublets
    assert ("pole", 0.5 + 0j) in tax.unclassified
    assert ("zero", 0.9 + 0j) in tax.unclassified


def test_far_roots_by_magnitude():
    tax = classify_roots([4.0, 2.0], [5.0, -3.0], [])
    assert tax.far_poles == (4.0 + 0j,)
    assert tax.far_zeros == (5.0 + 0j, -3.0 + 0j)
    assert tax.unclassified == (("pole", 2.0 + 0j),)


def test_far_pair_within_doublet_reach_pairs_first():
    # a distant pole-zero pair still counts as a doublet when close enough
    tax = classify_roots([4.0], [4.1], [])
    assert tax.doublets == ((4.0 + 0j, 4.1 + 0j),)
    assert not tax.far_poles
    assert not tax.far_zeros


def test_system_pole_not_eligible_for_doublets():
    tax = classify_roots([1.001], [1.002], [1.0])
    assert tax.system_poles == (1.001 + 0j,)
    assert not tax.doublets
    assert ("zero", 1.002 + 0j) in tax.unclassified


def test_empty_inputs():
    tax = classify_roots([], [], [1.0])
    assert tax == classify_roots(np.array([]), np.array([]), [1.0])
    assert not tax.system_poles
    assert not tax.doublets


def test_noisy_overfitted_approximant_anatomy():
    # end to end: a [9/10] fit of a noisy geometric series shows the
    # expected anatomy -- one system pole, doublets, far zeros
    from padepencil import Conformation, dm_denominator, gen_geometric_noisy, numerator_from_denominator
    from padepencil.approximant import poles_and_zeros
    from padepencil.baseline import RationalApproximant

    rng = np.random.default_rng(61)
    s = gen_geometric_noisy(20, 1e-6, rng=rng)
    conf = Conformation(m=10, k=-1)
    b = dm_denominator(s, conf)
    ra = RationalApproximant(numerator_from_denominator(s, b, conf), b)
    poles, zeros = poles_and_zeros(ra)
    tax = classify_roots(poles, zeros, [1.0], eps=1e-6)
    assert len(tax.system_poles) == 1
    assert abs(tax.system_poles[0] - 1.0) < 1e-2
    assert len(tax.doublets) >= 4
    total = (len(tax.system_poles) + 2 * len(tax.doublets)
             + len(tax.far_poles) + len(tax.far_zeros) + len(tax.unclassified))
    assert total == len(poles) + len(zeros)


#: Root coordinates: multiples of 0.1, whose distances tie, and other
#: floats near the unit disk.
COORDINATES = st.one_of(st.integers(-30, 30).map(lambda k: k / 10), st.floats(-4.0, 4.0))
#: Roots: near the unit disk, or so large that a distance overflows.
ROOTS = st.one_of(st.builds(complex, COORDINATES, COORDINATES),
                  st.sampled_from([1.5e308 + 1.5e308j, -1.5e308 + 0j, 1e308j]))


@settings(max_examples=300, deadline=None)
@given(poles=st.lists(ROOTS, max_size=8), zeros=st.lists(ROOTS, max_size=8),
       expected=st.lists(ROOTS, max_size=2), eps=st.sampled_from([0.0, 1e-6, 1e-3]))
@example(poles=[0j], zeros=[complex(DOUBLET_TOL)], expected=[], eps=0.0)
@example(poles=[1.5e308 + 1.5e308j], zeros=[0j], expected=[1.0 + 0j], eps=0.0)
@example(poles=[1.0 + 0j, 0.5 + 0j], zeros=[], expected=[-1.5e308 + 0j, 0.9 + 0j], eps=1e-3)
def test_matches_the_numpy_scalar_loop(poles, zeros, expected, eps):
    # The same taxonomy as the loop on numpy scalars: the same values, of
    # the same type, in the same order.  A pair at exactly DOUBLET_TOL is
    # a doublet, and a distance that overflows is inf.
    new = classify_roots(poles, zeros, expected, eps)
    assert repr(new) == repr(numpy_scalar_classify_roots(poles, zeros, expected, eps))
