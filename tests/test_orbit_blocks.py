"""Orbits as coordinate blocks, and Shearlet2D as the d = 2 generalized shearlet group."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import orbit as ob

NESTED = gr.DirectProduct((gr.Similitude(2),
                           gr.DirectProduct((gr.Diagonal(2), gr.Shearlet2D(0.5)))))
# complement pieces of the factors: the similitude block vanishes jointly, each
# diagonal axis alone, and the shearlet first coordinate alone
FACTOR_BLOCKS = [(0, 2), (2, 3), (3, 4), (4, 5)]


def brute_nearest(xi):
    """Minimum over the factor blocks, first block on ties."""
    best = None
    for a, b in FACTOR_BLOCKS:
        dist = math.sqrt(sum(x * x for x in xi[a:b]))
        if best is None or dist < best[0]:
            eta = np.array(xi, dtype=float)
            eta[a:b] = 0.0
            best = (dist, eta)
    return best


def nested_points():
    rng = np.random.default_rng(11)
    ties = [[3, 4, 7, 5, 5, 0],    # similitude, second diagonal axis, shearlet all at 5
            [3, 4, 2, 9, 2, 1],    # first diagonal axis and shearlet at 2
            [9, 0, 4, 4, 9, 2],    # both diagonal axes at 4
            [1, 0, 3, 2, 2, 5],
            [0, 0, 1, 1, 1, 1]]    # in the complement
    small_ints = rng.integers(-2, 3, size=(300, 6))  # many exact ties and zeros
    return np.concatenate([np.array(ties, dtype=float), small_ints.astype(float),
                           rng.normal(size=(200, 6))])


def test_nested_product_blocks_flatten():
    orbit = ob.orbit_of(NESTED)
    assert orbit.kind == ob.BLOCK and orbit.dim == 6
    assert orbit.blocks == tuple(FACTOR_BLOCKS)


def test_nested_nearest_complement_matches_brute_force():
    orbit = ob.orbit_of(NESTED)
    pts = nested_points()
    dist, eta = ob.nearest_complement(orbit, pts)
    for i, xi in enumerate(pts):
        want_dist, want_eta = brute_nearest(list(xi))
        assert dist[i] == pytest.approx(want_dist, rel=1e-15, abs=0.0)
        np.testing.assert_array_equal(eta[i], want_eta)


def test_nested_in_orbit_matches_brute_force():
    orbit = ob.orbit_of(NESTED)
    verdicts = [ob.in_orbit(orbit, xi) for xi in nested_points()]
    want = [all(np.any(xi[a:b] != 0) for a, b in FACTOR_BLOCKS) for xi in nested_points()]
    assert verdicts == want
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("stage", [0, 3])
def test_nested_orbit_axes_open_each_block_with_the_singular_axis(stage):
    singular = ob._orbit_axes(ob.orbit_of(gr.Diagonal(1)), stage)[0]
    regular = ob._orbit_axes(ob.orbit_of(gr.Shearlet2D(0.5)), stage)[1]
    want = [singular, regular, singular, singular, singular, regular]
    got = ob._orbit_axes(ob.orbit_of(NESTED), stage)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.nodes, w.nodes)
        np.testing.assert_array_equal(g.weights, w.weights)


@pytest.mark.parametrize("c", [0.5, -0.75, 0.0, 2.0])
def test_shearlet2d_agrees_with_the_explicit_generalized_group(c):
    s2d = gr.Shearlet2D(c)
    explicit = gr.GeneralizedShearlet(dim=2, shear_basis=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
                                      Y=np.array([1.0, c]))
    assert isinstance(s2d, gr.GeneralizedShearlet) and s2d.c == c
    (basis1, y1), (basis2, y2) = gr.shear_data(s2d), gr.shear_data(explicit)
    np.testing.assert_array_equal(np.stack(basis1), np.stack(basis2))
    np.testing.assert_array_equal(y1, y2)
    assert s2d.nilpotency_class == explicit.nilpotency_class == 2
    assert em.shearlet_atom_order(s2d) == em.shearlet_atom_order(explicit)
    for eps, r, t in [(1, 0.3, 0.7), (-1, -1.2, 2.5)]:
        assert gr.modular_data(s2d, gr.element_from_factored(s2d, eps, r, [t])) == \
            gr.modular_data(explicit, gr.element_from_factored(explicit, eps, r, [t]))
    weight = em.WeightSpec.make()
    sharp, generic = em.analytic_exponents(s2d, weight), em.analytic_exponents(explicit, weight)
    assert (sharp.e1, sharp.e3, sharp.e4) == (generic.e1, generic.e3, generic.e4)
    assert sharp.e2 == 1 + abs(Fraction(c)) < generic.e2 == 1 + 2 * max(1, abs(Fraction(c)))
