"""Orbits as coordinate blocks, Shearlet2D as the d = 2 generalized shearlet group,
and the refusal of a family that no chain knows."""

import math
from dataclasses import dataclass
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


def test_nested_product_folds_like_the_flat_product_of_its_leaves():
    """The leaf walk flattens nesting, so each fold over the leaves gives the
    same bits on a nested product and on the flat product of its leaves."""
    flat = gr.DirectProduct(tuple(f for f, _ in gr.leaves(NESTED)))
    assert flat.factors[:2] == (gr.Similitude(2), gr.Diagonal(2))
    assert [s for _, s in gr.leaves(NESTED)] == [slice(0, 2), slice(2, 4), slice(4, 6)]
    pts = nested_points()
    pts = pts[[ob.in_orbit(ob.orbit_of(NESTED), xi) for xi in pts]]
    np.testing.assert_array_equal(ob.orbit_density(NESTED, pts), ob.orbit_density(flat, pts))
    np.testing.assert_array_equal(ob.orbit_section(NESTED, pts[0]).matrix,
                                  ob.orbit_section(flat, pts[0]).matrix)
    nested, plain = (gr.sample_group(s, np.random.default_rng(5), 20, 1.0, 1.0)
                     for s in (NESTED, flat))
    for field in ("matrices", "delta_h", "dual_points"):
        np.testing.assert_array_equal(getattr(nested, field), getattr(plain, field))
    for h in nested.matrices:
        assert gr.modular_data(NESTED, h) == gr.modular_data(flat, h)
    weight = em.WeightSpec.make(2, 3, 1, em.POWER, 1)
    assert em.analytic_exponents(NESTED, weight) == em.analytic_exponents(flat, weight)


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
    assert sharp == generic
    assert sharp.e2 == 1 + abs(Fraction(c))


@dataclass(frozen=True)
class Unknown:
    """A leaf family that no chain knows."""
    dim: int


REFUSING = {
    "orbit_of": ob.orbit_of,
    "density_exponents": ob.density_exponents,
    "orbit_density": lambda spec: ob.orbit_density(spec, np.ones((3, spec.dim))),
    "orbit_section": lambda spec: ob.orbit_section(spec, np.ones(spec.dim)),
    "modular_data": lambda spec: gr.modular_data(spec, np.eye(spec.dim)),
    "sample_group": lambda spec: gr.sample_group(spec, np.random.default_rng(0), 4, 1.0, 1.0),
    "sample_near_identity": lambda spec: gr.sample_near_identity(
        spec, np.random.default_rng(0), 4),
    "analytic_exponents": lambda spec: em.analytic_exponents(spec, em.WeightSpec.make()),
}


@pytest.mark.parametrize("spec", [Unknown(2), gr.DirectProduct((gr.Diagonal(1), Unknown(2)))],
                         ids=["leaf", "in-product"])
@pytest.mark.parametrize("name", sorted(REFUSING))
def test_unknown_family_is_refused(name, spec):
    with pytest.raises(gr.UnsupportedSpecError):
        REFUSING[name](spec)
