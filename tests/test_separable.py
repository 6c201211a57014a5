"""The separable quadrature of partial atoms agrees with the tensor grid.

For psi = d^m (s_1 x ... x s_d) and a density prod |xi_j|^-p_j, every
admissibility shell and every moment integral is a product of 1-D sums.
These tests compare each against the full tensor-grid evaluation of the
same quadrature rule.
"""

import math

import numpy as np
import pytest

from orbitlet import algebra as al
from orbitlet import atoms as at
from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import orbit as ob
from orbitlet import quadrature as quad


class SpectrumOnly:
    """Exposes only the closed-form spectrum, so the shells take the tensor path."""

    def __init__(self, atom):
        self.atom = atom

    def spectrum(self, pts):
        return self.atom.spectrum(pts)


SHELL_CASES = {"shearlet-2d": (gr.Shearlet2D(0.5), range(3)),
               "standard-3d": (gr.standard_shearlet_group(3), range(4)),
               "diagonal-2d": (gr.Diagonal(2), (0, 2))}


@pytest.mark.parametrize("name", SHELL_CASES)
def test_separable_shells_match_tensor_grid(name):
    spec, orders = SHELL_CASES[name]
    atoms = [at.make_atom(spec, r, at.spline_base([5] * spec.dim)) for r in orders]
    assert all(atom.factors is not None for atom in atoms)
    assert ob.density_exponents(spec) is not None
    # the tensor-grid references dominate the run time; two threads share them
    refs = quad.parallel_map(lambda atom: at.admissibility_check(spec, SpectrumOnly(atom)),
                             atoms, threads=2)
    for atom, ref in zip(atoms, refs):
        fast = at.admissibility_check(spec, atom)
        for got, want in ((fast.inner_shells, ref.inner_shells),
                          (fast.outer_shells, ref.outer_shells)):
            assert (want > 0).all()
            assert (np.abs(got - want) <= 1e-12 * want).all()
        assert fast.verdict == ref.verdict


@pytest.mark.parametrize("r", (1, 2))
@pytest.mark.parametrize("spec", [gr.Diagonal(3), gr.DirectProduct((gr.Diagonal(1),
                                                                    gr.Shearlet2D(0.5)))],
                         ids=["diagonal-3d", "product-2"])
def test_shell_rule_is_inclusion_exclusion(spec, r, monkeypatch):
    """A shell, where the least |xi_a| over the block starts a lies in [lo, hi), is one
    quad.integrate per nonempty set of starts in the ring; with a Product integrand their
    sum is prod_a (ring_a + clipped_a) - prod_a clipped_a times the other axes' 1-D sums."""
    starts = [a for a, _ in ob.orbit_of(spec).blocks]
    assert len(starts) > 1
    calls, integrate = [], quad.integrate

    def recorded(axes, func):
        calls.append((axes, func))
        return integrate(axes, func)

    monkeypatch.setattr(quad, "integrate", recorded)
    report = at.admissibility_check(spec, at.make_atom(spec, r, at.spline_base([5] * spec.dim)))
    terms = 2 ** len(starts) - 1
    assert len(calls) == 2 * 14 * terms
    shells = [(report.inner_shells[k], 2.0 ** (-k - 1), 2.0 ** -k) for k in range(3)]
    shells += [(report.outer_shells[k], 2.0 ** k, 2.0 ** (k + 1)) for k in range(14)]
    for (shell, lo, hi), first in zip(shells, [*range(3), *range(14, 28)]):
        (axes, func), (second, _) = calls[first * terms:first * terms + 2]
        ring, clipped = axes[starts[0]], second[starts[0]]
        assert ((lo <= np.abs(ring.nodes)) & (np.abs(ring.nodes) <= hi)).all()
        assert (np.abs(clipped.nodes) >= hi).all()
        sums = [[float(np.sum(f(ax.nodes) * ax.weights)) for f in func.factors]
                for ax in (ring, clipped)]
        rest = math.prod(float(np.sum(f(ax.nodes) * ax.weights))
                         for j, (f, ax) in enumerate(zip(func.factors, axes)) if j not in starts)
        want = rest * (math.prod(sums[0][a] + sums[1][a] for a in starts)
                       - math.prod(sums[1][a] for a in starts))
        assert abs(shell - want) <= 1e-12 * want
    if isinstance(spec, gr.Diagonal):
        assert report.inner_shells[-1] / report.inner_shells[-2] == pytest.approx(4.0 ** -r,
                                                                                 rel=1e-4)


@pytest.mark.parametrize("spec,r", [(gr.Shearlet2D(0.5), 2), (gr.Diagonal(2), 2),
                                    (gr.standard_shearlet_group(3), 3)],
                         ids=["shearlet-2d", "diagonal-2d", "standard-3d"])
def test_separable_moments_match_tensor_grid(spec, r):
    atom = at.make_atom(spec, r, at.spline_base([5] * spec.dim))
    parts = at._moment_factors(atom)
    assert len(parts) == spec.dim
    pts, wts = quad.tensor_grid(at._quad_axes(atom.base))
    grid = [(slice(None), pts, wts, atom.evaluate(pts))]
    l1 = float(np.sum(np.abs(grid[0][3]) * wts))
    # complement probes (vanishing moments) and generic points (non-vanishing ones)
    etas = [eta for eta, _ in at._complement_probes(ob.orbit_of(spec))][:2]
    etas += [np.array([0.3, -0.2, 0.25][:spec.dim]), np.array([-0.15, 0.35, 0.2][:spec.dim])]
    fast = list(at._moments(parts, etas, r))
    ref = list(at._moments(grid, etas, r))
    assert len(fast) == len(ref) > 0
    assert max(abs(m) for m, _ in ref) > 1e-3 * l1  # some moments do not vanish
    for (m_fast, mass_fast), (m_ref, mass_ref) in zip(fast, ref):
        assert abs(m_fast - m_ref) <= 1e-12 * l1
        assert abs(mass_fast - mass_ref) <= 1e-12 * l1


def test_single_factor_moments_cover_laplacian_and_sampled():
    spec = gr.Similitude(2)
    atom = at.make_atom(spec, 2, at.spline_base([5, 5]))
    assert atom.factors is None
    assert len(at._moment_factors(atom)) == 1
    assert len(at._moment_factors(at.sample_atom(atom, [24, 24]))) == 1


def test_abelian_shells_are_separable(monkeypatch):
    spec = gr.AbelianFromAlgebra(al.polynomial_quotient_algebra(3))
    atom = at.make_atom(spec, 2, at.spline_base([5] * spec.dim))
    assert atom.factors is not None

    def no_tensor_grid(*args, **kwargs):
        raise AssertionError("admissibility shells ran on the tensor grid")

    monkeypatch.setattr(quad, "tensor_eval", no_tensor_grid)
    assert at.admissibility_check(spec, atom).verdict == "finite"


DENSITY_CASES = em.default_catalog() + [
    (f"abelian-{name}", gr.AbelianFromAlgebra(alg)) for name, alg in (
        ("x2", al.polynomial_quotient_algebra(2)), ("x3", al.polynomial_quotient_algebra(3)),
        ("h0", al.h_a_algebra(0)))] + [  # products of one-axis blocks factor too
    ("product-diagonal-shearlet", gr.DirectProduct((gr.Diagonal(1), gr.Shearlet2D(0.5)))),
    ("product-toeplitz-3", gr.DirectProduct((gr.toeplitz_shearlet_group(3),)))]


@pytest.mark.parametrize("name,spec", DENSITY_CASES, ids=[name for name, _ in DENSITY_CASES])
def test_density_exponents_match_orbit_density(name, spec):
    powers = ob.density_exponents(spec)
    if powers is None:
        assert isinstance(spec, gr.Similitude)
        return
    xi = np.random.default_rng(11).uniform(0.2, 2.0, (6, spec.dim))
    xi *= np.where(np.arange(6 * spec.dim).reshape(6, spec.dim) % 3 == 0, -1.0, 1.0)
    product = np.prod(np.abs(xi) ** -np.array(powers, dtype=float), axis=1)
    assert np.allclose(ob.orbit_density(spec, xi), product, rtol=1e-12, atol=0)
    for point, want in zip(xi, product):  # Phi = Delta_H / |det| at the orbit section
        det, delta_h, _ = gr.modular_data(spec, ob.orbit_section(spec, point))
        assert delta_h / abs(det) == pytest.approx(want, rel=1e-9)


def test_product_call_is_the_product_of_its_factors():
    factors = (np.cos, lambda x: np.exp(-x * x), lambda x: 1.0 + x ** 3)
    pts = np.random.default_rng(5).normal(size=(50, 3))
    expected = np.cos(pts[:, 0]) * np.exp(-pts[:, 1] ** 2) * (1.0 + pts[:, 2] ** 3)
    assert np.array_equal(quad.Product(factors)(pts), expected)


def test_integrate_sums_a_product_axis_by_axis(monkeypatch):
    axes = [quad.Axis(*quad.composite_gauss(-1.0, 2.0, 3, 6)) for _ in range(3)]
    product = quad.Product((np.cos, lambda x: np.exp(-x * x), lambda x: 1.0 + x ** 3))
    tensor = quad.integrate(axes, lambda pts: product(pts))  # a plain point function
    monkeypatch.setattr(quad, "tensor_eval", lambda *args: pytest.fail("ran on the tensor grid"))
    assert quad.integrate(axes, product) == pytest.approx(tensor, rel=1e-13)
