"""Tests for orbit geometry, envelopes, sections, and measure transfer."""

import functools
import math

import numpy as np
import pytest

from orbitlet import algebra as al
from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import orbit as ob
from orbitlet import quadrature as quad


def test_orbit_kinds():
    assert ob.orbit_of(gr.Shearlet2D(0.5)).kind == ob.FIRST_COORD
    assert ob.orbit_of(gr.Similitude(3)).kind == ob.PUNCTURED
    assert ob.orbit_of(gr.Diagonal(2)).kind == ob.CROSS
    assert ob.orbit_of(gr.toeplitz_shearlet_group(3)).kind == ob.FIRST_COORD
    block = ob.orbit_of(gr.DirectProduct((gr.Diagonal(1), gr.Shearlet2D(0.5))))
    assert block.kind == ob.BLOCK and block.dim == 3


def test_dist_first_coordinate():
    orbit = ob.orbit_of(gr.Shearlet2D(0.5))
    d, eta = ob.dist_to_complement(orbit, [0.3, 5.0])
    assert d == pytest.approx(0.3)
    assert np.allclose(eta, [0.0, 5.0])


def test_dist_cross():
    orbit = ob.orbit_of(gr.Diagonal(2))
    d, eta = ob.dist_to_complement(orbit, [2.0, -0.5])
    assert d == pytest.approx(0.5)
    assert np.allclose(eta, [2.0, 0.0])


def test_dist_punctured():
    orbit = ob.orbit_of(gr.Similitude(2))
    d, eta = ob.dist_to_complement(orbit, [3.0, 4.0])
    assert d == pytest.approx(5.0)
    assert np.allclose(eta, [0.0, 0.0])


def test_dist_block_product():
    spec = gr.DirectProduct((gr.Diagonal(1), gr.Shearlet2D(0.5)))
    orbit = ob.orbit_of(spec)
    d, eta = ob.dist_to_complement(orbit, [2.0, 0.7, 9.0])
    assert d == pytest.approx(0.7)
    assert np.allclose(eta, [2.0, 0.0, 9.0])


def test_dist_rejects_complement_point():
    orbit = ob.orbit_of(gr.Shearlet2D(0.5))
    with pytest.raises(ob.OrbitError):
        ob.dist_to_complement(orbit, [0.0, 1.0])


def test_envelope_orthogonality_and_bounds():
    rng = np.random.default_rng(0)
    for spec in (gr.Shearlet2D(0.5), gr.Similitude(3), gr.Diagonal(3)):
        orbit = ob.orbit_of(spec)
        pts = rng.normal(size=(200, spec.dim)) * 3
        pts = pts[np.array([ob.in_orbit(orbit, p) for p in pts])]
        dist, eta = ob.nearest_complement(orbit, pts)
        # eta is orthogonal to xi - eta for the euclidean nearest point
        inner = np.einsum("ni,ni->n", eta, pts - eta)
        assert np.abs(inner).max() < 1e-10
        a = ob.envelope_values(orbit, pts)
        assert (a <= 1.0 + 1e-12).all()
        assert (a <= 1.0 / (1.0 + np.linalg.norm(pts, axis=1)) + 1e-12).all()


def test_envelope_examples():
    orbit = ob.orbit_of(gr.toeplitz_shearlet_group(3))
    v = ob.envelope_A(orbit, [1.0, 0.0, 0.0])
    assert v.a == pytest.approx(0.5)
    # punctured 1-D style: along the ray (r, 0) of the similitude orbit
    orbit2 = ob.orbit_of(gr.Similitude(2))
    for r in (0.1, 0.5, 2.0, 7.0):
        v = ob.envelope_A(orbit2, [r, 0.0])
        assert v.a == pytest.approx(min(r, 1.0 / (1.0 + r)))


def test_envelope_AH_shearlet_formula():
    spec = gr.Shearlet2D(0.5)
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = float(np.exp(rng.uniform(-2, 2)))
        b = float(rng.uniform(-4, 4))
        h = gr.shearlet2d_element(spec, a, b)
        expected = min(a / (1.0 + abs(b)), 1.0 / (1.0 + math.hypot(a, b)))
        assert ob.envelope_AH(spec, h) == pytest.approx(expected)


def test_envelope_AH_identity():
    spec = gr.toeplitz_shearlet_group(3)
    assert ob.envelope_AH(spec, gr.identity(spec)) == pytest.approx(0.5)


def test_envelope_AH_generalized_bounds():
    # A_H(h) <= exp(r) and A_H(h) <= C exp(-r) along the diagonal subgroup
    spec = gr.standard_shearlet_group(3)
    for r in np.linspace(-3, 3, 25):
        h = gr.element_from_factored(spec, 1, float(r), np.zeros(2))
        ah = ob.envelope_AH(spec, h)
        assert ah <= math.exp(r) + 1e-12
        assert ah <= 2.0 * math.exp(-r)


def test_orbit_section_roundtrip():
    rng = np.random.default_rng(2)
    specs = [gr.Shearlet2D(0.5), gr.standard_shearlet_group(3),
             gr.toeplitz_shearlet_group(4), gr.Diagonal(3), gr.Similitude(2),
             gr.DirectProduct((gr.Diagonal(1), gr.Shearlet2D(0.5)))]
    for spec in specs:
        orbit = ob.orbit_of(spec)
        count = 0
        while count < 100:
            xi = rng.normal(size=spec.dim) * 2
            if not ob.in_orbit(orbit, xi):
                continue
            h = ob.orbit_section(spec, xi)
            assert np.allclose(gr.dual_action(h, orbit.base_point), xi,
                               rtol=1e-10, atol=1e-12)
            count += 1


def test_orbit_section_base_point_is_identity():
    spec = gr.standard_shearlet_group(3)
    h = ob.orbit_section(spec, [1.0, 0.0, 0.0])
    assert np.allclose(h.matrix, np.eye(3), atol=1e-12)


def test_orbit_section_shearlet_ab():
    spec = gr.Shearlet2D(0.5)
    h = ob.orbit_section(spec, [4.0, 1.0])
    _, a, b = gr.shearlet2d_ab(h)
    assert (a, b) == (pytest.approx(4.0), pytest.approx(1.0))


def test_orbit_membership_invariance():
    rng = np.random.default_rng(3)
    for spec in (gr.Shearlet2D(0.5), gr.Diagonal(3), gr.Similitude(2)):
        orbit = ob.orbit_of(spec)
        sample = gr.sample_group(spec, rng, 50, 2.0, 2.0)
        for mat in sample.matrices[:20]:
            xi = rng.normal(size=spec.dim)
            while not ob.in_orbit(orbit, xi):
                xi = rng.normal(size=spec.dim)
            assert ob.in_orbit(orbit, mat.T @ xi)


# --- quadrature --------------------------------------------------------------

def gaussian(pts):
    return np.exp(-np.pi * np.einsum("ni,ni->n", pts, pts))


def test_orbit_integral_gaussian_2d():
    orbit = ob.orbit_of(gr.Shearlet2D(0.5))
    res = ob.orbit_integral(orbit, gaussian)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-3)


def test_orbit_integral_envelope_power_finite():
    orbit = ob.orbit_of(gr.Shearlet2D(0.5))
    k = 4  # > d
    res = ob.orbit_integral(orbit, lambda p: ob.envelope_values(orbit, p) ** k)
    assert res.converged
    assert 0 < res.value < math.inf


@pytest.mark.parametrize("spec", [gr.Shearlet2D(0.5), gr.Similitude(2), gr.Diagonal(2),
                                  gr.DirectProduct((gr.Diagonal(1), gr.Shearlet2D(0.5)))],
                         ids=["first-coordinate", "punctured", "cross", "block-3d"])
def test_orbit_integral_covers_the_complement_neighbourhood(spec):
    # the complement has measure zero, so a Gaussian integrates to its full-space value
    sigma = 0.94
    res = ob.orbit_integral(ob.orbit_of(spec), lambda p: np.exp(
        -np.einsum("ni,ni->n", p, p) / (2 * sigma ** 2)))
    assert res.converged and res.stages <= 3, res
    assert res.value == pytest.approx((2 * math.pi) ** (spec.dim / 2) * sigma ** spec.dim,
                                      rel=1e-8)


@pytest.mark.parametrize("spec", [gr.Shearlet2D(0.5), gr.Similitude(2), gr.Diagonal(2)],
                         ids=["first-coordinate", "punctured", "cross"])
def test_divergent_orbit_integral_is_not_converged(spec):
    # the outer ring grows every stage, so the integral of 1 never repeats a stage value
    res = ob.orbit_integral(ob.orbit_of(spec), lambda p: np.ones(len(p)))
    assert res.converged is False, res


def test_haar_transfer_shearlet2d():
    report = ob.haar_transfer_check(gr.Shearlet2D(0.5), gaussian)
    assert report.rel_error < 1e-3, report


def test_haar_transfer_standard_3d():
    report = ob.haar_transfer_check(gr.standard_shearlet_group(3), gaussian)
    assert report.rel_error < 1e-3, report


def test_haar_transfer_similitude_2d():
    report = ob.haar_transfer_check(gr.Similitude(2), gaussian)
    assert report.rel_error < 1e-3, report


def test_haar_transfer_diagonal_2d():
    report = ob.haar_transfer_check(gr.Diagonal(2), gaussian)
    assert report.rel_error < 1e-3, report


# The shear group side integrates over s = (t F) o exp(r Y_2..d), where the
# t-mass of every c sits inside the fixed chart box; with t itself on the axes
# these converged falsely (c = -3, -1, -0.5) or ran out of stages (c = 2, and
# toeplitz-3 after 11 of 12).  At c = 60 and 100, |det h| = exp(r (1 + c))
# overflows inside the r box, although the weight it belongs to is e^r.
SHEAR_PROBES = [gr.Shearlet2D(c) for c in (-3.0, -1.0, -0.5, 0.5, 2.0, 60.0, 100.0)] + [
    gr.toeplitz_shearlet_group(3)]


@pytest.mark.parametrize("spec", SHEAR_PROBES, ids=lambda s: s.name or repr(s))
def test_haar_transfer_shear_probes(spec):
    report = ob.haar_transfer_check(spec, gaussian)
    assert report.rel_error < 1e-3 and report.to_json()["converged"], report
    assert ob.group_side_integral(spec, gaussian).stages == 3  # its minimum


def factored_gaussian(dim, sigma=1.0):
    """The haar-check Gaussian, declared by its factors: its integrals take the
    separable route of quad.integrate."""
    return quad.Product((lambda x: np.exp(-np.pi * x * x / sigma ** 2),) * dim)


@pytest.mark.parametrize("factored", [False, True], ids=["plain", "factored"])
@pytest.mark.parametrize("spec", [gr.Shearlet2D(0.5), gr.standard_shearlet_group(3)],
                         ids=["shearlet-2d", "standard-3d"])
@pytest.mark.parametrize("det,caught", [
    (gr.ShearChart.det, False),
    (lambda self, r: self.haar(r), True),       # trace Y - d in place of trace Y
    (lambda self, r: np.ones_like(r), True)],    # |det h| dropped
    ids=["true-weight", "haar-as-det", "det-dropped"])
def test_haar_transfer_catches_a_wrong_group_weight(monkeypatch, spec, det, caught, factored):
    # In (r, s) the integrand is F(+-(e^r, s)) and the Haar weight enters only
    # through ShearChart.det, so a wrong weight must show in rel_error, on the
    # tensor grid and as 1-D sums alike.  Both wrong weights diverge as
    # r -> -inf; three stages (the true weight's count) keep that cheap.
    monkeypatch.setattr(gr.ShearChart, "det", det)
    monkeypatch.setattr(quad, "staged_refinement",
                        functools.partial(quad.staged_refinement, max_stages=3))
    report = ob.haar_transfer_check(spec, factored_gaussian(spec.dim) if factored else gaussian)
    assert (report.rel_error > 1e-3) is caught, report


# Every group haar-check integrates: the catalog less similitude-3d, plus the shear probes.
HAAR_GROUPS = [(name, spec) for name, spec in em.default_catalog()
               if not (isinstance(spec, gr.Similitude) and spec.dim != 2)] + [
    (repr(spec), spec) for spec in SHEAR_PROBES if spec.name is None]  # toeplitz-3d is in
# On the tensor grid these take seconds to minutes; they compare both routes
# on every 8th node of each axis over three stages.
THINNED = {"diagonal-3d", "standard-4d", "toeplitz-4d", "Ha(-1)", "Ha(0)", "Ha(1)"}


@pytest.mark.parametrize("name,spec", HAAR_GROUPS, ids=[name for name, _ in HAAR_GROUPS])
def test_factored_haar_transfer_matches_the_tensor_grid(monkeypatch, name, spec):
    if name in THINNED:
        integrate = quad.integrate
        monkeypatch.setattr(quad, "integrate", lambda axes, func: integrate(
            [quad.Axis(ax.nodes[::8], ax.weights[::8]) for ax in axes], func))
        monkeypatch.setattr(quad, "staged_refinement",
                            functools.partial(quad.staged_refinement, max_stages=3))
    # off-center, so that a lost sign of eps (e^r, s) shows
    product = quad.Product(tuple(lambda x, c=c: np.exp(-np.pi * (x - c) ** 2 / 0.81)
                                 for c in np.linspace(0.3, -0.2, spec.dim)))
    results = {}
    for route, func in (("factored", product), ("tensor", lambda pts: product(pts))):
        results[route] = (ob.group_side_integral(spec, func),
                          ob.orbit_integral(ob.orbit_of(spec), func))
    for factored, tensor in zip(results["factored"], results["tensor"]):
        assert factored.stages == tensor.stages and factored.converged == tensor.converged
        assert np.allclose(factored.history, tensor.history, rtol=1e-12, atol=0), (factored, tensor)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_chart_s_axes_mirror_onto_themselves(d):
    # the shear group side carries the sign eps on its first axis alone, which is
    # exact because s -> -s maps every s axis onto itself, nodes and weights
    for stage in range(12):
        for ax in ob.chart_stage_axes(d, stage)[1:]:
            order = np.argsort(ax.nodes)
            nodes, weights = ax.nodes[order], ax.weights[order]
            assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])


@pytest.mark.parametrize("spec", [gr.Shearlet2D(0.5), gr.Shearlet2D(-3.0),
                                  gr.toeplitz_shearlet_group(3)], ids=lambda s: s.name or repr(s))
def test_mirrored_group_side_matches_both_signs(spec):
    # an off-center plain function is not even, so F(-(e^r, s)) differs from
    # F(+(e^r, s)): the reference adds both signs at every (r, s) node
    centers = np.linspace(0.3, -0.2, spec.dim)

    def func(pts):
        return np.exp(-np.pi * ((pts - centers) ** 2).sum(axis=1) / 0.81)

    chart = gr.shear_chart(spec)

    def both_signs(pts):
        r = pts[:, 0]
        dual = np.column_stack([np.exp(r), pts[:, 1:]])
        weight = chart.det(r) * np.exp(-r * (chart.trace_y - 1.0)) \
            / abs(np.linalg.det(chart.first_rows))
        return (func(dual) + func(-dual)) * weight

    result = ob.group_side_integral(spec, func)
    reference = [quad.tensor_eval(ob.chart_stage_axes(spec.dim, stage), both_signs)
                 for stage in range(result.stages)]
    assert result.converged
    assert np.allclose(result.history, reference, rtol=1e-12, atol=0), (result, reference)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_abelian_haar_transfer_compares_two_integrals(d):
    # the group side runs on the shear chart with Y = 1, not on the orbit side
    # again, so rel_error is small but no longer 0 by construction
    spec = gr.AbelianFromAlgebra(al.polynomial_quotient_algebra(d))
    report = ob.haar_transfer_check(spec, factored_gaussian(d, 0.9))
    assert report.to_json()["converged"] and 0 < report.rel_error < 1e-3, report
    assert ob.group_side_integral(spec, factored_gaussian(d, 0.9)).stages == 3


@pytest.mark.parametrize("spec", gr.enumerate_catalog(2) + gr.enumerate_catalog(3),
                         ids=lambda s: s.name)
def test_group_side_dual_point_is_the_chart_dual(spec):
    # group_side_integral builds the dual point (e^r, s) without the chart;
    # it must be the chart's dual at t = (s o exp(-r Y_2..d)) F^-1
    chart = gr.shear_chart(spec)
    rng = np.random.default_rng(12)
    r = rng.uniform(-8.0, 8.0, 200)
    s = rng.uniform(-16.0, 16.0, (200, spec.dim - 1))
    t = (s * np.exp(-r[:, None] * chart.Y[None, 1:])) @ np.linalg.inv(chart.first_rows)
    expected = np.column_stack([np.exp(r), s])
    assert np.allclose(chart.dual(1.0, r, t), expected, rtol=1e-12, atol=0.0)


# --- row norms -----------------------------------------------------------------

@pytest.mark.parametrize("d", range(1, 8))
def test_row_norms_are_the_bits_of_linalg_norm(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((20_000, d)) * 10.0 ** rng.uniform(-300, 300, (20_000, d))
    x[:50] = 1e200  # squares overflow to inf
    with np.errstate(over="ignore", under="ignore"):
        expected = np.linalg.norm(x, axis=1)
        assert np.isinf(expected[:50]).all()
        assert np.array_equal(ob.row_norms(x), expected)
        wide = np.hstack([x, x])  # a column slice is not contiguous
        assert np.array_equal(ob.row_norms(wide[:, 1:d + 1]),
                              np.linalg.norm(wide[:, 1:d + 1], axis=1))


def _envelope_by_linalg_norm(orbit, pts, order):
    """The envelope with its row norms taken by np.linalg.norm (order None or
    inf), the block distances as in nearest_complement."""
    _, eta = ob.nearest_complement(orbit, pts)
    dist = np.linalg.norm(pts - eta, order, axis=1) if order else np.min(
        [np.abs(pts[:, a]) if b - a == 1 else np.linalg.norm(pts[:, a:b], axis=1)
         for a, b in orbit.blocks], axis=0)
    return np.minimum(dist / (1.0 + np.linalg.norm(eta, order, axis=1)),
                      1.0 / (1.0 + np.linalg.norm(pts, order, axis=1)))


@pytest.mark.parametrize("spec", [s for _, s in em.default_catalog()] + [
    gr.DirectProduct((gr.Similitude(2), gr.Diagonal(1)))], ids=str)
def test_envelopes_keep_the_bits_of_linalg_norm(spec):
    orbit = ob.orbit_of(spec)
    rng = np.random.default_rng(spec.dim)
    pts = rng.standard_normal((5_000, spec.dim)) * 10.0 ** rng.uniform(-150, 150, (5_000, spec.dim))
    with np.errstate(over="ignore", under="ignore"):
        assert np.array_equal(ob.envelope_values(orbit, pts),
                              _envelope_by_linalg_norm(orbit, pts, None))
        if orbit.kind != ob.BLOCK:
            assert np.array_equal(ob.envelope_values_maxnorm(orbit, pts),
                                  _envelope_by_linalg_norm(orbit, pts, np.inf))


@pytest.mark.parametrize("spec", [gr.Shearlet2D(0.5), gr.standard_shearlet_group(3),
                                  gr.h_a_shearlet_group(1), gr.Similitude(2), gr.Similitude(3)],
                         ids=["shearlet-2d", "standard-3d", "Ha(1)", "similitude-2d", "similitude-3d"])
def test_single_block_envelope_keeps_the_bits_of_the_eta_route(monkeypatch, spec):
    """One block: |eta| from the kept columns is the norm of the zeroed copy eta,
    bit for bit, on complement points (xi_1 = 0, the zero row) and at 1e200."""
    orbit = ob.orbit_of(spec)
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((2_000, spec.dim)) * 10.0 ** rng.uniform(-150, 150, (2_000, spec.dim))
    pts[:100, 0] = 0.0
    pts[100:110] = 0.0
    pts[110:150] = 1e200 * np.sign(pts[110:150])
    pts[150:160, 1:] = 1e200
    with np.errstate(over="ignore", under="ignore"):
        expected = ob._envelope(pts, *ob.nearest_complement(orbit, pts))
        monkeypatch.setattr(ob, "nearest_complement", None)  # the shortcut builds no eta
        assert np.array_equal(ob.envelope_values(orbit, pts), expected)
    assert (expected[100:110] == 0).all() and np.isfinite(expected).all()


@pytest.mark.parametrize("spec", [gr.Diagonal(2), gr.DirectProduct(
    (gr.Shearlet2D(0.5), gr.Similitude(2)))], ids=["diagonal-2d", "shearlet-x-similitude"])
def test_multi_block_envelope_keeps_the_eta_route(monkeypatch, spec):
    orbit = ob.orbit_of(spec)
    pts = np.random.default_rng(3).standard_normal((50, spec.dim))
    calls = []
    route = ob.nearest_complement
    monkeypatch.setattr(ob, "nearest_complement", lambda o, p: calls.append(len(p)) or route(o, p))
    assert np.array_equal(ob.envelope_values(orbit, pts), ob._envelope(pts, *route(orbit, pts)))
    assert calls == [50]


# --- envelope regularity properties ------------------------------------------

CATALOG = [gr.Shearlet2D(0.5), gr.Similitude(2), gr.Diagonal(2),
           gr.standard_shearlet_group(3), gr.toeplitz_shearlet_group(3)]


def _orbit_points(orbit, rng, n):
    pts = np.empty((0, orbit.dim))
    while len(pts) < n:
        cand = rng.normal(size=(2 * n, orbit.dim)) * 2.5
        keep = np.array([ob.in_orbit(orbit, p) for p in cand])
        pts = np.concatenate([pts, cand[keep]])
    return pts[:n]


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: str(s)[:30])
def test_moderateness_bound(spec):
    rng = np.random.default_rng(4)
    orbit = ob.orbit_of(spec)
    pts = _orbit_points(orbit, rng, 10_000)
    mats = gr.sample_near_identity(spec, rng, 64, radius=0.5)
    a0 = ob.envelope_values(orbit, pts)
    worst = 0.0
    for mat in mats:
        moved = pts @ mat  # rows: (h^T xi)^T = xi^T h
        ratio = ob.envelope_values(orbit, moved) / a0
        worst = max(worst, float(ratio.max()))
    assert worst <= 64.0, worst


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: str(s)[:30])
def test_norm_robustness(spec):
    rng = np.random.default_rng(5)
    orbit = ob.orbit_of(spec)
    pts = _orbit_points(orbit, rng, 10_000)
    a2 = ob.envelope_values(orbit, pts)
    ainf = ob.envelope_values_maxnorm(orbit, pts)
    ratio = ainf / a2
    assert ratio.max() <= 16.0
    assert ratio.min() >= 1.0 / 16.0


def test_conjugation_equivalence():
    # envelope of the conjugated group at g^T xi stays within two-sided
    # constant factors of the original envelope
    rng = np.random.default_rng(6)
    spec = gr.Shearlet2D(0.5)
    orbit = ob.orbit_of(spec)
    g = np.array([[1.0, 0.4], [-0.3, 1.1]])
    pts = _orbit_points(orbit, rng, 5_000)
    a1 = ob.envelope_values(orbit, pts)
    # nearest point of (g^T O)^c to g^T xi: minimize |g^T(xi - eta)| over
    # eta_1 = 0, a 1-D least-squares problem in eta_2
    gt = g.T
    col = gt[:, 1]
    moved = pts @ g
    coef = (moved @ col) / (col @ col)
    zeta = np.outer(coef, col)
    dist = np.linalg.norm(moved - zeta, axis=1)
    a2 = np.minimum(dist / (1.0 + np.linalg.norm(zeta, axis=1)),
                    1.0 / (1.0 + np.linalg.norm(moved, axis=1)))
    ratio = a2 / a1
    assert ratio.max() <= 100.0
    assert ratio.min() >= 1.0 / 100.0
    # and the spread itself should be modest for this mild g
    assert ratio.max() / ratio.min() < 50.0


def test_block_product_envelope_inequality():
    # A_H(h)^2 <= A_H1(h1) A_H2(h2) for block-diagonal products; the block
    # envelope uses the exact product-space distance, not the per-block
    # product, so this is an inequality rather than an identity
    rng = np.random.default_rng(7)
    f1, f2 = gr.Diagonal(1), gr.Shearlet2D(0.5)
    spec = gr.DirectProduct((f1, f2))
    orbit = ob.orbit_of(spec)
    o1, o2 = ob.orbit_of(f1), ob.orbit_of(f2)
    s1 = gr.sample_group(f1, rng, 300, 2.0, 2.0)
    s2 = gr.sample_group(f2, rng, 300, 2.0, 2.0)
    duals = np.concatenate([s1.dual_points, s2.dual_points], axis=1)
    a = ob.envelope_values(orbit, duals)
    a1 = ob.envelope_values(o1, s1.dual_points)
    a2 = ob.envelope_values(o2, s2.dual_points)
    assert (a ** 2 <= a1 * a2 * (1 + 1e-12)).all()


def test_envelope_AH_continuity_along_path():
    spec = gr.Shearlet2D(0.5)
    rs = np.linspace(-2, 2, 400)
    vals = [ob.envelope_AH(spec, gr.element_from_factored(spec, 1, float(r), [0.7]))
            for r in rs]
    jumps = np.abs(np.diff(vals))
    assert jumps.max() < 0.02


def test_orbit_density_closed_forms():
    pts = np.array([[0.5, 3.0], [2.0, -1.0]])
    shear = ob.orbit_density(gr.Shearlet2D(0.5), pts)
    assert np.allclose(shear, np.abs(pts[:, 0]) ** -2)
    sim = ob.orbit_density(gr.Similitude(2), pts)
    assert np.allclose(sim, np.linalg.norm(pts, axis=1) ** -2.0)
    diag = ob.orbit_density(gr.Diagonal(2), pts)
    assert np.allclose(diag, 1.0 / np.abs(pts).prod(axis=1))
    # generalized shearlet density agrees with Delta_H/|det| at the section
    spec = gr.standard_shearlet_group(3)
    xi = np.array([0.8, 1.5, -0.4])
    h = ob.orbit_section(spec, xi)
    det, dh, _ = gr.modular_data(spec, h)
    assert ob.orbit_density(spec, xi[None])[0] == pytest.approx(dh / abs(det))
