"""Tests for exponents, indices, moment orders, control weights, and the
empirical boundedness machinery."""

from fractions import Fraction

import numpy as np
import pytest

from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import orbit as ob
from orbitlet import quadrature as quad

W = em.WeightSpec.make()  # p = q = 2, s = 0, maxdelta


def test_analytic_exponents_shearlet2d():
    e = em.analytic_exponents(gr.Shearlet2D(0.5), W)
    assert e.as_floats() == (2.0, 1.5, 1.5, 0.5)


def test_analytic_exponents_similitude_diagonal():
    for d in (2, 3, 4):
        assert em.analytic_exponents(gr.Similitude(d), W).as_floats() == (d, 1, d, 0)
        assert em.analytic_exponents(gr.Diagonal(d), W).as_floats() == (d, 1, d, 0)


def test_analytic_exponents_generalized():
    spec = gr.standard_shearlet_group(3)  # n=2, Y=(1,1/2,1/2)
    e = em.analytic_exponents(spec, W)
    assert e.as_floats() == (3.0, 3.0, 2.0, 1.0)
    toep = gr.toeplitz_shearlet_group(3)  # n=3, Y=I
    e = em.analytic_exponents(toep, W)
    assert e.as_floats() == (3.0, 4.0, 3.0, 0.0)


def test_analytic_exponents_abelian():
    spec = gr.AbelianFromAlgebra(__import__("orbitlet.algebra", fromlist=["x"])
                                 .polynomial_quotient_algebra(3))
    e = em.analytic_exponents(spec, W)
    # n = 3: e2 = 2n-1 = 5, e3 = d = 3, e4 = 0, e1 = d
    assert e.as_floats() == (3.0, 5.0, 3.0, 0.0)


def test_fallback_exponents():
    assert em.fallback_exponents(1, 2, 2) == (2, 4)
    assert em.fallback_exponents(0, 5, 9) == (0, 0)
    e3, e4 = em.fallback_exponents(1.5, 2, 2)
    assert (float(e3), float(e4)) == (3.0, 6.0)


def test_combine_exponents():
    one_d = em.ExponentSet.make(1, 1, 1, 0)
    two = em.combine_exponents([one_d, one_d])
    assert two.as_floats() == (2.0, 1.0, 2.0, 0.0)
    assert em.combine_exponents([one_d]) is one_d
    d = 5
    many = em.combine_exponents([one_d] * d)
    assert many.as_floats() == (d, 1.0, d, 0.0)


def test_exponents_stay_in_the_float_exact_integer_range():
    # past 2^53 a float skips integers, so moment orders would print digits
    # the exponents never had
    assert em.ExponentSet.make(2, 2 ** 53, 0, 0).e2 == 2 ** 53
    for bad in (2 ** 53 + 1, -Fraction(1, 2)):
        with pytest.raises(em.EmbeddednessError, match="float-exact"):
            em.ExponentSet.make(2, bad, 0, 0)
    assert em.analytic_exponents(gr.Shearlet2D(2.0 ** 53 - 1), W).e2 == 2 ** 53
    with pytest.raises(em.EmbeddednessError):
        em.analytic_exponents(gr.Shearlet2D(2.0 ** 53), W)


def test_index_formulas_shearlet():
    e = em.analytic_exponents(gr.Shearlet2D(0.5), W)
    assert em.index_temperate(e, 0, 2) == 12
    assert em.index_strong(e, 0, 2) == 16


def test_index_trivial():
    zero = em.ExponentSet.make(0, 0, 0, 0)
    assert em.index_temperate(zero, 0, 1) == 2
    assert em.index_strong(zero, 0, 1) == 2


def test_index_similitude_2():
    e = em.analytic_exponents(gr.Similitude(2), W)
    assert em.index_temperate(e, 0, 2) == 11


def test_index_exact_rational_floor():
    # floor argument is exactly 1, but float arithmetic lands just below it
    import math
    assert math.floor(float(Fraction(1, 49)) * 49) == 0  # the hazard is real
    e = em.ExponentSet.make(0, Fraction(1, 49), 0, 0)
    assert em.index_temperate(e, 0, 48) == 1 + 48 + 1


def test_index_monotonicity():
    rng = np.random.default_rng(0)
    base = em.ExponentSet.make(1, 1, 1, 1)
    l0 = em.index_temperate(base, 0, 2)
    s0 = em.index_strong(base, 0, 2)
    for _ in range(30):
        bump = [Fraction(int(v), 4) for v in rng.integers(0, 8, 4)]
        e = em.ExponentSet(base.e1 + bump[0], base.e2 + bump[1],
                           base.e3 + bump[2], base.e4 + bump[3])
        assert em.index_temperate(e, 0, 2) >= l0
        assert em.index_strong(e, 0, 2) >= s0
        assert em.index_strong(e, 1, 2) >= em.index_strong(e, 0, 2)
        assert em.index_strong(e, 0, 2) >= em.index_temperate(e, 0, 2)


def test_required_moments():
    assert em.required_moments(12, 2) == 15
    assert em.required_moments(16, 2) == 19
    assert em.required_moments(0, 1) == 2


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_shearlet_atom_order_standard(d):
    spec = gr.standard_shearlet_group(d)
    assert em.shearlet_atom_order(spec) == 10 * d + 4 + (d + 1) // 4


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_shearlet_atom_order_toeplitz(d):
    spec = gr.toeplitz_shearlet_group(d)
    assert em.shearlet_atom_order(spec) == 2 * d * d + 6 * d + 4 + d // 2


def test_shearlet_atom_order_values():
    assert em.shearlet_atom_order(gr.standard_shearlet_group(2)) == 24
    assert em.shearlet_atom_order(gr.standard_shearlet_group(3)) == 35
    assert em.shearlet_atom_order(gr.toeplitz_shearlet_group(3)) == 41


def test_embedding_report_golden():
    rep = em.embedding_report(gr.Shearlet2D(0.5), W)
    assert rep.moments_analyzing == 15
    assert rep.moments_atom == 19
    assert rep.notes  # the closed-form discrepancy is surfaced


def test_embedding_report_similitude_note():
    rep = em.embedding_report(gr.Similitude(2), W)
    assert rep.ell_temperate == 11
    assert any("floor(d/2)+4d+1" in n for n in rep.notes)


def test_control_weight_identity():
    # any base weight with w(e) = 1 gives w0(id) = 2 * 1 * 2 * 1 = 4
    for weight in (W, em.WeightSpec.make(family=em.POWER, power_k=0)):
        for spec in (gr.Shearlet2D(0.5), gr.Similitude(2)):
            w0 = em.control_weight(weight, spec, gr.identity(spec))
            assert w0 == pytest.approx(4.0)


def test_control_weight_det_factor_p_equals_q():
    # p = q makes the determinant factor identically 2entries; check by
    # scaling comparison against the p != q case
    spec = gr.Shearlet2D(0.5)
    h = gr.shearlet2d_element(spec, a=3.0, b=0.0)
    det = 3.0 ** 1.5
    w_pq = em.control_weight(em.WeightSpec.make(p=2, q=2), spec, h)
    w_p1 = em.control_weight(em.WeightSpec.make(p=1, q=2), spec, h)
    factor = (det ** 0.5 + det ** -0.5) / 2.0
    assert w_p1 / w_pq == pytest.approx(factor)


def test_control_weight_submultiplicative():
    rng = np.random.default_rng(1)
    spec = gr.Shearlet2D(0.5)
    weight = em.WeightSpec.make(family=em.POWER, power_k=1, s=1)
    for _ in range(50):
        h1 = gr.element_from_factored(spec, 1, rng.uniform(-1.5, 1.5),
                                      rng.uniform(-2, 2, 1))
        h2 = gr.element_from_factored(spec, 1, rng.uniform(-1.5, 1.5),
                                      rng.uniform(-2, 2, 1))
        w12 = em.control_weight(weight, spec, gr.compose(h1, h2))
        w1 = em.control_weight(weight, spec, h1)
        w2 = em.control_weight(weight, spec, h2)
        assert w12 <= w1 * w2 * (1 + 1e-9)


def test_empirical_bounded_for_analytic_shearlet():
    spec = gr.Shearlet2D(0.5)
    e = em.analytic_exponents(spec, W)
    rep = em.empirical_exponent_check(spec, e, W, budget=50_000, stages=5,
                                      seed=3, r0=2.0, t0=2.0)
    assert rep.all_bounded
    # the direct least-exponent estimates should not exceed analytic + slack
    for name, given in zip(em.INEQUALITY_NAMES, e.as_floats()):
        least = rep.least_exponents[name]
        assert least is not None
        assert least <= given + 0.15


def test_empirical_detects_reduced_e2():
    spec = gr.Shearlet2D(0.5)
    bad = em.ExponentSet.make(2, 0.5, 1.5, 0.5, provenance="user")
    rep = em.empirical_exponent_check(spec, bad, W, budget=50_000, stages=5,
                                      seed=3, r0=2.0, t0=2.0)
    assert rep.verdicts["operator_norm"] == "unbounded"


def test_empirical_similitude_bounded():
    spec = gr.Similitude(2)
    e = em.analytic_exponents(spec, W)
    rep = em.empirical_exponent_check(spec, e, W, budget=50_000, stages=5,
                                      seed=4, r0=2.0, t0=2.0)
    assert rep.all_bounded


def test_empirical_reproducible_and_threaded():
    spec = gr.Shearlet2D(0.5)
    e = em.analytic_exponents(spec, W)
    rep1 = em.empirical_exponent_check(spec, e, W, budget=20_000, stages=5,
                                       seed=9)
    rep2 = em.empirical_exponent_check(spec, e, W, budget=20_000, stages=5,
                                       seed=9, threads=4)
    for name in em.INEQUALITY_NAMES:
        assert np.array_equal(rep1.stage_suprema[name], rep2.stage_suprema[name])


def test_least_exponent_is_the_direct_estimate():
    # q = A^-2.5 on synthetic stages: the estimate is 2.5, and q A^least <= 1 on
    # every sample with A < 1/2
    rng = np.random.default_rng(0)
    stages = []
    for _ in range(3):
        log_a = np.log(rng.uniform(1e-6, 1.0, 200))
        stages.append(em.StageData(log_a=log_a, log_q={"q": -2.5 * log_a}))
    least = em._least_exponent(stages, "q")
    assert least == pytest.approx(2.5, rel=1e-12)
    for sd in stages:
        small = sd.log_a < -np.log(2.0)
        assert (np.exp(sd.log_q["q"] + least * sd.log_a)[small] <= 1 + 1e-12).all()


def test_least_exponents_are_numbers_where_the_verdicts_are_bounded():
    # the 5 % growth rule is not monotone in e; a search over it read null here
    spec = gr.toeplitz_shearlet_group(3)
    rep = em.empirical_exponent_check(spec, em.analytic_exponents(spec, W), W,
                                      budget=100_000, stages=3, seed=7, r0=2.0, t0=2.0)
    assert rep.all_bounded
    assert all(np.isfinite(v) for v in rep.least_exponents.values())


def test_log_quantities_stay_finite_where_the_determinant_overflows():
    # at 8 stages |det h| overflows on part of the last stage; its log does not,
    # so no stage drops out of the suprema
    spec = gr.toeplitz_shearlet_group(3)
    given = dict(zip(em.INEQUALITY_NAMES, em.analytic_exponents(spec, W).as_floats()))
    for stage in range(8):
        sd = em._collect_stage(spec, W, 7, stage, 12_500, 2.0, 2.0, 1)
        assert np.isfinite(sd.log_a).all()
        for name, e in given.items():
            assert np.isfinite(sd.log_q[name] + e * sd.log_a).all()


def test_stage_whose_matrices_overflow_is_refused_before_the_svd():
    with np.errstate(over="ignore"), pytest.raises(em.EmbeddednessError,
                                                   match="stage 0 .* matrices that overflow"):
        em._collect_stage(gr.Similitude(2), W, 0, 0, 100, 1024.0, 1024.0, 1)


def test_empirical_budget_too_small():
    with pytest.raises(em.EmbeddednessError):
        em.empirical_exponent_check(gr.Shearlet2D(0.5),
                                    em.ExponentSet.make(1, 1, 1, 1), W,
                                    budget=20, stages=5)


def test_phi_ell_direct_vs_convolution():
    spec = gr.Shearlet2D(0.5)
    rng = np.random.default_rng(5)
    for _ in range(3):
        h = gr.element_from_factored(spec, 1, rng.uniform(-1, 1),
                                     rng.uniform(-1.5, 1.5, 1))
        d = em.phi_ell_direct(spec, h, 4)
        c = em.phi_ell_convolution(spec, h, 4)
        assert d.converged and c.converged
        assert abs(d.value - c.value) <= 0.01 * d.value


def _matrix_phi_ell_convolution(spec, h, ell):
    """Reference convolution route, before the substitution g -> g^-1: inverts
    and composes chart matrices, one sign eps at a time, on the (r, t) chart."""
    chart, orbit, hmat = gr.shear_chart(spec), ob.orbit_of(spec), gr.as_matrix(h)
    base = orbit.base_point

    def integrand(pts):
        r = pts[:, 0]
        g_pos = chart.matrices(1.0, r, pts[:, 1:])
        vals = np.zeros(len(pts))
        for eps in (1.0, -1.0):
            ginv = np.linalg.inv(eps * g_pos)
            f_part = ob.envelope_values(orbit, np.einsum("nji,j->ni", ginv, base)) ** ell \
                * np.abs(np.linalg.det(ginv))
            comp = np.einsum("nij,jk->nik", ginv, hmat)
            g_part = ob.envelope_values(orbit, np.einsum("nji,j->ni", comp, base)) ** ell
            vals = vals + f_part * g_part
        return vals * chart.haar(r)

    return quad.staged_refinement(
        lambda stage: quad.tensor_eval(ob.chart_stage_axes(chart.dim, stage), integrand),
        max_stages=10, min_stages=3)


@pytest.mark.parametrize("eps,r,t", [(1, 0.0, 0.0), (-1, 0.7, -1.2), (1, -1.3, 1.9)])
def test_phi_ell_convolution_matches_matrix_route(eps, r, t):
    spec = gr.Shearlet2D(0.5)
    h = gr.element_from_factored(spec, eps, r, [t])
    closed, matrix = em.phi_ell_convolution(spec, h, 4), _matrix_phi_ell_convolution(spec, h, 4)
    assert closed.converged and matrix.converged
    assert abs(closed.value - matrix.value) <= 0.01 * matrix.value


def test_phi_ell_convolution_is_finite_at_large_c():
    # the second draw of phi-check --seed 5, (1, -0.6426, -1.7843): at c = 60,
    # |det g| = exp(r trace Y) overflows inside the r box of the group side
    spec = gr.Shearlet2D(60)
    rng = np.random.default_rng(5)
    draws = [(int(rng.choice([-1, 1])), float(rng.uniform(-1.5, 1.5)),
              rng.uniform(-2.0, 2.0, 1)) for _ in range(2)]
    h = gr.element_from_factored(spec, *draws[1])
    d, c = em.phi_ell_direct(spec, h, 4), em.phi_ell_convolution(spec, h, 4)
    assert np.isfinite(c.value) and c.converged and d.converged
    assert abs(d.value - c.value) <= 0.01 * d.value


@pytest.mark.parametrize("name,spec", em.default_catalog(),
                         ids=[name for name, _ in em.default_catalog()])
def test_phi_integrand_keeps_the_bits_of_the_envelope_product(name, spec):
    # the integrand of both Phi_ell routes multiplies in place: it must give the
    # bits of (A(xi) A(h^T xi))^ell and leave its points alone, since the group
    # side negates the same buffer for its -dual rows
    rng = np.random.default_rng(13)
    orbit, ell = ob.orbit_of(spec), spec.dim + 2
    h = gr.sample_near_identity(spec, rng, 1)[0]
    pts = rng.normal(size=(300, spec.dim)) * 3
    pts[rng.random(pts.shape) < 0.1] = 0.0  # some points of the complement
    before = pts.copy()
    values = em._phi_integrand(spec, h, ell)(pts)
    assert np.array_equal(pts, before)
    expected = (ob.envelope_values(orbit, pts) * ob.envelope_values(orbit, pts @ h)) ** ell
    assert np.array_equal(values, expected)


SHEAR_GROUPS = [(name, spec) for name, spec in em.default_catalog()
                if isinstance(spec, gr.GeneralizedShearlet)]


@pytest.mark.parametrize("name,spec", SHEAR_GROUPS, ids=[name for name, _ in SHEAR_GROUPS])
def test_phi_integrand_is_even_bit_for_bit(name, spec):
    # quad.integrate folds F on its declaration that F(-xi) == F(xi); were that to fail
    # (say, coordinates adapted to h that keep a sign), it would sum the wrong half
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(2000, spec.dim)) * 10.0 ** rng.uniform(-3, 3, (2000, 1))
    pts[rng.random(pts.shape) < 0.05] = 0.0  # some points of the complement
    for _ in range(4):
        h = gr.element_from_factored(spec, int(rng.choice([-1, 1])), rng.uniform(-1.5, 1.5),
                                     rng.uniform(-2.0, 2.0, spec.dim - 1))
        func = em._phi_integrand(spec, h, spec.dim + 2)
        assert func.even
        assert np.array_equal(func(-pts), func(pts))


def test_envelope_is_even():
    # A(-xi) = A(xi): the group side's -dual rows of the Phi_ell integrand repeat its +dual rows
    rng = np.random.default_rng(8)
    product = gr.DirectProduct((gr.Diagonal(1), gr.Shearlet2D(0.5)))
    for spec in [spec for _, spec in em.default_catalog()] + [product]:
        orbit = ob.orbit_of(spec)
        pts = rng.normal(size=(500, spec.dim)) * 3
        pts[rng.random(pts.shape) < 0.1] = 0.0  # some points of the complement
        assert np.array_equal(ob.envelope_values(orbit, -pts), ob.envelope_values(orbit, pts))


def test_phi_ell_identity_dominates():
    spec = gr.Shearlet2D(0.5)
    at_id = em.phi_ell_direct(spec, gr.identity(spec), 4).value
    h = gr.shearlet2d_element(spec, a=3.0, b=1.0)
    assert em.phi_ell_direct(spec, h, 4).value <= at_id * (1 + 1e-6)


def test_phi_ell_monotone_in_ell():
    spec = gr.Shearlet2D(0.5)
    h = gr.shearlet2d_element(spec, a=1.4, b=0.3)
    v4 = em.phi_ell_direct(spec, h, 4).value
    v5 = em.phi_ell_direct(spec, h, 5).value
    assert v5 <= v4


def test_phi_ell_requires_large_ell():
    with pytest.raises(em.EmbeddednessError):
        em.phi_ell_direct(gr.Shearlet2D(0.5), gr.identity(gr.Shearlet2D(0.5)), 2)


def test_power_weight_exponents_cover_display():
    # inequality 1 with the separated power-weight product must be bounded
    # with the analytic e1 assembled for it
    spec = gr.Shearlet2D(0.5)
    weight = em.WeightSpec.make(family=em.POWER, power_k=1, s=0)
    e = em.analytic_exponents(spec, weight)
    assert float(e.e1) > 0
    rep = em.empirical_exponent_check(spec, e, weight, budget=50_000, stages=5,
                                      seed=6, r0=2.0, t0=2.0)
    assert rep.verdicts["control_weight"] == "bounded"


def test_power_weight_and_products_stay_in_the_float_exact_integer_range():
    # e1 = 2 k e2 + ... of a power weight, and the summed e1, e3, e4 of a product, are
    # refused past 2^53 like a leaf's own exponents
    for k in ("1e308", "1e20", 2 ** 52):
        with pytest.raises(em.EmbeddednessError, match="float-exact"):
            em.analytic_exponents(gr.Shearlet2D(0.5), em.WeightSpec.make(family=em.POWER,
                                                                         power_k=k))
    assert em.analytic_exponents(gr.Shearlet2D(0.5), em.WeightSpec.make(
        family=em.POWER, power_k=3)).e1 == 10  # 2 k e2 + (e3 + e4) / 2 = 9 + 1
    half = em.ExponentSet.make(2 ** 52 + 1, 1, 0, 0)
    with pytest.raises(em.EmbeddednessError, match="float-exact"):
        em.combine_exponents([half, half])
