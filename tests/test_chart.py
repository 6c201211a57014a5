"""Tests for the batched shear chart and the tensor point builder."""

import numpy as np
import pytest

from orbitlet import algebra as al
from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import quadrature as quad
from orbitlet import transform as tr

SHEAR_SPECS = [(name, spec) for name, spec in em.default_catalog()
               if isinstance(spec, (gr.Shearlet2D, gr.GeneralizedShearlet))]


def random_coords(d, n=40, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.choice([-1.0, 1.0], n), rng.uniform(-2.0, 2.0, n),
            rng.uniform(-3.0, 3.0, (n, d - 1)))


@pytest.mark.parametrize("name,spec", SHEAR_SPECS, ids=[n for n, _ in SHEAR_SPECS])
def test_chart_agrees_with_single_element_functions(name, spec):
    chart = gr.shear_chart(spec)
    eps, r, t = random_coords(spec.dim)
    mats = chart.matrices(eps, r, t)
    dual = chart.dual(eps, r, t)
    haar = chart.haar(r)
    e1 = np.eye(spec.dim)[0]
    for i in range(len(r)):
        h = gr.element_from_factored(spec, int(eps[i]), r[i], t[i])
        assert np.allclose(mats[i], h.matrix, rtol=1e-12, atol=1e-12)
        assert np.allclose(dual[i], gr.dual_action(h, e1), rtol=1e-12, atol=1e-12)
        det, delta_h, _ = gr.modular_data(spec, h)
        assert haar[i] == pytest.approx(delta_h, rel=1e-12)
        assert chart.det(r[i]) == pytest.approx(abs(det), rel=1e-9)
    assert np.allclose(gr.ShearChart.delta_g(mats), haar / chart.det(r), rtol=1e-12)


@pytest.mark.parametrize("name,spec", SHEAR_SPECS, ids=[n for n, _ in SHEAR_SPECS])
def test_chart_coords_invert_dual(name, spec):
    chart = gr.shear_chart(spec)
    eps, r, t = random_coords(spec.dim, seed=1)
    e2, r2, t2 = chart.coords(chart.dual(eps, r, t))
    assert np.array_equal(e2, eps)
    assert np.allclose(r2, r, rtol=1e-12, atol=1e-12)
    assert np.allclose(t2, t, rtol=1e-9, atol=1e-10)


ABELIAN_ALGEBRAS = {"x2": al.polynomial_quotient_algebra(2),
                    "x3": al.polynomial_quotient_algebra(3), "h0": al.h_a_algebra(0)}


@pytest.mark.parametrize("name", ABELIAN_ALGEBRAS)
def test_abelian_chart_is_the_algebra_representation(name):
    """The Y = 1 chart gives rho(a) = a_1 I + sum_k a_(k+1) X_k at a = its dual point."""
    spec = gr.AbelianFromAlgebra(ABELIAN_ALGEBRAS[name])
    chart = gr.shear_chart(spec)
    assert np.array_equal(chart.Y, np.ones(spec.dim))
    eps, r, t = random_coords(spec.dim, seed=2)
    a = chart.dual(eps, r, t)
    rho = (a[:, 0, None, None] * np.eye(spec.dim)[None]
           + np.einsum("nk,kij->nij", a[:, 1:], np.stack(spec.shear_basis)))
    mats = chart.matrices(eps, r, t)
    assert np.abs(mats - rho).max() <= 1e-12 * np.abs(rho).max()


def test_chart_rejects_non_shear_spec():
    for spec in (gr.Diagonal(2), gr.Similitude(2),
                 gr.DirectProduct((gr.Shearlet2D(0.5), gr.Diagonal(1)))):
        with pytest.raises(gr.UnsupportedSpecError):
            gr.shear_chart(spec)


@pytest.mark.parametrize("name,spec", SHEAR_SPECS, ids=[n for n, _ in SHEAR_SPECS])
def test_each_spec_builds_its_chart_once(monkeypatch, name, spec):
    """shear_chart hands out the spec's own chart, and the group operations that
    use a chart build none of their own."""
    assert gr.shear_chart(spec) is spec.chart
    monkeypatch.setattr(gr.ShearChart, "__init__", None)  # building one would fail
    h = gr.element_from_factored(spec, -1, 0.3, np.linspace(-1.0, 1.0, spec.dim - 1))
    assert np.allclose(gr.compose(h, gr.group_inverse(h)).factored[2], 0.0, atol=1e-12)
    assert gr.modular_data(spec, h)[1] == pytest.approx(spec.chart.haar(0.3), rel=1e-12)
    assert np.allclose(spec.section(gr.dual_action(h, np.eye(spec.dim)[0])).matrix, h.matrix)
    assert gr.sample_group(spec, np.random.default_rng(0), 3, 1.0, 1.0).matrices.shape[0] == 3


def test_tensor_points_c_order():
    pts = quad.tensor_points([[1.0, 2.0], [10.0, 20.0, 30.0]])
    assert pts.tolist() == [[1.0, 10.0], [1.0, 20.0], [1.0, 30.0],
                            [2.0, 10.0], [2.0, 20.0], [2.0, 30.0]]


def test_tensor_grid_product_weights():
    axes = [quad.Axis(np.array([0.0, 1.0]), np.array([2.0, 3.0])),
            quad.Axis(np.array([5.0]), np.array([7.0]))]
    pts, wts = quad.tensor_grid(axes)
    assert pts.tolist() == [[0.0, 5.0], [1.0, 5.0]]
    assert wts.tolist() == [14.0, 21.0]


def test_dilation_samples_order_eps_then_r_then_t():
    spec = gr.standard_shearlet_group(3)   # trace Y = 2: Haar density exp(-r)
    mats, weights = tr.shearlet_dilation_samples(spec, r_max=1.0, n_r=3,
                                                 t_max=1.0, n_t=2)
    assert mats.shape == (2 * 3 * 2 * 2, 3, 3) and weights.shape == (24,)
    k = 0
    for eps in (1, -1):
        for r in (-1.0, 0.0, 1.0):
            for t1 in (-1.0, 1.0):
                for t2 in (-1.0, 1.0):
                    h = gr.element_from_factored(spec, eps, r, [t1, t2])
                    assert np.allclose(mats[k], h.matrix, rtol=1e-13, atol=1e-13)
                    assert weights[k] == pytest.approx(np.exp(-r) * 1.0 * 2.0 ** 2)
                    k += 1


def test_transform_grid_stacks_elements_into_matrices():
    spec = gr.Shearlet2D(0.5)
    elems = [gr.identity(spec), gr.shearlet2d_element(spec, a=2.0, b=0.5)]
    grid = tr.TransformGrid(origin=[0.0, 0.0], spacing=[1.0, 1.0], counts=(4, 4),
                            dilations=elems, dilation_weights=np.ones(2))
    assert grid.dilations.shape == (2, 2, 2)
    assert np.array_equal(grid.dilations[1], elems[1].matrix)
