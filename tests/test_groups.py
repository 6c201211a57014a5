"""Tests for dilation group construction, validation, and element arithmetic."""

import math

import numpy as np
import pytest

from orbitlet import algebra as al
from orbitlet import groups as gr


# --- shearing construction -------------------------------------------------

def test_standard_shear_d3_pattern():
    spec = gr.standard_shearlet_group(3)
    # shear matrices act only on the first row: rows 2..d of I + X are identity
    s = gr.element_from_factored(spec, 1, 0.0, [2.0, -1.0]).matrix
    expected = np.array([[1.0, 2.0, -1.0], [0, 1, 0], [0, 0, 1]])
    # Y = diag(1, 1/2, 1/2), r = 0 so exp(rY) = I
    assert np.allclose(s, expected)
    assert spec.nilpotency_class == 2


def test_toeplitz_shear_d4_pattern():
    spec = gr.toeplitz_shearlet_group(4)
    m = gr.element_from_factored(spec, 1, 0.0, [1.0, 2.0, 3.0]).matrix
    expected = np.array([
        [1, 1, 2, 3],
        [0, 1, 1, 2],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ], dtype=float)
    assert np.allclose(m, expected)
    assert spec.nilpotency_class == 4


@pytest.mark.parametrize("a", [-1, 0, 1])
def test_h_a_shear_pattern(a):
    spec = gr.h_a_shearlet_group(a)
    t1, t2, t3 = 0.7, -1.3, 0.4
    m = gr.element_from_factored(spec, 1, 0.0, [t1, t2, t3]).matrix
    expected = np.array([
        [1, t1, t2, t3],
        [0, 1, 0, t1],
        [0, 0, 1, a * t2],
        [0, 0, 0, 1],
    ])
    assert np.allclose(m, expected)
    assert spec.nilpotency_class == 3


def test_shearing_validation_catalog():
    for d in (2, 3, 4):
        for spec in gr.enumerate_catalog(d):
            basis, Y = gr.shear_data(spec)
            assert gr.validate_shearing(basis).passed, spec.name
            assert gr.validate_diagonal_complement(Y, basis).passed, spec.name


def test_shearing_validation_rejects_zero_first_row():
    bad = [np.array([[0.0, 1.0, 0.0], [0, 0, 0], [0, 0, 0]]),
           np.array([[0.0, 0.0, 0.0], [0, 0, 1.0], [0, 0, 0]])]
    report = gr.validate_shearing(bad)
    assert not report.passed
    failing = {n for n, ok, _ in report.checks if not ok}
    assert "first_rows_span_e2_to_ed" in failing


def test_diagonal_complement_examples():
    spec = gr.standard_shearlet_group(3)
    basis, _ = gr.shear_data(spec)
    ok = gr.validate_diagonal_complement(np.array([1.0, 0.5, 0.5]), basis)
    assert ok.passed
    bad = gr.validate_diagonal_complement(np.array([0.0, 1.0, 1.0]), basis)
    assert not bad.passed
    toep = gr.toeplitz_shearlet_group(3)
    tb, _ = gr.shear_data(toep)
    assert gr.validate_diagonal_complement(np.ones(3), tb).passed


def test_normalize_Y():
    assert np.allclose(gr.normalize_Y([2.0, 1.0]), [1.0, 0.5])
    assert np.allclose(gr.normalize_Y([1.0, 3.0]), [1.0, 3.0])
    assert np.allclose(gr.normalize_Y([-1.0, 3.0]), [1.0, -3.0])
    with pytest.raises(gr.GroupError):
        gr.normalize_Y([0.0, 1.0])


# --- factored elements ------------------------------------------------------

def test_identity_factorization():
    spec = gr.Shearlet2D(c=0.5)
    h = gr.element_from_factored(spec, 1, 0.0, [0.0])
    assert np.allclose(h.matrix, np.eye(2))


def test_shearlet2d_ab_matrix():
    spec = gr.Shearlet2D(c=0.5)
    h = gr.shearlet2d_element(spec, a=4.0, b=1.0)
    assert np.allclose(h.matrix, [[4.0, 1.0], [0.0, 2.0]])
    eps, a, b = gr.shearlet2d_ab(h)
    assert (eps, a, b) == (1, pytest.approx(4.0), pytest.approx(1.0))


def test_factor_roundtrip_random():
    rng = np.random.default_rng(7)
    for spec in (gr.Shearlet2D(c=0.5), gr.toeplitz_shearlet_group(3),
                 gr.h_a_shearlet_group(1)):
        d = spec.dim
        for _ in range(100):
            eps = int(rng.choice([-1, 1]))
            r = float(rng.uniform(-2, 2))
            t = rng.uniform(-3, 3, d - 1)
            h = gr.element_from_factored(spec, eps, r, t)
            e2, r2, t2 = gr.factor(spec, h.matrix)
            assert e2 == eps
            assert abs(r2 - r) < 1e-10 * max(1, abs(r))
            assert np.allclose(t2, t, rtol=1e-9, atol=1e-10)


def test_factor_rejects_off_pattern():
    spec = gr.Shearlet2D(c=0.5)
    with pytest.raises(gr.NotInGroupError):
        gr.factor(spec, np.array([[1.0, 0.0], [0.5, 1.0]]))


def test_compose_and_inverse():
    rng = np.random.default_rng(8)
    spec = gr.toeplitz_shearlet_group(3)
    for _ in range(20):
        h1 = gr.element_from_factored(spec, int(rng.choice([-1, 1])),
                                      rng.uniform(-1, 1), rng.uniform(-2, 2, 2))
        h2 = gr.element_from_factored(spec, int(rng.choice([-1, 1])),
                                      rng.uniform(-1, 1), rng.uniform(-2, 2, 2))
        prod = gr.compose(h1, h2)
        assert prod.factored is not None  # closure under products
        assert np.allclose(gr.compose(h1, gr.group_inverse(h1)).matrix, np.eye(3),
                           atol=1e-10)
        lhs = gr.group_inverse(prod).matrix
        rhs = gr.compose(gr.group_inverse(h2), gr.group_inverse(h1)).matrix
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_exp_of_lie_span_is_id_plus_span():
    rng = np.random.default_rng(10)
    for spec in gr.enumerate_catalog(4):
        basis, _ = gr.shear_data(spec)
        flat = np.stack([b.ravel() for b in basis]).T
        for _ in range(20):
            x = sum(c * b for c, b in zip(rng.uniform(-2, 2, len(basis)), basis))
            e = gr._expm_series(x[None])[0]
            resid = (e - np.eye(spec.dim)).ravel()
            coef, *_ = np.linalg.lstsq(flat, resid, rcond=None)
            assert np.abs(flat @ coef - resid).max() < 1e-10


# --- modular data -----------------------------------------------------------

def test_modular_shearlet2d():
    spec = gr.Shearlet2D(c=0.5)
    h = gr.shearlet2d_element(spec, a=3.0, b=2.0)
    det, dh, dg = gr.modular_data(spec, h)
    assert det == pytest.approx(3.0 ** 1.5)
    assert dh == pytest.approx(3.0 ** (0.5 - 1.0))
    assert dg == pytest.approx(3.0 ** -2.0)


def test_modular_similitude_trivial():
    spec = gr.Similitude(2)
    h = gr.GroupElement(spec, 2.0 * np.array([[0.0, -1.0], [1.0, 0.0]]))
    det, dh, dg = gr.modular_data(spec, h)
    assert dh == 1.0
    assert det == pytest.approx(4.0)
    assert dg == pytest.approx(0.25)


def test_modular_generalized_exp_ry():
    spec = gr.standard_shearlet_group(3)
    r = 0.7
    h = gr.element_from_factored(spec, 1, r, np.zeros(2))
    det, dh, _ = gr.modular_data(spec, h)
    trace_y = 2.0
    assert det == pytest.approx(math.exp(r * trace_y))
    assert dh == pytest.approx(math.exp(r * (trace_y - 3)))


def test_modular_multiplicative():
    rng = np.random.default_rng(11)
    spec = gr.h_a_shearlet_group(-1)
    for _ in range(30):
        h1 = gr.element_from_factored(spec, int(rng.choice([-1, 1])),
                                      rng.uniform(-1.5, 1.5), rng.uniform(-2, 2, 3))
        h2 = gr.element_from_factored(spec, int(rng.choice([-1, 1])),
                                      rng.uniform(-1.5, 1.5), rng.uniform(-2, 2, 3))
        _, dh1, _ = gr.modular_data(spec, h1)
        _, dh2, _ = gr.modular_data(spec, h2)
        _, dh12, _ = gr.modular_data(spec, gr.compose(h1, h2))
        assert dh12 == pytest.approx(dh1 * dh2, rel=1e-9)


def test_dual_action():
    spec = gr.Shearlet2D(c=0.5)
    h = gr.shearlet2d_element(spec, a=3.0, b=-2.0)
    assert np.allclose(gr.dual_action(h, [1.0, 0.0]), [3.0, -2.0])
    assert np.allclose(gr.dual_action(gr.identity(spec), [0.3, 0.4]), [0.3, 0.4])
    rng = np.random.default_rng(12)
    x1, x2 = rng.normal(size=2), rng.normal(size=2)
    assert np.allclose(gr.dual_action(h, x1 + x2),
                       gr.dual_action(h, x1) + gr.dual_action(h, x2))


# --- catalog ----------------------------------------------------------------

def test_catalog_counts():
    assert len(gr.enumerate_catalog(2)) == 1
    assert len(gr.enumerate_catalog(3)) == 2
    assert len(gr.enumerate_catalog(4)) == 5
    with pytest.raises(gr.UnsupportedSpecError):
        gr.enumerate_catalog(5)


def test_catalog_groups_pass_validators():
    for d in (2, 3, 4):
        for spec in gr.enumerate_catalog(d):
            assert gr.validate_spec(spec).passed


def test_closure_compose_then_factor():
    rng = np.random.default_rng(13)
    for spec in gr.enumerate_catalog(3):
        for _ in range(50):
            h1 = gr.element_from_factored(spec, int(rng.choice([-1, 1])),
                                          rng.uniform(-2, 2),
                                          rng.uniform(-3, 3, 2))
            h2 = gr.element_from_factored(spec, int(rng.choice([-1, 1])),
                                          rng.uniform(-2, 2),
                                          rng.uniform(-3, 3, 2))
            prod = gr.compose(h1, h2)
            assert prod.factored is not None
            rebuilt = gr.element_from_factored(spec, *prod.factored)
            assert np.allclose(rebuilt.matrix, prod.matrix, atol=1e-9)


# --- samplers ----------------------------------------------------------------

def test_sampler_matrices_are_in_group():
    rng = np.random.default_rng(14)
    spec = gr.standard_shearlet_group(3)
    sample = gr.sample_group(spec, rng, 200, scale_bound=2.0, shear_bound=2.0)
    xi0 = np.zeros(3)
    xi0[0] = 1.0
    for i in range(0, 200, 17):
        gr.factor(spec, sample.matrices[i])  # must not raise
        assert np.allclose(sample.matrices[i].T @ xi0, sample.dual_points[i])
        _, dh, _ = gr.modular_data(spec, sample.matrices[i])
        assert dh == pytest.approx(sample.delta_h[i], rel=1e-9)


def test_sampler_similitude_shapes():
    rng = np.random.default_rng(15)
    spec = gr.Similitude(3)
    s = gr.sample_group(spec, rng, 100, 1.5, 1.0)
    scales = np.linalg.det(s.matrices) ** (1.0 / 3.0)
    rot = s.matrices / scales[:, None, None]
    assert np.allclose(rot @ np.swapaxes(rot, 1, 2), np.eye(3)[None], atol=1e-8)


def test_sample_near_identity_radius():
    rng = np.random.default_rng(16)
    for spec in (gr.Shearlet2D(0.5), gr.Similitude(2), gr.Diagonal(3),
                 gr.DirectProduct((gr.Diagonal(1), gr.Shearlet2D(0.5)))):
        mats = gr.sample_near_identity(spec, rng, 50, radius=0.5)
        dev = np.linalg.svd(mats - np.eye(spec.dim)[None], compute_uv=False)[:, 0]
        assert (dev < 0.5).all()


# --- JSON --------------------------------------------------------------------

def test_spec_json_roundtrip():
    specs = [gr.Similitude(2), gr.Diagonal(3), gr.Shearlet2D(0.25),
             gr.toeplitz_shearlet_group(3),
             gr.AbelianFromAlgebra(al.h_a_algebra(0)),
             gr.DirectProduct((gr.Diagonal(1), gr.Shearlet2D(0.5)))]
    for spec in specs:
        doc = gr.spec_to_json(spec)
        back = gr.spec_from_json(doc)
        assert back.dim == spec.dim
        assert gr.spec_to_json(back) == doc


def test_spec_json_rejects_garbage():
    with pytest.raises(gr.GroupError):
        gr.spec_from_json({"no_family": 1})
    with pytest.raises(gr.UnsupportedSpecError):
        gr.spec_from_json({"family": "octonion"})
