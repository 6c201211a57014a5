"""Tests for exact commutative-algebra arithmetic and classification."""

import json
from fractions import Fraction

import numpy as np
import pytest

from orbitlet import algebra as al


@pytest.fixture
def rx3():
    return al.polynomial_quotient_algebra(3)


def test_quotient_relations(rx3):
    one, x, x2 = (rx3.basis_element(i) for i in range(3))
    assert al.multiply(x, x).coeffs == x2.coeffs
    assert al.multiply(x, x2).is_zero()  # X^3 = 0


def test_unit_law_random(rx3):
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rx3.element([Fraction(int(v), 7) for v in rng.integers(-20, 20, 3)])
        assert al.multiply(rx3.unit(), a).coeffs == a.coeffs


def test_regular_representation_shift(rx3):
    x = rx3.basis_element(1)
    rho = al.regular_representation_array(x)
    # X maps (1, X, X^2) to (X, X^2, 0): single sub-diagonal shift
    expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert np.array_equal(rho, expected)


def test_regular_representation_is_homomorphism(rx3):
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rx3.element(list(rng.integers(-5, 5, 3)))
        b = rx3.element(list(rng.integers(-5, 5, 3)))
        lhs = al.regular_representation_array(a) @ al.regular_representation_array(b)
        rhs = al.regular_representation_array(al.multiply(a, b))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_rho_of_unit_is_identity(rx3):
    assert np.array_equal(al.regular_representation_array(rx3.unit()), np.eye(3))


def test_rho_faithful_on_basis(rx3):
    mats = [al.regular_representation_array(rx3.basis_element(i)).ravel()
            for i in range(3)]
    assert np.linalg.matrix_rank(np.stack(mats)) == 3


def test_is_unit(rx3):
    assert al.is_unit(rx3.unit())
    assert not al.is_unit(rx3.basis_element(1))  # nilpotent X
    # det rho(2 + X) = 8
    a = rx3.element([2, 1, 0])
    assert al.frac_det(al.regular_representation(a)) == 8
    assert al.is_unit(a)


def test_invert(rx3):
    one = rx3.unit()
    assert al.invert(one).coeffs == one.coeffs
    # (1 + X)^-1 = 1 - X + X^2
    inv = al.invert(rx3.element([1, 1, 0]))
    assert inv.coeffs == (Fraction(1), Fraction(-1), Fraction(1))
    assert al.multiply(rx3.element([1, 1, 0]), inv).coeffs == one.coeffs
    assert al.invert(one.scale(2)).coeffs == (Fraction(1, 2), 0, 0)


def test_invert_involution(rx3):
    rng = np.random.default_rng(2)
    for _ in range(25):
        coeffs = list(rng.integers(-4, 5, 3))
        a = rx3.element(coeffs)
        if not al.is_unit(a):
            continue
        twice = al.invert(al.invert(a))
        assert twice.coeffs == a.coeffs


def test_invert_rejects_nilpotent(rx3):
    with pytest.raises(al.SingularElementError):
        al.invert(rx3.basis_element(1))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_nilradical_polynomial_quotient(d):
    nil = al.nilradical(al.polynomial_quotient_algebra(d))
    assert nil.nilpotency_class == d
    assert nil.power_dims == tuple(range(d - 1, -1, -1))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_nilradical_trivial_product(d):
    nil = al.nilradical(al.trivial_product_algebra(d))
    assert nil.nilpotency_class == 2
    assert nil.power_dims == (d - 1, 0)


@pytest.mark.parametrize("a", [-1, 0, 1])
def test_nilradical_h_a(a):
    nil = al.nilradical(al.h_a_algebra(a))
    assert nil.nilpotency_class == 3
    assert nil.power_dims == (3, 1, 0)


def test_nilradical_rejects_unsplit_basis():
    # R (+) R in the idempotent basis (e1, e2) has no unit basis vector; with
    # unit_index pointing at an idempotent, the unit law fails at validation,
    # so build a valid but unsplit presentation instead: dim-2 algebra with
    # basis (1, p) where p is idempotent (p^2 = p).
    t = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    t[0][0][0] = 1
    t[0][1][1] = 1
    t[1][0][1] = 1
    t[1][1][1] = 1  # p*p = p, not nilpotent
    alg = al.StructureConstants.from_tensor(t, unit_index=0)
    with pytest.raises(al.UnsupportedAlgebraError):
        al.nilradical(alg)


def test_adapted_basis_rx3(rx3):
    basis = al.adapted_basis(rx3)
    coeff_rows = [list(b.coeffs) for b in basis]
    assert coeff_rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    _assert_tail_spans_are_ideals(rx3, basis)


def test_adapted_basis_h_a():
    alg = al.h_a_algebra(1)
    basis = al.adapted_basis(alg)
    coeff_rows = [list(b.coeffs) for b in basis]
    assert coeff_rows == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    _assert_tail_spans_are_ideals(alg, basis)


def test_adapted_basis_dim2():
    alg = al.trivial_product_algebra(2)
    basis = al.adapted_basis(alg)
    assert [list(b.coeffs) for b in basis] == [[1, 0], [0, 1]]


def test_adapted_basis_reorders_scrambled_presentation():
    # R[X]/(X^3) presented in basis (1, X + X^2, X): filtration ordering must
    # still produce tails that are ideals.
    base = al.polynomial_quotient_algebra(3)
    one = base.unit()
    v1 = base.element([0, 1, 1])
    v2 = base.element([0, 1, 0])
    alg = _rebased(base, [one, v1, v2])
    basis = al.adapted_basis(alg)
    _assert_tail_spans_are_ideals(alg, basis)


def _rebased(alg, new_basis):
    n = alg.dim
    change = [[b.coeffs[i] for b in new_basis] for i in range(n)]
    inv = al._frac_inverse(change)
    t = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = al.multiply(new_basis[i], new_basis[j])
            for k in range(n):
                t[i][j][k] = sum(inv[k][p] * prod.coeffs[p] for p in range(n))
    unit_idx = next(i for i, b in enumerate(new_basis)
                    if b.coeffs == alg.unit().coeffs)
    return al.StructureConstants.from_tensor(t, unit_index=unit_idx)


def _assert_tail_spans_are_ideals(alg, basis):
    rows = [list(b.coeffs) for b in basis]
    for k in range(1, len(basis)):
        tail = rows[k:]
        for b in basis:
            for t in basis[k:]:
                prod = al.multiply(b, t)
                assert al.span_contains(tail, list(prod.coeffs))


@pytest.mark.parametrize("a,rank,abs_sig", [(1, 2, 2), (0, 1, 1), (-1, 2, 0)])
def test_h_a_invariants(a, rank, abs_sig):
    inv = al.isomorphism_invariants(al.h_a_algebra(a))
    assert inv.dim == 4
    assert inv.nilpotency_class == 3
    assert inv.bilinear_rank == rank
    assert inv.bilinear_abs_signature == abs_sig


def test_h_a_invariants_pairwise_distinct():
    tags = {al.isomorphism_invariants(al.h_a_algebra(a)).as_tuple() for a in (-1, 0, 1)}
    assert len(tags) == 3


def test_char_poly_and_inertia_match_numpy():
    """char_poly against np.poly on random integer matrices, and (rank, |signature|)
    against eigenvalue sign counts on random forms B D B^T, rank deficient ones included."""
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for _ in range(30):
            a = rng.integers(-5, 6, (n, n))
            rows = [[Fraction(int(x)) for x in row] for row in a]
            coeffs = al.char_poly(rows)
            assert coeffs[0] == 1 and all(c.denominator == 1 for c in coeffs)
            expected = np.poly(a)
            assert np.allclose([float(c) for c in coeffs], expected, rtol=1e-9,
                               atol=1e-9 * np.abs(expected).max())
            assert al.frac_det(rows) == round(np.linalg.det(a))
            r = int(rng.integers(0, n + 1))  # rank at most r
            b = rng.integers(-2, 3, (n, r))
            form = b @ np.diag(rng.choice([-2, -1, 1, 2], r)) @ b.T
            eig = np.linalg.eigvalsh(form.astype(float))
            tol = 1e-9 * max(1.0, np.abs(eig).max())
            pos, neg = int((eig > tol).sum()), int((eig < -tol).sum())
            exact = al.rank_abs_signature([[Fraction(int(x)) for x in row] for row in form])
            assert exact == (pos + neg, abs(pos - neg))


def test_invariants_reject_large_dim():
    with pytest.raises(al.UnsupportedAlgebraError):
        al.isomorphism_invariants(al.polynomial_quotient_algebra(5))


def test_direct_sum_componentwise():
    r1 = al.polynomial_quotient_algebra(1)  # just R
    s = al.direct_sum([r1, r1])
    assert s.dim == 2
    # product of the two block summands' images stays componentwise
    a = s.element([3, 1])
    b = s.element([2, 5])
    prod = al.multiply(a, b)
    assert al.multiply(s.unit(), a).coeffs == a.coeffs
    # basis: (1_A, e2); a = 3*1 + 1*e2 = (3, 4) componentwise... verify via
    # idempotents instead: e2 * e2 = e2 and (1 - e2) * e2 = 0.
    e2 = s.basis_element(1)
    assert al.multiply(e2, e2).coeffs == e2.coeffs
    one_minus = s.unit() - e2
    assert al.multiply(one_minus, e2).is_zero()
    assert prod.coeffs == al.multiply(b, a).coeffs


def test_direct_sum_radical_dims():
    s = al.direct_sum([al.polynomial_quotient_algebra(2),
                       al.polynomial_quotient_algebra(1)])
    assert s.dim == 3
    nil = al.nilradical(s)
    assert nil.power_dims == (1, 0)
    assert nil.nilpotency_class == 2


def test_direct_sum_single_is_identity(rx3):
    assert al.direct_sum([rx3]) is rx3


def test_direct_sum_class_is_max():
    s = al.direct_sum([al.polynomial_quotient_algebra(3),
                       al.trivial_product_algebra(2)])
    assert al.nilradical(s).nilpotency_class == 3


def test_structure_constants_random_triple_axioms(rx3):
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = (rx3.element(list(rng.integers(-3, 4, 3))) for _ in range(3))
        ab = al.multiply(a, b)
        assert ab.coeffs == al.multiply(b, a).coeffs
        lhs = al.multiply(ab, c)
        rhs = al.multiply(a, al.multiply(b, c))
        assert lhs.coeffs == rhs.coeffs


def test_validation_rejects_noncommutative():
    t = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(al.AlgebraError):
        al.StructureConstants.from_tensor(t, unit_index=None)


def test_validation_rejects_broken_unit():
    t = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]  # 1*n = 0 violates unit law
    with pytest.raises(al.AlgebraError):
        al.StructureConstants.from_tensor(t, unit_index=0)


def test_json_roundtrip_with_rationals():
    alg = al.h_a_algebra(Fraction(1, 2))
    doc = json.dumps(alg.to_json())
    back = al.StructureConstants.from_json(doc)
    assert back.tensor == alg.tensor
    assert back.unit_index == alg.unit_index


def test_json_accepts_p_over_q_strings():
    doc = {
        "dim": 2,
        "unit_index": 0,
        "tensor": [[[1, 0], [0, 1]], [[0, 1], [0, "1/3"]]],
    }
    alg = al.StructureConstants.from_json(json.dumps(doc))
    assert alg.tensor[1][1][1] == Fraction(1, 3)


def test_nilpotent_part_roundtrip():
    alg = al.h_a_algebra(-1)
    nil_sc = al.nilpotent_part(alg)
    assert nil_sc.dim == 3
    assert nil_sc.unit_index is None
    back = al.with_unit(nil_sc)
    assert al.nilradical(back).nilpotency_class == 3
