"""Changes of basis: in_basis against an explicit conjugation, pinned derived
algebras and shear bases, and exact inverses."""

from fractions import Fraction

import numpy as np
import pytest

from orbitlet import algebra as al
from orbitlet import groups as gr


def _fractions(tensor):
    return [[[Fraction(x) for x in row] for row in plane] for plane in tensor]


def test_in_basis_matches_explicit_conjugation():
    rx3 = al.polynomial_quotient_algebra(3)
    rows = [[Fraction(0), Fraction(1), Fraction(1)], [Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(-1, 2), Fraction(3)]]
    change = [[rows[j][i] for j in range(3)] for i in range(3)]  # columns: new basis
    inv = al._frac_inverse(change)
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*change)]
            for row in inv] == np.eye(3).tolist()
    elems = [rx3.element(r) for r in rows]
    expected = [[[sum(inv[k][p] * al.multiply(x, y).coeffs[p] for p in range(3))
                  for k in range(3)] for y in elems] for x in elems]
    assert _fractions(al.in_basis(rx3, rows).tensor) == expected
    # the nilradical span is a subalgebra; a line through X is not
    assert al.in_basis(rx3, [[0, 1, 0], [0, 0, 1]]).tensor == al.nilpotent_part(rx3).tensor
    with pytest.raises(al.AlgebraError):
        al.in_basis(rx3, [[0, 1, 0]])


def test_pinned_derived_algebras_and_shear_bases():
    s = al.direct_sum([al.polynomial_quotient_algebra(2), al.polynomial_quotient_algebra(1)])
    assert (s.unit_index, s.block_dims) == (0, (2, 1))
    assert s.tensor == tuple(tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in
                             [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                              [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                              [[0, 0, 1], [0, 0, 0], [0, 0, 1]]])
    nil = al.nilpotent_part(al.h_a_algebra(-1))
    assert nil.unit_index is None
    assert _fractions(nil.tensor) == [[[0, 0, 1], [0, 0, 0], [0, 0, 0]],
                                      [[0, 0, 0], [0, 0, -1], [0, 0, 0]],
                                      [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    standard, toeplitz = gr.enumerate_catalog(3)
    assert [m.tolist() for m in standard.shear_basis] == [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]
    assert [m.tolist() for m in toeplitz.shear_basis] == [
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]
    abelian = gr.AbelianFromAlgebra(al.h_a_algebra(Fraction(1, 3)))
    assert [m.tolist() for m in abelian.shear_basis] == [
        [[0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1 / 3], [0, 0, 0, 0]],
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]


@pytest.mark.parametrize("alg", [
    al.direct_sum([al.polynomial_quotient_algebra(3), al.trivial_product_algebra(2)]),
    al.polynomial_quotient_algebra(4),
], ids=["direct-sum", "rx4"])
def test_inverse_times_element_is_unit(alg):
    rng = np.random.default_rng(5)
    for unit_coeff in (Fraction(3, 2), Fraction(-2), Fraction(1, 7)):
        coeffs = [Fraction(int(v), 4) for v in rng.integers(-6, 7, alg.dim)]
        coeffs[alg.unit_index] = unit_coeff
        x = alg.element(coeffs)
        assert al.multiply(al.invert(x), x).coeffs == alg.unit().coeffs
