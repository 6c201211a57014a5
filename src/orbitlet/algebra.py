"""Finite-dimensional commutative associative algebras with unity.

Algebras are given by structure constants: basis products
``b_i * b_j = sum_k tensor[i][j][k] * b_k``.  All arithmetic runs in exact
rational arithmetic (``fractions.Fraction``); float inputs are converted to
their exact binary rationals.  This keeps rank/signature classification
decisions free of floating-point hazards, which matters because they are
discontinuous in the structure constants.  Determinants and the (rank,
|signature|) of symmetric forms both come from one exact characteristic
polynomial: the constant coefficient, and Sylvester's law of inertia read off
by Descartes' rule of signs.

Dimensions of interest are small (<= 8), so exact arithmetic is cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence, Union

import numpy as np

Scalar = Union[int, float, str, Fraction]

FLOAT_TENSOR_TOL = 1e-12  # validating float-sourced tensors
ROUNDTRIP_TOL = 1e-10     # arithmetic round-trips on float data


class OrbitletError(ValueError):
    """Base of every orbitlet error: invalid input or a refused result."""


class UnsupportedError(OrbitletError):
    """Base of the errors for valid input outside what orbitlet supports."""


class AlgebraError(OrbitletError):
    """Invalid algebra data or operation."""


class SingularElementError(AlgebraError):
    """Inversion requested for a non-invertible element."""


class UnsupportedAlgebraError(AlgebraError, UnsupportedError):
    """Input outside the supported class (e.g. basis not unit + nilpotents)."""


def to_fraction(x: Scalar) -> Fraction:
    """Convert int/float/Fraction/'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise AlgebraError("boolean is not a scalar")
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    try:
        if isinstance(x, (float, np.floating)):
            return Fraction(float(x))  # exact binary value
        if isinstance(x, str):
            return Fraction(x)
    except (ZeroDivisionError, OverflowError) as exc:  # "1/0", infinity
        raise AlgebraError(f"cannot interpret {x!r} as a rational scalar: {exc}") from exc
    raise AlgebraError(f"cannot interpret {x!r} as a rational scalar")


def _scalar_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# exact linear algebra helpers (row operations over Fraction)
# ---------------------------------------------------------------------------

def frac_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    mat, pivots, r = [row[:] for row in rows], [], 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def span_contains(basis_rows: list[list[Fraction]], vec: list[Fraction]) -> bool:
    return len(frac_rref(basis_rows)[1]) == len(frac_rref(basis_rows + [vec])[1])


def char_poly(rows: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients c_0 = 1, c_1, ..., c_n of det(xI - A), by Faddeev-LeVerrier."""
    n, coeffs = len(rows), [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):  # M_k = A M_{k-1} + c_{k-1} I, c_k = -tr(A M_k) / k
        m = [[sum(rows[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        coeffs.append(Fraction(-sum(rows[i][l] * m[l][i] for i in range(n) for l in range(n)), k))
    return coeffs


def frac_det(rows: list[list[Fraction]]) -> Fraction:
    return (-1) ** len(rows) * char_poly(rows)[-1]


def frac_coords(basis_rows, vectors) -> list[list[Fraction]]:
    """Exact coordinates of each vector in the basis of independent rows.

    Raises AlgebraError when the rows are dependent or a vector leaves their span.
    """
    m = len(basis_rows)
    red, pivots = frac_rref([list(col) for col in zip(*basis_rows, *vectors)])
    if pivots != list(range(m)):
        raise AlgebraError("vector not in the span of independent basis rows")
    return [[red[i][m + v] for i in range(m)] for v in range(len(vectors))]


def _frac_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse matrix: row k holds the coordinates of e_k in the given rows."""
    n = len(rows)
    return frac_coords(rows, [[Fraction(int(i == k)) for i in range(n)] for k in range(n)])


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureConstants:
    """A commutative associative algebra presented by its multiplication tensor.

    ``unit_index`` is the 0-based index of the basis vector acting as the
    algebra unit; ``None`` marks a nilpotent algebra without unity (used as
    raw material for shearing groups).
    """

    dim: int
    tensor: tuple  # tensor[i][j][k] as Fraction, shape (dim, dim, dim)
    unit_index: Optional[int] = 0
    labels: Optional[tuple[str, ...]] = None
    exact_input: bool = True  # False when any tensor entry arrived as float
    block_dims: Optional[tuple[int, ...]] = None  # set by direct_sum

    @staticmethod
    def from_tensor(tensor, unit_index: Optional[int] = 0, labels=None) -> "StructureConstants":
        dim = len(tensor)
        if any(len(plane) != dim or any(len(row) != dim for row in plane) for plane in tensor):
            raise AlgebraError("tensor is not cubic")
        rows = tuple(tuple(tuple(map(to_fraction, row)) for row in plane) for plane in tensor)
        exact = not any(isinstance(x, float) and not x.is_integer()
                        for plane in tensor for row in plane for x in row)
        alg = StructureConstants(dim=dim, tensor=rows, unit_index=unit_index,
                                 labels=tuple(labels) if labels else None, exact_input=exact)
        alg.validate()
        return alg

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        t, n = self.tensor, self.dim
        tol = Fraction(0) if self.exact_input else Fraction(FLOAT_TENSOR_TOL).limit_denominator(10**15)
        for i, j, k in product(range(n), repeat=3):
            if abs(t[i][j][k] - t[j][i][k]) > tol:
                raise AlgebraError(f"tensor not commutative at ({i},{j},{k})")
        # associativity: (b_i b_j) b_k == b_i (b_j b_k) expanded through the
        # tensor; zero factors are skipped since most entries vanish
        nonzero = [[[(p, c) for p, c in enumerate(t[i][j]) if c != 0] for j in range(n)]
                   for i in range(n)]
        for i, j, k, m in product(range(n), repeat=4):
            lhs = sum(c * t[p][k][m] for p, c in nonzero[i][j])
            rhs = sum(c * t[i][p][m] for p, c in nonzero[j][k])
            if abs(lhs - rhs) > tol:
                raise AlgebraError(f"tensor not associative at ({i},{j},{k})->{m}")
        if self.unit_index is not None:
            u = self.unit_index
            if not 0 <= u < n:
                raise AlgebraError("unit_index out of range")
            for i, k in product(range(n), repeat=2):
                if abs(t[u][i][k] - int(k == i)) > tol:
                    raise AlgebraError(f"unit law fails at basis vector {i}")

    # -- construction helpers ------------------------------------------------

    def element(self, coeffs: Sequence[Scalar]) -> "AlgebraElement":
        return AlgebraElement(self, tuple(to_fraction(c) for c in coeffs))

    def basis_element(self, i: int) -> "AlgebraElement":
        return self.element([1 if j == i else 0 for j in range(self.dim)])

    def unit(self) -> "AlgebraElement":
        if self.unit_index is None:
            raise AlgebraError("algebra has no unit")
        return self.basis_element(self.unit_index)

    # -- JSON ----------------------------------------------------------------

    @staticmethod
    def from_json(doc) -> "StructureConstants":
        if isinstance(doc, str):
            doc = json.loads(doc)
        try:
            dim, tensor = int(doc["dim"]), doc["tensor"]
        except (KeyError, TypeError) as exc:
            raise AlgebraError(f"malformed algebra document: {exc}") from exc
        unit_index = None if (u := doc.get("unit_index", 0)) is None else int(u)
        alg = StructureConstants.from_tensor(tensor, unit_index=unit_index,
                                             labels=doc.get("labels"))
        if alg.dim != dim:
            raise AlgebraError("declared dim does not match tensor shape")
        return alg

    def to_json(self) -> dict:
        doc = {"dim": self.dim, "unit_index": self.unit_index, "tensor": [
            [[_scalar_to_json(x) for x in row] for row in plane] for plane in self.tensor]}
        return {**doc, "labels": list(self.labels)} if self.labels else doc


@dataclass(frozen=True)
class AlgebraElement:
    algebra: StructureConstants
    coeffs: tuple  # Fractions, length = algebra.dim

    def __post_init__(self):
        if len(self.coeffs) != self.algebra.dim:
            raise AlgebraError("coefficient length does not match algebra dimension")

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.algebra,
                              tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, s: Scalar) -> "AlgebraElement":
        f = to_fraction(s)
        return AlgebraElement(self.algebra, tuple(f * c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_same(self, other: "AlgebraElement") -> None:
        if other.algebra.dim != self.algebra.dim or other.algebra.tensor != self.algebra.tensor:
            raise AlgebraError("elements belong to different algebras")


@dataclass(frozen=True)
class NilradicalData:
    """Nilradical N of an algebra: basis, N, N^2, ..., their dims, nilpotency class."""

    basis: tuple  # AlgebraElements spanning N
    powers: tuple  # exact row bases (lists of Fraction rows) of the nonzero N^k
    power_dims: tuple[int, ...]  # dims of N, N^2, ... down to 0
    nilpotency_class: int        # smallest n with N^n = {0}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Algebra product through the structure tensor (bilinear, commutative)."""
    a._check_same(b)
    out = [Fraction(0)] * a.algebra.dim
    for (i, ai), (j, bj) in product(enumerate(a.coeffs), enumerate(b.coeffs)):
        if ai != 0 and bj != 0:
            f = ai * bj
            for k, c in enumerate(a.algebra.tensor[i][j]):
                if c != 0:
                    out[k] += f * c
    return AlgebraElement(a.algebra, tuple(out))


def regular_representation(a: AlgebraElement) -> list[list[Fraction]]:
    """Matrix of x -> a*x in the fixed basis (columns are a*b_j)."""
    alg = a.algebra
    n = alg.dim
    cols = [multiply(a, alg.basis_element(j)).coeffs for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def regular_representation_array(a: AlgebraElement) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in regular_representation(a)])


def is_unit(a: AlgebraElement) -> bool:
    """True iff det of the regular representation is nonzero."""
    det = frac_det(regular_representation(a))
    if a.algebra.exact_input:
        return det != 0
    scale = max((abs(c) for c in a.coeffs), default=Fraction(0))
    return abs(det) > Fraction(FLOAT_TENSOR_TOL).limit_denominator(10**15) * max(scale, Fraction(1))


def is_nilpotent(a: AlgebraElement) -> bool:
    """True iff the regular representation is nilpotent: its characteristic polynomial is x^n."""
    return not any(char_poly(regular_representation(a))[1:])


def invert(a: AlgebraElement) -> AlgebraElement:
    """Multiplicative inverse: the exact solution y of a * y = 1."""
    alg = a.algebra
    one = alg.unit()
    if not is_unit(a):
        raise SingularElementError("element is not invertible")
    products = [multiply(a, alg.basis_element(j)).coeffs for j in range(alg.dim)]
    return alg.element(frac_coords(products, [one.coeffs])[0])


def _span_basis(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    """Extract an exact basis of the span, keeping the incoming order."""
    basis: list[list[Fraction]] = []
    for v in vectors:
        if any(x != 0 for x in v) and not span_contains(basis, v):
            basis.append(v)
    return basis


def nilradical(alg: StructureConstants) -> NilradicalData:
    """Nilradical from a basis that splits as unit + nilpotent directions.

    Accepts algebras whose non-unit basis vectors are nilpotent (the adapted
    presentations used throughout), and direct sums of such algebras (each
    block unit shows up as a non-nilpotent basis vector, which is fine as
    long as the nilpotent basis vectors span an ideal).  Generic radical
    extraction is out of scope and signals UnsupportedAlgebraError.
    """
    nil_basis = [alg.basis_element(i) for i in range(alg.dim)
                 if i != alg.unit_index and is_nilpotent(alg.basis_element(i))]
    nblocks = len(alg.block_dims) if alg.block_dims else 1
    if alg.unit_index is None:
        if len(nil_basis) != alg.dim:
            raise UnsupportedAlgebraError("nilpotent algebra has non-nilpotent basis vector")
    elif len(nil_basis) not in (alg.dim - 1, alg.dim - nblocks):
        raise UnsupportedAlgebraError(
            "basis does not split as unit(s) plus nilpotent directions")
    span = [list(e.coeffs) for e in nil_basis]
    if not all(span_contains(span, list(multiply(alg.basis_element(i), e).coeffs))
               for i in range(alg.dim) for e in nil_basis):  # b_i * n stays in the span
        raise UnsupportedAlgebraError("nilpotent basis directions do not span an ideal")
    powers = tuple(_power_spans(alg, nil_basis))
    return NilradicalData(basis=tuple(nil_basis), powers=powers,
                          power_dims=tuple(len(p) for p in powers) + (0,),
                          nilpotency_class=len(powers) + 1)


def _power_spans(alg: StructureConstants, nil_basis) -> list[list[list[Fraction]]]:
    """Exact row bases of the nonzero powers N, N^2, ... of span(nil_basis)."""
    powers: list[list[list[Fraction]]] = []
    current = [list(e.coeffs) for e in nil_basis]
    while current:
        powers.append(current)
        if len(powers) > alg.dim:
            raise UnsupportedAlgebraError("nilpotency class exceeds dimension bound")
        current = _span_basis([list(multiply(ev, e).coeffs)
                               for ev in map(alg.element, current) for e in nil_basis])
    return powers


def adapted_basis(alg: StructureConstants) -> list[AlgebraElement]:
    """Ordered basis 1_A, Y_2, ..., Y_d with every tail span an ideal.

    Built by ordering the nilradical basis along the filtration
    N > N^2 > ...: any filtration-respecting order works because every
    subspace squeezed between successive powers is an ideal.
    """
    if alg.unit_index is None:
        raise UnsupportedAlgebraError("adapted basis needs a unital algebra")
    nil = nilradical(alg)
    if alg.dim - len(nil.basis) != 1:
        raise UnsupportedAlgebraError("adapted basis needs an irreducible algebra")
    ordered: list[AlgebraElement] = [alg.unit()]
    taken: list[list[Fraction]] = []
    for layer, deeper in zip(nil.powers, nil.powers[1:] + ([],)):
        for v in layer:
            if not span_contains(deeper + taken, v):
                taken.append(v)
                ordered.append(alg.element(v))
    if len(ordered) != alg.dim:
        raise UnsupportedAlgebraError("could not order basis along the filtration")
    return ordered


@dataclass(frozen=True)
class IsomorphismInvariants:
    dim: int
    nilpotency_class: int
    power_dims: tuple[int, ...]
    bilinear_rank: Optional[int] = None
    bilinear_abs_signature: Optional[int] = None

    def as_tuple(self):
        return (self.dim, self.nilpotency_class, self.power_dims,
                self.bilinear_rank, self.bilinear_abs_signature)


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def rank_abs_signature(form: list[list[Fraction]]) -> tuple[int, int]:
    """Rank and |signature| of an exact symmetric matrix: by Sylvester's law, counts of
    its positive and negative eigenvalues.  These are real, so Descartes' rule of signs
    on the characteristic polynomial p(x) and on p(-x) counts them exactly."""
    coeffs = char_poly(form)
    pos, neg = _sign_changes(coeffs), _sign_changes([(-1) ** k * c for k, c in enumerate(coeffs)])
    return pos + neg, abs(pos - neg)


def isomorphism_invariants(alg: StructureConstants) -> IsomorphismInvariants:
    """Invariants separating the irreducible algebras of dim <= 4.

    For nilpotency class 3 in dimension 4, adds (rank, |signature|) of the
    symmetric form N/N^2 x N/N^2 -> N^2 induced by multiplication, read off the
    form's exact characteristic polynomial by Sylvester's law and Descartes' rule
    (rank_abs_signature).  The pair is independent of the choice of N^2 generator
    because only |signature| is reported.
    """
    if alg.dim > 4:
        raise UnsupportedAlgebraError("classification invariants support dim <= 4 only")
    nil = nilradical(alg)
    rank = abs_sig = None
    if alg.dim == 4 and nil.nilpotency_class == 3:
        n2 = nil.powers[1]
        if len(n2) != 1:
            raise UnsupportedAlgebraError("expected one-dimensional N^2 in class-3 dim-4")
        # modulo-N^2 representatives of N; their products are multiples of the N^2 generator
        reps = [e for e in nil.basis if not span_contains(n2, list(e.coeffs))]
        reps = reps[: len(nil.basis) - 1]
        m = len(reps)
        coords = frac_coords(n2, [multiply(x, y).coeffs for x in reps for y in reps])
        form = [[coords[i * m + j][0] for j in range(m)] for i in range(m)]
        rank, abs_sig = rank_abs_signature(form)
    return IsomorphismInvariants(dim=alg.dim, nilpotency_class=nil.nilpotency_class,
                                 power_dims=nil.power_dims,
                                 bilinear_rank=rank, bilinear_abs_signature=abs_sig)


def in_basis(alg: StructureConstants, rows, unit_index: Optional[int] = None,
             block_dims=None) -> StructureConstants:
    """Structure constants of the subalgebra spanned by the independent
    coefficient rows, in that basis: row_i * row_j = sum_k tensor[i][j][k] row_k.

    Raises AlgebraError when the span is not closed under multiplication.
    """
    elems = [alg.element(r) for r in rows]
    coords = frac_coords(rows, [multiply(x, y).coeffs for x in elems for y in elems])
    m = len(rows)
    sub = StructureConstants(
        dim=m, tensor=tuple(tuple(map(tuple, coords[i * m:(i + 1) * m])) for i in range(m)),
        unit_index=unit_index, exact_input=alg.exact_input,
        block_dims=tuple(block_dims) if block_dims else None)
    sub.validate()
    return sub


def direct_sum(algs: Sequence[StructureConstants]) -> StructureConstants:
    """Direct sum with block tensor.

    The block units do not contain a global unit basis vector, so the first
    block's unit slot is rebased to the sum of all block units (a triangular
    change of basis); the remaining basis vectors are kept as-is.
    """
    algs = list(algs)
    if not algs:
        raise AlgebraError("empty direct sum")
    if len(algs) == 1:
        return algs[0]
    if any(a.unit_index is None for a in algs):
        raise AlgebraError("direct sum requires unital summands")
    dims = [a.dim for a in algs]
    n, offsets = sum(dims), [sum(dims[:b]) for b in range(len(algs))]
    t = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a, off in zip(algs, offsets):
        for i, j, k in product(range(a.dim), repeat=3):
            t[off + i][off + j][off + k] = a.tensor[i][j][k]
    units = {off + a.unit_index for a, off in zip(algs, offsets)}
    rows = [[Fraction(int(j == i)) for j in range(n)] for i in range(n)]
    rows[algs[0].unit_index] = [Fraction(int(j in units)) for j in range(n)]
    return in_basis(StructureConstants.from_tensor(t, unit_index=None), rows,
                    unit_index=algs[0].unit_index, block_dims=dims)


# ---------------------------------------------------------------------------
# catalog algebras
# ---------------------------------------------------------------------------

def _unit_tensor(n: int) -> list:
    """Zero n-dim structure tensor except the unit laws of basis vector 0."""
    t = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        t[0][i][i] = t[i][0][i] = Fraction(1)
    return t


def polynomial_quotient_algebra(d: int) -> StructureConstants:
    """R[X]/(X^d) with basis (1, X, ..., X^{d-1}); nilpotency class d."""
    t = [[[Fraction(int(i + j == k)) for k in range(d)] for j in range(d)] for i in range(d)]
    labels = ["1"] + [f"X^{k}" if k > 1 else "X" for k in range(1, d)]
    return StructureConstants.from_tensor(t, unit_index=0, labels=labels)


def trivial_product_algebra(d: int) -> StructureConstants:
    """Unit plus (d-1)-dim nilpotent part with all products zero; class 2."""
    labels = ["1"] + [f"n{k}" for k in range(1, d)]
    return StructureConstants.from_tensor(_unit_tensor(d), unit_index=0, labels=labels)


def h_a_algebra(a: Scalar) -> StructureConstants:
    """R[X,Y]/(X^3, Y^2 - a X^2, XY) with basis (1, X, Y, X^2)."""
    af, t = to_fraction(a), _unit_tensor(4)
    t[1][1][3] = Fraction(1)        # X*X = X^2
    t[2][2][3] = af                 # Y*Y = a X^2
    # X*Y = 0, X*X^2 = 0, Y*X^2 = 0, X^2*X^2 = 0
    return StructureConstants.from_tensor(t, unit_index=0, labels=("1", "X", "Y", "X^2"))


def nilpotent_part(alg: StructureConstants) -> StructureConstants:
    """Structure constants of the nilradical in its own basis (no unit)."""
    return in_basis(alg, [e.coeffs for e in nilradical(alg).basis])


def with_unit(nil: StructureConstants) -> StructureConstants:
    """Adjoin a unit to a nilpotent algebra: A = R*1 (+) N, unit first."""
    if nil.unit_index is not None:
        raise AlgebraError("algebra already has a unit")
    t = _unit_tensor(nil.dim + 1)
    for i, j, k in product(range(nil.dim), repeat=3):
        t[i + 1][j + 1][k + 1] = nil.tensor[i][j][k]
    return StructureConstants.from_tensor(t, unit_index=0)
