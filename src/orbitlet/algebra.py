"""Finite-dimensional commutative associative algebras with unity.

Algebras are given by structure constants: basis products
``b_i * b_j = sum_k tensor[i][j][k] * b_k``.  All arithmetic runs in exact
rational arithmetic (``fractions.Fraction``); float inputs are converted to
their exact binary rationals.  This keeps rank/signature classification
decisions free of floating-point hazards, which matters because they are
discontinuous in the structure constants.

Dimensions of interest are small (<= 8), so exact arithmetic is cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

Scalar = Union[int, float, str, Fraction]

FLOAT_TENSOR_TOL = 1e-12  # validating float-sourced tensors
ROUNDTRIP_TOL = 1e-10     # arithmetic round-trips on float data


class AlgebraError(ValueError):
    """Invalid algebra data or operation."""


class SingularElementError(AlgebraError):
    """Inversion requested for a non-invertible element."""


class UnsupportedAlgebraError(AlgebraError):
    """Input outside the supported class (e.g. basis not unit + nilpotents)."""


def to_fraction(x: Scalar) -> Fraction:
    """Convert int/float/Fraction/'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise AlgebraError("boolean is not a scalar")
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)):
        return Fraction(float(x))  # exact binary value
    if isinstance(x, str):
        return Fraction(x)
    raise AlgebraError(f"cannot interpret {x!r} as a rational scalar")


def _scalar_to_json(x: Fraction):
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# exact linear algebra helpers (row operations over Fraction)
# ---------------------------------------------------------------------------

def frac_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref rows, pivot column indices)."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def frac_rank(rows) -> int:
    return len(frac_rref(rows)[1])


def span_contains(basis_rows: list[list[Fraction]], vec: list[Fraction]) -> bool:
    if not basis_rows:
        return all(x == 0 for x in vec)
    return frac_rank(basis_rows) == frac_rank(basis_rows + [vec])


def frac_det(rows: list[list[Fraction]]) -> Fraction:
    mat = [row[:] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        inv = mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def frac_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve square exact system A x = b; raises SingularElementError."""
    n = len(rows)
    aug = [rows[i][:] + [rhs[i]] for i in range(n)]
    red, pivots = frac_rref(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularElementError("singular exact linear system")
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = red[i][n]
    return x


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
    def from_tensor(tensor, unit_index: Optional[int] = 0, labels=None,
                    validate: bool = True, block_dims=None) -> "StructureConstants":
        dim = len(tensor)
        exact = True
        rows = []
        for i in range(dim):
            if len(tensor[i]) != dim:
                raise AlgebraError("tensor is not cubic")
            plane = []
            for j in range(dim):
                if len(tensor[i][j]) != dim:
                    raise AlgebraError("tensor is not cubic")
                entry = []
                for x in tensor[i][j]:
                    if isinstance(x, float) and not float(x).is_integer():
                        exact = False
                    entry.append(to_fraction(x))
                plane.append(tuple(entry))
            rows.append(tuple(plane))
        alg = StructureConstants(dim=dim, tensor=tuple(rows), unit_index=unit_index,
                                 labels=tuple(labels) if labels else None,
                                 exact_input=exact,
                                 block_dims=tuple(block_dims) if block_dims else None)
        if validate:
            alg.validate()
        return alg

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        t = self.tensor
        n = self.dim
        tol = Fraction(0) if self.exact_input else Fraction(FLOAT_TENSOR_TOL).limit_denominator(10**15)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if abs(t[i][j][k] - t[j][i][k]) > tol:
                        raise AlgebraError(f"tensor not commutative at ({i},{j},{k})")
        # associativity: (b_i b_j) b_k == b_i (b_j b_k) expanded through the tensor
        for i in range(n):
            for j in range(n):
                left_ij = t[i][j]
                for k in range(n):
                    right_jk = t[j][k]
                    for m in range(n):
                        lhs = sum(left_ij[p] * t[p][k][m] for p in range(n))
                        rhs = sum(right_jk[p] * t[i][p][m] for p in range(n))
                        if abs(lhs - rhs) > tol:
                            raise AlgebraError(
                                f"tensor not associative at ({i},{j},{k})->{m}")
        if self.unit_index is not None:
            u = self.unit_index
            if not 0 <= u < n:
                raise AlgebraError("unit_index out of range")
            for i in range(n):
                for k in range(n):
                    want = Fraction(1) if k == i else Fraction(0)
                    if abs(t[u][i][k] - want) > tol:
                        raise AlgebraError(f"unit law fails at basis vector {i}")

    # -- construction helpers ------------------------------------------------

    def element(self, coeffs: Sequence[Scalar]) -> "AlgebraElement":
        if len(coeffs) != self.dim:
            raise AlgebraError("coefficient length does not match algebra dimension")
        return AlgebraElement(self, tuple(to_fraction(c) for c in coeffs))

    def basis_element(self, i: int) -> "AlgebraElement":
        return self.element([1 if j == i else 0 for j in range(self.dim)])

    def unit(self) -> "AlgebraElement":
        if self.unit_index is None:
            raise AlgebraError("algebra has no unit")
        return self.basis_element(self.unit_index)

    def zero(self) -> "AlgebraElement":
        return self.element([0] * self.dim)

    # -- JSON ----------------------------------------------------------------

    @staticmethod
    def from_json(doc) -> "StructureConstants":
        if isinstance(doc, str):
            doc = json.loads(doc)
        try:
            dim = int(doc["dim"])
            tensor = doc["tensor"]
        except (KeyError, TypeError) as exc:
            raise AlgebraError(f"malformed algebra document: {exc}") from exc
        unit_index = doc.get("unit_index", 0)
        if unit_index is not None:
            unit_index = int(unit_index)
        alg = StructureConstants.from_tensor(tensor, unit_index=unit_index,
                                             labels=doc.get("labels"))
        if alg.dim != dim:
            raise AlgebraError("declared dim does not match tensor shape")
        return alg

    def to_json(self) -> dict:
        doc = {
            "dim": self.dim,
            "unit_index": self.unit_index,
            "tensor": [[[_scalar_to_json(x) for x in row]
                        for row in plane] for plane in self.tensor],
        }
        if self.labels:
            doc["labels"] = list(self.labels)
        return doc


@dataclass(frozen=True)
class AlgebraElement:
    algebra: StructureConstants
    coeffs: tuple  # Fractions, length = algebra.dim

    def __post_init__(self):
        if len(self.coeffs) != self.algebra.dim:
            raise AlgebraError("coefficient length does not match algebra dimension")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.algebra,
                              tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

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
    """Nilradical N of an algebra: basis, dims of N, N^2, ..., nilpotency class."""

    algebra: StructureConstants
    basis: tuple  # AlgebraElements spanning N
    power_dims: tuple[int, ...]  # dims of N, N^2, ... down to 0
    nilpotency_class: int        # smallest n with N^n = {0}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Algebra product through the structure tensor (bilinear, commutative)."""
    a._check_same(b)
    alg = a.algebra
    t = alg.tensor
    n = alg.dim
    out = [Fraction(0)] * n
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coeffs):
            if bj == 0:
                continue
            f = ai * bj
            tij = t[i][j]
            for k in range(n):
                if tij[k] != 0:
                    out[k] += f * tij[k]
    return AlgebraElement(alg, tuple(out))


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


def _is_nilpotent_matrix(rows: list[list[Fraction]], nmax: int) -> bool:
    n = len(rows)
    power = rows
    for _ in range(nmax):
        if all(x == 0 for r in power for x in r):
            return True
        power = [[sum(power[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return all(x == 0 for r in power for x in r)


def is_nilpotent(a: AlgebraElement) -> bool:
    return _is_nilpotent_matrix(regular_representation(a), a.algebra.dim)


def invert(a: AlgebraElement) -> AlgebraElement:
    """Multiplicative inverse.

    For ``a = r*1 + x`` with nilpotent ``x`` (split-basis algebras) uses the
    truncated Neumann series ``r^-1 sum_{j<n} (-1)^j r^-j x^j``; otherwise
    solves ``a * y = 1`` exactly.
    """
    alg = a.algebra
    if alg.unit_index is None:
        raise AlgebraError("algebra has no unit")
    if not is_unit(a):
        raise SingularElementError("element is not invertible")
    u = alg.unit_index
    r = a.coeffs[u]
    x = a - alg.unit().scale(r)
    if r != 0 and is_nilpotent(x):
        n = alg.dim
        acc = alg.zero()
        power = alg.unit()  # x^j, starting at j = 0
        sign = Fraction(1)
        rpow = Fraction(1)  # r^-j
        rinv = Fraction(1) / r
        for _ in range(n):
            acc = acc + power.scale(sign * rpow)
            power = multiply(power, x)
            if power.is_zero():
                break
            sign = -sign
            rpow *= rinv
        return acc.scale(rinv)
    rho = regular_representation(a)
    rhs = [Fraction(1) if i == u else Fraction(0) for i in range(alg.dim)]
    return AlgebraElement(alg, tuple(frac_solve(rho, rhs)))


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
    if alg.unit_index is None:
        nil_idx = list(range(alg.dim))
    else:
        nil_idx = [i for i in range(alg.dim) if i != alg.unit_index]
    nil_basis = []
    for i in nil_idx:
        e = alg.basis_element(i)
        if is_nilpotent(e):
            nil_basis.append(e)
    nblocks = len(alg.block_dims) if alg.block_dims else 1
    if alg.unit_index is None:
        if len(nil_basis) != alg.dim:
            raise UnsupportedAlgebraError("nilpotent algebra has non-nilpotent basis vector")
    elif len(nil_basis) not in (alg.dim - 1, alg.dim - nblocks):
        raise UnsupportedAlgebraError(
            "basis does not split as unit(s) plus nilpotent directions")
    span = [list(e.coeffs) for e in nil_basis]
    # ideal check: b_i * n stays inside the nilpotent span
    for i in range(alg.dim):
        bi = alg.basis_element(i)
        for e in nil_basis:
            prod = multiply(bi, e)
            if not span_contains(span, list(prod.coeffs)):
                raise UnsupportedAlgebraError(
                    "nilpotent basis directions do not span an ideal")
    powers = _power_spans(alg, nil_basis)
    return NilradicalData(algebra=alg, basis=tuple(nil_basis),
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
    powers = _power_spans(alg, nil.basis)
    ordered: list[AlgebraElement] = [alg.unit()]
    taken: list[list[Fraction]] = []
    for j in range(len(powers)):
        deeper = powers[j + 1] if j + 1 < len(powers) else []
        for v in powers[j]:
            if span_contains(deeper, v):
                continue  # belongs to a later layer
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


def _congruence_rank_signature(form: list[list[Fraction]]) -> tuple[int, int]:
    """Rank and |signature| of an exact symmetric matrix by congruence."""
    m = [row[:] for row in form]
    n = len(m)
    pos = neg = 0
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    continue  # zero row and column from k on
                for col in range(n):
                    m[k][col] += m[j][col]
                for row in m:
                    row[k] += row[j]
        d = m[k][k]
        if d == 0:
            continue
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = m[i][k] / d
            if f != 0:
                for col in range(n):
                    m[i][col] -= f * m[k][col]
                for irow in range(n):
                    m[irow][i] -= f * m[irow][k]
    return pos + neg, abs(pos - neg)


def isomorphism_invariants(alg: StructureConstants) -> IsomorphismInvariants:
    """Invariants separating the irreducible algebras of dim <= 4.

    For nilpotency class 3 in dimension 4, adds (rank, |signature|) of the
    symmetric form N/N^2 x N/N^2 -> N^2 induced by multiplication.  The pair
    is independent of the choice of N^2 generator because only |signature|
    is reported.
    """
    if alg.dim > 4:
        raise UnsupportedAlgebraError("classification invariants support dim <= 4 only")
    nil = nilradical(alg)
    inv = IsomorphismInvariants(dim=alg.dim, nilpotency_class=nil.nilpotency_class,
                                power_dims=nil.power_dims)
    if alg.dim == 4 and nil.nilpotency_class == 3:
        n_span = [list(e.coeffs) for e in nil.basis]
        n2_vectors = []
        for x in nil.basis:
            for y in nil.basis:
                n2_vectors.append(list(multiply(x, y).coeffs))
        n2 = _span_basis(n2_vectors)
        if len(n2) != 1:
            raise UnsupportedAlgebraError("expected one-dimensional N^2 in class-3 dim-4")
        gen = n2[0]
        # modulo-N^2 representatives of N
        reps = [e for e in nil.basis
                if not span_contains(n2, list(e.coeffs))]
        reps = reps[: len(n_span) - 1]
        m = len(reps)
        form = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                prod = list(multiply(reps[i], reps[j]).coeffs)
                # prod = c * gen (N^2 is a line)
                pivot = next(k for k in range(alg.dim) if gen[k] != 0)
                c = prod[pivot] / gen[pivot]
                residual = [p - c * g for p, g in zip(prod, gen)]
                if any(x != 0 for x in residual):
                    raise UnsupportedAlgebraError("product of class-3 reps left N^2")
                form[i][j] = c
        rank, abs_sig = _congruence_rank_signature(form)
        inv = IsomorphismInvariants(dim=alg.dim, nilpotency_class=nil.nilpotency_class,
                                    power_dims=nil.power_dims,
                                    bilinear_rank=rank, bilinear_abs_signature=abs_sig)
    return inv


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
    n = sum(dims)
    offsets = np.cumsum([0] + dims[:-1]).tolist()

    # block-diagonal tensor in the naive concatenated basis
    t = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a, off in zip(algs, offsets):
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    t[off + i][off + j][off + k] = a.tensor[i][j][k]

    # change of basis: replace slot u0 (first block's unit) by the global unit
    u0 = offsets[0] + algs[0].unit_index
    unit_vec = [Fraction(0)] * n
    for a, off in zip(algs, offsets):
        unit_vec[off + a.unit_index] = Fraction(1)
    change = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        change[i][u0] = unit_vec[i]  # columns are new basis vectors
    inv_change = _frac_inverse(change)

    new_t = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # product of new basis vectors i and j, in old coordinates
            prod_old = [Fraction(0)] * n
            for p in range(n):
                cip = change[p][i]
                if cip == 0:
                    continue
                for q in range(n):
                    cjq = change[q][j]
                    if cjq == 0:
                        continue
                    f = cip * cjq
                    tpq = t[p][q]
                    for k in range(n):
                        if tpq[k] != 0:
                            prod_old[k] += f * tpq[k]
            # back to new coordinates
            for k in range(n):
                new_t[i][j][k] = sum(inv_change[k][p] * prod_old[p] for p in range(n))
    return StructureConstants.from_tensor(new_t, unit_index=u0,
                                          block_dims=dims)


def _frac_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    aug = [rows[i][:] + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
           for i in range(n)]
    red, pivots = frac_rref(aug)
    if pivots != list(range(n)):
        raise AlgebraError("matrix not invertible")
    return [row[n:] for row in red]


# ---------------------------------------------------------------------------
# catalog algebras
# ---------------------------------------------------------------------------

def polynomial_quotient_algebra(d: int) -> StructureConstants:
    """R[X]/(X^d) with basis (1, X, ..., X^{d-1}); nilpotency class d."""
    t = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i + j < d:
                t[i][j][i + j] = Fraction(1)
    labels = ["1"] + [f"X^{k}" if k > 1 else "X" for k in range(1, d)]
    return StructureConstants.from_tensor(t, unit_index=0, labels=labels)


def trivial_product_algebra(d: int) -> StructureConstants:
    """Unit plus (d-1)-dim nilpotent part with all products zero; class 2."""
    t = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        t[0][i][i] = Fraction(1)
        t[i][0][i] = Fraction(1)
    t[0][0][0] = Fraction(1)
    labels = ["1"] + [f"n{k}" for k in range(1, d)]
    return StructureConstants.from_tensor(t, unit_index=0, labels=labels)


def h_a_algebra(a: Scalar) -> StructureConstants:
    """R[X,Y]/(X^3, Y^2 - a X^2, XY) with basis (1, X, Y, X^2)."""
    af = to_fraction(a)
    t = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        t[0][i][i] = Fraction(1)
        t[i][0][i] = Fraction(1)
    t[1][1][3] = Fraction(1)        # X*X = X^2
    t[2][2][3] = af                 # Y*Y = a X^2
    # X*Y = 0, X*X^2 = 0, Y*X^2 = 0, X^2*X^2 = 0
    return StructureConstants.from_tensor(t, unit_index=0, labels=("1", "X", "Y", "X^2"))


def nilpotent_part(alg: StructureConstants) -> StructureConstants:
    """Structure constants of the nilradical in its own basis (no unit)."""
    nil = nilradical(alg)
    basis = [list(e.coeffs) for e in nil.basis]
    m = len(basis)
    t = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            prod = list(multiply(nil.basis[i], nil.basis[j]).coeffs)
            coords = _coords_in_span(basis, prod)
            for k in range(m):
                t[i][j][k] = coords[k]
    return StructureConstants.from_tensor(t, unit_index=None)


def _coords_in_span(basis_rows: list[list[Fraction]], vec: list[Fraction]) -> list[Fraction]:
    m = len(basis_rows)
    n = len(vec)
    aug = [[basis_rows[j][i] for j in range(m)] + [vec[i]] for i in range(n)]
    red, pivots = frac_rref(aug)
    if any(p == m for p in pivots):
        raise AlgebraError("vector not in span")
    coords = [Fraction(0)] * m
    for r, p in enumerate(pivots):
        coords[p] = red[r][m]
    return coords


def with_unit(nil: StructureConstants) -> StructureConstants:
    """Adjoin a unit to a nilpotent algebra: A = R*1 (+) N, unit first."""
    if nil.unit_index is not None:
        raise AlgebraError("algebra already has a unit")
    m = nil.dim
    n = m + 1
    t = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        t[0][i][i] = Fraction(1)
        t[i][0][i] = Fraction(1)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                t[i + 1][j + 1][k + 1] = nil.tensor[i][j][k]
    return StructureConstants.from_tensor(t, unit_index=0)
