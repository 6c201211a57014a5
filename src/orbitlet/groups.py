"""Irreducibly admissible dilation groups.

Families: diagonal and similitude groups in any dimension, the 2-D
shearlet-type groups with anisotropy parameter c, generalized shearlet
groups assembled from a nilpotent commutative algebra plus a diagonal
generator Y, abelian groups coming from a unital commutative algebra, and
block-diagonal direct products.

Generalized shearlet elements are stored both as a matrix and in factored
coordinates (eps, r, t) with matrix = eps * (I + X(t)) * exp(r Y); the
factored form is authoritative for the modular function, the matrix for the
dual action.  ShearChart holds that chart and evaluates it on batches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import algebra as al

FACTOR_TOL = 1e-9   # relative residual allowed when factoring h = +-(I+X)exp(rY)
SPAN_TOL = 1e-10


class GroupError(ValueError):
    """Invalid group data or operation."""


class NotInGroupError(GroupError):
    """Matrix does not belong to the declared group."""


class UnsupportedSpecError(GroupError):
    """Requested operation undefined for this family."""


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Similitude:
    dim: int


@dataclass(frozen=True)
class Diagonal:
    dim: int


@dataclass(frozen=True)
class Shearlet2D:
    c: float

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True, eq=False)
class GeneralizedShearlet:
    """Shearing Lie basis X_2..X_d (strictly upper triangular) plus diagonal Y.

    Y is normalized so its first diagonal entry is 1.  ``nilpotency_class``
    refers to the shearing Lie algebra (smallest n with s^n = 0).
    """

    dim: int
    shear_basis: tuple            # d-1 matrices, each (d, d) ndarray
    Y: np.ndarray                 # diagonal entries, shape (d,)
    name: Optional[str] = None
    nilpotency_class: int = field(default=0)

    def __post_init__(self):
        for m in self.shear_basis:
            m.setflags(write=False)
        self.Y.setflags(write=False)
        if self.nilpotency_class == 0:
            object.__setattr__(self, "nilpotency_class",
                               lie_nilpotency_class(self.shear_basis))


@dataclass(frozen=True, eq=False)
class AbelianFromAlgebra:
    """Unit group of an irreducible commutative algebra, in adapted coordinates."""

    alg: al.StructureConstants
    shear_basis: tuple = field(default=())   # derived: X_i = rho(Y_i)^T, adapted
    nilpotency_class: int = field(default=0)

    def __post_init__(self):
        if not self.shear_basis:
            spec = build_shearing_from_nilpotent(self.alg)
            object.__setattr__(self, "shear_basis", spec.shear_basis)
            object.__setattr__(self, "nilpotency_class", spec.nilpotency_class)

    @property
    def dim(self) -> int:
        return self.alg.dim


@dataclass(frozen=True)
class DirectProduct:
    factors: tuple

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)


GroupSpec = Union[Similitude, Diagonal, Shearlet2D, GeneralizedShearlet,
                  AbelianFromAlgebra, DirectProduct]


@dataclass(frozen=True, eq=False)
class GroupElement:
    spec: GroupSpec
    matrix: np.ndarray
    factored: Optional[tuple] = None   # (eps, r, t-vector)

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    checks: tuple  # of (name, passed, detail)

    @staticmethod
    def from_checks(checks) -> "ValidationReport":
        checks = tuple((str(n), bool(ok), str(d)) for n, ok, d in checks)
        return ValidationReport(passed=all(ok for _, ok, _ in checks), checks=checks)

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": n, "passed": ok, "detail": d}
                           for n, ok, d in self.checks]}


# ---------------------------------------------------------------------------
# shearing subgroups
# ---------------------------------------------------------------------------

def lie_nilpotency_class(basis: Sequence[np.ndarray]) -> int:
    """Smallest n with span(basis)^n = 0 under matrix products."""
    current = [np.asarray(b, dtype=float) for b in basis]
    gen = list(current)
    n = 1
    d = gen[0].shape[0] if gen else 0
    while current:
        n += 1
        products = [a @ b for a in current for b in gen]
        current = _matrix_span_basis(products)
        if n > d + 1:
            raise GroupError("nilpotency class exceeded dimension bound")
    return n


def _matrix_span_basis(mats: list[np.ndarray]) -> list[np.ndarray]:
    nonzero = [m for m in mats if np.abs(m).max() > SPAN_TOL]
    if not nonzero:
        return []
    flat = np.stack([m.ravel() for m in nonzero])
    # orthonormal row basis via SVD
    u, s, vt = np.linalg.svd(flat, full_matrices=False)
    keep = s > SPAN_TOL * max(1.0, s[0])
    shape = nonzero[0].shape
    return [vt[i].reshape(shape) for i in range(keep.sum())]


def build_shearing_from_nilpotent(nil, Y=None, name=None) -> GeneralizedShearlet:
    """Shearing Lie basis from a nilpotent commutative algebra of dim d-1.

    Adjoins a unit, orders the basis along the nilradical filtration, and
    transposes the regular representation; the resulting X_i are strictly
    upper triangular with first rows equal to the canonical basis vectors.
    Accepts a unit-free StructureConstants, NilradicalData, or a unital
    irreducible algebra directly.
    """
    if isinstance(nil, al.NilradicalData):
        unital = nil.algebra
    elif isinstance(nil, al.StructureConstants):
        unital = al.with_unit(nil) if nil.unit_index is None else nil
    else:
        raise GroupError("expected StructureConstants or NilradicalData")
    basis = al.adapted_basis(unital)
    d = unital.dim
    # regular representation rewritten in the adapted basis
    change = [[basis[j].coeffs[i] for j in range(d)] for i in range(d)]
    inv_change = al._frac_inverse(change)
    mats = []
    for i in range(1, d):
        rho = al.regular_representation(basis[i])
        conj = _frac_matmul(inv_change, _frac_matmul(rho, change))
        x = np.array([[float(v) for v in row] for row in conj]).T
        mats.append(x)
    first_rows = np.stack([x[0, 1:] for x in mats])
    if abs(np.linalg.det(first_rows)) < SPAN_TOL:
        raise NotInGroupError("first-row map is not injective: not a shearing subgroup")
    if Y is None:
        Yvec = np.ones(d)
    else:
        Yvec = np.asarray(Y, dtype=float)
    return GeneralizedShearlet(dim=d, shear_basis=tuple(mats), Y=normalize_Y(Yvec),
                               name=name)


def _frac_matmul(a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    return [[sum(a[i][p] * b[p][j] for p in range(k)) for j in range(m)]
            for i in range(n)]


def validate_shearing(basis: Sequence[np.ndarray]) -> ValidationReport:
    """Check the defining properties of a shearing Lie algebra basis."""
    basis = [np.asarray(b, dtype=float) for b in basis]
    d = basis[0].shape[0]
    checks = []

    strict = all(np.abs(np.tril(b)).max() <= SPAN_TOL for b in basis)
    checks.append(("strictly_upper_triangular", strict, ""))

    comm = max((np.abs(a @ b - b @ a).max() for a in basis for b in basis),
               default=0.0)
    checks.append(("pairwise_commutation", comm <= 1e-9, f"max residual {comm:.2e}"))

    closure_res = 0.0
    flat = np.stack([b.ravel() for b in basis]).T
    for a in basis:
        for b in basis:
            prod = (a @ b).ravel()
            coef, res, *_ = np.linalg.lstsq(flat, prod, rcond=None)
            closure_res = max(closure_res,
                              float(np.abs(flat @ coef - prod).max()))
    checks.append(("multiplicative_closure", closure_res <= 1e-9,
                   f"max residual {closure_res:.2e}"))

    first = np.stack([b[0] for b in basis])
    ok_first = (np.abs(first[:, 0]).max() <= SPAN_TOL
                and abs(np.linalg.det(first[:, 1:])) > SPAN_TOL)
    checks.append(("first_rows_span_e2_to_ed", bool(ok_first), ""))

    rank = np.linalg.matrix_rank(np.stack([b.ravel() for b in basis]), tol=SPAN_TOL)
    checks.append(("dimension_d_minus_1", len(basis) == d - 1 and rank == d - 1,
                   f"count {len(basis)}, rank {rank}"))
    return ValidationReport.from_checks(checks)


def validate_diagonal_complement(Y, basis: Sequence[np.ndarray]) -> ValidationReport:
    """Y must normalize the shearing algebra and have nonzero first entry."""
    Yvec = np.asarray(Y, dtype=float)
    Ymat = np.diag(Yvec)
    basis = [np.asarray(b, dtype=float) for b in basis]
    checks = []
    flat = np.stack([b.ravel() for b in basis]).T
    worst = 0.0
    for x in basis:
        bracket = (x @ Ymat - Ymat @ x).ravel()
        coef, *_ = np.linalg.lstsq(flat, bracket, rcond=None)
        worst = max(worst, float(np.abs(flat @ coef - bracket).max()))
    checks.append(("bracket_in_span", worst <= 1e-9, f"max residual {worst:.2e}"))
    checks.append(("first_diagonal_nonzero", abs(Yvec[0]) > SPAN_TOL,
                   f"Y11 = {Yvec[0]}"))
    return ValidationReport.from_checks(checks)


def normalize_Y(Y) -> np.ndarray:
    Yvec = np.asarray(Y, dtype=float)
    if abs(Yvec[0]) <= SPAN_TOL:
        raise GroupError("cannot normalize Y with zero first diagonal entry")
    return Yvec / Yvec[0]


def validate_spec(spec: GroupSpec) -> ValidationReport:
    if isinstance(spec, (Shearlet2D, GeneralizedShearlet)):
        basis, Y = shear_data(spec)
        r1 = validate_shearing(basis)
        r2 = validate_diagonal_complement(Y, basis)
        return ValidationReport.from_checks(r1.checks + r2.checks)
    if isinstance(spec, AbelianFromAlgebra):
        checks = []
        try:
            nil = al.nilradical(spec.alg)
            irred = len(nil.basis) == spec.alg.dim - 1
            checks.append(("irreducible_algebra", irred,
                           f"nilradical dim {len(nil.basis)}"))
        except al.AlgebraError as exc:
            checks.append(("irreducible_algebra", False, str(exc)))
        return ValidationReport.from_checks(checks)
    if isinstance(spec, DirectProduct):
        subs = [validate_spec(f) for f in spec.factors]
        return ValidationReport.from_checks(
            [(f"factor{i}:{n}", ok, d) for i, r in enumerate(subs)
             for n, ok, d in r.checks] or [("factors", True, "")])
    if isinstance(spec, (Similitude, Diagonal)):
        return ValidationReport.from_checks([("dimension_positive", spec.dim >= 1, "")])
    raise UnsupportedSpecError(f"unknown spec {spec!r}")


# ---------------------------------------------------------------------------
# factored elements for shear-type groups
# ---------------------------------------------------------------------------

def shear_data(spec) -> tuple[list[np.ndarray], np.ndarray]:
    """(shear Lie basis, Y diagonal vector) for shear-type specs."""
    if isinstance(spec, Shearlet2D):
        x = np.array([[0.0, 1.0], [0.0, 0.0]])
        return [x], np.array([1.0, float(spec.c)])
    if isinstance(spec, GeneralizedShearlet):
        return list(spec.shear_basis), np.asarray(spec.Y, dtype=float)
    raise UnsupportedSpecError("spec has no shear factorization")


def shear_nilpotency_class(spec) -> int:
    if isinstance(spec, Shearlet2D):
        return 2
    if isinstance(spec, (GeneralizedShearlet, AbelianFromAlgebra)):
        return spec.nilpotency_class
    raise UnsupportedSpecError("spec has no shearing subgroup")


class ShearChart:
    """The chart h = eps (I + X(t)) exp(rY) of a shear-type group, batched.

    Methods take eps as a scalar or an (n,) array of +-1, r as (n,) and t as
    (n, d-1).  The left Haar density in (r, t) is exp(r (trace Y - d)), which
    is also Delta_H(h); |det h| = exp(r trace Y); the dual point h^T e1 only
    needs the first rows of the shear basis.
    """

    def __init__(self, basis: Sequence[np.ndarray], Y: np.ndarray):
        self.basis = np.stack(basis)                    # (d-1, d, d)
        self.Y = Y                                      # (d,), Y_1 = 1
        self.first_rows = self.basis[:, 0, 1:].copy()   # row k: X_k[0, 1:]
        self.trace_y = float(Y.sum())
        self.dim = len(Y)

    def matrices(self, eps, r, t) -> np.ndarray:
        x = np.einsum("nk,kij->nij", t, self.basis)
        diag = np.exp(r[:, None] * self.Y[None, :])
        return np.reshape(eps, (-1, 1, 1)) * (np.eye(self.dim)[None] + x) * diag[:, None, :]

    def dual(self, eps, r, t) -> np.ndarray:
        eps = np.reshape(eps, (-1, 1))
        tail = (t @ self.first_rows) * np.exp(r[:, None] * self.Y[None, 1:])
        return np.concatenate([eps * np.exp(r)[:, None], eps * tail], axis=1)

    def haar(self, r):
        return np.exp(r * (self.trace_y - self.dim))

    def det(self, r):
        return np.exp(r * self.trace_y)

    @staticmethod
    def delta_g(mats: np.ndarray) -> np.ndarray:
        """Delta_G(h) = Delta_H(h) / |det h| = exp(-d r) = |h_11|^-d for (n, d, d) h."""
        return np.abs(mats[:, 0, 0]) ** -mats.shape[-1]

    def coords(self, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(eps, r, t) with dual(eps, r, t) = xi, for (n, d) points with xi_1 != 0."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        eps = np.sign(xi[:, 0])
        r = np.log(np.abs(xi[:, 0]))
        rhs = eps[:, None] * xi[:, 1:] * np.exp(-r[:, None] * self.Y[None, 1:])
        try:
            t = np.linalg.solve(self.first_rows.T, rhs.T).T
        except np.linalg.LinAlgError as exc:
            raise NotInGroupError("shearing basis is degenerate") from exc
        return eps, r, t


def shear_chart(spec) -> ShearChart:
    return ShearChart(*shear_data(spec))


def element_from_factored(spec, eps: int, r: float, t) -> GroupElement:
    """Assemble eps * (I + X(t)) * exp(r Y)."""
    chart = shear_chart(spec)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (chart.dim - 1,):
        raise GroupError(f"shear vector must have length {chart.dim - 1}")
    mat = chart.matrices(eps, np.array([float(r)]), t[None])[0]
    return GroupElement(spec=spec, matrix=mat, factored=(int(eps), float(r), t.copy()))


def factor(spec, h) -> tuple[int, float, np.ndarray]:
    """Recover (eps, r, t) from a matrix in a shear-type group.

    The first row of h is its dual point h^T e1, which the chart inverts.
    Signals NotInGroupError when the unipotent part eps h exp(-rY) - I
    leaves the span of the shear basis.
    """
    chart = shear_chart(spec)
    h = np.asarray(h, dtype=float)
    if h[0, 0] == 0:
        raise NotInGroupError("first diagonal entry vanishes")
    eps, r, t = chart.coords(h[:1])
    eps, r, t = int(eps[0]), float(r[0]), t[0]
    x = eps * h * np.exp(-r * chart.Y)[None, :] - np.eye(chart.dim)
    rebuilt = np.einsum("k,kij->ij", t, chart.basis)
    scale = max(1.0, float(np.abs(h).max()))
    if np.abs(rebuilt - x).max() > FACTOR_TOL * scale:
        raise NotInGroupError("matrix does not match +-(I+X)exp(rY) pattern")
    return eps, r, t


def shearlet2d_element(spec: Shearlet2D, a: float, b: float, eps: int = 1) -> GroupElement:
    """2-D convenience: eps * [[a, b], [0, a^c]] with a > 0."""
    if a <= 0:
        raise GroupError("scale parameter a must be positive")
    r = math.log(a)
    t = np.array([b / a ** spec.c])
    return element_from_factored(spec, eps, r, t)


def shearlet2d_ab(h: GroupElement) -> tuple[int, float, float]:
    eps, r, t = h.factored
    c = h.spec.c
    a = math.exp(r)
    return eps, a, float(t[0]) * a ** c


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------

def element(spec, matrix) -> GroupElement:
    """Wrap a matrix, attaching factored coordinates when the family has them."""
    matrix = np.asarray(matrix, dtype=float).copy()
    factored = None
    if isinstance(spec, (Shearlet2D, GeneralizedShearlet)):
        factored = factor(spec, matrix)
    return GroupElement(spec=spec, matrix=matrix, factored=factored)


def identity(spec) -> GroupElement:
    return element(spec, np.eye(spec.dim))


def compose(h1: GroupElement, h2: GroupElement) -> GroupElement:
    return element(h1.spec, h1.matrix @ h2.matrix)


def group_inverse(h: GroupElement) -> GroupElement:
    return element(h.spec, np.linalg.inv(h.matrix))


def unipotent_inverse(mat) -> np.ndarray:
    """Inverse of I + X for nilpotent X by the truncated Neumann series."""
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[0]
    x = mat - np.eye(d)
    out = np.eye(d)
    term = np.eye(d)
    for _ in range(1, d):
        term = -term @ x
        if np.abs(term).max() == 0.0:
            break
        out = out + term
    return out


def dual_action(h, xi) -> np.ndarray:
    """Right linear action on frequencies: xi -> h^T xi."""
    mat = h.matrix if isinstance(h, GroupElement) else np.asarray(h, dtype=float)
    return mat.T @ np.asarray(xi, dtype=float)


def modular_data(spec, h) -> tuple[float, float, float]:
    """(|det h| with sign stripped later, Delta_H(h), Delta_G(h)).

    Delta_H uses the family closed forms: 1 for the abelian/similitude
    families, |a|^(c-1) for Shearlet2D, exp(r (trace Y - d)) for generalized
    shearlets (Y11-normalized), products across direct-product blocks.
    """
    mat = h.matrix if isinstance(h, GroupElement) else np.asarray(h, dtype=float)
    det = float(np.linalg.det(mat))
    if abs(det) < 1e-300:
        raise NotInGroupError("singular matrix")
    if isinstance(spec, (Similitude, Diagonal, AbelianFromAlgebra)):
        delta_h = 1.0
    elif isinstance(spec, (Shearlet2D, GeneralizedShearlet)):
        factored = h.factored if isinstance(h, GroupElement) else None
        _, r, _ = factored or factor(spec, mat)
        delta_h = float(shear_chart(spec).haar(r))
    elif isinstance(spec, DirectProduct):
        delta_h = 1.0
        off = 0
        for f in spec.factors:
            d = f.dim
            block = mat[off:off + d, off:off + d]
            if np.abs(mat[off:off + d, :]).sum() - np.abs(block).sum() > 1e-9:
                raise NotInGroupError("matrix is not block diagonal")
            delta_h *= modular_data(f, block)[1]
            off += d
    else:
        raise UnsupportedSpecError(f"unknown spec {spec!r}")
    return det, delta_h, delta_h / abs(det)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def standard_shearlet_group(d: int, Y=None) -> GeneralizedShearlet:
    """Shear part with trivial products; default Y = diag(1, 1/2, ..., 1/2)."""
    if Y is None:
        Y = np.array([1.0] + [0.5] * (d - 1))
    return build_shearing_from_nilpotent(
        al.nilpotent_part(al.trivial_product_algebra(d)), Y=Y, name=f"standard-{d}d")


def toeplitz_shearlet_group(d: int, Y=None) -> GeneralizedShearlet:
    """Toeplitz shear part from R[X]/(X^d); default Y = identity."""
    if Y is None:
        Y = np.ones(d)
    return build_shearing_from_nilpotent(
        al.nilpotent_part(al.polynomial_quotient_algebra(d)), Y=Y,
        name=f"toeplitz-{d}d")


def h_a_shearlet_group(a, Y=None) -> GeneralizedShearlet:
    if Y is None:
        Y = np.ones(4)
    return build_shearing_from_nilpotent(
        al.nilpotent_part(al.h_a_algebra(a)), Y=Y, name=f"Ha({a})")


def enumerate_catalog(d: int) -> list[GeneralizedShearlet]:
    """All shearing groups up to conjugacy in dimension d, for d in {2,3,4}."""
    if d == 2:
        return [standard_shearlet_group(2)]
    if d == 3:
        return [standard_shearlet_group(3), toeplitz_shearlet_group(3)]
    if d == 4:
        return [standard_shearlet_group(4), toeplitz_shearlet_group(4),
                h_a_shearlet_group(-1), h_a_shearlet_group(0), h_a_shearlet_group(1)]
    raise UnsupportedSpecError("catalog covers dimensions 2, 3, 4")


# ---------------------------------------------------------------------------
# Monte Carlo samplers (vectorized; used by the empirical exponent checks)
# ---------------------------------------------------------------------------

@dataclass
class GroupSample:
    matrices: np.ndarray      # (n, d, d)
    delta_h: np.ndarray       # (n,)
    dual_points: np.ndarray   # (n, d) = h^T xi0 for the family base point


def sample_group(spec, rng: np.random.Generator, n: int,
                 scale_bound: float, shear_bound: float) -> GroupSample:
    """Draw n elements: log-uniform scales in [-R, R], shears uniform in [-T, T]."""
    if isinstance(spec, (Shearlet2D, GeneralizedShearlet)):
        chart = shear_chart(spec)
        r = rng.uniform(-scale_bound, scale_bound, n)
        t = rng.uniform(-shear_bound, shear_bound, (n, chart.dim - 1))
        eps = rng.choice([-1.0, 1.0], n)
        return GroupSample(chart.matrices(eps, r, t), chart.haar(r),
                           chart.dual(eps, r, t))
    if isinstance(spec, Similitude):
        d = spec.dim
        r = np.exp(rng.uniform(-scale_bound, scale_bound, n))
        g = rng.normal(size=(n, d, d))
        q, rr = np.linalg.qr(g)
        q = q * np.sign(np.einsum("nii->ni", rr))[:, None, :]
        det = np.linalg.det(q)
        q[det < 0, :, 0] *= -1.0
        mats = r[:, None, None] * q
        dual = np.einsum("nji,j->ni", mats, _unit_vector(d, 0))
        return GroupSample(mats, np.ones(n), dual)
    if isinstance(spec, Diagonal):
        d = spec.dim
        r = rng.uniform(-scale_bound, scale_bound, (n, d))
        signs = rng.choice([-1.0, 1.0], (n, d))
        diag = signs * np.exp(r)
        mats = np.zeros((n, d, d))
        idx = np.arange(d)
        mats[:, idx, idx] = diag
        return GroupSample(mats, np.ones(n), diag.copy())
    if isinstance(spec, AbelianFromAlgebra):
        d = spec.dim
        basis = np.stack(spec.shear_basis)
        s = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-scale_bound, scale_bound, n))
        x = rng.uniform(-shear_bound, shear_bound, (n, d - 1))
        mats = s[:, None, None] * np.eye(d)[None] + np.einsum("nk,kij->nij", x, basis)
        dual = np.concatenate([s[:, None], x], axis=1)
        return GroupSample(mats, np.ones(n), dual)
    if isinstance(spec, DirectProduct):
        subs = [sample_group(f, rng, n, scale_bound, shear_bound) for f in spec.factors]
        d = spec.dim
        mats = np.zeros((n, d, d))
        off = 0
        delta_h = np.ones(n)
        duals = []
        for f, s in zip(spec.factors, subs):
            mats[:, off:off + f.dim, off:off + f.dim] = s.matrices
            delta_h *= s.delta_h
            duals.append(s.dual_points)
            off += f.dim
        return GroupSample(mats, delta_h, np.concatenate(duals, axis=1))
    raise UnsupportedSpecError(f"no sampler for {spec!r}")


def _expm_series(mats: np.ndarray, terms: int = 18) -> np.ndarray:
    """Matrix exponential by plain series; adequate for small-norm inputs."""
    out = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape).copy()
    term = out.copy()
    for k in range(1, terms):
        term = term @ mats / k
        out = out + term
    return out


def _sample_small(spec, rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    if isinstance(spec, Diagonal):
        d = spec.dim
        r = rng.uniform(-scale, scale, (n, d))
        mats = np.zeros((n, d, d))
        idx = np.arange(d)
        mats[:, idx, idx] = np.exp(r)
        return mats
    if isinstance(spec, (Shearlet2D, GeneralizedShearlet, AbelianFromAlgebra)):
        return sample_group(spec, rng, n, scale_bound=scale,
                            shear_bound=scale).matrices * 1.0
    if isinstance(spec, Similitude):
        d = spec.dim
        u = rng.uniform(-scale, scale, n)
        skew = rng.uniform(-scale, scale, (n, d, d))
        skew = skew - np.swapaxes(skew, 1, 2)
        rot = _expm_series(skew)
        return np.exp(u)[:, None, None] * rot
    if isinstance(spec, DirectProduct):
        mats = np.zeros((n, spec.dim, spec.dim))
        off = 0
        for f in spec.factors:
            mats[:, off:off + f.dim, off:off + f.dim] = _sample_small(f, rng, n, scale)
            off += f.dim
        return mats
    raise UnsupportedSpecError(f"no sampler for {spec!r}")


def sample_near_identity(spec, rng: np.random.Generator, n: int,
                         radius: float = 0.5) -> np.ndarray:
    """Elements with ||h - id|| < radius, by rejection on small parameter draws.

    Signs are forced positive and all parameters kept small, so acceptance is
    high while still covering the neighborhood used by the moderateness bound.
    """
    d = spec.dim
    out = np.empty((0, d, d))
    scale = 0.15 * radius
    while out.shape[0] < n:
        batch = _sample_small(spec, rng, 2 * (n - out.shape[0]) + 16, scale)
        batch = batch * np.sign(batch[:, 0, 0])[:, None, None]
        dev = np.linalg.svd(batch - np.eye(d)[None], compute_uv=False)[:, 0]
        keep = batch[dev < radius]
        out = np.concatenate([out, keep], axis=0)
    return out[:n]


def _unit_vector(d: int, i: int) -> np.ndarray:
    v = np.zeros(d)
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def spec_to_json(spec: GroupSpec) -> dict:
    if isinstance(spec, Similitude):
        return {"family": "similitude", "dim": spec.dim}
    if isinstance(spec, Diagonal):
        return {"family": "diagonal", "dim": spec.dim}
    if isinstance(spec, Shearlet2D):
        return {"family": "shearlet2d", "c": spec.c}
    if isinstance(spec, GeneralizedShearlet):
        doc = {"family": "generalized_shearlet", "dim": spec.dim,
               "shear_basis": [m.tolist() for m in spec.shear_basis],
               "Y": spec.Y.tolist()}
        if spec.name:
            doc["name"] = spec.name
        return doc
    if isinstance(spec, AbelianFromAlgebra):
        return {"family": "abelian_algebra", "algebra": spec.alg.to_json()}
    if isinstance(spec, DirectProduct):
        return {"family": "direct_product",
                "factors": [spec_to_json(f) for f in spec.factors]}
    raise UnsupportedSpecError(f"unknown spec {spec!r}")


def spec_from_json(doc) -> GroupSpec:
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        family = doc["family"]
    except (KeyError, TypeError) as exc:
        raise GroupError(f"malformed group document: {exc}") from exc
    if family == "similitude":
        return Similitude(dim=int(doc["dim"]))
    if family == "diagonal":
        return Diagonal(dim=int(doc["dim"]))
    if family == "shearlet2d":
        return Shearlet2D(c=float(doc["c"]))
    if family == "generalized_shearlet":
        basis = tuple(np.asarray(m, dtype=float) for m in doc["shear_basis"])
        spec = GeneralizedShearlet(dim=int(doc["dim"]), shear_basis=basis,
                                   Y=normalize_Y(doc["Y"]), name=doc.get("name"))
        report = validate_spec(spec)
        if not report.passed:
            raise GroupError(f"invalid generalized shearlet spec: {report.to_json()}")
        return spec
    if family == "abelian_algebra":
        return AbelianFromAlgebra(alg=al.StructureConstants.from_json(doc["algebra"]))
    if family == "direct_product":
        return DirectProduct(factors=tuple(spec_from_json(f) for f in doc["factors"]))
    raise UnsupportedSpecError(f"unknown family {family!r}")
