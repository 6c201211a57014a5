"""Irreducibly admissible dilation groups.

Families: diagonal and similitude groups in any dimension, generalized
shearlet groups assembled from a nilpotent commutative algebra plus a
diagonal generator Y (Shearlet2D, with anisotropy parameter c, is the d = 2
member), abelian groups coming from a unital commutative algebra, and
block-diagonal direct products of these.  An abelian unit group is the
shearlet group of its algebra with Y = 1 and uses that family's chart.
Similitude, Diagonal and GeneralizedShearlet answer their group facts (sample,
sample_small, section, delta_h); every consumer folds over leaves(), which walks
a product once into its leaves and slices, and alone refuses an unknown family.
Consumers ask a spec its ``chart`` or its orbit kind, not its class.

Generalized shearlet elements are stored both as a matrix and in factored
coordinates (eps, r, t) with matrix = eps * (I + X(t)) * exp(r Y); the
factored form is authoritative for the modular function, the matrix for the
dual action.  ShearChart holds that chart and evaluates it on batches; a
shear-type spec builds its own once as ``spec.chart``, which is None on the others.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence, Union

import numpy as np

from . import algebra as al

FACTOR_TOL = 1e-9   # relative residual allowed when factoring h = +-(I+X)exp(rY)
SPAN_TOL = 1e-10


class GroupError(al.OrbitletError):
    """Invalid group data or operation."""


class NotInGroupError(GroupError):
    """Matrix does not belong to the declared group."""


class UnsupportedSpecError(GroupError, al.UnsupportedError):
    """Requested operation undefined for this family."""


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Unimodular:  # the similitude and diagonal groups: Delta_H = 1
    dim: int
    chart = None

    def delta_h(self, h) -> float:
        return 1.0


class Similitude(_Unimodular):
    def sample(self, rng, n, scale_bound, shear_bound) -> GroupSample:
        r = np.exp(rng.uniform(-scale_bound, scale_bound, n))
        q, rr = np.linalg.qr(rng.normal(size=(n, self.dim, self.dim)))  # Haar rotations
        q = q * np.sign(np.einsum("nii->ni", rr))[:, None, :]
        q[np.linalg.det(q) < 0, :, 0] *= -1.0
        mats = r[:, None, None] * q
        return GroupSample(mats, np.ones(n), mats[:, 0, :])

    def sample_small(self, rng, n, scale) -> np.ndarray:
        u, skew = rng.uniform(-scale, scale, n), rng.uniform(-scale, scale, (n, self.dim, self.dim))
        return np.exp(u)[:, None, None] * _expm_series(skew - np.swapaxes(skew, 1, 2))

    def section(self, xi) -> GroupElement:
        if self.dim != 2:
            raise UnsupportedSpecError("similitude groups act freely only in dimension 2")
        u = xi / np.linalg.norm(xi)  # R^T e1 = u for the rotation R below
        return GroupElement(self, np.linalg.norm(xi) * np.array([[u[0], u[1]], [-u[1], u[0]]]))


class Diagonal(_Unimodular):
    # matrices as block_diag of 1x1 blocks: diag * eye puts -0.0 beside a negative entry
    def sample(self, rng, n, scale_bound, shear_bound) -> GroupSample:
        r = rng.uniform(-scale_bound, scale_bound, (n, self.dim))
        diag = rng.choice([-1.0, 1.0], (n, self.dim)) * np.exp(r)
        return GroupSample(block_diag([c[:, None, None] for c in diag.T]), np.ones(n), diag)

    def sample_small(self, rng, n, scale) -> np.ndarray:
        diag = np.exp(rng.uniform(-scale, scale, (n, self.dim)))
        return block_diag([c[:, None, None] for c in diag.T])

    def section(self, xi) -> GroupElement:
        return GroupElement(self, np.diag(xi))


@dataclass(frozen=True, eq=False)
class GeneralizedShearlet:
    """Shearing Lie basis X_2..X_d (strictly upper triangular) plus diagonal Y.

    Y is normalized so its first diagonal entry is 1.  ``nilpotency_class``
    refers to the shearing Lie algebra (smallest n with s^n = 0).  ``alg`` is
    the algebra the basis was built from, when it was built from one.
    """

    dim: int
    shear_basis: tuple            # d-1 matrices, each (d, d) ndarray
    Y: np.ndarray                 # diagonal entries, shape (d,)
    name: Optional[str] = None
    nilpotency_class: int = field(default=0)
    alg: Optional[al.StructureConstants] = field(default=None, repr=False)

    def __post_init__(self):
        for m in self.shear_basis:
            m.setflags(write=False)
        self.Y.setflags(write=False)
        if self.nilpotency_class == 0:
            object.__setattr__(self, "nilpotency_class", lie_nilpotency_class(self.shear_basis))
        object.__setattr__(self, "chart", ShearChart(self.shear_basis, self.Y))

    def chart_draws(self, rng, n, scale_bound, shear_bound):
        r = rng.uniform(-scale_bound, scale_bound, n)
        t = rng.uniform(-shear_bound, shear_bound, (n, self.dim - 1))
        return rng.choice([-1.0, 1.0], n), r, t

    def sample(self, rng, n, scale_bound, shear_bound) -> GroupSample:
        eps, r, t = self.chart_draws(rng, n, scale_bound, shear_bound)
        chart = self.chart
        return GroupSample(chart.matrices(eps, r, t), chart.haar(r), chart.dual(eps, r, t))

    def sample_small(self, rng, n, scale) -> np.ndarray:
        return self.sample(rng, n, scale, scale).matrices

    def section(self, xi) -> GroupElement:
        eps, r, t = self.chart.coords(xi)
        return element_from_factored(self, eps[0], r[0], t[0])

    def delta_h(self, h) -> float:  # exp(r (trace Y - d)) at h's own chart point if it has one
        _, r, _ = getattr(h, "factored", None) or factor(self, as_matrix(h))
        return float(self.chart.haar(r))


class Shearlet2D(GeneralizedShearlet):
    """The classical group {eps [[a, b], [0, a^c]]}: the d = 2 generalized
    shearlet group with shear basis e1 e2^T and Y = (1, c)."""

    def __init__(self, c: float):
        super().__init__(dim=2, shear_basis=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
                         Y=np.array([1.0, float(c)]))
        object.__setattr__(self, "c", float(c))

    def __repr__(self) -> str:
        return f"Shearlet2D(c={self.c!r})"


class AbelianFromAlgebra(GeneralizedShearlet):
    """Unit group of an irreducible commutative algebra, in adapted coordinates:
    rho(a) = a_1 I + sum_k a_(k+1) X_k is eps exp(r) (I + X(t)) with
    t = a_(2..d) / a_1, the shearlet group of the same algebra with Y = 1."""

    def __init__(self, alg: al.StructureConstants):
        spec = build_shearing_from_nilpotent(alg)
        super().__init__(dim=alg.dim, shear_basis=spec.shear_basis, Y=spec.Y,
                         nilpotency_class=spec.nilpotency_class, alg=alg)

    def chart_draws(self, rng, n, scale_bound, shear_bound):
        """a_1 = eps e^r first, then a_(2..d) of rho(a) in [-T, T]: t = a_(2..d) / a_1."""
        eps, r = rng.choice([-1.0, 1.0], n), rng.uniform(-scale_bound, scale_bound, n)
        t = rng.uniform(-shear_bound, shear_bound, (n, self.dim - 1)) / (eps * np.exp(r))[:, None]
        return eps, r, t


@dataclass(frozen=True)
class DirectProduct:
    factors: tuple
    chart = None

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)


LeafSpec = Union[Similitude, Diagonal, GeneralizedShearlet]
GroupSpec = Union[LeafSpec, DirectProduct]


def leaves(spec: GroupSpec, start: int = 0) -> list[tuple]:
    """(family, slice of its coordinates) for every factor that is not a
    product, in order, nested products flattened; a leaf is its own factor."""
    if isinstance(spec, DirectProduct):
        starts = accumulate((f.dim for f in spec.factors), initial=start)
        return [leaf for f, a in zip(spec.factors, starts) for leaf in leaves(f, a)]
    if not isinstance(spec, LeafSpec):
        raise UnsupportedSpecError(f"unknown spec {spec!r}")
    return [(spec, slice(start, start + spec.dim))]


@dataclass(frozen=True, eq=False)
class GroupElement:
    spec: GroupSpec
    matrix: np.ndarray
    factored: Optional[tuple] = None   # (eps, r, t-vector)

    def __post_init__(self):
        self.matrix.setflags(write=False)


def as_matrix(h) -> np.ndarray:
    """The matrix of a GroupElement, or the argument itself as a float array."""
    return h.matrix if isinstance(h, GroupElement) else np.asarray(h, dtype=float)


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
                "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in self.checks]}


# ---------------------------------------------------------------------------
# shearing subgroups
# ---------------------------------------------------------------------------

def lie_nilpotency_class(basis: Sequence[np.ndarray]) -> int:
    """Smallest n with span(basis)^n = 0 under matrix products."""
    gen = current = [np.asarray(b, dtype=float) for b in basis]
    n, d = 1, (gen[0].shape[0] if gen else 0)
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
    # orthonormal row basis via SVD
    _, s, vt = np.linalg.svd(np.stack([m.ravel() for m in nonzero]), full_matrices=False)
    keep = s > SPAN_TOL * max(1.0, s[0])
    return [vt[i].reshape(nonzero[0].shape) for i in range(keep.sum())]


def build_shearing_from_nilpotent(alg: al.StructureConstants, Y=None,
                                  name=None) -> GeneralizedShearlet:
    """Shearing Lie basis X_i = rho(Y_i)^T of an irreducible unital algebra.

    In the adapted basis 1, Y_2, ..., Y_d, ordered along the nilradical
    filtration, rho(Y_i)^T is slice i of the structure tensor, so the X_i
    are strictly upper triangular with first rows equal to the canonical
    basis vectors.
    """
    if alg.dim < 2:
        raise GroupError("a shearing group needs an algebra of dim >= 2")
    adapted = al.in_basis(alg, [b.coeffs for b in al.adapted_basis(alg)], unit_index=0)
    mats = tuple(np.array(adapted.tensor[i], dtype=float) for i in range(1, alg.dim))
    Yvec = np.ones(alg.dim) if Y is None else np.asarray(Y, dtype=float)
    return GeneralizedShearlet(dim=alg.dim, shear_basis=mats, Y=normalize_Y(Yvec), name=name,
                               alg=alg)


def validate_shearing(basis: Sequence[np.ndarray]) -> ValidationReport:
    """Check the defining properties of a shearing Lie algebra basis."""
    basis = [np.asarray(b, dtype=float) for b in basis]
    d = basis[0].shape[0]
    comm = max((np.abs(a @ b - b @ a).max() for a in basis for b in basis), default=0.0)
    closure = _span_residual(basis, [a @ b for a in basis for b in basis])
    first = np.stack([b[0] for b in basis])
    rank = np.linalg.matrix_rank(np.stack([b.ravel() for b in basis]), tol=SPAN_TOL)
    return ValidationReport.from_checks([
        ("strictly_upper_triangular", all(np.abs(np.tril(b)).max() <= SPAN_TOL for b in basis), ""),
        ("pairwise_commutation", comm <= 1e-9, f"max residual {comm:.2e}"),
        ("multiplicative_closure", closure <= 1e-9, f"max residual {closure:.2e}"),
        ("first_rows_span_e2_to_ed", bool(np.abs(first[:, 0]).max() <= SPAN_TOL
                                          and abs(np.linalg.det(first[:, 1:])) > SPAN_TOL), ""),
        ("dimension_d_minus_1", len(basis) == d - 1 and rank == d - 1,
         f"count {len(basis)}, rank {rank}")])


def _span_residual(basis, mats) -> float:
    """Largest residual of the least-squares fits of mats in span(basis)."""
    flat, worst = np.stack([b.ravel() for b in basis]).T, 0.0
    for m in mats:
        coef, *_ = np.linalg.lstsq(flat, m.ravel(), rcond=None)
        worst = max(worst, float(np.abs(flat @ coef - m.ravel()).max()))
    return worst


def validate_diagonal_complement(Y, basis: Sequence[np.ndarray]) -> ValidationReport:
    """Y must normalize the shearing algebra and have nonzero first entry."""
    Yvec, basis = np.asarray(Y, dtype=float), [np.asarray(b, dtype=float) for b in basis]
    Ymat = np.diag(Yvec)
    worst = _span_residual(basis, [x @ Ymat - Ymat @ x for x in basis])
    return ValidationReport.from_checks([
        ("bracket_in_span", worst <= 1e-9, f"max residual {worst:.2e}"),
        ("first_diagonal_nonzero", abs(Yvec[0]) > SPAN_TOL, f"Y11 = {Yvec[0]}")])


def normalize_Y(Y) -> np.ndarray:
    Yvec = np.asarray(Y, dtype=float)
    if abs(Yvec[0]) <= SPAN_TOL:
        raise GroupError("cannot normalize Y with zero first diagonal entry")
    normalized = Yvec / Yvec[0]
    if not math.isfinite(normalized.sum()):  # the trace; inf or nan when an entry is
        raise GroupError(f"Y = {Yvec.tolist()} normalizes to a non-finite entry or trace")
    return normalized


def validate_spec(spec: GroupSpec) -> ValidationReport:
    if isinstance(spec, AbelianFromAlgebra):
        try:
            nil = al.nilradical(spec.alg)
            irreducible = (len(nil.basis) == spec.alg.dim - 1, f"nilradical dim {len(nil.basis)}")
        except al.AlgebraError as exc:
            irreducible = (False, str(exc))
        return ValidationReport.from_checks([("irreducible_algebra", *irreducible)])
    if isinstance(spec, GeneralizedShearlet):
        basis, Y = shear_data(spec)
        return ValidationReport.from_checks(validate_shearing(basis).checks
                                            + validate_diagonal_complement(Y, basis).checks)
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
    chart = shear_chart(spec)
    return list(spec.shear_basis), chart.Y


class ShearChart:
    """The chart h = eps (I + X(t)) exp(rY) of a shear-type group, batched.

    Methods take eps as a scalar or an (n,) array of +-1, r as (n,) and t as
    (n, d-1).  The left Haar density in (r, t) is exp(r (trace Y - d)), which
    is also Delta_H(h); |det h| = exp(r trace Y); the dual point of h needs no
    matrix.
    """

    def __init__(self, basis: Sequence[np.ndarray], Y: np.ndarray):
        self.basis = np.stack(basis)                    # (d-1, d, d)
        self.Y = Y                                      # (d,), Y_1 = 1
        self.first_rows = self.basis[:, 0, 1:].copy()   # row k: X_k[0, 1:]
        self.trace_y = float(Y.sum())
        self.dim = len(Y)

    def matrices(self, eps, r, t) -> np.ndarray:
        x, diag = np.einsum("nk,kij->nij", t, self.basis), np.exp(r[:, None] * self.Y[None, :])
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
        eps, r = np.sign(xi[:, 0]), np.log(np.abs(xi[:, 0]))
        rhs = eps[:, None] * xi[:, 1:] * np.exp(-r[:, None] * self.Y[None, 1:])
        try:
            t = np.linalg.solve(self.first_rows.T, rhs.T).T
        except np.linalg.LinAlgError as exc:
            raise NotInGroupError("shearing basis is degenerate") from exc
        return eps, r, t


def shear_chart(spec) -> ShearChart:
    if spec.chart is None:
        raise UnsupportedSpecError("spec has no shear factorization")
    return spec.chart


def element_from_factored(spec, eps: int, r: float, t) -> GroupElement:
    """Assemble eps * (I + X(t)) * exp(r Y); a matrix that overflows is refused."""
    chart, t = shear_chart(spec), np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (chart.dim - 1,):
        raise GroupError(f"shear vector must have length {chart.dim - 1}")
    mat = chart.matrices(eps, np.array([float(r)]), t[None])[0]
    if not np.isfinite(mat).all():
        raise GroupError(f"group element (eps, r, t) = ({eps}, {r}, {t.tolist()}) overflows")
    return GroupElement(spec=spec, matrix=mat, factored=(int(eps), float(r), t.copy()))


def factor(spec, h) -> tuple[int, float, np.ndarray]:
    """Recover (eps, r, t) from a matrix in a shear-type group.

    The first row of h is its dual point h^T e1, which the chart inverts.
    Signals NotInGroupError when the unipotent part eps h exp(-rY) - I
    leaves the span of the shear basis.
    """
    chart, h = shear_chart(spec), np.asarray(h, dtype=float)
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
    return element_from_factored(spec, eps, math.log(a), np.array([b / a ** spec.c]))


def shearlet2d_ab(h: GroupElement) -> tuple[int, float, float]:
    eps, r, t = h.factored
    a = math.exp(r)
    return eps, a, float(t[0]) * a ** h.spec.c


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------

def element(spec, matrix) -> GroupElement:
    """Wrap a matrix, attaching factored coordinates when the family has them."""
    matrix = np.asarray(matrix, dtype=float).copy()
    factored = factor(spec, matrix) if spec.chart is not None else None
    return GroupElement(spec=spec, matrix=matrix, factored=factored)


def identity(spec) -> GroupElement:
    return element(spec, np.eye(spec.dim))


def compose(h1: GroupElement, h2: GroupElement) -> GroupElement:
    return element(h1.spec, h1.matrix @ h2.matrix)


def group_inverse(h: GroupElement) -> GroupElement:
    return element(h.spec, np.linalg.inv(h.matrix))


def dual_action(h, xi) -> np.ndarray:
    """Right linear action on frequencies: xi -> h^T xi."""
    return as_matrix(h).T @ np.asarray(xi, dtype=float)


def modular_data(spec, h) -> tuple[float, float, float]:
    """(|det h| with sign stripped later, Delta_H(h), Delta_G(h)), Delta_H the
    product of the leaves' delta_h: 1 on similitude and diagonal groups and
    exp(r (trace Y - d)) on shear-type ones (Y11-normalized: 1 if abelian)."""
    mat = as_matrix(h)
    det = float(np.linalg.det(mat))
    if abs(det) < 1e-300:
        raise NotInGroupError("singular matrix")
    delta_h = 1.0
    for f, s in leaves(spec):
        if np.abs(mat[s, :]).sum() - np.abs(mat[s, s]).sum() > 1e-9:
            raise NotInGroupError("matrix is not block diagonal")
        delta_h *= f.delta_h(h if f is spec else mat[s, s])  # a lone leaf's h: its chart point
    return det, delta_h, delta_h / abs(det)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def standard_shearlet_group(d: int) -> GeneralizedShearlet:
    """Shear part with trivial products; Y = diag(1, 1/2, ..., 1/2)."""
    return build_shearing_from_nilpotent(al.trivial_product_algebra(d), name=f"standard-{d}d",
                                         Y=[1.0] + [0.5] * (d - 1))


def toeplitz_shearlet_group(d: int) -> GeneralizedShearlet:
    """Toeplitz shear part from R[X]/(X^d); Y = identity."""
    return build_shearing_from_nilpotent(al.polynomial_quotient_algebra(d), name=f"toeplitz-{d}d")


def h_a_shearlet_group(a) -> GeneralizedShearlet:
    """Shear part from the algebra H_a; Y = identity."""
    return build_shearing_from_nilpotent(al.h_a_algebra(a), name=f"Ha({a})")


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
    """n elements, each leaf's sample in turn: log-scales in [-R, R], shears in [-T, T]."""
    subs = [f.sample(rng, n, scale_bound, shear_bound) for f, _ in leaves(spec)]
    return GroupSample(block_diag([s.matrices for s in subs]),
                       np.prod([s.delta_h for s in subs], axis=0),
                       np.concatenate([s.dual_points for s in subs], axis=1))


def block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrices from square blocks of shape (..., d_i, d_i)."""
    dims = [b.shape[-1] for b in blocks]
    out = np.zeros(blocks[0].shape[:-2] + (sum(dims),) * 2)
    for b, off, d in zip(blocks, accumulate(dims, initial=0), dims):
        out[..., off:off + d, off:off + d] = b
    return out


def _expm_series(mats: np.ndarray) -> np.ndarray:
    """Matrix exponential by its first 18 series terms; adequate for small-norm inputs."""
    out = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape).copy()
    term = out.copy()
    for k in range(1, 18):
        term = term @ mats / k
        out = out + term
    return out


def sample_near_identity(spec, rng: np.random.Generator, n: int,
                         radius: float = 0.5) -> np.ndarray:
    """Elements with ||h - id|| < radius, by rejection on each leaf's small
    draws with the signs forced positive."""
    d = spec.dim
    out, scale = np.empty((0, d, d)), 0.15 * radius
    while out.shape[0] < n:
        m = 2 * (n - out.shape[0]) + 16
        batch = block_diag([f.sample_small(rng, m, scale) for f, _ in leaves(spec)])
        batch = batch * np.sign(batch[:, 0, 0])[:, None, None]
        dev = np.linalg.svd(batch - np.eye(d)[None], compute_uv=False)[:, 0]
        out = np.concatenate([out, batch[dev < radius]], axis=0)
    return out[:n]


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def spec_to_json(spec: GroupSpec) -> dict:
    if isinstance(spec, (Similitude, Diagonal)):
        return {"family": type(spec).__name__.lower(), "dim": spec.dim}
    if isinstance(spec, Shearlet2D):
        return {"family": "shearlet2d", "c": spec.c}
    if isinstance(spec, AbelianFromAlgebra):
        return {"family": "abelian_algebra", "algebra": spec.alg.to_json()}
    if isinstance(spec, GeneralizedShearlet):
        return {"family": "generalized_shearlet", "dim": spec.dim,
                "shear_basis": [m.tolist() for m in spec.shear_basis], "Y": spec.Y.tolist(),
                **({"name": spec.name} if spec.name else {})}
    if isinstance(spec, DirectProduct):
        return {"family": "direct_product", "factors": [spec_to_json(f) for f in spec.factors]}
    raise UnsupportedSpecError(f"unknown spec {spec!r}")


def _checked_dim(doc, least: int = 1) -> int:
    dim = doc["dim"]
    if type(dim) is not int or dim < least:
        raise GroupError(f"dim must be an integer >= {least}, got {dim!r}")
    return dim


def spec_from_json(doc) -> GroupSpec:
    """Parse a group document; a missing or malformed field raises GroupError."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    try:
        family = doc["family"]
    except (KeyError, TypeError) as exc:
        raise GroupError(f"malformed group document: {exc}") from exc
    try:
        if family in ("similitude", "diagonal"):
            return {"similitude": Similitude, "diagonal": Diagonal}[family](_checked_dim(doc))
        if family == "shearlet2d":
            c = float(doc["c"])
            if not math.isfinite(c):
                raise GroupError(f"c must be finite, got {c}")
            return Shearlet2D(c)
        if family == "generalized_shearlet":
            d = _checked_dim(doc, least=2)
            basis = np.asarray(doc["shear_basis"], dtype=float)
            Y = np.asarray(doc["Y"], dtype=float)
            if (basis.shape != (d - 1, d, d) or Y.shape != (d,)
                    or not (np.isfinite(basis).all() and np.isfinite(Y).all())):
                raise GroupError(f"dim {d} needs {d - 1} finite ({d}, {d}) shear "
                                 f"matrices and {d} finite Y entries")
            spec = GeneralizedShearlet(dim=d, shear_basis=tuple(basis), Y=normalize_Y(Y),
                                       name=doc.get("name"))
            report = validate_spec(spec)
            if not report.passed:
                raise GroupError(f"invalid generalized shearlet spec: {report.to_json()}")
            return spec
        if family == "abelian_algebra":
            alg = al.StructureConstants.from_json(doc["algebra"])
            if alg.unit_index is None:
                raise GroupError("abelian_algebra needs a unital algebra, got unit_index null")
            return AbelianFromAlgebra(alg)
        if family == "direct_product":
            if not doc["factors"]:
                raise GroupError("direct product needs at least one factor")
            return DirectProduct(factors=tuple(spec_from_json(f) for f in doc["factors"]))
    except al.OrbitletError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupError(f"malformed {family} group document: {exc!r}") from exc
    raise UnsupportedSpecError(f"unknown family {family!r}")
