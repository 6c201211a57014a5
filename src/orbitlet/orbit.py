"""Open dual orbits, distance-to-complement geometry, and envelope functions.

Every supported orbit is a coordinate-aligned open dense set in adapted
coordinates, so distances to the complement come in closed form.  The
envelope is

    A(xi) = min( |xi - eta| / (1 + |eta|), 1 / (1 + |xi|) )

with eta a nearest point of the complement; A pulled back to the group
through the dual action at the base point gives A_H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import groups as gr
from . import quadrature as quad


class OrbitError(ValueError):
    """Point outside the orbit or unsupported orbit operation."""


PUNCTURED = "punctured_space"
FIRST_COORD = "first_coordinate_nonzero"
CROSS = "coordinate_cross"
BLOCK = "block_product"


@dataclass(frozen=True, eq=False)
class OrbitDescriptor:
    kind: str
    dim: int
    base_point: np.ndarray
    blocks: Optional[tuple] = None  # sub-descriptors for BLOCK

    def __post_init__(self):
        self.base_point.setflags(write=False)


@dataclass(frozen=True)
class EnvelopeValue:
    a: float
    distance: float
    nearest: np.ndarray


def orbit_of(spec) -> OrbitDescriptor:
    if isinstance(spec, gr.Similitude):
        return OrbitDescriptor(PUNCTURED, spec.dim, gr._unit_vector(spec.dim, 0))
    if isinstance(spec, gr.Diagonal):
        return OrbitDescriptor(CROSS, spec.dim, np.ones(spec.dim))
    if isinstance(spec, (gr.Shearlet2D, gr.GeneralizedShearlet, gr.AbelianFromAlgebra)):
        return OrbitDescriptor(FIRST_COORD, spec.dim, gr._unit_vector(spec.dim, 0))
    if isinstance(spec, gr.DirectProduct):
        subs = tuple(orbit_of(f) for f in spec.factors)
        base = np.concatenate([o.base_point for o in subs])
        return OrbitDescriptor(BLOCK, spec.dim, base, blocks=subs)
    raise gr.UnsupportedSpecError(f"no orbit mapping for {spec!r}")


def in_orbit(orbit: OrbitDescriptor, xi) -> bool:
    xi = np.asarray(xi, dtype=float)
    if orbit.kind == PUNCTURED:
        return bool(np.linalg.norm(xi) > 0)
    if orbit.kind == FIRST_COORD:
        return bool(abs(xi[0]) > 0)
    if orbit.kind == CROSS:
        return bool(np.abs(xi).min() > 0)
    if orbit.kind == BLOCK:
        off = 0
        for sub in orbit.blocks:
            if not in_orbit(sub, xi[off:off + sub.dim]):
                return False
            off += sub.dim
        return True
    raise OrbitError(f"unknown orbit kind {orbit.kind}")


# ---------------------------------------------------------------------------
# distance to the complement (vectorized over points)
# ---------------------------------------------------------------------------

def nearest_complement(orbit: OrbitDescriptor, pts: np.ndarray):
    """Closed-form (distance, nearest point in O^c) for an (n, d) batch."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if orbit.kind == PUNCTURED:
        return np.linalg.norm(pts, axis=1), np.zeros_like(pts)
    if orbit.kind == FIRST_COORD:
        eta = pts.copy()
        eta[:, 0] = 0.0
        return np.abs(pts[:, 0]), eta
    if orbit.kind == CROSS:
        idx = np.argmin(np.abs(pts), axis=1)  # ties: smallest index
        eta = pts.copy()
        eta[np.arange(len(pts)), idx] = 0.0
        return np.abs(pts[np.arange(len(pts)), idx]), eta
    if orbit.kind == BLOCK:
        dists = []
        etas = []
        off = 0
        for sub in orbit.blocks:
            d_b, eta_b = nearest_complement(sub, pts[:, off:off + sub.dim])
            dists.append(d_b)
            etas.append((off, eta_b))
            off += sub.dim
        dists = np.stack(dists, axis=1)
        winner = np.argmin(dists, axis=1)
        eta = pts.copy()
        for b, (off_b, eta_b) in enumerate(etas):
            rows = winner == b
            eta[rows, off_b:off_b + eta_b.shape[1]] = eta_b[rows]
        return dists[np.arange(len(pts)), winner], eta
    raise OrbitError(f"unknown orbit kind {orbit.kind}")


def dist_to_complement(orbit: OrbitDescriptor, xi):
    """(distance, nearest eta); raises when xi lies outside the orbit."""
    xi = np.asarray(xi, dtype=float)
    if not in_orbit(orbit, xi):
        raise OrbitError("point lies in the orbit complement")
    d, eta = nearest_complement(orbit, xi[None, :])
    return float(d[0]), eta[0]


def _envelope(pts, dist, eta, order=None) -> np.ndarray:
    """min(dist / (1 + |eta|), 1 / (1 + |xi|)) in the vector norm of the given order."""
    return np.minimum(dist / (1.0 + np.linalg.norm(eta, order, axis=1)),
                      1.0 / (1.0 + np.linalg.norm(pts, order, axis=1)))


def envelope_values(orbit: OrbitDescriptor, pts: np.ndarray) -> np.ndarray:
    """Vectorized A(xi); zero on the complement (continuous extension)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    dist, eta = nearest_complement(orbit, pts)
    return _envelope(pts, dist, eta)


def envelope_values_maxnorm(orbit: OrbitDescriptor, pts: np.ndarray) -> np.ndarray:
    """Envelope computed with the max-norm in place of the euclidean norm.

    The nearest complement point of nearest_complement is also max-norm
    nearest on every orbit kind except BLOCK, which is refused.
    """
    if orbit.kind == BLOCK:
        raise OrbitError(f"max-norm envelope unsupported for {orbit.kind}")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    _, eta = nearest_complement(orbit, pts)
    return _envelope(pts, np.linalg.norm(pts - eta, np.inf, axis=1), eta, np.inf)


def envelope_A(orbit: OrbitDescriptor, xi) -> EnvelopeValue:
    xi = np.asarray(xi, dtype=float)
    if not in_orbit(orbit, xi):
        raise OrbitError("point lies in the orbit complement")
    dist, eta = nearest_complement(orbit, xi[None, :])
    a = float(_envelope(xi[None, :], dist, eta)[0])
    return EnvelopeValue(a=a, distance=float(dist[0]), nearest=eta[0])


def envelope_AH(spec, h) -> float:
    """A evaluated at h^T xi0 for the family base point."""
    orbit = orbit_of(spec)
    pt = gr.dual_action(h, orbit.base_point)
    return float(envelope_values(orbit, pt[None, :])[0])


# ---------------------------------------------------------------------------
# orbit section: the unique h with h^T xi0 = xi (free actions only)
# ---------------------------------------------------------------------------

def orbit_section(spec, xi) -> gr.GroupElement:
    xi = np.asarray(xi, dtype=float)
    orbit = orbit_of(spec)
    if not in_orbit(orbit, xi):
        raise OrbitError("point lies outside the open dual orbit")
    if isinstance(spec, (gr.Shearlet2D, gr.GeneralizedShearlet)):
        eps, r, t = gr.shear_chart(spec).coords(xi)
        h = gr.element_from_factored(spec, eps[0], r[0], t[0])
    elif isinstance(spec, gr.Similitude):
        if spec.dim != 2:
            raise gr.UnsupportedSpecError(
                "similitude groups act freely only in dimension 2")
        u = xi / np.linalg.norm(xi)
        rot = np.array([[u[0], u[1]], [-u[1], u[0]]])  # R^T e1 = u
        h = gr.GroupElement(spec, np.linalg.norm(xi) * rot)
    elif isinstance(spec, gr.Diagonal):
        h = gr.GroupElement(spec, np.diag(xi / orbit.base_point))
    elif isinstance(spec, gr.AbelianFromAlgebra):
        basis = spec.shear_basis
        mat = xi[0] * np.eye(spec.dim)
        for c, b in zip(xi[1:], basis):
            mat = mat + c * b
        h = gr.GroupElement(spec, mat)
    elif isinstance(spec, gr.DirectProduct):
        blocks = []
        off = 0
        for f in spec.factors:
            blocks.append(orbit_section(f, xi[off:off + f.dim]).matrix)
            off += f.dim
        mat = np.zeros((spec.dim, spec.dim))
        off = 0
        for b in blocks:
            mat[off:off + b.shape[0], off:off + b.shape[0]] = b
            off += b.shape[0]
        h = gr.GroupElement(spec, mat)
    else:
        raise gr.UnsupportedSpecError(f"no section for {spec!r}")
    back = gr.dual_action(h, orbit.base_point)
    if not np.allclose(back, xi, rtol=1e-10, atol=1e-12 * max(1, np.abs(xi).max())):
        raise OrbitError("section round-trip failed")
    return h


def orbit_density(spec, pts: np.ndarray) -> np.ndarray:
    """Phi(xi) = Delta_H(h(xi)) / |det h(xi)| for xi in the orbit (batch).

    Closed forms: |xi_1|^-d for shear-type groups, |xi|^-d for similitude,
    prod |xi_i|^-1 for diagonal groups, 1/|det rho(xi)| for abelian groups.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d = spec.dim
    if isinstance(spec, (gr.Shearlet2D, gr.GeneralizedShearlet)):
        return np.abs(pts[:, 0]) ** (-d)
    if isinstance(spec, gr.Similitude):
        return np.linalg.norm(pts, axis=1) ** (-d)
    if isinstance(spec, gr.Diagonal):
        return 1.0 / np.abs(pts).prod(axis=1)
    if isinstance(spec, gr.AbelianFromAlgebra):
        basis = np.stack(spec.shear_basis)
        mats = pts[:, 0, None, None] * np.eye(d)[None] + \
            np.einsum("nk,kij->nij", pts[:, 1:], basis)
        return 1.0 / np.abs(np.linalg.det(mats))
    if isinstance(spec, gr.DirectProduct):
        out = np.ones(len(pts))
        off = 0
        for f in spec.factors:
            out *= orbit_density(f, pts[:, off:off + f.dim])
            off += f.dim
        return out
    raise gr.UnsupportedSpecError(f"no orbit density for {spec!r}")


# ---------------------------------------------------------------------------
# orbit integrals and the Haar-measure transfer identity
# ---------------------------------------------------------------------------

def _orbit_axes(orbit: OrbitDescriptor, stage: int) -> list[quad.Axis]:
    """Tensor axes: dyadic rings along singular directions, log-spaced
    coverage with a center panel along the regular ones.

    The excluded neighborhood of the complement shrinks like 4^-stage so the
    omitted mass of a bounded integrand drops below the stage tolerance."""
    kmin = -(5 + 2 * stage)
    kmax = 4 + (stage + 1) // 2
    order = 6 + min(stage, 4)
    singular = quad.Axis(*quad.signed_dyadic_axis(kmin, kmax, order))
    regular = quad.Axis(*quad.signed_dyadic_axis(-2, kmax, order, include_center=True))
    if orbit.kind == PUNCTURED:
        # radial singularity only at 0; all axes regular but joint origin
        # excluded -- dyadic along the first axis suffices for integrability
        return [singular] + [regular] * (orbit.dim - 1)
    if orbit.kind == FIRST_COORD:
        return [singular] + [regular] * (orbit.dim - 1)
    if orbit.kind == CROSS:
        return [singular] * orbit.dim
    if orbit.kind == BLOCK:
        axes = []
        for sub in orbit.blocks:
            axes.extend(_orbit_axes(sub, stage))
        return axes
    raise OrbitError(f"unknown orbit kind {orbit.kind}")


def orbit_integral(orbit: OrbitDescriptor, func: Callable[[np.ndarray], np.ndarray],
                   rtol: float = 1e-4, max_stages: int = 12) -> quad.StagedResult:
    """Approximate the integral of func >= 0 over the orbit.

    func maps an (n, d) point batch to (n,) values.  Dyadic refinement grows
    both the covered dynamic range and the panel order; the non-convergence
    flag is reported through StagedResult.converged.
    """
    def stage_value(stage: int) -> float:
        axes = _orbit_axes(orbit, stage)
        return quad.tensor_eval(axes, func)

    return quad.staged_refinement(stage_value, rtol=rtol, max_stages=max_stages)


@dataclass(frozen=True)
class TransferReport:
    lhs: float
    rhs: float
    rel_error: float
    lhs_converged: bool
    rhs_converged: bool

    def to_json(self) -> dict:
        return {"orbit_integral": self.lhs, "group_integral": self.rhs,
                "rel_error": self.rel_error,
                "converged": self.lhs_converged and self.rhs_converged}


def chart_stage_axes(dim: int, stage: int) -> list[quad.Axis]:
    """Tensor axes over the shear chart (r, t) at a refinement stage.

    The shear range needed to capture a slice at scale r grows like
    exp(|r| max|Y_i|), so the t-axis gains a full dyadic ring per stage."""
    r_bound = 8.0 + 2.0 * stage
    r_axis = quad.Axis(*quad.composite_gauss(-r_bound, r_bound,
                                             panels=16 + 4 * stage, order=8))
    t_axis = quad.Axis(*quad.signed_dyadic_axis(-2, 4 + stage, 6 + min(stage, 4),
                                                include_center=True))
    return [r_axis] + [t_axis] * (dim - 1)


def group_side_integral(spec, func, rtol: float = 1e-4,
                        max_stages: int = 12) -> quad.StagedResult:
    """int_H F(h^T xi0) |det h| / Delta_H(h) dh in group coordinates.

    For shear-type groups the left Haar measure in h = eps (I+X(t)) exp(rY)
    coordinates is exp(r (trace Y - d)) dt dr, so the integrand weight
    reduces to exp(r trace Y).  Similitude (d=2), diagonal, and abelian
    groups use their own natural coordinates, each with transfer constant 1.
    """
    if isinstance(spec, (gr.Shearlet2D, gr.GeneralizedShearlet)):
        chart = gr.shear_chart(spec)

        def integrand(pts):
            r = pts[:, 0]
            dual = chart.dual(1.0, r, pts[:, 1:])
            return (func(dual) + func(-dual)) * chart.det(r)

        def stage_value(stage: int) -> float:
            return quad.tensor_eval(chart_stage_axes(chart.dim, stage), integrand)

        return quad.staged_refinement(stage_value, rtol=rtol, max_stages=max_stages,
                                      min_stages=3)

    if isinstance(spec, gr.Similitude) and spec.dim == 2:
        def stage_value(stage: int) -> float:
            r_bound = 8.0 + 2.0 * stage
            u_axis = quad.Axis(*quad.composite_gauss(-r_bound, r_bound,
                                                     panels=16 + 4 * stage, order=8))
            th_axis = quad.Axis(*quad.composite_gauss(0.0, 2.0 * math.pi,
                                                      panels=8 + 2 * stage, order=8))

            def integrand(pts):
                u, th = pts[:, 0], pts[:, 1]
                dual = np.stack([np.exp(u) * np.cos(th),
                                 -np.exp(u) * np.sin(th)], axis=1)
                return func(dual) * np.exp(2.0 * u)

            return quad.tensor_eval([u_axis, th_axis], integrand)

        return quad.staged_refinement(stage_value, rtol=rtol, max_stages=max_stages)

    if isinstance(spec, gr.Diagonal):
        d = spec.dim

        def stage_value(stage: int) -> float:
            r_bound = 6.0 + 1.5 * stage
            axis = quad.Axis(*quad.composite_gauss(-r_bound, r_bound,
                                                   panels=12 + 3 * stage, order=8))
            axes = [axis] * d

            def integrand(pts):
                weight = np.exp(pts.sum(axis=1))
                vals = np.zeros(len(pts))
                for signs in np.ndindex(*([2] * d)):
                    eps = 1.0 - 2.0 * np.array(signs)
                    vals = vals + func(eps[None, :] * np.exp(pts))
                return vals * weight

            return quad.tensor_eval(axes, integrand)

        return quad.staged_refinement(stage_value, rtol=rtol, max_stages=max_stages)

    if isinstance(spec, gr.AbelianFromAlgebra):
        # Haar is |det rho(a)|^-1 da, so the weighted integral is a plain
        # Lebesgue integral over coefficient space.
        def stage_value(stage: int) -> float:
            kmax = 4 + (stage + 1) // 2
            order = 6 + min(stage, 4)
            axis = quad.Axis(*quad.signed_dyadic_axis(-(5 + 2 * stage), kmax, order))
            reg = quad.Axis(*quad.signed_dyadic_axis(-2, kmax, order,
                                                     include_center=True))
            return quad.tensor_eval([axis] + [reg] * (spec.dim - 1), func)

        return quad.staged_refinement(stage_value, rtol=rtol, max_stages=max_stages)

    raise gr.UnsupportedSpecError(f"group-side parametrization unavailable for {spec!r}")


def haar_transfer_check(spec, func, rtol: float = 1e-4) -> TransferReport:
    """Compare the orbit integral with its group-side reparametrization."""
    orbit = orbit_of(spec)
    lhs = orbit_integral(orbit, func, rtol=rtol)
    rhs = group_side_integral(spec, func, rtol=rtol)
    denom = max(abs(lhs.value), abs(rhs.value), 1e-300)
    return TransferReport(lhs=lhs.value, rhs=rhs.value,
                          rel_error=abs(lhs.value - rhs.value) / denom,
                          lhs_converged=lhs.converged, rhs_converged=rhs.converged)
