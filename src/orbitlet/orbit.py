"""Open dual orbits, distance-to-complement geometry, and envelope functions.

Every supported orbit is the set where each of a few coordinate blocks is
nonzero, in adapted coordinates: the whole space for similitude groups, one
block per axis for diagonal groups, the first coordinate for shear-type and
abelian groups, and the shifted blocks of the factors for direct products.
Distances to the complement therefore come in closed form.  The envelope is

    A(xi) = min( |xi - eta| / (1 + |eta|), 1 / (1 + |xi|) )

with eta a nearest point of the complement; A pulled back to the group
through the dual action at the base point gives A_H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    """``blocks`` holds the (start, stop) coordinate ranges whose vanishing puts
    xi in the complement; ``kind`` labels the family geometry."""

    kind: str
    dim: int
    base_point: np.ndarray
    blocks: tuple

    def __post_init__(self):
        self.base_point.setflags(write=False)


@dataclass(frozen=True)
class EnvelopeValue:
    a: float
    distance: float
    nearest: np.ndarray


def orbit_of(spec) -> OrbitDescriptor:
    d = spec.dim
    if isinstance(spec, gr.Similitude):
        return OrbitDescriptor(PUNCTURED, d, np.eye(d)[0], ((0, d),))
    if isinstance(spec, gr.Diagonal):
        return OrbitDescriptor(CROSS, d, np.ones(d), tuple((i, i + 1) for i in range(d)))
    if isinstance(spec, (gr.GeneralizedShearlet, gr.AbelianFromAlgebra)):
        return OrbitDescriptor(FIRST_COORD, d, np.eye(d)[0], ((0, 1),))
    if isinstance(spec, gr.DirectProduct):
        subs = [(orbit_of(f), s.start) for f, s in spec.slices]
        blocks = tuple((off + a, off + b) for o, off in subs for a, b in o.blocks)
        return OrbitDescriptor(BLOCK, d, np.concatenate([o.base_point for o, _ in subs]),
                               blocks)
    raise gr.UnsupportedSpecError(f"no orbit mapping for {spec!r}")


def _block_norm(pts: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Euclidean norm of the coordinates start:stop of each row."""
    if stop - start == 1:
        return np.abs(pts[:, start])
    return np.linalg.norm(pts[:, start:stop], axis=1)


def in_orbit(orbit: OrbitDescriptor, xi) -> bool:
    xi = np.asarray(xi, dtype=float)[None, :]
    return all(_block_norm(xi, a, b)[0] > 0 for a, b in orbit.blocks)


# ---------------------------------------------------------------------------
# distance to the complement (vectorized over points)
# ---------------------------------------------------------------------------

def nearest_complement(orbit: OrbitDescriptor, pts: np.ndarray):
    """Closed-form (distance, nearest point in O^c) for an (n, d) batch.

    The nearest complement point zeroes the block of least norm (ties: the
    first such block)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if len(orbit.blocks) == 1:  # no argmin on the single-block hot path
        (a, b), = orbit.blocks
        eta = pts.copy()
        eta[:, a:b] = 0.0
        return _block_norm(pts, a, b), eta
    dists = np.stack([_block_norm(pts, a, b) for a, b in orbit.blocks], axis=1)
    winner = np.argmin(dists, axis=1)
    zeroed = np.zeros((len(orbit.blocks), orbit.dim), dtype=bool)
    for k, (a, b) in enumerate(orbit.blocks):
        zeroed[k, a:b] = True
    return dists[np.arange(len(pts)), winner], np.where(zeroed[winner], 0.0, pts)


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
    dist, eta = dist_to_complement(orbit, xi)
    a = _envelope(np.asarray(xi, dtype=float)[None, :], dist, eta[None, :])
    return EnvelopeValue(a=float(a[0]), distance=dist, nearest=eta)


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
    if isinstance(spec, gr.GeneralizedShearlet):
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
        h = gr.GroupElement(spec, gr.abelian_matrices(spec, xi)[0])
    elif isinstance(spec, gr.DirectProduct):
        h = gr.GroupElement(spec, gr.block_diag(
            [orbit_section(f, xi[s]).matrix for f, s in spec.slices]))
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
    if isinstance(spec, gr.GeneralizedShearlet):
        return np.abs(pts[:, 0]) ** (-d)
    if isinstance(spec, gr.Similitude):
        return np.linalg.norm(pts, axis=1) ** (-d)
    if isinstance(spec, gr.Diagonal):
        return 1.0 / np.abs(pts).prod(axis=1)
    if isinstance(spec, gr.AbelianFromAlgebra):
        return 1.0 / np.abs(np.linalg.det(gr.abelian_matrices(spec, pts)))
    if isinstance(spec, gr.DirectProduct):
        return np.prod([orbit_density(f, pts[:, s]) for f, s in spec.slices], axis=0)
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
    # Each block vanishes only jointly, so dyadic rings along its first axis
    # suffice for integrability; every other axis is regular.
    starts = {a for a, _ in orbit.blocks}
    return [singular if i in starts else regular for i in range(orbit.dim)]


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
    if isinstance(spec, gr.GeneralizedShearlet):
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
        # Haar is |det rho(a)|^-1 da and the dual point of rho(a) is a itself,
        # so the weighted integral is the orbit integral over coefficient space.
        return orbit_integral(orbit_of(spec), func, rtol=rtol, max_stages=max_stages)

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
