"""Open dual orbits, distance-to-complement geometry, and envelope functions.

Every supported orbit is the set where each of a few coordinate blocks is
nonzero, in adapted coordinates: the whole space for similitude groups, one
block per axis for diagonal groups, the first coordinate for shear-type
groups (abelian ones are those with Y = 1), and the shifted blocks of the
leaves for direct products.
Distances to the complement therefore come in closed form.  The envelope is

    A(xi) = min( |xi - eta| / (1 + |eta|), 1 / (1 + |xi|) )

with eta a nearest point of the complement; A pulled back to the group
through the dual action at the base point gives A_H.  orbit_of gives each
block a density power (orbit_density and density_exponents fold over the
blocks); orbit_section folds the leaf sections over groups.leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra as al
from . import groups as gr
from . import quadrature as quad


class OrbitError(al.OrbitletError):
    """Point outside the orbit or unsupported orbit operation."""


PUNCTURED, FIRST_COORD = "punctured_space", "first_coordinate_nonzero"
CROSS, BLOCK = "coordinate_cross", "block_product"


@dataclass(frozen=True, eq=False)
class OrbitDescriptor:
    """``blocks`` holds the (start, stop) coordinate ranges whose vanishing puts
    xi in the complement, ``powers`` the p of each in the orbit density
    prod |xi_block|^-p; ``kind`` labels the family geometry."""

    kind: str
    dim: int
    base_point: np.ndarray
    blocks: tuple
    powers: tuple

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
        return OrbitDescriptor(PUNCTURED, d, np.eye(d)[0], ((0, d),), (d,))
    if isinstance(spec, gr.Diagonal):
        return OrbitDescriptor(CROSS, d, np.ones(d), tuple((i, i + 1) for i in range(d)), (1,) * d)
    if isinstance(spec, gr.GeneralizedShearlet):
        return OrbitDescriptor(FIRST_COORD, d, np.eye(d)[0], ((0, 1),), (d,))
    subs = [(orbit_of(f), s.start) for f, s in gr.leaves(spec)]
    blocks = tuple((off + a, off + b) for o, off in subs for a, b in o.blocks)
    return OrbitDescriptor(BLOCK, d, np.concatenate([o.base_point for o, _ in subs]), blocks,
                           tuple(p for o, _ in subs for p in o.powers))


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, its squared columns added one at a time: for
    fewer than 8 columns the bits of np.linalg.norm(x, axis=1), at a fraction of its cost."""
    s = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        s += x[:, j] * x[:, j]
    return np.sqrt(s)


def _block_norm(pts: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Euclidean norm of the coordinates start:stop of each row (|x| for one: no underflow)."""
    return np.abs(pts[:, start]) if stop - start == 1 else row_norms(pts[:, start:stop])


def in_orbit(orbit: OrbitDescriptor, xi) -> bool:
    return bool(nearest_complement(orbit, xi)[0][0] > 0)  # no block of xi vanishes


# ---------------------------------------------------------------------------
# distance to the complement (vectorized over points)
# ---------------------------------------------------------------------------

def nearest_complement(orbit: OrbitDescriptor, pts: np.ndarray):
    """Closed-form (distance, nearest point in O^c) for an (n, d) batch.

    The nearest complement point zeroes the block of least norm (ties: the
    first such block)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    dists = np.stack([_block_norm(pts, a, b) for a, b in orbit.blocks], axis=1)
    winner, cols = np.argmin(dists, axis=1), np.arange(orbit.dim)
    zeroed = np.array([(a <= cols) & (cols < b) for a, b in orbit.blocks])
    return dists[np.arange(len(pts)), winner], np.where(zeroed[winner], 0.0, pts)


def dist_to_complement(orbit: OrbitDescriptor, xi):
    """(distance, nearest eta); raises when xi lies outside the orbit."""
    d, eta = nearest_complement(orbit, xi)
    if not d[0] > 0:  # a block of xi vanishes (or is not a number)
        raise OrbitError("point lies in the orbit complement")
    return float(d[0]), eta[0]


def _envelope(pts, dist, eta, norms=row_norms) -> np.ndarray:
    """min(dist / (1 + |eta|), 1 / (1 + |xi|)), |.| the row norm of norms.  The quotient
    overwrites dist, a fresh array at every caller, so that |xi| finds one array fewer alive."""
    return np.minimum(np.divide(dist, 1.0 + norms(eta), out=dist), 1.0 / (1.0 + norms(pts)))


def envelope_values(orbit: OrbitDescriptor, pts: np.ndarray) -> np.ndarray:
    """Vectorized A(xi); zero on the complement (continuous extension).

    For one block (0, b), as on first-coordinate and punctured orbits, eta is xi with
    its first b columns zeroed, so |eta| is the norm of the columns b: (0 if none), no
    eta is built, and the bits are the same, as row_norms adds 0*0 + x*x = x*x."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    (a, b), *more = orbit.blocks
    if more or a:
        return _envelope(pts, *nearest_complement(orbit, pts))
    return _envelope(pts, _block_norm(pts, 0, b), pts[:, b:],
                     lambda x: row_norms(x) if x.shape[1] else 0.0)


def envelope_values_maxnorm(orbit: OrbitDescriptor, pts: np.ndarray) -> np.ndarray:
    """Envelope computed with the max-norm in place of the euclidean norm.

    The nearest complement point of nearest_complement is also max-norm
    nearest on every orbit kind except BLOCK, which is refused.
    """
    if orbit.kind == BLOCK:
        raise OrbitError(f"max-norm envelope unsupported for {orbit.kind}")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    _, eta = nearest_complement(orbit, pts)
    return _envelope(pts, np.abs(pts - eta).max(axis=1), eta, lambda x: np.abs(x).max(axis=1))


def envelope_A(orbit: OrbitDescriptor, xi) -> EnvelopeValue:
    dist, eta = dist_to_complement(orbit, xi)
    return EnvelopeValue(a=float(envelope_values(orbit, xi)[0]), distance=dist, nearest=eta)


def envelope_AH(spec, h) -> float:
    """A evaluated at h^T xi0 for the family base point."""
    orbit = orbit_of(spec)
    return float(envelope_values(orbit, gr.dual_action(h, orbit.base_point))[0])


# ---------------------------------------------------------------------------
# orbit section: the unique h with h^T xi0 = xi (free actions only)
# ---------------------------------------------------------------------------

def orbit_section(spec, xi) -> gr.GroupElement:
    xi = np.asarray(xi, dtype=float)
    orbit = orbit_of(spec)
    if not in_orbit(orbit, xi):
        raise OrbitError("point lies outside the open dual orbit")
    parts = [f.section(xi[s]) for f, s in gr.leaves(spec)]
    h = parts[0] if parts[0].spec is spec else gr.GroupElement(  # a leaf: its own element
        spec, gr.block_diag([part.matrix for part in parts]))
    back = gr.dual_action(h, orbit.base_point)
    if not np.allclose(back, xi, rtol=1e-10, atol=1e-12 * max(1, np.abs(xi).max())):
        raise OrbitError("section round-trip failed")
    return h


def density_exponents(spec):
    """Per-axis p with orbit_density = prod_j |xi_j|^-p_j when each block is one axis:
    (d, 0, ..., 0) for shear-type groups, (1, ..., 1) for diagonal ones; else None."""
    orbit = orbit_of(spec)
    powers = {a: p for (a, b), p in zip(orbit.blocks, orbit.powers) if b - a == 1}
    return (tuple(powers.get(j, 0) for j in range(orbit.dim))
            if len(powers) == len(orbit.blocks) else None)


def orbit_density(spec, pts: np.ndarray) -> np.ndarray:
    """Phi(xi) = Delta_H(h(xi)) / |det h(xi)| for xi in the orbit (batch): the
    product over the blocks of |xi_block|^-power, |xi|^-d for similitude groups."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    orbit = orbit_of(spec)
    return np.prod([_block_norm(pts, a, b) ** -p for (a, b), p in zip(orbit.blocks, orbit.powers)],
                   axis=0)


# ---------------------------------------------------------------------------
# orbit integrals and the Haar-measure transfer identity
# ---------------------------------------------------------------------------

def _orbit_axes(orbit: OrbitDescriptor, stage: int) -> list[quad.Axis]:
    """Tensor axes: dyadic rings along singular directions, log-spaced
    coverage with a center panel along the regular ones.

    The singular rings grade geometrically toward the complement down to
    2^-(3+stage), and two half panels close the gap that is left, meeting at
    zero without a node there, so a bounded integrand loses nothing.  The
    outer ring 2^(4+stage) grows every stage, so divergence never converges."""
    kmax, order = 4 + stage, 6 + min(stage, 4)
    singular = quad.Axis(*quad.signed_dyadic_axis(-(3 + stage), kmax, order, include_center=2))
    regular = quad.Axis(*quad.signed_dyadic_axis(-2, kmax, order, include_center=True))
    # Each block vanishes only jointly, so dyadic rings along its first axis
    # suffice for integrability; every other axis is regular.
    starts = {a for a, _ in orbit.blocks}
    return [singular if i in starts else regular for i in range(orbit.dim)]


def orbit_integral(orbit: OrbitDescriptor,
                   func: Callable[[np.ndarray], np.ndarray]) -> quad.StagedResult:
    """Approximate the integral of a bounded func >= 0 over the orbit.

    func maps an (n, d) point batch to (n,) values (a quad.Product integrates as
    1-D sums, see quad.integrate).  The center panels of the singular axes cover
    the measure-zero complement without a node on it, exact for a bounded func.
    Refinement grows the covered dynamic range and the panel order;
    StagedResult.converged reports non-convergence.
    """
    return quad.staged_refinement(lambda stage: quad.integrate(_orbit_axes(orbit, stage), func))


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
    r_axis = quad.Axis(*quad.composite_gauss(-r_bound, r_bound, panels=16 + 4 * stage, order=8))
    t_axis = quad.Axis(*quad.signed_dyadic_axis(-2, 4 + stage, 6 + min(stage, 4),
                                                include_center=True))
    return [r_axis] + [t_axis] * (dim - 1)


def group_side_integral(spec, func) -> quad.StagedResult:
    """int_H F(h^T xi0) |det h| / Delta_H(h) dh in group coordinates (quad.integrate):
    the group side of haar_transfer_check and the convolution route of
    embeddedness.phi_ell_convolution.

    Shear-type groups (abelian ones are those with Y = 1), h = eps (I+X(t)) exp(rY)
    with the Haar measure |det F| Delta_H(h) dt dr that h -> h^T xi0 carries onto
    Lebesgue measure, F = ShearChart.first_rows, integrate over s = (t F) o
    exp(r Y_2..d), which follows the t-mass at |t_i| ~ exp(-r Y_i): the dual point is
    eps (e^r, s), and |det F| dt = exp(-r (trace Y - 1)) ds.  Every s axis mirrors
    exactly onto itself, so eps rides on the first axis alone, nodes +-e^r weighted
    at r: exact for any F, even or not.
    Similitude (d=2) and diagonal groups use their own coordinates.
    """
    kind = orbit_of(spec).kind
    if kind == FIRST_COORD:
        chart = spec.chart

        def weight(r):  # (weight at r / k)^k, k from the largest |r|: |det h| alone overflows
            k = max(1.0, np.ceil(np.abs(r).max() * (abs(chart.trace_y) + 1.0) / 700.0))
            w = (chart.det(r / k) * np.exp(-r * (chart.trace_y - 1.0) / k)) ** k
            if not np.isfinite(w).all():  # for a huge trace Y, k or the power overflows
                raise gr.GroupError("group-side weight |det h| exp(-r (trace Y - 1)) is not "
                                    f"finite for trace Y = {chart.trace_y}")
            return w

        def axes(stage):  # the first dual coordinate +-e^r, then the s axes
            r, *s_axes = chart_stage_axes(chart.dim, stage)
            return [quad.mirrored(np.exp(r.nodes), r.weights * weight(r.nodes))] + s_axes

        return quad.staged_refinement(lambda stage: quad.integrate(axes(stage), func),
                                      min_stages=3)

    if kind == PUNCTURED and spec.dim == 2:
        def polar(pts):  # log-radius u (the chart's r axis) and angle th
            u, th = pts[:, 0], pts[:, 1]
            dual = np.stack([np.exp(u) * np.cos(th), -np.exp(u) * np.sin(th)], axis=1)
            return func(dual) * np.exp(2.0 * u)

        return quad.staged_refinement(lambda stage: quad.tensor_eval(
            chart_stage_axes(1, stage) + [quad.Axis(*quad.composite_gauss(
                0.0, 2.0 * math.pi, panels=8 + 2 * stage, order=8))], polar))

    if kind == CROSS:
        def signed_axis(stage):  # log-scale u per axis: nodes +-exp(u), weights exp(u) du
            u, w = quad.composite_gauss(-(6.0 + 1.5 * stage), 6.0 + 1.5 * stage,
                                        panels=12 + 3 * stage, order=8)
            return quad.mirrored(np.exp(u), w * np.exp(u))

        return quad.staged_refinement(
            lambda stage: quad.integrate([signed_axis(stage)] * spec.dim, func))

    raise gr.UnsupportedSpecError(f"group-side parametrization unavailable for {spec!r}")


def haar_transfer_check(spec, func) -> TransferReport:
    """Compare the orbit integral with its group-side reparametrization.

    The group side runs first, so an unsupported group is refused before
    any quadrature.
    """
    rhs = group_side_integral(spec, func)
    lhs = orbit_integral(orbit_of(spec), func)
    denom = max(abs(lhs.value), abs(rhs.value), 1e-300)
    return TransferReport(lhs=lhs.value, rhs=rhs.value,
                          rel_error=abs(lhs.value - rhs.value) / denom,
                          lhs_converged=lhs.converged, rhs_converged=rhs.converged)
