"""Decay exponents, embedding indices, and vanishing-moment orders.

Four decay estimates tie the envelope A_H to the group data, for exponents e1..e4 >= 0:

    w0(h^+-1)      * A_H(h)^e1 <= C
    ||h^+-1||      * A_H(h)^e2 <= C
    |det(h^+-1)|   * A_H(h)^e3 <= C
    Delta_H(h^+-1) * A_H(h)^e4 <= C

From these the embedding indices follow by closed formulas, and index + d + 1
is the required vanishing-moment order.  Index arithmetic runs in exact
rational arithmetic so the floors carry no floating-point hazard.

The empirical checker estimates the suprema by seeded Monte Carlo over
parameter boxes that double per stage, on log A_H and log q of each sample; a
quantity counts as bounded when its running supremum stops growing across the
trailing stages.  Its least exponent is max(0, log q / log(1/A_H)) over all
samples with A_H < 1/2, the smallest e >= 0 with q A_H^e <= 1 on each of them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import algebra as al
from . import groups as gr
from . import orbit as ob
from . import quadrature as quad


class EmbeddednessError(al.OrbitletError):
    pass


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentSet:
    e1: Fraction
    e2: Fraction
    e3: Fraction
    e4: Fraction
    provenance: str = "analytic"  # analytic | empirical | user

    @staticmethod
    def make(e1, e2, e3, e4, provenance="analytic") -> "ExponentSet":
        vals = [al.to_fraction(v) for v in (e1, e2, e3, e4)]
        if any(not 0 <= v <= 2 ** 53 for v in vals):  # past 2^53 floats skip integers
            raise EmbeddednessError("exponents must lie in [0, 2^53], the float-exact integers")
        return ExponentSet(*vals, provenance=provenance)

    def as_floats(self) -> tuple[float, float, float, float]:
        return tuple(float(v) for v in (self.e1, self.e2, self.e3, self.e4))

    def to_json(self) -> dict:
        return {**dict(zip(("e1", "e2", "e3", "e4"), self.as_floats())),
                "provenance": self.provenance}


MAXDELTA, POWER = "maxdelta", "power"


@dataclass(frozen=True)
class WeightSpec:
    """Coefficient-space weight: exponents (p, q), translation power s, and the base
    weight family on the dilation group.

    maxdelta is w0(h) = max(1, Delta_G(h)) (the standard choice for plain L^p coefficient
    spaces; q-independent).  power(k) runs the base weight (1+||h||)^k (1+||h^-1||)^k
    through the separated control-weight product."""

    p: float = 2.0
    q: float = 2.0
    s: Fraction = Fraction(0)
    family: str = MAXDELTA
    power_k: Fraction = Fraction(0)

    @staticmethod
    def make(p=2.0, q=2.0, s=0, family=MAXDELTA, power_k=0) -> "WeightSpec":
        p, q, s = float(p), float(q), al.to_fraction(s)
        if not (1 <= p <= math.inf and 1 <= q <= math.inf):
            raise EmbeddednessError(f"p and q must lie in [1, inf], got {p}, {q}")
        if s < 0:
            raise EmbeddednessError("s must be nonnegative")
        if s > sys.float_info.max:  # to_json writes s as a float
            raise EmbeddednessError("s must have a finite float value")
        if family not in (MAXDELTA, POWER):
            raise EmbeddednessError(f"unknown weight family {family!r}")
        power_k = al.to_fraction(power_k)
        if power_k < 0:  # (1+||h||)^k (1+||h^-1||)^k is submultiplicative only for k >= 0
            raise EmbeddednessError(f"power weight k must be nonnegative, got {power_k}")
        return WeightSpec(p=p, q=q, s=s, family=family, power_k=power_k)

    def to_json(self) -> dict:
        p, q = ("inf" if math.isinf(v) else v for v in (self.p, self.q))  # as --weight spells it
        return {"p": p, "q": q, "s": float(self.s),
                "family": self.family, "power_k": float(self.power_k)}


@dataclass(frozen=True)
class EmbeddingReport:
    exponents: ExponentSet
    ell_temperate: int
    ell_strong: int
    moments_analyzing: int
    moments_atom: int
    notes: tuple = ()

    def to_json(self) -> dict:
        return {**vars(self), "exponents": self.exponents.to_json(), "notes": list(self.notes)}


# ---------------------------------------------------------------------------
# analytic exponents
# ---------------------------------------------------------------------------

def analytic_exponents(spec, weight: WeightSpec) -> ExponentSet:
    """Family closed forms for (e1, e2, e3, e4).

    e2, e3, e4 depend only on the group; e1 depends on the weight.  For the maxdelta
    family e1 equals the ambient dimension on every supported family; for power weights
    a sufficient e1 is assembled by bounding each factor of the control-weight product
    through the other three estimates, and refused past 2^53 as ExponentSet.make refuses.
    """
    d = spec.dim
    if isinstance(spec, (gr.Similitude, gr.Diagonal)):
        base = ExponentSet.make(d, 1, d, 0)
    elif isinstance(spec, gr.Shearlet2D):
        c = al.to_fraction(spec.c)
        base = ExponentSet.make(2, 1 + abs(c), abs(1 + c), abs(1 - c))
    elif isinstance(spec, gr.AbelianFromAlgebra):
        base = ExponentSet.make(d, 2 * spec.nilpotency_class - 1, d, 0)
    elif isinstance(spec, gr.GeneralizedShearlet):
        n, y_norm = spec.nilpotency_class, al.to_fraction(float(np.abs(spec.Y).max()))
        trace_y = al.to_fraction(float(spec.Y.sum()))
        base = ExponentSet.make(d, n - 1 + 2 * y_norm, abs(trace_y), abs(d - trace_y))
    else:  # e1, e3, e4 add and e2 is the max over the leaves of a product
        return combine_exponents([analytic_exponents(f, weight) for f, _ in gr.leaves(spec)])
    if weight.family == MAXDELTA:
        return base
    # power family: w0 display = (w + w~) * max(Delta_G^{-1/q}, Delta_G^{1/q-1})
    #   * (|det|^{1/q-1/p} + |det|^{1/p-1/q}) * (1+||h||+||h^-1||)^s
    inv_q = Fraction(0) if math.isinf(weight.q) else Fraction(weight.q).limit_denominator(10**9) ** -1
    inv_p = Fraction(0) if math.isinf(weight.p) else Fraction(weight.p).limit_denominator(10**9) ** -1
    u = max(inv_q, 1 - inv_q)
    e1 = (2 * weight.power_k * base.e2
          + u * (base.e3 + base.e4)
          + abs(inv_p - inv_q) * base.e3
          + weight.s * base.e2)
    return ExponentSet.make(e1, base.e2, base.e3, base.e4)  # a huge power:k or s is refused


def fallback_exponents(e2, d: int, dim_h: int) -> tuple[Fraction, Fraction]:
    """(e3, e4) implied by the norm estimate alone: (d e2, 2 e2 dim(H))."""
    e2 = al.to_fraction(e2)
    return d * e2, 2 * e2 * dim_h


def combine_exponents(parts: Sequence[ExponentSet]) -> ExponentSet:
    """Block-diagonal products: e1, e3, e4 add; e2 is the max."""
    parts = list(parts)
    if not parts:
        raise EmbeddednessError("empty exponent combination")
    if len(parts) == 1:
        return parts[0]
    return ExponentSet.make(sum(p.e1 for p in parts), max(p.e2 for p in parts),
                            sum(p.e3 for p in parts), sum(p.e4 for p in parts),
                            "analytic" if all(p.provenance == "analytic" for p in parts)
                            else "empirical")


# ---------------------------------------------------------------------------
# indices and moment orders (exact floors)
# ---------------------------------------------------------------------------

def index_temperate(e: ExponentSet, s, d: int) -> int:
    s = al.to_fraction(s)
    arg = e.e1 + e.e2 * (s + d + 1) + Fraction(3, 2) * e.e3 + e.e4
    if (ell := int(math.floor(arg)) + d + 1) > 2 ** 53:  # past 2^53 floats skip integers
        raise EmbeddednessError("moment index lies past 2^53, the float-exact integers")
    return ell


def index_strong(e: ExponentSet, s, d: int) -> int:
    """The temperate index with e2 doubled: e2 (2s + 2d + 2) in place of e2 (s + d + 1)."""
    return index_temperate(replace(e, e2=2 * e.e2), s, d)


def required_moments(ell: int, d: int) -> int:
    if ell < 0:
        raise EmbeddednessError("index must be nonnegative")
    return ell + d + 1


def shearlet_atom_order(spec) -> Optional[int]:
    """Atom moment order r = d(1+2n) + floor(4||Y||(d+1) + 3/2|trY| + |d-trY|).

    n is the shearing Lie algebra's nilpotency class, ||Y|| the largest
    |diagonal entry| of the normalized Y.  Note this closed form is not the
    composition required_moments(index_strong(...)): the two differ by 2n
    (see report notes); both are exposed deliberately.  None off the shearlet
    groups proper, so also for the abelian (Y = 1) ones.
    """
    if spec.chart is None or isinstance(spec, gr.AbelianFromAlgebra):
        return None
    y, d = [al.to_fraction(float(v)) for v in spec.Y], spec.dim
    trace_y = sum(y)
    arg = 4 * max(map(abs, y)) * (d + 1) + Fraction(3, 2) * abs(trace_y) + abs(d - trace_y)
    return d * (1 + 2 * spec.nilpotency_class) + int(math.floor(arg))


def embedding_report(spec, weight: WeightSpec,
                     exponents: Optional[ExponentSet] = None) -> EmbeddingReport:
    """Exponents -> indices -> moment orders, with discrepancy notes."""
    e, d = exponents if exponents is not None else analytic_exponents(spec, weight), spec.dim
    ell_t, ell_s = index_temperate(e, weight.s, d), index_strong(e, weight.s, d)
    notes = []
    if ob.orbit_of(spec).kind in (ob.PUNCTURED, ob.CROSS) and weight.s == 0:
        shortcut = d // 2 + 4 * d + 1
        if shortcut != ell_t:
            notes.append(
                f"tabulated shortcut floor(d/2)+4d+1 = {shortcut} differs from the "
                f"normative analyzing index {ell_t}; the index formula is used")
    closed, composed = shearlet_atom_order(spec), required_moments(ell_s, d)
    if closed not in (None, composed):
        notes.append(
            f"shearlet atom-order closed form gives {closed} while composing the "
            f"strong index with the moment rule gives {composed}; the closed form "
            f"drops a 2n term and is reported separately")
    return EmbeddingReport(exponents=e, ell_temperate=ell_t, ell_strong=ell_s,
                           moments_analyzing=required_moments(ell_t, d),
                           moments_atom=required_moments(ell_s, d), notes=tuple(notes))


# ---------------------------------------------------------------------------
# control weight
# ---------------------------------------------------------------------------

def base_weight_arrays(weight: WeightSpec, norm_h, norm_hinv, delta_g):
    """Base weight w at h and at h^-1 (vectorized)."""
    if weight.family == POWER:
        w = ((1.0 + norm_h) * (1.0 + norm_hinv)) ** float(weight.power_k)
        return w, w  # symmetric under h <-> h^-1
    if weight.family == MAXDELTA:
        return np.maximum(1.0, delta_g), np.maximum(1.0, 1.0 / delta_g)
    raise EmbeddednessError(f"unknown weight family {weight.family!r}")


def control_weight_arrays(weight: WeightSpec, norm_h, norm_hinv, det_abs,
                          delta_h) -> tuple[np.ndarray, np.ndarray]:
    """Separated control weight w0 at h and at h^-1 (vectorized).

    w0(h) = (w(h) + w(h^-1)) max(Delta_G(h)^{-1/q}, Delta_G(h)^{1/q-1})
            (|det h|^{1/q-1/p} + |det h|^{1/p-1/q}) (1+||h||+||h^-1||)^s
    with 1/inf = 0, as float division gives it.
    """
    inv_q, inv_p, s = 1.0 / weight.q, 1.0 / weight.p, float(weight.s)
    delta_g = delta_h / det_abs
    w_h, w_hinv = base_weight_arrays(weight, norm_h, norm_hinv, delta_g)
    wsum = w_h + w_hinv

    def one_side(dg, det):
        mod = np.maximum(dg ** (-inv_q), dg ** (inv_q - 1.0))
        dets = det ** (inv_q - inv_p) + det ** (inv_p - inv_q)
        size = (1.0 + norm_h + norm_hinv) ** s
        return wsum * mod * dets * size

    # at h^-1: Delta_G inverts, |det| inverts, norms swap (sum is symmetric)
    return one_side(delta_g, det_abs), one_side(1.0 / delta_g, 1.0 / det_abs)


def control_weight(weight: WeightSpec, spec, h) -> float:
    """Scalar control weight w0(h) from the separated product."""
    mat = gr.as_matrix(h)
    det, delta_h, _ = gr.modular_data(spec, mat)
    sv = np.linalg.svd(mat, compute_uv=False)
    w0_h, _ = control_weight_arrays(weight, np.array([sv[0]]), np.array([1.0 / sv[-1]]),
                                    np.array([abs(det)]), np.array([delta_h]))
    return float(w0_h[0])


# ---------------------------------------------------------------------------
# empirical boundedness checks
# ---------------------------------------------------------------------------

INEQUALITY_NAMES = ("control_weight", "operator_norm", "determinant", "modular")


@dataclass
class StageData:
    log_a: np.ndarray  # log A_H per sample
    log_q: dict        # name -> log of the per-sample base quantity (before the A_H power)


@dataclass
class EmpiricalReport:
    verdicts: dict                 # name -> bounded | unbounded | inconclusive
    stage_suprema: dict            # name -> running suprema per stage
    least_exponents: dict          # name -> max(0, log q / log(1/A_H)) over samples, A_H < 1/2
    exponents: ExponentSet
    stages: int
    samples_per_stage: int
    seed: int

    @property
    def all_bounded(self) -> bool:
        return all(v == "bounded" for v in self.verdicts.values())

    def to_json(self) -> dict:
        return {**vars(self), "verdicts": dict(self.verdicts),
                "stage_suprema": {k: list(map(float, v))
                                  for k, v in self.stage_suprema.items()},
                "exponents": self.exponents.to_json(), "all_bounded": self.all_bounded}


def _verdict_from_running_sup(sups: np.ndarray) -> str:
    """bounded when the running supremum stops growing across the last 3
    stages (within a multiplicative slack of 5 %)."""
    tail = sups[-3:]
    growth = tail[1:] / np.maximum(tail[:-1], 1e-300)
    return ("bounded" if (growth <= 1.05).all() else
            "unbounded" if (growth > 1.05).all() else "inconclusive")


def _collect_stage(spec, weight: WeightSpec, seed: int, stage: int, n: int,
                   r0: float, t0: float, threads: int) -> StageData:
    rng = np.random.default_rng([seed, stage])
    r_box, t_box = r0 * 2.0 ** stage, t0 * 2.0 ** stage
    sample = gr.sample_group(spec, rng, n, scale_bound=r_box, shear_bound=t_box)
    where = f"Monte Carlo stage {stage} (box |r| <= {r_box:g}, |t| <= {t_box:g})"
    mats = sample.matrices
    if not np.isfinite(mats).all():
        raise EmbeddednessError(f"{where} samples matrices that overflow; use fewer stages")
    sv = np.concatenate(list(quad.parallel_map(functools.partial(np.linalg.svd, compute_uv=False),
                                               np.array_split(mats, max(1, threads)), threads)))
    log_det, log_delta_h = np.linalg.slogdet(mats)[1], np.log(sample.delta_h)
    if weight.family == MAXDELTA:  # max(1, Delta_G, 1/Delta_G), the weight e1 refers to
        log_w0 = np.abs(log_delta_h - log_det)
    else:  # the display product
        log_w0 = np.log(np.maximum(*control_weight_arrays(
            weight, sv[:, 0], 1.0 / sv[:, -1], np.exp(log_det), sample.delta_h)))
    log_a = np.log(ob.envelope_values(ob.orbit_of(spec), sample.dual_points))
    log_q = {"control_weight": log_w0,
             "operator_norm": np.maximum(np.log(sv[:, 0]), -np.log(sv[:, -1])),
             "determinant": np.abs(log_det), "modular": np.abs(log_delta_h)}
    if bad := [k for k, v in {"A_H": log_a, **log_q}.items() if not np.isfinite(v).all()]:
        raise EmbeddednessError(f"{where} gives a non-finite log {', '.join(bad)}; use fewer stages")
    return StageData(log_a=log_a, log_q=log_q)


def _running_suprema(stage_data: list[StageData], name: str, exponent: float) -> np.ndarray:
    """Running max over the stages of sup q A_H^e, each taken as exp(max(log q + e log A_H))."""
    return np.maximum.accumulate(np.exp([(sd.log_q[name] + exponent * sd.log_a).max()
                                         for sd in stage_data]))


def _least_exponent(stage_data: list[StageData], name: str) -> float:
    """max(0, log q / log(1/A_H)) over all samples with A_H < 1/2: the least e >= 0
    with q A_H^e <= 1 on each of them, so monotone in e by construction."""
    log_a = np.concatenate([sd.log_a for sd in stage_data])
    log_q = np.concatenate([sd.log_q[name] for sd in stage_data])
    small = log_a < -math.log(2.0)
    return float((log_q[small] / -log_a[small]).max(initial=0.0))


def empirical_exponent_check(spec, exponents: ExponentSet, weight: WeightSpec,
                             budget: int = 100_000, stages: int = 5, seed: int = 0,
                             threads: int = 1, r0: float = 1.0, t0: float = 1.0) -> EmpiricalReport:
    """Monte Carlo verdicts and least exponents for the four decay estimates.

    Samples per stage come from doubling parameter boxes; each inequality is
    declared bounded when its running supremum is non-increasing (within 5%
    slack) across the last three stage transitions, unbounded when it grows
    through all of them, inconclusive otherwise.  The least exponent of an
    inequality is max(0, log q / log(1/A_H)) over all samples with A_H < 1/2,
    the smallest e >= 0 with q A_H^e <= 1 on each of them.  A stage whose
    matrices or log quantities overflow is refused.
    """
    if stages < 3:
        raise EmbeddednessError("need at least 3 stages for a stabilization verdict")
    n = budget // stages
    if n < 10:
        raise EmbeddednessError("budget too small for the requested stage count")
    stage_data = [_collect_stage(spec, weight, seed, k, n, r0, t0, threads)
                  for k in range(stages)]
    given = dict(zip(INEQUALITY_NAMES, exponents.as_floats()))
    stage_sups = {name: _running_suprema(stage_data, name, given[name])
                  for name in INEQUALITY_NAMES}
    return EmpiricalReport(
        verdicts={name: _verdict_from_running_sup(sups) for name, sups in stage_sups.items()},
        stage_suprema=stage_sups,
        least_exponents={name: _least_exponent(stage_data, name) for name in INEQUALITY_NAMES},
        exponents=exponents, stages=stages, samples_per_stage=n, seed=seed)


# ---------------------------------------------------------------------------
# Phi_ell: direct orbit integral vs. group-side convolution
# ---------------------------------------------------------------------------

def _phi_integrand(spec, h, ell: int):
    """F(xi) = A(xi)^ell A(h^T xi)^ell on (n, d) point rows, the integrand of both routes."""
    if ell <= spec.dim:
        raise EmbeddednessError("need ell > d for a convergent integral")
    orbit, mat = ob.orbit_of(spec), gr.as_matrix(h)

    def integrand(pts):
        a = ob.envelope_values(orbit, pts @ mat)  # rows (h^T xi)^T, freed before A(xi)
        a *= ob.envelope_values(orbit, pts)
        return a ** ell

    integrand.even = True  # F(-xi) == F(xi) bit for bit, as A's norms ignore signs
    return integrand


def phi_ell_direct(spec, h, ell: int) -> quad.StagedResult:
    """Phi_ell(h) = int A(xi)^ell A(h^T xi)^ell d xi by orbit quadrature."""
    return ob.orbit_integral(ob.orbit_of(spec), _phi_integrand(spec, h, ell))


def phi_ell_convolution(spec, h, ell: int) -> quad.StagedResult:
    """Phi_ell(h) as the group convolution (A_H^ell |det .|)~ * A_H^ell.

    Substituting g -> g^-1 turns the convolution into
    int_H F(g^T xi0) |det g| / Delta_H(g) dg with F(xi) = A(xi)^ell A(h^T xi)^ell,
    the direct route's integrand, so this is ob.group_side_integral of F: the
    Haar transfer of the direct route, on the group-side chart of haar-check.
    """
    return ob.group_side_integral(spec, _phi_integrand(spec, h, ell))


# ---------------------------------------------------------------------------
# catalog for property suites
# ---------------------------------------------------------------------------

def default_catalog() -> list[tuple[str, object]]:
    """Named groups exercised by the property and acceptance suites."""
    return [("similitude-2d", gr.Similitude(2)), ("similitude-3d", gr.Similitude(3)),
            ("diagonal-2d", gr.Diagonal(2)), ("diagonal-3d", gr.Diagonal(3)),
            ("shearlet2d-c1/2", gr.Shearlet2D(0.5))] + [
        (spec.name, spec) for d in (2, 3, 4) for spec in gr.enumerate_catalog(d)]
