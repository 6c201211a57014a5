"""Decay exponents, embedding indices, and vanishing-moment orders.

Four decay estimates tie the envelope A_H to the group data, for exponents
e1..e4 >= 0:

    w0(h^+-1)      * A_H(h)^e1 <= C
    ||h^+-1||      * A_H(h)^e2 <= C
    |det(h^+-1)|   * A_H(h)^e3 <= C
    Delta_H(h^+-1) * A_H(h)^e4 <= C

From these the embedding indices follow by closed formulas, and index + d + 1
is the required vanishing-moment order.  Index arithmetic runs in exact
rational arithmetic so the floors carry no floating-point hazard.

The empirical checker estimates the suprema by seeded Monte Carlo over
parameter boxes that double per stage; a quantity counts as bounded when its
running supremum stops growing across the trailing stages.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import algebra as al
from . import groups as gr
from . import orbit as ob
from . import quadrature as quad


class EmbeddednessError(ValueError):
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
        if any(v < 0 for v in vals):
            raise EmbeddednessError("exponents must be nonnegative")
        return ExponentSet(*vals, provenance=provenance)

    def as_floats(self) -> tuple[float, float, float, float]:
        return tuple(float(v) for v in (self.e1, self.e2, self.e3, self.e4))

    def to_json(self) -> dict:
        return {"e1": float(self.e1), "e2": float(self.e2),
                "e3": float(self.e3), "e4": float(self.e4),
                "provenance": self.provenance}


MAXDELTA = "maxdelta"
POWER = "power"


@dataclass(frozen=True)
class WeightSpec:
    """Coefficient-space weight: exponents (p, q), translation power s, and
    the base weight family on the dilation group.

    maxdelta is w0(h) = max(1, Delta_G(h)) (the standard choice for plain
    L^p coefficient spaces; q-independent).  power(k) runs the base weight
    (1+||h||)^k (1+||h^-1||)^k through the separated control-weight product.
    """

    p: float = 2.0
    q: float = 2.0
    s: Fraction = Fraction(0)
    family: str = MAXDELTA
    power_k: Fraction = Fraction(0)

    @staticmethod
    def make(p=2.0, q=2.0, s=0, family=MAXDELTA, power_k=0) -> "WeightSpec":
        s = al.to_fraction(s)
        if s < 0:
            raise EmbeddednessError("s must be nonnegative")
        if family not in (MAXDELTA, POWER):
            raise EmbeddednessError(f"unknown weight family {family!r}")
        return WeightSpec(p=float(p), q=float(q), s=s, family=family,
                          power_k=al.to_fraction(power_k))

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "s": float(self.s),
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
        return {"exponents": self.exponents.to_json(),
                "ell_temperate": self.ell_temperate,
                "ell_strong": self.ell_strong,
                "moments_analyzing": self.moments_analyzing,
                "moments_atom": self.moments_atom,
                "notes": list(self.notes)}


# ---------------------------------------------------------------------------
# analytic exponents
# ---------------------------------------------------------------------------

def analytic_exponents(spec, weight: WeightSpec) -> ExponentSet:
    """Family closed forms for (e1, e2, e3, e4).

    e2, e3, e4 depend only on the group; e1 depends on the weight.  For the
    maxdelta family e1 equals the ambient dimension on every supported
    family; for power weights a sufficient e1 is assembled by bounding each
    factor of the control-weight product through the other three estimates.
    """
    d = spec.dim
    if isinstance(spec, gr.DirectProduct):
        return combine_exponents([analytic_exponents(f, weight)
                                  for f in spec.factors])
    if isinstance(spec, (gr.Similitude, gr.Diagonal)):
        base = ExponentSet.make(d, 1, d, 0)
    elif isinstance(spec, gr.Shearlet2D):
        c = al.to_fraction(spec.c)
        base = ExponentSet.make(2, 1 + abs(c), abs(1 + c), abs(1 - c))
    elif isinstance(spec, gr.AbelianFromAlgebra):
        n = spec.nilpotency_class
        base = ExponentSet.make(d, 2 * n - 1, d, 0)
    elif isinstance(spec, gr.GeneralizedShearlet):
        n = spec.nilpotency_class
        y_norm = al.to_fraction(float(np.abs(spec.Y).max()))
        trace_y = al.to_fraction(float(spec.Y.sum()))
        base = ExponentSet.make(d, n - 1 + 2 * y_norm, abs(trace_y),
                                abs(d - trace_y))
    else:
        raise gr.UnsupportedSpecError(f"no analytic exponents for {spec!r}")
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
    return ExponentSet(e1, base.e2, base.e3, base.e4, provenance="analytic")


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
    return ExponentSet(
        e1=sum(p.e1 for p in parts),
        e2=max(p.e2 for p in parts),
        e3=sum(p.e3 for p in parts),
        e4=sum(p.e4 for p in parts),
        provenance="analytic" if all(p.provenance == "analytic" for p in parts)
        else "empirical",
    )


# ---------------------------------------------------------------------------
# indices and moment orders (exact floors)
# ---------------------------------------------------------------------------

def index_temperate(e: ExponentSet, s, d: int) -> int:
    s = al.to_fraction(s)
    arg = e.e1 + e.e2 * (s + d + 1) + Fraction(3, 2) * e.e3 + e.e4
    return int(math.floor(arg)) + d + 1


def index_strong(e: ExponentSet, s, d: int) -> int:
    s = al.to_fraction(s)
    arg = e.e1 + e.e2 * (2 * s + 2 * d + 2) + Fraction(3, 2) * e.e3 + e.e4
    return int(math.floor(arg)) + d + 1


def required_moments(ell: int, d: int) -> int:
    if ell < 0:
        raise EmbeddednessError("index must be nonnegative")
    return ell + d + 1


def shearlet_atom_order(spec) -> int:
    """Atom moment order r = d(1+2n) + floor(4||Y||(d+1) + 3/2|trY| + |d-trY|).

    n is the shearing Lie algebra's nilpotency class, ||Y|| the largest
    |diagonal entry| of the normalized Y.  Note this closed form is not the
    composition required_moments(index_strong(...)): the two differ by 2n
    (see report notes); both are exposed deliberately.
    """
    if not isinstance(spec, gr.GeneralizedShearlet):
        raise gr.UnsupportedSpecError("atom-order formula needs a shearlet-type group")
    n = spec.nilpotency_class
    y = [al.to_fraction(float(v)) for v in spec.Y]
    d = spec.dim
    y_norm = max(abs(v) for v in y)
    trace_y = sum(y)
    arg = 4 * y_norm * (d + 1) + Fraction(3, 2) * abs(trace_y) + abs(d - trace_y)
    return d * (1 + 2 * n) + int(math.floor(arg))


def embedding_report(spec, weight: WeightSpec,
                     exponents: Optional[ExponentSet] = None) -> EmbeddingReport:
    """Exponents -> indices -> moment orders, with discrepancy notes."""
    e = exponents if exponents is not None else analytic_exponents(spec, weight)
    d = spec.dim
    ell_t = index_temperate(e, weight.s, d)
    ell_s = index_strong(e, weight.s, d)
    notes = []
    if isinstance(spec, (gr.Similitude, gr.Diagonal)) and weight.s == 0:
        shortcut = d // 2 + 4 * d + 1
        if shortcut != ell_t:
            notes.append(
                f"tabulated shortcut floor(d/2)+4d+1 = {shortcut} differs from the "
                f"normative analyzing index {ell_t}; the index formula is used")
    if isinstance(spec, gr.GeneralizedShearlet):
        closed = shearlet_atom_order(spec)
        composed = required_moments(ell_s, d)
        if closed != composed:
            notes.append(
                f"shearlet atom-order closed form gives {closed} while composing the "
                f"strong index with the moment rule gives {composed}; the closed form "
                f"drops a 2n term and is reported separately")
    return EmbeddingReport(exponents=e, ell_temperate=ell_t, ell_strong=ell_s,
                           moments_analyzing=required_moments(ell_t, d),
                           moments_atom=required_moments(ell_s, d),
                           notes=tuple(notes))


# ---------------------------------------------------------------------------
# control weight
# ---------------------------------------------------------------------------

def base_weight_arrays(weight: WeightSpec, norm_h, norm_hinv, delta_g):
    """Base weight w at h and at h^-1 (vectorized)."""
    if weight.family == POWER:
        k = float(weight.power_k)
        w = ((1.0 + norm_h) * (1.0 + norm_hinv)) ** k
        return w, w  # symmetric under h <-> h^-1
    if weight.family == MAXDELTA:
        return np.maximum(1.0, delta_g), np.maximum(1.0, 1.0 / delta_g)
    raise EmbeddednessError(f"unknown weight family {weight.family!r}")


def control_weight_arrays(weight: WeightSpec, norm_h, norm_hinv, det_abs,
                          delta_h) -> tuple[np.ndarray, np.ndarray]:
    """Separated control weight w0 at h and at h^-1 (vectorized).

    w0(h) = (w(h) + w(h^-1)) max(Delta_G(h)^{-1/q}, Delta_G(h)^{1/q-1})
            (|det h|^{1/q-1/p} + |det h|^{1/p-1/q}) (1+||h||+||h^-1||)^s
    with the conventions 1/inf = 0.
    """
    inv_q = 0.0 if math.isinf(weight.q) else 1.0 / weight.q
    inv_p = 0.0 if math.isinf(weight.p) else 1.0 / weight.p
    s = float(weight.s)
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
    w0_h, _ = control_weight_arrays(weight, np.array([sv[0]]),
                                    np.array([1.0 / sv[-1]]),
                                    np.array([abs(det)]), np.array([delta_h]))
    return float(w0_h[0])


def effective_control_weight_arrays(weight: WeightSpec, norm_h, norm_hinv,
                                    det_abs, delta_h):
    """The control weight that the analytic e1 refers to, at h and h^-1.

    For the maxdelta family that is max(1, Delta_G) itself; the separated
    display product only enters for power weights.
    """
    if weight.family == MAXDELTA:
        return base_weight_arrays(weight, norm_h, norm_hinv, delta_h / det_abs)
    return control_weight_arrays(weight, norm_h, norm_hinv, det_abs, delta_h)


# ---------------------------------------------------------------------------
# empirical boundedness checks
# ---------------------------------------------------------------------------

INEQUALITY_NAMES = ("control_weight", "operator_norm", "determinant", "modular")


@dataclass
class StageData:
    a_h: np.ndarray
    quantities: dict  # name -> per-sample base quantity (before A_H power)


@dataclass
class EmpiricalReport:
    verdicts: dict                 # name -> bounded | unbounded | inconclusive
    stage_suprema: dict            # name -> running suprema per stage
    least_exponents: dict          # name -> least exponent with bounded verdict
    exponents: ExponentSet
    stages: int
    samples_per_stage: int
    seed: int

    @property
    def all_bounded(self) -> bool:
        return all(v == "bounded" for v in self.verdicts.values())

    def to_json(self) -> dict:
        return {"verdicts": dict(self.verdicts),
                "stage_suprema": {k: list(map(float, v))
                                  for k, v in self.stage_suprema.items()},
                "least_exponents": {k: (None if v is None else float(v))
                                    for k, v in self.least_exponents.items()},
                "exponents": self.exponents.to_json(),
                "stages": self.stages,
                "samples_per_stage": self.samples_per_stage,
                "seed": self.seed,
                "all_bounded": self.all_bounded}


def _verdict_from_running_sup(sups: np.ndarray, slack: float = 0.05,
                              confirm: int = 3) -> str:
    """bounded when the running supremum stops growing across the last
    `confirm` stages (within multiplicative slack)."""
    if len(sups) < confirm:
        return "inconclusive"
    tail = sups[-confirm:]
    growth = tail[1:] / np.maximum(tail[:-1], 1e-300)
    if (growth <= 1.0 + slack).all():
        return "bounded"
    if (growth > 1.0 + slack).all():
        return "unbounded"
    return "inconclusive"


def _collect_stage(spec, weight: WeightSpec, seed: int, stage: int, n: int,
                   r0: float, t0: float, threads: int) -> StageData:
    rng = np.random.default_rng([seed, stage])
    sample = gr.sample_group(spec, rng, n, scale_bound=r0 * 2.0 ** stage,
                             shear_bound=t0 * 2.0 ** stage)
    mats = sample.matrices

    def block(mats_chunk):
        sv = np.linalg.svd(mats_chunk, compute_uv=False)
        return sv[:, 0], 1.0 / sv[:, -1]

    chunks = np.array_split(mats, max(1, threads))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(block, chunks))
    else:
        parts = [block(c) for c in chunks]
    norm_h = np.concatenate([p[0] for p in parts])
    norm_hinv = np.concatenate([p[1] for p in parts])
    det_abs = np.abs(np.linalg.det(mats))
    a_h = ob.envelope_values(ob.orbit_of(spec), sample.dual_points)
    w0_h, w0_hinv = effective_control_weight_arrays(weight, norm_h, norm_hinv,
                                                    det_abs, sample.delta_h)
    quantities = {
        "control_weight": np.maximum(w0_h, w0_hinv),
        "operator_norm": np.maximum(norm_h, norm_hinv),
        "determinant": np.maximum(det_abs, 1.0 / det_abs),
        "modular": np.maximum(sample.delta_h, 1.0 / sample.delta_h),
    }
    return StageData(a_h=a_h, quantities=quantities)


def _running_suprema(stage_data: list[StageData], name: str, exponent: float) -> np.ndarray:
    sups = []
    running = 0.0
    for sd in stage_data:
        vals = sd.quantities[name] * sd.a_h ** exponent
        running = max(running, float(vals.max()))
        sups.append(running)
    return np.array(sups)


def empirical_exponent_check(spec, exponents: ExponentSet, weight: WeightSpec,
                             budget: int = 100_000, stages: int = 5,
                             seed: int = 0, threads: int = 1,
                             r0: float = 1.0, t0: float = 1.0,
                             find_least: bool = True) -> EmpiricalReport:
    """Monte Carlo verdicts for the four decay estimates.

    Samples per stage come from doubling parameter boxes; each inequality is
    declared bounded when its running supremum is non-increasing (within 5%
    slack) across the last three stage transitions, unbounded when it grows
    through all of them, inconclusive otherwise.  With find_least, a
    bisection (0.1 resolution) reports the smallest exponent per inequality
    that still gets a bounded verdict.
    """
    if stages < 3:
        raise EmbeddednessError("need at least 3 stages for a stabilization verdict")
    n = budget // stages
    if n < 10:
        raise EmbeddednessError("budget too small for the requested stage count")
    stage_data = [_collect_stage(spec, weight, seed, k, n, r0, t0, threads)
                  for k in range(stages)]
    given = dict(zip(INEQUALITY_NAMES, exponents.as_floats()))
    verdicts = {}
    stage_sups = {}
    least = {}
    for name in INEQUALITY_NAMES:
        sups = _running_suprema(stage_data, name, given[name])
        stage_sups[name] = sups
        verdicts[name] = _verdict_from_running_sup(sups)
        if not find_least:
            least[name] = None
            continue
        hi = max(4.0, 2.0 * given[name] + 2.0)
        if _verdict_from_running_sup(_running_suprema(stage_data, name, hi)) != "bounded":
            least[name] = None  # nothing bounded within the search range
            continue
        lo = 0.0
        if _verdict_from_running_sup(_running_suprema(stage_data, name, lo)) == "bounded":
            least[name] = 0.0
            continue
        while hi - lo > 0.1:
            mid = 0.5 * (lo + hi)
            if _verdict_from_running_sup(_running_suprema(stage_data, name, mid)) == "bounded":
                hi = mid
            else:
                lo = mid
        least[name] = hi
    return EmpiricalReport(verdicts=verdicts, stage_suprema=stage_sups,
                           least_exponents=least, exponents=exponents,
                           stages=stages, samples_per_stage=n, seed=seed)


# ---------------------------------------------------------------------------
# Phi_ell: direct orbit integral vs. group-side convolution
# ---------------------------------------------------------------------------

def phi_ell_direct(spec, h, ell: int, rtol: float = 1e-4) -> quad.StagedResult:
    """Phi_ell(h) = int A(xi)^ell A(h^T xi)^ell d xi by orbit quadrature."""
    if ell <= spec.dim:
        raise EmbeddednessError("need ell > d for a convergent integral")
    orbit = ob.orbit_of(spec)
    mat = gr.as_matrix(h)

    def integrand(pts):
        a1 = ob.envelope_values(orbit, pts)
        a2 = ob.envelope_values(orbit, pts @ mat)  # rows (h^T xi)^T
        return (a1 * a2) ** ell

    return ob.orbit_integral(orbit, integrand, rtol=rtol)


def phi_ell_convolution(spec, h, ell: int, rtol: float = 1e-4) -> quad.StagedResult:
    """Phi_ell(h) as the group convolution (A_H^ell |det .|)~ * A_H^ell.

    Evaluated entirely in group coordinates: the left-Haar density in
    (eps, t, r) coordinates is exp(r (trace Y - d)) dt dr, elements are
    inverted and composed as matrices, and A_H comes from the dual action.
    Requires a shear-type spec.
    """
    if ell <= spec.dim:
        raise EmbeddednessError("need ell > d for a convergent integral")
    chart = gr.shear_chart(spec)
    orbit = ob.orbit_of(spec)
    base = orbit.base_point
    hmat = gr.as_matrix(h)

    def integrand(pts):
        r = pts[:, 0]
        g_pos = chart.matrices(1.0, r, pts[:, 1:])
        vals = np.zeros(len(pts))
        for eps in (1.0, -1.0):
            ginv = np.linalg.inv(eps * g_pos)
            f_part = ob.envelope_values(orbit, np.einsum("nji,j->ni", ginv, base)) ** ell \
                * np.abs(np.linalg.det(ginv))
            comp = np.einsum("nij,jk->nik", ginv, hmat)
            g_part = ob.envelope_values(orbit, np.einsum("nji,j->ni", comp, base)) ** ell
            vals = vals + f_part * g_part
        return vals * chart.haar(r)

    def stage_value(stage: int) -> float:
        return quad.tensor_eval(ob.chart_stage_axes(chart.dim, stage), integrand)

    return quad.staged_refinement(stage_value, rtol=rtol, max_stages=10, min_stages=3)


# ---------------------------------------------------------------------------
# catalog for property suites
# ---------------------------------------------------------------------------

def default_catalog() -> list[tuple[str, object]]:
    """Named groups exercised by the property and acceptance suites."""
    entries = [
        ("similitude-2d", gr.Similitude(2)),
        ("similitude-3d", gr.Similitude(3)),
        ("diagonal-2d", gr.Diagonal(2)),
        ("diagonal-3d", gr.Diagonal(3)),
        ("shearlet2d-c1/2", gr.Shearlet2D(0.5)),
    ]
    for d in (2, 3, 4):
        for spec in gr.enumerate_catalog(d):
            entries.append((spec.name, spec))
    return entries
