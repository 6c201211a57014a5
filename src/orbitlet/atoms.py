"""Compactly supported candidate wavelets and their verification.

Atoms are derivative patterns applied to tensor-product B-splines: the
spline base has exact compact support, closed-form derivatives of every
order the degree allows, and a closed-form spectrum (powers of sinc), so
every check against the atom can be made analytic.  Vanishing moments near
the orbit complement are verified two ways: a log-log slope fit of the
spectrum along lines into the complement, and direct quadrature of the
moment integrals (slope fits alone get noisy near machine precision).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence

import numpy as np

from . import groups as gr
from . import orbit as ob
from . import quadrature as quad


class AtomError(ValueError):
    pass


class InsufficientSmoothnessError(AtomError):
    """Spline degree too low for the requested derivative order."""


# ---------------------------------------------------------------------------
# cardinal B-splines
# ---------------------------------------------------------------------------

def bspline(k: int, x) -> np.ndarray:
    """Cardinal B-spline of degree k, supported on [0, k+1]."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return ((x >= 0) & (x < 1)).astype(float)
    out = np.zeros_like(x)
    for j in range(k + 2):
        out += (-1) ** j * comb(k + 1, j) * np.clip(x - j, 0.0, None) ** k
    # the alternating sum telescopes to 0 beyond the support; enforce exactly
    out[(x <= 0) | (x >= k + 1)] = 0.0
    return out / factorial(k)


def bspline_derivative(k: int, m: int, x) -> np.ndarray:
    """m-th derivative of the degree-k cardinal B-spline (finite differences)."""
    if m == 0:
        return bspline(k, x)
    if m > k:
        raise InsufficientSmoothnessError(
            f"degree {k} spline has no order-{m} derivative")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(m + 1):
        out += (-1) ** i * comb(m, i) * bspline(k - m, x - i)
    return out


def bspline_hat(k: int, xi) -> np.ndarray:
    """Fourier transform of the degree-k cardinal B-spline."""
    xi = np.asarray(xi, dtype=float)
    z = 2j * np.pi * xi
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(xi == 0, 1.0 + 0j,
                        (1.0 - np.exp(-z)) / np.where(z == 0, 1.0, z))
    return base ** (k + 1)


@dataclass(frozen=True)
class SplineAxis:
    """Degree-k B-spline rescaled onto the support interval [a, b]."""

    degree: int
    a: float
    b: float

    @property
    def scale(self) -> float:
        return (self.b - self.a) / (self.degree + 1)

    def value(self, m: int, x) -> np.ndarray:
        s = self.scale
        return bspline_derivative(self.degree, m, (np.asarray(x) - self.a) / s) / s ** m

    def hat(self, xi) -> np.ndarray:
        s = self.scale
        xi = np.asarray(xi, dtype=float)
        return s * np.exp(-2j * np.pi * xi * self.a) * bspline_hat(self.degree, s * xi)

    def quad_nodes(self, panels_per_cell: int = 4, order: int = 10):
        """Composite Gauss nodes respecting the knot cells (piecewise-poly exact)."""
        cells = self.degree + 1
        return quad.composite_gauss(self.a, self.b, cells * panels_per_cell, order)


def spline_base(degrees: Sequence[int], supports=None) -> tuple[SplineAxis, ...]:
    """Tensor spline base; default supports centered at the origin."""
    axes = []
    for i, k in enumerate(degrees):
        if supports is None:
            half = (k + 1) / 2.0
            a, b = -half, half
        else:
            a, b = supports[i]
        axes.append(SplineAxis(degree=int(k), a=float(a), b=float(b)))
    return tuple(axes)


# ---------------------------------------------------------------------------
# derivative plans and atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativePlan:
    kind: str          # "partial" | "laplacian"
    orders: tuple      # per-axis orders, or (power,) for laplacian

    def max_axis_order(self, dim: int) -> tuple[int, ...]:
        if self.kind == "partial":
            return self.orders
        return (2 * self.orders[0],) * dim

    def describe(self) -> str:
        if self.kind == "partial":
            return "d" + "".join(f"{o}" for o in self.orders)
        return f"laplacian^{self.orders[0]}"


def orbit_differential_operator(spec) -> DerivativePlan:
    """Unit derivative pattern matched to the orbit complement geometry."""
    orbit = ob.orbit_of(spec)
    d = spec.dim
    if orbit.kind == ob.FIRST_COORD:
        return DerivativePlan("partial", (1,) + (0,) * (d - 1))
    if orbit.kind == ob.CROSS:
        return DerivativePlan("partial", (1,) * d)
    if orbit.kind == ob.PUNCTURED:
        return DerivativePlan("laplacian", (1,))
    raise gr.UnsupportedSpecError(f"no differential operator for orbit {orbit.kind}")


@dataclass(frozen=True)
class Atom:
    """psi = (derivative pattern) applied to a tensor B-spline base."""

    base: tuple            # SplineAxis per dimension
    plan: DerivativePlan
    moment_order: int      # claimed vanishing-moment order near O^c

    @property
    def dim(self) -> int:
        return len(self.base)

    def support_box(self) -> list[tuple[float, float]]:
        return [(ax.a, ax.b) for ax in self.base]

    # -- pointwise evaluation -------------------------------------------------

    def evaluate(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.plan.kind == "partial":
            out = np.ones(len(pts))
            for j, (ax, m) in enumerate(zip(self.base, self.plan.orders)):
                out *= ax.value(m, pts[:, j])
            return out
        power = self.plan.orders[0]
        out = np.zeros(len(pts))
        for alpha in _multiindices(self.dim, power):
            coef = factorial(power)
            for a in alpha:
                coef //= factorial(a)
            term = np.full(len(pts), float(coef))
            for j, ax in enumerate(self.base):
                term *= ax.value(2 * alpha[j], pts[:, j])
            out += term
        return out

    # -- closed-form spectrum --------------------------------------------------

    def symbol(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.plan.kind == "partial":
            out = np.ones(len(pts), dtype=complex)
            for j, m in enumerate(self.plan.orders):
                if m:
                    out *= (2j * np.pi * pts[:, j]) ** m
            return out
        power = self.plan.orders[0]
        norms2 = np.einsum("ni,ni->n", pts, pts)
        return (-4.0 * np.pi ** 2 * norms2) ** power + 0j

    def spectrum(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = self.symbol(pts)
        for j, ax in enumerate(self.base):
            out *= ax.hat(pts[:, j])
        return out

    def l1_norm(self) -> float:
        nodes, weights = _tensor_quad(self.base)
        return float(np.sum(np.abs(self.evaluate(nodes)) * weights))

    def l2_norm(self) -> float:
        nodes, weights = _tensor_quad(self.base)
        return float(math.sqrt(np.sum(self.evaluate(nodes) ** 2 * weights)))

    def to_json(self) -> dict:
        return {
            "base": [{"degree": ax.degree, "support": [ax.a, ax.b]}
                     for ax in self.base],
            "plan": {"kind": self.plan.kind, "orders": list(self.plan.orders)},
            "moment_order": self.moment_order,
        }

    @staticmethod
    def from_json(doc) -> "Atom":
        axes = tuple(SplineAxis(degree=int(b["degree"]), a=float(b["support"][0]),
                                b=float(b["support"][1])) for b in doc["base"])
        plan = DerivativePlan(kind=doc["plan"]["kind"],
                              orders=tuple(int(o) for o in doc["plan"]["orders"]))
        return Atom(base=axes, plan=plan, moment_order=int(doc["moment_order"]))


def _multiindices(dim: int, total: int):
    if dim == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multiindices(dim - 1, total - head):
            yield (head,) + rest


def _tensor_quad(base: Sequence[SplineAxis], panels_per_cell=None, order=None):
    d = len(base)
    if panels_per_cell is None:
        panels_per_cell = 4 if d <= 2 else 2
    if order is None:
        order = 10 if d <= 2 else 8
    return quad.tensor_grid([quad.Axis(*ax.quad_nodes(panels_per_cell, order))
                             for ax in base])


def make_atom(spec, r: int, base: Sequence[SplineAxis]) -> Atom:
    """Apply the orbit differential operator r times over the spline base.

    Requires spline degree >= derivative order + 1 on each differentiated
    axis, which keeps the atom continuous (a working choice; no sharper
    degree bound is claimed).
    """
    unit = orbit_differential_operator(spec)
    if unit.kind == "partial":
        plan = DerivativePlan("partial", tuple(o * r for o in unit.orders))
        achieved = r
    else:
        plan = DerivativePlan("laplacian", (max(1, math.ceil(r / 2)),) if r > 0
                              else (0,))
        achieved = 2 * plan.orders[0] if r > 0 else 0
    if r == 0:
        plan = DerivativePlan("partial", (0,) * spec.dim)
        achieved = 0
    orders = plan.max_axis_order(spec.dim)
    for ax, m in zip(base, orders):
        if m > 0 and ax.degree < m + 1:
            raise InsufficientSmoothnessError(
                f"axis degree {ax.degree} < derivative order {m} + 1")
    return Atom(base=tuple(base), plan=plan, moment_order=achieved)


# ---------------------------------------------------------------------------
# sampled functions (+ CSV / binary I/O)
# ---------------------------------------------------------------------------

@dataclass
class SampledFunction:
    """Values on a uniform rectangular grid."""

    origin: np.ndarray
    spacing: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.spacing = np.asarray(self.spacing, dtype=float)
        self.values = np.asarray(self.values)
        if (self.spacing <= 0).any():
            raise AtomError("grid spacing must be positive")
        if min(self.values.shape) < 2:
            raise AtomError("need at least 2 samples per axis")

    @property
    def dim(self) -> int:
        return self.values.ndim

    def axis_points(self, j: int) -> np.ndarray:
        return self.origin[j] + self.spacing[j] * np.arange(self.values.shape[j])

    def grid_points(self) -> np.ndarray:
        return quad.tensor_points([self.axis_points(j) for j in range(self.dim)])

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def spectrum(self, pts) -> np.ndarray:
        """Direct Fourier sums at arbitrary frequencies (Riemann weights)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        grid = self.grid_points()
        flat = self.values.ravel()
        out = np.empty(len(pts), dtype=complex)
        chunk = max(1, (1 << 22) // max(1, grid.shape[0]))
        for start in range(0, len(pts), chunk):
            sl = slice(start, start + chunk)
            phases = np.exp(-2j * np.pi * (pts[sl] @ grid.T))
            out[sl] = phases @ flat
        return out * self.cell_volume()

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.cell_volume()))


def sample_atom(atom: Atom, counts: Sequence[int], pad: float = 0.0) -> SampledFunction:
    box = atom.support_box()
    origin = np.array([a - pad for a, _ in box])
    spacing = np.array([(b - a + 2 * pad) / (n - 1)
                        for (a, b), n in zip(box, counts)])
    pts = quad.tensor_points([origin[j] + spacing[j] * np.arange(counts[j])
                              for j in range(atom.dim)])
    vals = atom.evaluate(pts).reshape(tuple(counts))
    return SampledFunction(origin=origin, spacing=spacing, values=vals)


def sampled_to_csv(fn: SampledFunction, path: str) -> None:
    """Header lines (# dim/origin/spacing/counts) then one value per line."""
    with open(path, "w") as fh:
        fh.write(f"# dim {fn.dim}\n")
        fh.write("# origin " + " ".join(repr(float(v)) for v in fn.origin) + "\n")
        fh.write("# spacing " + " ".join(repr(float(v)) for v in fn.spacing) + "\n")
        fh.write("# counts " + " ".join(str(n) for n in fn.values.shape) + "\n")
        for v in fn.values.ravel():
            fh.write(repr(float(v)) + "\n")


def sampled_from_csv(path: str) -> SampledFunction:
    meta = {}
    vals = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                meta[parts[0]] = parts[1:]
            else:
                vals.append(float(line))
    try:
        counts = tuple(int(n) for n in meta["counts"])
        origin = [float(v) for v in meta["origin"]]
        spacing = [float(v) for v in meta["spacing"]]
    except KeyError as exc:
        raise AtomError(f"missing CSV header field: {exc}") from exc
    arr = np.array(vals).reshape(counts)
    return SampledFunction(origin=origin, spacing=spacing, values=arr)


_BIN_MAGIC = b"ORBLETF1"


def sampled_to_binary(fn: SampledFunction, path: str) -> None:
    """Raw format: magic, uint32 dim, per-axis (f64 origin, f64 spacing,
    uint64 count), then row-major little-endian f64 values."""
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<I", fn.dim))
        for j in range(fn.dim):
            fh.write(struct.pack("<ddQ", fn.origin[j], fn.spacing[j],
                                 fn.values.shape[j]))
        fh.write(np.ascontiguousarray(fn.values, dtype="<f8").tobytes())


def sampled_from_binary(path: str) -> SampledFunction:
    """Read the raw format; a short header or payload raises AtomError."""
    with open(path, "rb") as fh:
        if fh.read(8) != _BIN_MAGIC:
            raise AtomError("bad magic in binary grid file")
        origin, spacing, counts = [], [], []
        try:
            (dim,) = struct.unpack("<I", fh.read(4))
            for _ in range(dim):
                o, s, n = struct.unpack("<ddQ", fh.read(24))
                origin.append(o)
                spacing.append(s)
                counts.append(n)
        except struct.error as exc:
            raise AtomError(f"truncated binary grid header: {exc}") from exc
        payload = fh.read()
    need = 8 * math.prod(counts)
    if len(payload) != need:
        raise AtomError(f"binary grid payload has {len(payload)} bytes, counts {counts} need {need}")
    data = np.frombuffer(payload, dtype="<f8").reshape(tuple(counts))
    return SampledFunction(origin=origin, spacing=spacing, values=data.copy())


# ---------------------------------------------------------------------------
# vanishing-moment verification
# ---------------------------------------------------------------------------

@dataclass
class SpectrumProbe:
    eta_points: np.ndarray
    fitted_orders: np.ndarray
    fit_residuals: np.ndarray
    fitted_order: float
    moment_max_rel: float
    moments_pass: bool
    r_claimed: int
    verdict: str  # verified | failed | inconclusive

    def to_json(self) -> dict:
        return {"eta_points": self.eta_points.tolist(),
                "fitted_orders": self.fitted_orders.tolist(),
                "fit_residuals": self.fit_residuals.tolist(),
                "fitted_order": self.fitted_order,
                "moment_max_rel": self.moment_max_rel,
                "moments_pass": self.moments_pass,
                "r_claimed": self.r_claimed,
                "verdict": self.verdict}


def _complement_probes(orbit: ob.OrbitDescriptor):
    """Sample points eta in O^c with outward normals, plus a far-field eta."""
    d = orbit.dim
    if orbit.kind == ob.FIRST_COORD:
        etas = [np.zeros(d)]
        for v in (0.5, -1.0, 1.5):
            eta = np.zeros(d)
            eta[1:] = v
            etas.append(eta)
        far = np.zeros(d)
        far[1:] = 5.0
        etas.append(far)
        return [(e, np.eye(d)[0]) for e in etas]
    if orbit.kind == ob.PUNCTURED:
        dirs = [np.eye(d)[0], -np.eye(d)[0]]
        diag = np.ones(d) / math.sqrt(d)
        dirs.append(diag)
        return [(np.zeros(d), u) for u in dirs]
    if orbit.kind == ob.CROSS:
        probes = []
        for i in range(d):
            eta = np.ones(d)
            eta[i] = 0.0
            probes.append((eta, np.eye(d)[i]))
        return probes
    raise ob.OrbitError(f"no probe layout for orbit kind {orbit.kind}")


def _slope_fit(spectrum, eta, u, t0=1e-2, steps=12, factor=2 ** -0.5):
    ts = t0 * factor ** np.arange(steps)
    pts = eta[None, :] + ts[:, None] * u[None, :]
    vals = np.abs(spectrum(pts))
    good = vals > 1e-280
    if good.sum() < 4:
        return 0.0, math.inf
    x = np.log(ts[good])
    y = np.log(vals[good])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), resid


def verify_vanishing_moments(psi, orbit: ob.OrbitDescriptor, r_claimed: int,
                             moment_tol: float = 1e-6,
                             fit_residual_tol: float = 0.1) -> SpectrumProbe:
    """Fit spectral decay orders into O^c and check moment integrals.

    The slope fit uses the (closed-form or sampled) spectrum along lines
    eta + t u with geometric t; the moment integrals int x^alpha psi(x)
    e^(-2 pi i <eta, x>) dx for |alpha| < r_claimed are evaluated by
    quadrature and compared against moment_tol relative to the L1 mass.
    """
    probes = _complement_probes(orbit)
    spectrum = psi.spectrum
    slopes, resids = [], []
    for eta, u in probes:
        s, r = _slope_fit(spectrum, eta, u)
        slopes.append(s)
        resids.append(r)
    slopes = np.array(slopes)
    resids = np.array(resids)
    fitted = float(slopes.min())

    if isinstance(psi, Atom):
        pts, wts = _tensor_quad(psi.base)
        vals = psi.evaluate(pts)
    else:
        pts = psi.grid_points()
        wts = np.full(len(pts), psi.cell_volume())
        vals = psi.values.ravel()
    l1 = float(np.sum(np.abs(vals) * wts))
    max_rel = 0.0
    for eta, _ in probes:
        phases = np.exp(-2j * np.pi * (pts @ eta))
        for alpha in _all_multiindices_below(psi.dim if isinstance(psi, Atom)
                                             else pts.shape[1], r_claimed):
            mono = np.ones(len(pts))
            for j, a in enumerate(alpha):
                if a:
                    mono *= pts[:, j] ** a
            moment = np.sum(vals * mono * phases * wts)
            scale = max(l1, float(np.sum(np.abs(vals * mono) * wts)), 1e-300)
            max_rel = max(max_rel, float(abs(moment)) / scale)
    moments_pass = bool(max_rel <= moment_tol)

    if resids.max() > fit_residual_tol:
        verdict = "inconclusive"
    elif moments_pass and fitted >= r_claimed - 0.1:
        verdict = "verified"
    else:
        verdict = "failed"
    return SpectrumProbe(eta_points=np.array([e for e, _ in probes]),
                         fitted_orders=slopes, fit_residuals=resids,
                         fitted_order=fitted, moment_max_rel=max_rel,
                         moments_pass=moments_pass, r_claimed=r_claimed,
                         verdict=verdict)


def _all_multiindices_below(dim: int, r: int):
    for total in range(r):
        yield from _multiindices(dim, total)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    verdict: str                   # finite | divergent | inconclusive
    inner_shells: np.ndarray       # toward O^c
    outer_shells: np.ndarray       # toward infinity
    total: float

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "inner_shells": self.inner_shells.tolist(),
                "outer_shells": self.outer_shells.tolist(),
                "total": self.total}


def _tail_verdict(shells: np.ndarray, window: int = 4) -> str:
    """finite: terms decay geometrically; divergent: terms flat or growing
    (partial sums keep climbing, covering logarithmic divergence too)."""
    shells = np.asarray(shells, dtype=float)
    nz = shells[shells > 0]
    if len(nz) < window + 1:
        return "finite" if shells.sum() == 0 or len(nz) <= 1 else "inconclusive"
    tail = nz[-(window + 1):]
    ratios = tail[1:] / tail[:-1]
    if (ratios < 0.9).all():
        return "finite"
    if (ratios >= 0.98).all():
        return "divergent"
    return "inconclusive"


def admissibility_check(spec, psi, n_shells: int = 14,
                        rest_order: int = 8) -> AdmissibilityReport:
    """Dyadic shell test of int |psi_hat|^2 Phi d xi.

    Phi is the family's orbit density.  Shell integrals run toward the orbit
    complement and toward infinity; the verdict is geometric-ratio based
    (finite when the last four ratios stay below 0.9, divergent when they
    grow) because the integral is improper at both ends.
    """
    orbit = ob.orbit_of(spec)
    d = spec.dim

    def density_weighted(pts):
        return np.abs(psi.spectrum(pts)) ** 2 * ob.orbit_density(spec, pts)

    if orbit.kind == ob.FIRST_COORD:
        rest = quad.Axis(*quad.signed_dyadic_axis(-4, 5, rest_order,
                                                  include_center=True))

        def shell_integral(lo, hi):
            ring = quad.Axis(*_two_sided_panel(lo, hi, 10))
            return quad.tensor_eval([ring] + [rest] * (d - 1), density_weighted)

    elif orbit.kind == ob.PUNCTURED and d == 2:
        angles = quad.Axis(*quad.composite_gauss(0.0, 2 * math.pi, 16, 8))

        def shell_integral(lo, hi):
            radial = quad.Axis(*quad.gauss_panel(lo, hi, 12))

            def polar(pts):
                rho, th = pts[:, 0], pts[:, 1]
                xy = np.stack([rho * np.cos(th), rho * np.sin(th)], axis=1)
                return density_weighted(xy) * rho

            return quad.tensor_eval([radial, angles], polar)

    elif orbit.kind == ob.CROSS and d == 2:
        rest = quad.Axis(*quad.signed_dyadic_axis(-n_shells - 1, 5, rest_order))

        def shell_integral(lo, hi):
            # min |xi_i| in [lo, hi): either axis can carry the minimum
            ring = quad.Axis(*_two_sided_panel(lo, hi, 10))
            outerA = quad.Axis(*_clipped_axis(rest, hi))
            first = quad.tensor_eval([ring, outerA], density_weighted)
            second = quad.tensor_eval([outerA, ring], density_weighted)
            both = quad.tensor_eval([ring, ring], density_weighted)
            return first + second + both

    else:
        raise gr.UnsupportedSpecError(
            f"admissibility shells unavailable for orbit {orbit.kind} in dim {d}")

    inner = np.array([shell_integral(2.0 ** (-k - 1), 2.0 ** (-k))
                      for k in range(n_shells)])
    outer = np.array([shell_integral(2.0 ** k, 2.0 ** (k + 1))
                      for k in range(n_shells)])
    v_in = _tail_verdict(inner)
    v_out = _tail_verdict(outer)
    if v_in == "divergent" or v_out == "divergent":
        verdict = "divergent"
    elif v_in == "finite" and v_out == "finite":
        verdict = "finite"
    else:
        verdict = "inconclusive"
    return AdmissibilityReport(verdict=verdict, inner_shells=inner,
                               outer_shells=outer,
                               total=float(inner.sum() + outer.sum()))


def _two_sided_panel(lo: float, hi: float, order: int):
    xp, wp = quad.gauss_panel(lo, hi, order)
    return np.concatenate([xp, -xp]), np.concatenate([wp, wp])


def _clipped_axis(axis: quad.Axis, min_abs: float):
    keep = np.abs(axis.nodes) >= min_abs
    return axis.nodes[keep], axis.weights[keep]


@dataclass
class BandlimitedBump:
    """Synthetic spectrum supported on a frequency box (testing aid)."""

    box: tuple  # per-axis (lo, hi)

    def spectrum(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = np.ones(len(pts), dtype=bool)
        for j, (lo, hi) in enumerate(self.box):
            inside &= (pts[:, j] >= lo) & (pts[:, j] <= hi)
        return inside.astype(complex)
