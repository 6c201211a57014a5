"""Compactly supported candidate wavelets and their verification.

Atoms are derivative patterns applied to tensor-product B-splines: the spline base has
exact compact support, closed-form derivatives of every order the degree allows, and a
closed-form spectrum (powers of sinc), so every check against the atom can be made
analytic.  Vanishing moments near the orbit complement are verified two ways: a log-log
slope fit of the spectrum along lines into the complement, and direct quadrature of the
moment integrals (slope fits alone get noisy near machine precision).  GridFile reads
and writes sampled grid files by rows, so cwt and icwt move their coefficient files one
row at a time and never hold them whole.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence

import numpy as np

from . import algebra as al
from . import groups as gr
from . import orbit as ob
from . import quadrature as quad


class AtomError(al.OrbitletError):
    pass


class InsufficientSmoothnessError(AtomError, al.UnsupportedError):
    """Spline degree too low for the requested derivative order."""


# ---------------------------------------------------------------------------
# cardinal B-splines
# ---------------------------------------------------------------------------

def bspline(k: int, x) -> np.ndarray:
    """Cardinal B-spline of degree k, supported on [0, k+1)."""
    return bspline_derivative(k, 0, x)


@functools.lru_cache(maxsize=None)
def _cell_polynomials(k: int, m: int) -> np.ndarray:
    """Entry [p, i]: coefficient of u^p, u = x - i, of the m-th derivative of B_k
    on the cell [i, i+1), from k! B_k = sum_{j <= i} (-1)^j C(k+1, j) (u + i - j)^k
    there; the zero entry i = k+1 serves every point outside [0, k+1)."""
    cols = np.zeros((k - m + 1, k + 2))
    for i in range(k + 1):
        for p in range(m, k + 1):
            c = sum((-1) ** j * comb(k + 1, j) * comb(k, p) * (i - j) ** (k - p)
                    for j in range(i + 1))
            cols[p - m, i] = Fraction(c * factorial(p) // factorial(p - m), factorial(k))
    return cols


def bspline_derivative(k: int, m: int, x) -> np.ndarray:
    """m-th derivative of the degree-k cardinal B-spline, by Horner's method in place on
    its cell polynomials; cells are half-open, so order k is right-continuous."""
    if m > k:
        raise InsufficientSmoothnessError(f"degree {k} spline has no order-{m} derivative")
    cols, x = _cell_polynomials(k, m), np.asarray(x, dtype=float)
    cell = np.floor(x)
    u = x - cell
    cell = np.clip(cell, -1, k + 1).astype(np.intp)  # -1 and k+1 read the zero entry
    acc = cols[-1][cell]  # the floats of cell are freed: x, u, cell, acc, one column
    for col in cols[-2::-1]:
        acc *= u
        acc += col[cell]
    return acc


def bspline_hat(k: int, xi) -> np.ndarray:
    """Fourier transform of the degree-k cardinal B-spline."""
    xi = np.asarray(xi, dtype=float)
    z = 2j * np.pi * xi
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(xi == 0, 1.0 + 0j, (1.0 - np.exp(-z)) / np.where(z == 0, 1.0, z))
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
        s, xi = self.scale, np.asarray(xi, dtype=float)
        return s * np.exp(-2j * np.pi * xi * self.a) * bspline_hat(self.degree, s * xi)


def spline_base(degrees: Sequence[int], supports=None) -> tuple[SplineAxis, ...]:
    """Tensor spline base; default supports centered at the origin."""
    if supports is None:
        supports = [(-(k + 1) / 2.0, (k + 1) / 2.0) for k in degrees]
    return tuple(SplineAxis(degree=int(k), a=float(a), b=float(b))
                 for k, (a, b) in zip(degrees, supports, strict=True))


# ---------------------------------------------------------------------------
# derivative plans and atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativePlan:
    kind: str          # "partial" | "laplacian"
    orders: tuple      # per-axis orders, or (power,) for laplacian

    def describe(self) -> str:
        return ("d" + "".join(map(str, self.orders)) if self.kind == "partial"
                else f"laplacian^{self.orders[0]}")


def _block_starts(orbit: ob.OrbitDescriptor, what: str) -> list[int]:
    """The first axis of each block, all one axis wide; a wider block has no what."""
    for a, b in orbit.blocks:
        if b - a > 1:
            raise gr.UnsupportedSpecError(
                f"no {what} for orbit {orbit.kind}: block {(a, b)} spans {b - a} axes")
    return [a for a, _ in orbit.blocks]


def orbit_differential_operator(spec) -> DerivativePlan:
    """Unit derivative pattern: order 1 on each block start, Laplacian if punctured."""
    orbit = ob.orbit_of(spec)
    if orbit.kind == ob.PUNCTURED:
        return DerivativePlan("laplacian", (1,))
    starts = _block_starts(orbit, "differential operator")
    return DerivativePlan("partial", tuple(int(j in starts) for j in range(spec.dim)))


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

    @property
    def factors(self):
        """(spline axis, derivative order) per axis, whose 1-D atoms multiply to
        psi for a partial plan; None for a Laplacian plan."""
        return tuple(zip(self.base, self.plan.orders)) if self.plan.kind == "partial" else None

    def parity(self) -> Optional[int]:
        """sigma with psi(-x) = sigma psi(x): reflection_sign over every axis."""
        return self.reflection_sign(range(self.dim))

    def reflection_sign(self, axes) -> Optional[int]:
        """tau with psi(x reflected on axes) = tau psi(x) when each of their supports is centered
        (a == -b), else None: a centered B-spline is even, d^m flips the parity (-1)^m times,
        Laplacians are even."""
        if any(self.base[j].a != -self.base[j].b for j in axes):
            return None
        return (-1) ** sum(self.plan.orders[j] for j in axes) if self.plan.kind == "partial" else 1

    # -- pointwise evaluation -------------------------------------------------

    def evaluate(self, pts) -> np.ndarray:
        return self.evaluate_coords(np.atleast_2d(np.asarray(pts, dtype=float)).T)

    def evaluate_coords(self, coords) -> np.ndarray:
        """psi at points given coordinate-wise: coords[j] holds coordinate j, and
        the arrays broadcast against each other.  Each per-axis factor (or
        Laplacian term factor) is evaluated on its own coordinate array; only the
        products broadcast to the full shape."""
        if self.factors is not None:
            return functools.reduce(np.multiply, (ax.value(m, x) for (ax, m), x in zip(
                self.factors, coords)))  # no leading 1 * f0 copy, as math.prod would make
        power, out = self.plan.orders[0], 0.0
        for alpha in _multiindices(self.dim, power):
            term = float(factorial(power) // math.prod(factorial(a) for a in alpha))
            for ax, a, x in zip(self.base, alpha, coords):
                term = term * ax.value(2 * a, x)
            out = out + term
        return out

    # -- closed-form spectrum --------------------------------------------------

    def spectrum(self, pts) -> np.ndarray:
        """Closed form: the derivative symbol times the product of spline spectra."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.plan.kind == "partial":
            out = np.ones(len(pts), dtype=complex)
            for j, m in enumerate(self.plan.orders):
                if m:
                    out *= (2j * np.pi * pts[:, j]) ** m
        else:
            out = (-4.0 * np.pi ** 2 * np.einsum("ni,ni->n", pts, pts)) ** self.plan.orders[0] + 0j
        for j, ax in enumerate(self.base):
            out *= ax.hat(pts[:, j])
        return out

    def l1_norm(self) -> float:
        nodes, weights = quad.tensor_grid(_quad_axes(self.base))
        return float(np.sum(np.abs(self.evaluate(nodes)) * weights))

    def l2_norm(self) -> float:
        nodes, weights = quad.tensor_grid(_quad_axes(self.base))
        return float(math.sqrt(np.sum(self.evaluate(nodes) ** 2 * weights)))

    def to_json(self) -> dict:
        return {"base": [{"degree": ax.degree, "support": [ax.a, ax.b]} for ax in self.base],
                "plan": {"kind": self.plan.kind, "orders": list(self.plan.orders)},
                "moment_order": self.moment_order}

    @staticmethod
    def from_json(doc) -> "Atom":
        axes = tuple(SplineAxis(degree=int(b["degree"]), a=float(b["support"][0]),
                                b=float(b["support"][1])) for b in doc["base"])
        plan = DerivativePlan(kind=doc["plan"]["kind"],
                              orders=tuple(int(o) for o in doc["plan"]["orders"]))
        if min(plan.orders + tuple(ax.degree for ax in axes)) < 0:
            raise AtomError("atom degrees and derivative orders must be >= 0")
        want = {"partial": len(axes), "laplacian": 1}.get(plan.kind)
        if want is None:
            raise AtomError(f"plan kind must be 'partial' or 'laplacian', got {plan.kind!r}")
        if len(plan.orders) != want:
            raise AtomError(f"a {plan.kind} plan on {len(axes)} axes needs {want} orders")
        if not all(-math.inf < ax.a < ax.b < math.inf for ax in axes):
            raise AtomError("atom supports need finite bounds a < b")
        return Atom(base=axes, plan=plan, moment_order=int(doc["moment_order"]))


def _multiindices(dim: int, total: int) -> list[tuple[int, ...]]:
    """Multi-indices of length dim and sum total, in lexicographic order."""
    if dim == 1:
        return [(total,)]
    return [(head,) + rest for head in range(total + 1)
            for rest in _multiindices(dim - 1, total - head)]


def _quad_axes(base: Sequence[SplineAxis]) -> list[quad.Axis]:
    """Composite Gauss nodes over each axis's knot cells, exact on each
    polynomial piece of the spline, coarser above dimension 2."""
    panels, order = (4, 10) if len(base) <= 2 else (2, 8)  # per cell
    return [quad.Axis(*quad.composite_gauss(ax.a, ax.b, (ax.degree + 1) * panels, order))
            for ax in base]


def make_atom(spec, r: int, base: Sequence[SplineAxis]) -> Atom:
    """Apply the orbit differential operator r times over the spline base.

    Requires spline degree >= derivative order + 1 on each differentiated
    axis, which keeps the atom continuous (a working choice; no sharper
    degree bound is claimed).
    """
    if r < 0:
        raise AtomError(f"atom order must be >= 0, got {r}")
    unit = orbit_differential_operator(spec)
    if r == 0:
        plan, achieved = DerivativePlan("partial", (0,) * spec.dim), 0
    elif unit.kind == "partial":
        plan, achieved = DerivativePlan("partial", tuple(o * r for o in unit.orders)), r
    else:
        plan = DerivativePlan("laplacian", (math.ceil(r / 2),))
        achieved = 2 * plan.orders[0]
    orders = plan.orders if plan.kind == "partial" else (achieved,) * spec.dim  # highest per axis
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
        if self.origin.shape != (self.values.ndim,) or self.spacing.shape != self.origin.shape:
            raise AtomError(f"grid origin and spacing need {self.values.ndim} entries each")
        if not (np.isfinite(self.origin).all() and np.isfinite(self.spacing).all()
                and (self.spacing > 0).all()):
            raise AtomError("grid origin must be finite and spacing finite and positive")
        if min(self.values.shape, default=0) < 2:
            raise AtomError("need at least 2 samples per axis")

    @property
    def dim(self) -> int:
        return self.values.ndim

    def grid_points(self) -> np.ndarray:
        return quad.tensor_points([o + s * np.arange(n) for o, s, n in
                                   zip(self.origin, self.spacing, self.values.shape)])

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def spectrum(self, pts) -> np.ndarray:
        """Direct Fourier sums at arbitrary frequencies (Riemann weights)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        grid, out = self.grid_points(), np.empty(len(pts), dtype=complex)
        chunk = max(1, (1 << 22) // max(1, grid.shape[0]))
        for sl in (slice(start, start + chunk) for start in range(0, len(pts), chunk)):
            out[sl] = np.exp(-2j * np.pi * (pts[sl] @ grid.T)) @ self.values.ravel()
        return out * self.cell_volume()

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.cell_volume()))


def sample_atom(atom: Atom, counts: Sequence[int]) -> SampledFunction:
    box = atom.support_box()
    origin = np.array([a for a, _ in box], dtype=float)
    spacing = np.array([(b - a) / (n - 1) for (a, b), n in zip(box, counts)])
    pts = quad.tensor_points([o + s * np.arange(n) for o, s, n in zip(origin, spacing, counts)])
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
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    header = [line[1:].split() for line in lines if line[0] == "#"]
    if not all(header):
        raise AtomError("CSV header line '#' names no field")
    meta = {parts[0]: parts[1:] for parts in header}
    vals = [float(line) for line in lines if line[0] != "#"]
    try:
        counts = tuple(int(n) for n in meta["counts"])
        origin, spacing = ([float(v) for v in meta[key]] for key in ("origin", "spacing"))
    except KeyError as exc:
        raise AtomError(f"missing CSV header field: {exc}") from exc
    if min(counts, default=0) < 1 or len(vals) != math.prod(counts):
        raise AtomError(f"{len(vals)} CSV values do not fill counts {list(counts)}")
    return SampledFunction(origin=origin, spacing=spacing, values=np.reshape(vals, counts))


_BIN_MAGIC = b"ORBLETF1"


@dataclass
class GridFile:
    """A raw binary grid file at path, read and written by rows, the slices of its first
    axis: grid_file[lo:hi] reads rows lo..hi-1 into a new array and grid_file[lo:hi] = rows
    writes them from the array's own buffer, by positional reads and writes on its one
    open descriptor fd, so a row access opens nothing and workers may move rows at once.
    close() it, or leave a with block.  Raw format: magic, uint32 dim, per-axis (f64
    origin, f64 spacing, uint64 count), then row-major little-endian f64 values."""

    path: str
    origin: list
    spacing: list
    shape: tuple
    fd: int

    def __post_init__(self):
        self.start, self.row_bytes = 12 + 24 * len(self.shape), 8 * math.prod(self.shape[1:])
        self.close = weakref.finalize(self, os.close, self.fd)

    def __enter__(self) -> "GridFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def create(path: str, origin, spacing, shape) -> "GridFile":
        """Create or truncate path with this header, unchecked, and a zero payload."""
        with open(path, "w+b") as fh:
            grid = GridFile(path, origin, spacing, shape, os.dup(fh.fileno()))
            fh.write(_BIN_MAGIC + struct.pack("<I", len(grid.shape)) + b"".join(
                struct.pack("<ddQ", *axis) for axis in zip(origin, spacing, grid.shape)))
            fh.truncate(grid.start + grid.row_bytes * grid.shape[0])
        return grid

    @staticmethod
    def open(path: str) -> "GridFile":
        """The grid file at path, refused with AtomError before any value is read for a bad
        magic or short header, a header of no valid grid, or a payload of another length."""
        with open(path, "rb") as fh:
            size, head = os.fstat(fh.fileno()).st_size, fh.read(12)
            if head[:8] != _BIN_MAGIC:
                raise AtomError("bad magic in binary grid file")
            if len(head) < 12 or size < (start := 12 + 24 * struct.unpack_from("<I", head, 8)[0]):
                raise AtomError(f"truncated binary grid header: {size} bytes")
            axes = list(struct.iter_unpack("<ddQ", fh.read(start - 12)))
            origin, spacing, counts = ([axis[j] for axis in axes] for j in range(3))
            SampledFunction(origin, spacing, np.broadcast_to(0.0, counts))  # checks the header
            if size - start != 8 * math.prod(counts):
                raise AtomError(f"binary grid payload has {size - start} bytes, counts "
                                f"{counts} need {8 * math.prod(counts)}")
            return GridFile(path, origin, spacing, tuple(counts), os.dup(fh.fileno()))

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, _ = rows.indices(self.shape[0])
        values = np.empty((max(hi - lo, 0),) + self.shape[1:], "<f8")
        self._move(os.preadv, values, lo)
        return values

    def __setitem__(self, rows: slice, values) -> None:
        lo, hi, _ = rows.indices(self.shape[0])
        values = np.broadcast_to(values, (max(hi - lo, 0),) + self.shape[1:])
        self._move(os.pwritev, np.ascontiguousarray(values, dtype="<f8"), lo)

    def _move(self, io, values: np.ndarray, lo: int) -> None:
        """io (os.preadv or os.pwritev) over every byte of values, from row lo on."""
        view, pos = values.reshape(-1).view(np.uint8), self.start + lo * self.row_bytes
        while view.size:
            if not (done := io(self.fd, [view], pos)):
                raise AtomError(f"binary grid file {self.path} ends at byte {pos}")
            view, pos = view[done:], pos + done


def sampled_to_binary(fn: SampledFunction, path: str) -> None:
    """Write fn as a raw binary grid file (GridFile), from the array's own buffer."""
    with GridFile.create(path, fn.origin, fn.spacing, fn.values.shape) as grid:
        grid[:] = fn.values


def sampled_from_binary(path: str) -> SampledFunction:
    """Read a raw binary grid file whole, into one array; a bad header or a payload of
    another length than its counts need raises AtomError before any allocation."""
    with GridFile.open(path) as grid:
        return SampledFunction(origin=grid.origin, spacing=grid.spacing, values=grid[:])


# ---------------------------------------------------------------------------
# vanishing-moment verification
# ---------------------------------------------------------------------------

def _report_json(report) -> dict:
    """Every field of a report dataclass, arrays as lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(report).items()}


@dataclass
class SpectrumProbe:
    eta_points: np.ndarray
    fitted_orders: list   # None where the probe line lies in the zero set of psi_hat
    fit_residuals: list
    fitted_order: Optional[float]   # least over the informative probes, None without one
    moment_max_rel: float
    moments_pass: bool
    r_claimed: int
    verdict: str  # verified | failed | inconclusive

    to_json = _report_json


def _complement_probes(orbit: ob.OrbitDescriptor):
    """Points eta = v (1 - e_a) of O^c, per block start a, with normal e_a (v = 5: far field)."""
    d = orbit.dim
    if orbit.kind == ob.PUNCTURED:
        return [(np.zeros(d), u)
                for u in (np.eye(d)[0], -np.eye(d)[0], np.ones(d) / math.sqrt(d))]
    starts = _block_starts(orbit, "probe layout")
    return [(np.where(np.arange(d) == a, 0.0, v), np.eye(d)[a])  # +0.0 at a, never -0.0
            for a in starts for v in ((0.0, 0.5, -1.0, 1.5, 5.0) if len(starts) == 1 else (1.0,))]


def _slope_fit(spectrum, eta, u):
    """(order, residual) of a line fit to log |psi_hat(eta + t u)| against log t,
    or (None, None) when fewer than 4 samples clear the underflow floor: such a
    line lies in the zero set of psi_hat and refutes no order."""
    ts = 1e-2 * (2 ** -0.5) ** np.arange(12)
    pts = eta[None, :] + ts[:, None] * u[None, :]
    vals = np.abs(spectrum(pts))
    good = vals > 1e-280
    if good.sum() < 4:
        return None, None
    x, y = np.log(ts[good]), np.log(vals[good])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))


def verify_vanishing_moments(psi, orbit: ob.OrbitDescriptor, r_claimed: int,
                             moment_tol: float = 1e-6) -> SpectrumProbe:
    """Fit spectral decay orders into O^c and check moment integrals.

    The slope fit uses the (closed-form or sampled) spectrum along lines
    eta + t u with geometric t; the moment integrals int x^alpha psi(x)
    e^(-2 pi i <eta, x>) dx for |alpha| < r_claimed are evaluated by
    quadrature and compared against moment_tol relative to the L1 mass.
    A slope-fit residual above 0.1, or no informative probe, makes the
    verdict inconclusive.
    """
    probes = _complement_probes(orbit)
    slopes, resids = zip(*(_slope_fit(psi.spectrum, eta, u) for eta, u in probes))
    fitted = min((s for s in slopes if s is not None), default=None)
    informative = [r for r in resids if r is not None]

    parts = _moment_factors(psi)
    l1 = math.prod(float(np.sum(np.abs(vals) * wts)) for _, _, wts, vals in parts)
    max_rel = max((float(abs(moment)) / max(l1, mass, 1e-300) for moment, mass
                   in _moments(parts, [eta for eta, _ in probes], r_claimed)), default=0.0)
    moments_pass = bool(max_rel <= moment_tol)

    verdict = ("inconclusive" if not informative or max(informative) > 0.1 else
               "verified" if moments_pass and fitted >= r_claimed - 0.1 else "failed")
    return SpectrumProbe(eta_points=np.array([e for e, _ in probes]),
                         fitted_orders=list(slopes), fit_residuals=list(resids),
                         fitted_order=fitted, moment_max_rel=max_rel, moments_pass=moments_pass,
                         r_claimed=r_claimed, verdict=verdict)


def _moment_factors(psi):
    """Quadrature of the moment integrals as (coordinate slice, points, weights,
    values) factors whose sums multiply: one per axis for a partial atom, on
    the nodes of _quad_axes, and one over all coordinates otherwise."""
    if getattr(psi, "factors", None) is not None:
        return [(slice(j, j + 1), ax.nodes[:, None], ax.weights, spline.value(m, ax.nodes))
                for j, ((spline, m), ax) in enumerate(zip(psi.factors, _quad_axes(psi.base)))]
    if isinstance(psi, Atom):
        pts, wts = quad.tensor_grid(_quad_axes(psi.base))
        return [(slice(None), pts, wts, psi.evaluate(pts))]
    pts = psi.grid_points()
    return [(slice(None), pts, np.full(len(pts), psi.cell_volume()), psi.values.ravel())]


def _moments(parts, etas, r: int):
    """(int x^alpha psi(x) e^(-2 pi i <eta, x>) dx, int |x^alpha psi(x)| dx) for
    each eta and |alpha| < r, each the product of its sums over the factors."""
    for eta in etas:
        phases = [np.exp(-2j * np.pi * (pts @ eta[sl])) for sl, pts, _, _ in parts]
        for alpha in (a for total in range(r) for a in _multiindices(len(eta), total)):
            moment, mass = 1.0, 1.0
            for (sl, pts, wts, vals), phase in zip(parts, phases):
                mono = np.ones(len(pts))
                for j, a in enumerate(alpha[sl]):
                    if a:
                        mono *= pts[:, j] ** a
                moment = moment * np.sum(vals * mono * phase * wts)
                mass *= float(np.sum(np.abs(vals * mono) * wts))
            yield moment, mass


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    verdict: str                   # finite | divergent | inconclusive
    inner_shells: np.ndarray       # toward O^c
    outer_shells: np.ndarray       # toward infinity
    total: float

    to_json = _report_json


def _tail_verdict(shells: np.ndarray) -> str:
    """finite: the last 5 nonzero terms decay geometrically; divergent: they stay
    flat or grow (partial sums keep climbing, covering logarithmic divergence)."""
    shells = np.asarray(shells, dtype=float)
    nz = shells[shells > 0]
    if len(nz) < 5:
        return "finite" if shells.sum() == 0 or len(nz) <= 1 else "inconclusive"
    ratios = nz[-4:] / nz[-5:-1]
    return ("finite" if (ratios < 0.9).all() else
            "divergent" if (ratios >= 0.98).all() else "inconclusive")


def admissibility_check(spec, psi) -> AdmissibilityReport:
    """Dyadic shell test of int |psi_hat|^2 Phi d xi.

    Phi is the family's orbit density.  A shell is where the least |xi_a| over the
    block starts a lies in [lo, hi) (a polar ring on the punctured plane); shells run
    toward the orbit complement and toward infinity.  The verdict is geometric-ratio
    based (finite when the last four ratios stay below 0.9, divergent when they grow)
    because the integral is improper at both ends.  When psi is a partial atom and Phi
    a product of axis powers, the integrand is a quad.Product, so every shell term is
    the product of 1-D sums; otherwise it runs on the tensor grid.
    """
    orbit, d = ob.orbit_of(spec), spec.dim
    n_shells, rest_order = 14, 8
    factors, powers = getattr(psi, "factors", None), ob.density_exponents(spec)

    if factors is not None and powers is not None:
        density_weighted = quad.Product(tuple(
            lambda xi, spline=spline, m=m, p=p:
                np.abs((2j * np.pi * xi) ** m * spline.hat(xi)) ** 2 * np.abs(xi) ** -p
            for (spline, m), p in zip(factors, powers)))
    else:
        def density_weighted(pts):
            return np.abs(psi.spectrum(pts)) ** 2 * ob.orbit_density(spec, pts)

    if orbit.kind == ob.PUNCTURED and d == 2:
        angles = quad.Axis(*quad.composite_gauss(0.0, 2 * math.pi, 16, 8))

        def shell_integral(lo, hi):
            radial = quad.Axis(*quad.composite_gauss(lo, hi, 1, 12))

            def polar(pts):
                rho, th = pts[:, 0], pts[:, 1]
                xy = np.stack([rho * np.cos(th), rho * np.sin(th)], axis=1)
                return density_weighted(xy) * rho

            return quad.tensor_eval([radial, angles], polar)

    else:
        starts = _block_starts(orbit, "admissibility shells")
        rest = quad.Axis(*quad.signed_dyadic_axis(-4, 5, rest_order, include_center=True))
        tail = quad.Axis(*quad.signed_dyadic_axis(-n_shells - 1, 5, rest_order))
        # one positive term per nonempty set S of starts in the ring, the others past it
        subsets = [S for n in range(1, len(starts) + 1) for S in itertools.combinations(starts, n)]

        def shell_integral(lo, hi):
            ring, keep = quad.mirrored(*quad.composite_gauss(lo, hi, 1, 10)), np.abs(tail.nodes) >= hi
            clipped = quad.Axis(tail.nodes[keep], tail.weights[keep])
            return sum(quad.integrate([ring if j in S else clipped if j in starts else rest
                                       for j in range(d)], density_weighted) for S in subsets)

    inner = np.array([shell_integral(2.0 ** (-k - 1), 2.0 ** (-k)) for k in range(n_shells)])
    outer = np.array([shell_integral(2.0 ** k, 2.0 ** (k + 1)) for k in range(n_shells)])
    v_in, v_out = _tail_verdict(inner), _tail_verdict(outer)
    verdict = ("divergent" if "divergent" in (v_in, v_out) else
               "finite" if v_in == v_out == "finite" else "inconclusive")
    return AdmissibilityReport(verdict=verdict, inner_shells=inner, outer_shells=outer,
                               total=float(inner.sum() + outer.sum()))


@dataclass
class BandlimitedBump:
    """Synthetic spectrum supported on a frequency box (testing aid)."""

    box: tuple  # per-axis (lo, hi)

    def spectrum(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))[:, :len(self.box)]
        lo, hi = np.array(self.box, dtype=float).T
        return ((pts >= lo) & (pts <= hi)).all(axis=1).astype(complex)
