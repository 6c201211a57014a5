"""Desk-scale continuous wavelet analysis.

Coefficients are inner products of a signal with translated/dilated atoms on a finite
grid; synthesis is the Riemann-sum adjoint over the sampled group region.  Both run as
circular FFT products of one shape per grid (circular_shape) and reproduce the direct
quadrature sums to machine precision (well inside the 1e-8 contract).  One atom is sampled
per orbit of the dilations under h -> -h and h -> RhR (_blocks); the spectra of the other
members are index permutations of its spectrum (_spectra).  The orbits run in fixed blocks,
optionally on worker threads that hold one spectrum at a time, rows stream to and from
coefficient files, and block sums are added in block order, so results do not depend on
the thread count.

The Calderon-type constant is the admissibility integral restricted to the sampled
dilation box, so round trips are self-consistent on the truncated group; exactness only
holds in the continuum limit, which the refinement trend tests monitor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra as al
from . import atoms as at
from . import embeddedness as em
from . import groups as gr
from . import quadrature as quad


class TransformError(al.OrbitletError):
    pass


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass
class TransformGrid:
    """Translation lattice plus sampled dilations with Haar cell weights."""

    origin: np.ndarray
    spacing: np.ndarray
    counts: tuple
    dilations: np.ndarray         # (n, d, d); GroupElements or matrices get stacked
    dilation_weights: np.ndarray  # left-Haar cell measure per sample

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.spacing = np.asarray(self.spacing, dtype=float)
        if not len(self.dilations):
            raise TransformError("empty dilation sampling")
        self.dilations = np.array([gr.as_matrix(h) for h in self.dilations])
        if len(self.dilations) != len(self.dilation_weights):
            raise TransformError("dilation weights mismatch")
        p = len(self.dilations) // 2  # +-h pairs (i, p + i) when the halves are exact negatives
        self.pairs = p if np.array_equal(self.dilations[p:2 * p], -self.dilations[:p]) else 0

    @property
    def dim(self) -> int:
        return len(self.counts)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def lattice_points(self) -> np.ndarray:
        return quad.tensor_points([self.origin[j] + self.spacing[j] * np.arange(n)
                                   for j, n in enumerate(self.counts)])


def shearlet_dilation_samples(spec, r_max: float = 3.0, n_r: int = 25,
                              t_max: float = 2.0, n_t: int = 9):
    """Uniform (r, t) lattice over [-r_max, r_max] x [-t_max, t_max]^(d-1).

    Returns (n, d, d) matrices ordered by eps, then r, then t, and cell
    weights carrying the left Haar density exp(r (trace Y - d))."""
    if not all(math.isfinite(v) and v > 0 for v in (r_max, t_max)) or min(n_r, n_t) < 1:
        raise TransformError("dilation box needs finite r_max, t_max > 0 and n_r, n_t >= 1, "
                             f"got {r_max},{n_r},{t_max},{n_t}")
    chart = gr.shear_chart(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        rs, ts = np.linspace(-r_max, r_max, n_r), np.linspace(-t_max, t_max, n_t)
        dr = rs[1] - rs[0] if n_r > 1 else 2.0 * r_max
        dt = ts[1] - ts[0] if n_t > 1 else 2.0 * t_max
        pts = quad.tensor_points([(1, -1), rs] + [ts] * (chart.dim - 1))
        eps, r, t = pts[:, 0], pts[:, 1], pts[:, 2:]
        mats, weights = chart.matrices(eps, r, t), chart.haar(r) * dr * dt ** (chart.dim - 1)
        dets = chart.det(r), chart.det(-r)  # |det h| and its inverse
    if not all(np.isfinite(a).all() for a in (mats, weights, *dets)):
        raise TransformError(f"dilation box {r_max},{n_r},{t_max},{n_t} overflows")
    return mats, weights


def make_transform_grid(spec, signal: at.SampledFunction, r_max: float = 3.0, n_r: int = 25,
                        t_max: float = 2.0, n_t: int = 9) -> TransformGrid:
    mats, weights = shearlet_dilation_samples(spec, r_max, n_r, t_max, n_t)
    return TransformGrid(origin=signal.origin, spacing=signal.spacing,
                         counts=signal.values.shape, dilations=mats, dilation_weights=weights)


@dataclass
class CoefficientField:
    grid: TransformGrid
    values: np.ndarray  # (n_dilations, *translation counts): an array, or a GridFile read by rows


def coefficient_file(path: str, grid: TransformGrid) -> at.GridFile:
    """A new coefficient file for grid: row i holds dilation i (index axis: origin 0, spacing 1)."""
    return at.GridFile.create(path, [0.0, *grid.origin], [1.0, *grid.spacing],
                              (len(grid.dilations), *grid.counts))


# ---------------------------------------------------------------------------
# quasi-regular representation
# ---------------------------------------------------------------------------

def quasi_regular_evaluate(x, h, psi, pts) -> np.ndarray:
    """[pi(x, h) psi](pts) = |det h|^(-1/2) psi(h^-1 (pts - x))."""
    mat = gr.as_matrix(h)
    det = abs(float(np.linalg.det(mat)))
    if det == 0:
        raise TransformError("singular dilation")
    inv, pts = np.linalg.inv(mat), np.atleast_2d(np.asarray(pts, dtype=float))
    return det ** -0.5 * psi.evaluate((pts - x) @ inv.T)


def quasi_regular_apply(x, h, psi, grid: TransformGrid) -> at.SampledFunction:
    vals = quasi_regular_evaluate(x, h, psi, grid.lattice_points())
    return at.SampledFunction(origin=grid.origin, spacing=grid.spacing,
                              values=vals.reshape(grid.counts))


# ---------------------------------------------------------------------------
# lattice sampling of dilated atoms, circular spectra, dilation blocks
# ---------------------------------------------------------------------------

def circular_shape(counts) -> tuple:
    """Per axis the smallest 2-3-5-smooth P >= 2n - 1: lattice offsets stay
    within +-(n - 1), so circular correlations of this shape never alias."""
    def smooth(p):
        for q in (2, 3, 5):
            while p % q == 0:
                p //= q
        return p == 1
    return tuple(next(p for p in range(2 * n - 1, 4 * n) if smooth(p)) for n in counts)


def _atom_spectra(psi, grid: TransformGrid, shape):
    """spectrum(i): rFFT of g[m] = |det h_i|^(-1/2) psi(h_i^-1 m * spacing) at m mod shape.

    The offset boxes (the support-box corners mapped through every dilation; they hold 0
    and are clipped to +-(n - 1), which is exact since farther offsets never enter the
    sums), the inverses and |det|^(-1/2) are taken once per grid.  Coordinate i of h^-1 x
    sums inv[i, j] x_j over the nonzero entries of row i, x_j being the axis-j offsets
    broadcast along axis j, so each factor of psi is sampled only over the axes its row
    reaches (axes i..d for the upper triangular inverses of shear charts).
    """
    mapped = np.einsum("nij,kj->nki", grid.dilations, quad.tensor_points(psi.support_box()))
    cap = np.array(grid.counts) - 1
    lo = np.maximum(np.minimum(np.floor(mapped.min(axis=1) / grid.spacing) - 1, 0), -cap)
    hi = np.minimum(np.maximum(np.ceil(mapped.max(axis=1) / grid.spacing) + 1, 0), cap)
    lo, hi, invs = lo.astype(int), hi.astype(int), np.linalg.inv(grid.dilations)
    norms, axes = np.abs(np.linalg.det(grid.dilations)) ** -0.5, tuple(range(grid.dim))

    def spectrum(i):
        xs = np.ix_(*[np.arange(a, b + 1) * s for a, b, s in zip(lo[i], hi[i], grid.spacing)])
        values = psi.evaluate_coords([sum(c * x for c, x in zip(row, xs) if c) for row in invs[i]])
        values *= norms[i]  # in place: the scaled values go straight into the embedding
        embedded = np.zeros(shape)
        runs = [((slice(-a, None), slice(0, b + 1)), (slice(0, -a), slice(p + a, p)))
                for a, b, p in zip(lo[i], hi[i], shape)]  # (values, embedded): m >= 0, m < 0
        for run in itertools.product(*runs):  # offset m lands at m mod P, 2^d slices
            embedded[tuple(to for _, to in run)] = values[tuple(of for of, _ in run)]
        del values  # only the embedding is held while its spectrum is taken
        return np.fft.rfftn(embedded, shape, axes=axes)

    return spectrum


def _blocks(psi, grid: TransformGrid) -> list:
    """The dilations' orbits under h -> -h and h -> RhR in fixed blocks of 8 orbits, so block
    sums never depend on the threads.  R = diag(1, +-1, ...) takes part when psi(Rx) = tau
    psi(x) (Atom.reflection_sign).  The first members i of the +-h pairs (i, pairs + i), then
    the singles, start an orbit each unless an earlier one holds them, and RhR is looked up
    among them by value (float ==, as np.array_equal: -0.0 finds 0.0).  An orbit holds
    (i, the index of -h_i or None, the axes R flips, tau) per member, its sampled one first."""
    d, p = grid.dim, grid.pairs
    signs = [(f, tau, 1.0 - 2.0 * np.isin(range(d), f)) for k in range(d)  # k = 0: R = I
             for f in itertools.combinations(range(1, d), k) if (tau := psi.reflection_sign(f))]
    firsts, orbits, seen = [*range(p), *range(2 * p, len(grid.dilations))], [], set()
    index = {tuple(grid.dilations[i].ravel().tolist()): i for i in firsts}
    for i in (i for i in firsts if i not in seen):
        orbits.append([])
        for f, tau, r in signs:
            j = index.get(tuple((r[:, None] * grid.dilations[i] * r).ravel().tolist())) if f else i
            if j is not None and j not in seen:
                orbits[-1].append((j, p + j if j < p else None, f, tau))
                seen.add(j)
    return [orbits[b:b + 8] for b in range(0, len(orbits), 8)]


def _spectra(spectrum, block):
    """(i, the index of -h_i or None, G_i) per member of a block's orbits, from one sampled G_h
    per orbit: G_RhR[k] = tau G_h[Rk], k_j taken mod P_j, or tau conj(G_h[-Rk]) when R flips
    the last axis, which the rFFT halves.  R never flips axis 0, so G_RhR is a new array."""
    for orbit in block:
        g_h = spectrum(orbit[0][0])
        for i, minus, flips, tau in orbit:
            g, last = g_h, g_h.ndim - 1 in flips
            for j in (j for j in range(g.ndim - 1) if (j in flips) != last):
                g = np.take(g, -np.arange(g.shape[j]) % g.shape[j], axis=j)
            if last:
                np.conj(g, out=g)
            if tau < 0:
                np.negative(g, out=g)
            if i == orbit[-1][0]:  # G_h is held only until the orbit's last spectrum is derived
                del g_h
            yield i, minus, g
            del g  # nor is any spectrum held once the consumer drops it


# ---------------------------------------------------------------------------
# analyze / synthesize
# ---------------------------------------------------------------------------

def analyze(f: at.SampledFunction, psi, grid: TransformGrid,
            threads: int = 1, out=None) -> CoefficientField:
    """Wavelet coefficients <f, pi(x, h) psi> by lattice quadrature.

    W_i[k] = vol * sum_m f[k + m] g_i[m] is F * conj(G_i) on the circular shape; the
    signal spectrum F is taken once, the atom spectra once per orbit (_spectra).  The -h
    row is sigma W_h when psi has a parity sigma, else it uses G_-h = conj(G_h).  Each row
    is stored into out as soon as it is computed: a new array by default, or a row store
    (coefficient_file)."""
    if f.values.shape != tuple(grid.counts) or not (
            np.allclose(f.spacing, grid.spacing) and np.allclose(f.origin, grid.origin)):
        raise TransformError("signal grid does not match the transform grid")
    vol, shape, axes = grid.cell_volume(), circular_shape(grid.counts), tuple(range(grid.dim))
    window = tuple(slice(0, n) for n in grid.counts)
    spec_f = np.fft.rfftn(f.values, shape, axes=axes)
    out = np.empty((len(grid.dilations),) + tuple(grid.counts)) if out is None else out
    atom_spectrum, sigma = _atom_spectra(psi, grid, shape), psi.parity()

    def run(block):
        for i, minus, g in _spectra(atom_spectrum, block):
            row = np.fft.irfftn(np.conj(g) * spec_f, shape, axes=axes)[window] * vol
            out[i:i + 1] = row
            if minus is not None:  # W_-h from G_-h = conj(G_h), or sigma W_h, scaled in place
                if sigma is None:
                    row = np.fft.irfftn(g * spec_f, shape, axes=axes)[window] * vol
                out[minus:minus + 1] = row if sigma is None else np.multiply(row, sigma, out=row)
            del g, row  # dropped before the next spectrum is derived, the worker's peak

    list(quad.parallel_map(run, _blocks(psi, grid), threads))  # workers store their own rows
    return CoefficientField(grid=grid, values=out)


def synthesize(coeffs: CoefficientField, psi, grid: TransformGrid,
               c_psi: float, threads: int = 1) -> at.SampledFunction:
    """Riemann-sum inversion over the sampled (x, h) range.

    Uses the measure |det h|^-1 dx dh: translation cells weigh cell_volume, dilation cells
    weigh their Haar measure over |det h| (s_i in all).  The sum of s_i C_i * G_i runs in
    frequency space, the atom spectra taken once per orbit (_spectra), block sums added in
    block order, one inverse FFT at the end; a +-h pair adds C_-h * conj(G_h), or with a
    parity sigma the folded (s_h C_h + sigma s_-h C_-h) * G_h from one FFT.  A worker reads
    only the rows of the pair at hand and refuses them unless finite, as is a reconstruction
    that overflows (a tiny c_psi or huge coefficients)."""
    if not (math.isfinite(c_psi) and c_psi > 0):
        raise TransformError(f"c_psi must be finite and > 0, got {c_psi}")
    if coeffs.values.shape != (len(grid.dilations),) + tuple(grid.counts):
        raise TransformError("coefficient field does not match the transform grid")
    shape, axes = circular_shape(grid.counts), tuple(range(grid.dim))
    scale = grid.dilation_weights / np.abs(np.linalg.det(grid.dilations))
    atom_spectrum, sigma = _atom_spectra(psi, grid, shape), psi.parity()

    def run(block):
        acc = 0.0
        for i, minus, g in _spectra(atom_spectrum, block):
            pair = (i,) if minus is None else (i, minus)
            rows = [coeffs.values[j:j + 1][0] for j in pair]  # only the pair's rows are read
            if not all(np.isfinite(row).all() for row in rows):
                raise TransformError(f"coefficients of dilations {list(pair)} not finite")
            if len(rows) == 2 and sigma is not None:  # G_-h = sigma G_h: one FFT for the pair
                rows = [scale[i] * rows[0] + sigma * scale[minus] * rows[1]]
                acc += np.fft.rfftn(rows[0], shape, axes=axes) * g
            else:
                for j, row, g in zip(pair, rows, (g, np.conj(g))):
                    acc += np.fft.rfftn(row, shape, axes=axes) * g * scale[j]  # as acc + s (F g)
            del g, rows  # dropped before the next spectrum is derived, the worker's peak
        return acc

    total = sum(quad.parallel_map(run, _blocks(psi, grid), threads))
    acc = np.fft.irfftn(total, shape, axes=axes)[tuple(slice(0, n) for n in grid.counts)]
    acc *= grid.cell_volume() / c_psi
    if not np.isfinite(acc).all():
        raise TransformError(f"reconstruction with c_psi {c_psi} is not finite")
    return at.SampledFunction(origin=grid.origin, spacing=grid.spacing, values=acc)


def calderon_constant(spec, psi, r_max: float = 3.0, t_max: float = 2.0) -> float:
    """Admissibility integral restricted to the sampled dilation box, by
    order-8 Gauss panels, four per unit length.  psi is real (every atom is): |psi^|^2
    is even, so it is taken once per node, one r panel of nodes at a time."""
    chart = gr.shear_chart(spec)
    axes = [quad.Axis(*quad.composite_gauss(-b, b, max(1, int(8 * b)), 8))
            for b in [r_max] + [t_max] * (chart.dim - 1)]
    panel = 8 * math.prod(len(ax.nodes) for ax in axes[1:])  # grid rows of one r panel

    def integrand(pts):
        values = np.empty(len(pts))
        for lo in range(0, len(pts), panel):
            r, t = pts[lo:lo + panel, 0], pts[lo:lo + panel, 1:]
            values[lo:lo + panel] = np.abs(psi.spectrum(chart.dual(1.0, r, t))) ** 2 * chart.haar(r)
        return 2.0 * values  # |psi^(xi)|^2 + |psi^(-xi)|^2, exactly, as psi is real

    return quad.tensor_eval(axes, integrand)


# ---------------------------------------------------------------------------
# coefficient norms
# ---------------------------------------------------------------------------

def coefficient_norm(coeffs: CoefficientField, weight: em.WeightSpec) -> float:
    """Discrete surrogate of the mixed (p, q) coefficient norm.

    Inner weighted l^p over translations (weight v(x,h)^p and cell volume), outer l^q
    over dilations with cell weight Haar measure / |det h|; v(x, h) = (1 + |x| + ||h||)^s
    w(h).  coeffs.values is read one row at a time."""
    grid = coeffs.grid
    p, q, s = weight.p, weight.q, float(weight.s)
    xnorm = np.linalg.norm(grid.lattice_points(), axis=1).reshape(grid.counts)
    vol, mats = grid.cell_volume(), grid.dilations
    sv = np.linalg.svd(mats, compute_uv=False)
    w_h, _ = em.base_weight_arrays(weight, sv[:, 0], 1.0 / sv[:, -1],
                                   gr.ShearChart.delta_g(mats))

    def row_norm(i, vals):
        block = np.abs(vals) * ((1.0 + xnorm + sv[i, 0]) ** s * w_h[i])
        return block.max() if math.isinf(p) else float(np.sum(block ** p) * vol) ** (1.0 / p)

    with np.errstate(all="ignore"):  # a norm that is not finite is refused below
        inner = np.array([row_norm(i, coeffs.values[i:i + 1][0]) for i in range(len(mats))])
        outer_w = grid.dilation_weights / np.abs(np.linalg.det(mats))
        norm = float(inner.max() if math.isinf(q) else np.sum(inner ** q * outer_w) ** (1.0 / q))
    if not math.isfinite(norm):
        raise TransformError(f"coefficient norm is {norm}, not a finite number")
    return norm


# ---------------------------------------------------------------------------
# bundled test signals
# ---------------------------------------------------------------------------

def modulated_gaussian(extent: float = 4.0, n: int = 64,
                       carrier=(1.0, 0.15), sigma: float = 1.2) -> at.SampledFunction:
    """Real 2-D signal with spectrum in Gaussian bumps at +-carrier.

    The bumps sit inside the open orbit with comfortable margin against the default
    dilation sampling box, which makes the truncated reproduction nearly exact in the
    continuum limit."""
    axes = [np.linspace(-extent, extent, n, endpoint=False)] * 2
    pts, carrier = quad.tensor_points(axes), np.asarray(carrier, dtype=float)[:2]
    phase = np.cos(2.0 * np.pi * (pts @ carrier))
    envelope = np.exp(-np.einsum("ni,ni->n", pts, pts) / (2.0 * sigma ** 2))
    vals = (phase * envelope).reshape(n, n)
    return at.SampledFunction(origin=[ax[0] for ax in axes],
                              spacing=[ax[1] - ax[0] for ax in axes], values=vals)


def bundled_signals(n: int = 64) -> dict:
    return {"narrow": modulated_gaussian(n=n, carrier=(1.0, 0.15), sigma=1.2),
            "sheared": modulated_gaussian(n=n, carrier=(0.9, -0.4), sigma=1.4),
            "wide": modulated_gaussian(n=n, carrier=(1.2, 0.0), sigma=0.9)}


def roundtrip_error(spec, psi, signal: at.SampledFunction, r_max: float = 3.0, n_r: int = 25,
                    t_max: float = 2.0, n_t: int = 9) -> float:
    """Relative L2 error of analyze -> synthesize on the sampled group box."""
    grid = make_transform_grid(spec, signal, r_max=r_max, n_r=n_r, t_max=t_max, n_t=n_t)
    c_psi = calderon_constant(spec, psi, r_max=r_max, t_max=t_max)
    recon = synthesize(analyze(signal, psi, grid), psi, grid, c_psi)
    return float(np.linalg.norm(recon.values - signal.values) / np.linalg.norm(signal.values))
