"""Desk-scale continuous wavelet analysis.

Coefficients are inner products of a signal with translated/dilated atoms on
a finite grid; synthesis is the Riemann-sum adjoint over the sampled group
region.  Correlations and convolutions over the translation lattice run
through zero-padded FFTs, which reproduce the direct quadrature sums to
machine precision (well inside the 1e-8 contract).

The Calderon-type constant is the admissibility integral restricted to the
sampled dilation box, so round trips are self-consistent on the truncated
group; exactness only holds in the continuum limit, which the refinement
trend tests monitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import atoms as at
from . import embeddedness as em
from . import groups as gr
from . import quadrature as quad


class TransformError(ValueError):
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
    weights carrying the left Haar density exp(r (trace Y - d)).
    """
    if not all(math.isfinite(v) and v > 0 for v in (r_max, t_max)) or min(n_r, n_t) < 1:
        raise TransformError("dilation box needs finite r_max, t_max > 0 and n_r, n_t >= 1, "
                             f"got {r_max},{n_r},{t_max},{n_t}")
    chart = gr.shear_chart(spec)
    d = chart.dim
    rs = np.linspace(-r_max, r_max, n_r)
    dr = rs[1] - rs[0] if n_r > 1 else 2.0 * r_max
    ts = np.linspace(-t_max, t_max, n_t)
    dt = ts[1] - ts[0] if n_t > 1 else 2.0 * t_max
    pts = quad.tensor_points([(1, -1), rs] + [ts] * (d - 1))
    eps, r, t = pts[:, 0], pts[:, 1], pts[:, 2:]
    return chart.matrices(eps, r, t), chart.haar(r) * dr * dt ** (d - 1)


def make_transform_grid(spec, signal: at.SampledFunction, r_max: float = 3.0,
                        n_r: int = 25, t_max: float = 2.0,
                        n_t: int = 9) -> TransformGrid:
    mats, weights = shearlet_dilation_samples(spec, r_max, n_r, t_max, n_t)
    return TransformGrid(origin=signal.origin, spacing=signal.spacing,
                         counts=signal.values.shape, dilations=mats,
                         dilation_weights=weights)


@dataclass
class CoefficientField:
    grid: TransformGrid
    values: np.ndarray  # (n_dilations, *translation counts)

    def to_binary(self, path: str) -> None:
        fn = at.SampledFunction(
            origin=np.concatenate([[0.0], self.grid.origin]),
            spacing=np.concatenate([[1.0], self.grid.spacing]),
            values=self.values)
        at.sampled_to_binary(fn, path)


# ---------------------------------------------------------------------------
# quasi-regular representation
# ---------------------------------------------------------------------------

def quasi_regular_evaluate(x, h, psi, pts) -> np.ndarray:
    """[pi(x, h) psi](pts) = |det h|^(-1/2) psi(h^-1 (pts - x))."""
    mat = gr.as_matrix(h)
    x = np.asarray(x, dtype=float)
    det = abs(float(np.linalg.det(mat)))
    if det == 0:
        raise TransformError("singular dilation")
    inv = np.linalg.inv(mat)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return det ** -0.5 * psi.evaluate((pts - x) @ inv.T)


def quasi_regular_apply(x, h, psi, grid: TransformGrid) -> at.SampledFunction:
    vals = quasi_regular_evaluate(x, h, psi, grid.lattice_points())
    return at.SampledFunction(origin=grid.origin, spacing=grid.spacing,
                              values=vals.reshape(grid.counts))


# ---------------------------------------------------------------------------
# lattice sampling of dilated atoms + FFT correlation helpers
# ---------------------------------------------------------------------------

def _dilated_lattice_sample(psi, mat: np.ndarray, spacing, max_index=None):
    """Sample |det h|^(-1/2) psi(h^-1 z) on the lattice z = m * spacing.

    Returns (values array, per-axis lower index m_lo); index ranges cover the
    transformed support box, always include 0, and are clipped to
    +-max_index per axis (offsets beyond the signal lattice never enter the
    correlation sums, so clipping is exact).
    """
    det = abs(float(np.linalg.det(mat)))
    inv = np.linalg.inv(mat)
    mapped = quad.tensor_points(psi.support_box()) @ mat.T
    lo = np.floor(mapped.min(axis=0) / spacing).astype(int) - 1
    hi = np.ceil(mapped.max(axis=0) / spacing).astype(int) + 1
    lo = np.minimum(lo, 0)
    hi = np.maximum(hi, 0)
    if max_index is not None:
        cap = np.asarray(max_index, dtype=int)
        lo = np.maximum(lo, -cap)
        hi = np.minimum(hi, cap)
    pts = quad.tensor_points([np.arange(l, h_ + 1) * s
                              for l, h_, s in zip(lo, hi, spacing)])
    vals = det ** -0.5 * psi.evaluate(pts @ inv.T)
    shape = tuple(h_ - l + 1 for l, h_ in zip(lo, hi))
    return vals.reshape(shape), lo


def _fft_correlate(f: np.ndarray, g: np.ndarray, g_lo) -> np.ndarray:
    """W[k] = sum_m f[k + m] g[m], m indexed from g_lo; W on f's index range."""
    conv = _fft_convolve_full(f, g[tuple(slice(None, None, -1) for _ in g.shape)])
    # conv_full[u] = sum_j f[j] g_rev[u - j]; W[k] = conv_full[k + (M - 1) + g_lo]
    offs = [k + (m - 1) + l for k, m, l in zip((0,) * f.ndim, g.shape, g_lo)]
    slices = tuple(slice(o, o + n) for o, n in zip(offs, f.shape))
    return conv[slices]


def _fft_convolve_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    shape = tuple(n + m - 1 for n, m in zip(a.shape, b.shape))
    axes = tuple(range(a.ndim))
    fa = np.fft.rfftn(a, shape, axes=axes)
    fb = np.fft.rfftn(b, shape, axes=axes)
    return np.fft.irfftn(fa * fb, shape, axes=axes)


def _fft_convolve(w: np.ndarray, g: np.ndarray, g_lo) -> np.ndarray:
    """out[i] = sum_j w[j] g[i - j], g indexed from g_lo; out on w's range."""
    conv = _fft_convolve_full(w, g)
    slices = tuple(slice(-l, -l + n) for l, n in zip(g_lo, w.shape))
    return conv[slices]


# ---------------------------------------------------------------------------
# analyze / synthesize
# ---------------------------------------------------------------------------

def _check_grids(f: at.SampledFunction, grid: TransformGrid) -> None:
    if f.values.shape != tuple(grid.counts):
        raise TransformError("signal grid does not match the transform grid")
    if not (np.allclose(f.spacing, grid.spacing) and
            np.allclose(f.origin, grid.origin)):
        raise TransformError("signal grid does not match the transform grid")


def analyze(f: at.SampledFunction, psi, grid: TransformGrid) -> CoefficientField:
    """Wavelet coefficients <f, pi(x, h) psi> by lattice quadrature."""
    _check_grids(f, grid)
    vol = grid.cell_volume()
    out = np.empty((len(grid.dilations),) + tuple(grid.counts))
    cap = tuple(n - 1 for n in grid.counts)
    for i, mat in enumerate(grid.dilations):
        g, g_lo = _dilated_lattice_sample(psi, mat, grid.spacing, cap)
        out[i] = _fft_correlate(f.values, g, g_lo) * vol
    return CoefficientField(grid=grid, values=out)


def synthesize(coeffs: CoefficientField, psi, grid: TransformGrid,
               c_psi: float) -> at.SampledFunction:
    """Riemann-sum inversion over the sampled (x, h) range.

    Uses the measure |det h|^-1 dx dh: translation cells weigh cell_volume,
    dilation cells weigh their Haar measure over |det h|.
    """
    if c_psi <= 0:
        raise TransformError("c_psi must be positive")
    _check_grids_coeff(coeffs, grid)
    vol = grid.cell_volume()
    acc = np.zeros(tuple(grid.counts))
    cap = tuple(n - 1 for n in grid.counts)
    for i, mat in enumerate(grid.dilations):
        det = abs(float(np.linalg.det(mat)))
        g, g_lo = _dilated_lattice_sample(psi, mat, grid.spacing, cap)
        acc += (grid.dilation_weights[i] / det) * _fft_convolve(coeffs.values[i],
                                                                g, g_lo)
    acc *= vol / c_psi
    return at.SampledFunction(origin=grid.origin, spacing=grid.spacing, values=acc)


def _check_grids_coeff(coeffs: CoefficientField, grid: TransformGrid) -> None:
    if coeffs.values.shape[0] != len(grid.dilations):
        raise TransformError("coefficient field does not match the dilation grid")
    if coeffs.values.shape[1:] != tuple(grid.counts):
        raise TransformError("coefficient field does not match the translation grid")


def calderon_constant(spec, psi, r_max: float = 3.0, t_max: float = 2.0) -> float:
    """Admissibility integral restricted to the sampled dilation box, by
    order-8 Gauss panels, four per unit length."""
    chart = gr.shear_chart(spec)
    r_axis = quad.Axis(*quad.composite_gauss(-r_max, r_max, max(1, int(8 * r_max)), 8))
    t_axis = quad.Axis(*quad.composite_gauss(-t_max, t_max, max(1, int(8 * t_max)), 8))
    axes = [r_axis] + [t_axis] * (chart.dim - 1)

    def integrand(pts):
        r = pts[:, 0]
        dual = chart.dual(1.0, r, pts[:, 1:])
        total = np.abs(psi.spectrum(dual)) ** 2 + np.abs(psi.spectrum(-dual)) ** 2
        return total * chart.haar(r)

    return quad.tensor_eval(axes, integrand)


# ---------------------------------------------------------------------------
# coefficient norms
# ---------------------------------------------------------------------------

def coefficient_norm(coeffs: CoefficientField, weight: em.WeightSpec) -> float:
    """Discrete surrogate of the mixed (p, q) coefficient norm.

    Inner weighted l^p over translations (weight v(x,h)^p and cell volume),
    outer l^q over dilations with cell weight Haar measure / |det h|;
    v(x, h) = (1 + |x| + ||h||)^s w(h).
    """
    grid = coeffs.grid
    p, q, s = weight.p, weight.q, float(weight.s)
    xnorm = np.linalg.norm(grid.lattice_points(), axis=1).reshape(grid.counts)
    vol = grid.cell_volume()
    mats = grid.dilations
    sv = np.linalg.svd(mats, compute_uv=False)
    w_h, _ = em.base_weight_arrays(weight, sv[:, 0], 1.0 / sv[:, -1],
                                   gr.ShearChart.delta_g(mats))
    inner = np.empty(len(mats))
    for i, vals in enumerate(coeffs.values):
        block = np.abs(vals) * ((1.0 + xnorm + sv[i, 0]) ** s * w_h[i])
        if math.isinf(p):
            inner[i] = block.max()
        else:
            inner[i] = float(np.sum(block ** p) * vol) ** (1.0 / p)
    outer_w = grid.dilation_weights / np.abs(np.linalg.det(mats))
    if math.isinf(q):
        return float(inner.max())
    return float(np.sum(inner ** q * outer_w) ** (1.0 / q))


# ---------------------------------------------------------------------------
# bundled test signals
# ---------------------------------------------------------------------------

def modulated_gaussian(extent: float = 4.0, n: int = 64,
                       carrier=(1.0, 0.15), sigma: float = 1.2) -> at.SampledFunction:
    """Real 2-D signal with spectrum in Gaussian bumps at +-carrier.

    The bumps sit inside the open orbit with comfortable margin against the
    default dilation sampling box, which makes the truncated reproduction
    nearly exact in the continuum limit.
    """
    axes = [np.linspace(-extent, extent, n, endpoint=False)] * 2
    pts = quad.tensor_points(axes)
    carrier = np.asarray(carrier, dtype=float)[:2]
    phase = np.cos(2.0 * np.pi * (pts @ carrier))
    envelope = np.exp(-np.einsum("ni,ni->n", pts, pts) / (2.0 * sigma ** 2))
    vals = (phase * envelope).reshape(n, n)
    spacing = [ax[1] - ax[0] for ax in axes]
    return at.SampledFunction(origin=[ax[0] for ax in axes], spacing=spacing,
                              values=vals)


def bundled_signals(n: int = 64) -> dict:
    return {
        "narrow": modulated_gaussian(n=n, carrier=(1.0, 0.15), sigma=1.2),
        "sheared": modulated_gaussian(n=n, carrier=(0.9, -0.4), sigma=1.4),
        "wide": modulated_gaussian(n=n, carrier=(1.2, 0.0), sigma=0.9),
    }


def roundtrip_error(spec, psi, signal: at.SampledFunction,
                    r_max: float = 3.0, n_r: int = 25,
                    t_max: float = 2.0, n_t: int = 9) -> float:
    """Relative L2 error of analyze -> synthesize on the sampled group box."""
    grid = make_transform_grid(spec, signal, r_max=r_max, n_r=n_r,
                               t_max=t_max, n_t=n_t)
    c_psi = calderon_constant(spec, psi, r_max=r_max, t_max=t_max)
    coeffs = analyze(signal, psi, grid)
    recon = synthesize(coeffs, psi, grid, c_psi)
    num = float(np.linalg.norm(recon.values - signal.values))
    den = float(np.linalg.norm(signal.values))
    return num / den
