"""Quadrature building blocks: composite Gauss panels and dyadic log-axes.

The improper integrals in this package concentrate mass near a coordinate
hyperplane (or the origin) and decay polynomially at infinity, so axes are
covered by dyadic rings [2^k, 2^(k+1)] carrying fixed-order Gauss-Legendre
nodes, optionally mirrored to the negative half-line, plus uniform Gauss
panels for the regular directions.  Summation uses np.sum, whose pairwise
reduction keeps results deterministic, and parallel_map returns blocked work
in block order whatever the thread count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


@functools.lru_cache(maxsize=None)
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def gauss_panel(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def composite_gauss(a: float, b: float, panels: int, order: int):
    """Uniform panels on [a, b], Gauss-Legendre nodes per panel."""
    edges = np.linspace(a, b, panels + 1)
    x, w = _gl(order)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return np.ravel(mid[:, None] + half[:, None] * x), np.ravel(half[:, None] * w)


def signed_dyadic_axis(kmin: int, kmax: int, order: int,
                       include_center: bool = False):
    """Nodes covering +-[2^kmin, 2^kmax] by per-ring Gauss panels.

    With include_center, the gap (-2^kmin, 2^kmin) gets one Gauss panel too
    (only valid when the integrand is regular across zero).
    """
    nodes, weights = [], []
    for k in range(kmin, kmax):
        x, w = gauss_panel(2.0 ** k, 2.0 ** (k + 1), order)
        nodes.extend([x, -x])
        weights.extend([w, w])
    if include_center:
        x, w = gauss_panel(-(2.0 ** kmin), 2.0 ** kmin, order)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass
class Axis:
    nodes: np.ndarray
    weights: np.ndarray


def tensor_points(axes) -> np.ndarray:
    """(n, d) points of the tensor grid of 1-D node arrays, in C order
    (the last axis varies fastest)."""
    pts = np.empty(tuple(len(ax) for ax in axes) + (len(axes),))
    for j, g in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
        pts[..., j] = g
    return pts.reshape(-1, len(axes))


def tensor_grid(axes: list[Axis]) -> tuple[np.ndarray, np.ndarray]:
    """Tensor grid points of axes with their product weights."""
    wts = axes[0].weights
    for ax in axes[1:]:
        wts = np.multiply.outer(wts, ax.weights)
    return tensor_points([ax.nodes for ax in axes]), np.ravel(wts)


def tensor_eval(axes: list[Axis], func) -> float:
    """Integrate func over the tensor grid of axes.

    func takes an (n, d) array of points and returns (n,) values; evaluation
    is chunked to bound memory.
    """
    chunk = 1 << 19
    pts, wts = tensor_grid(axes)
    total = 0.0
    for start in range(0, pts.shape[0], chunk):
        sl = slice(start, start + chunk)
        total += float(np.sum(func(pts[sl]) * wts[sl]))
    return total


def separable_eval(axes: list[Axis], factors) -> float:
    """Integrate prod_j factors[j](x_j) over the tensor grid of axes, as the
    product of the 1-D Gauss sums sum_i w_i f_j(x_i)."""
    return math.prod(float(np.sum(f(ax.nodes) * ax.weights)) for ax, f in zip(axes, factors))


def parallel_map(fn, blocks, threads: int = 1) -> list:
    """[fn(b) for b in blocks] on up to `threads` worker threads, in block order."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, blocks))
    return [fn(b) for b in blocks]


@dataclass
class StagedResult:
    value: float
    converged: bool
    stages: int
    history: tuple


RTOL = 1e-4  # relative change between stages that counts as converged


def staged_refinement(make_value, max_stages: int = 12, min_stages: int = 2) -> StagedResult:
    """Run make_value(stage) until successive values stabilize.

    Stops at relative change < RTOL between consecutive stages (after
    min_stages) or at max_stages with converged=False.
    """
    history = []
    prev = None
    for stage in range(max_stages):
        val = make_value(stage)
        history.append(val)
        if prev is not None and stage + 1 >= min_stages:
            denom = max(abs(val), 1e-300)
            if abs(val - prev) <= RTOL * denom:
                return StagedResult(val, True, stage + 1, tuple(history))
        prev = val
    return StagedResult(history[-1], False, max_stages, tuple(history))
