"""Quadrature building blocks: composite Gauss panels and dyadic log-axes.

The improper integrals in this package concentrate mass near a coordinate
hyperplane (or the origin) and decay polynomially at infinity, so axes are
covered by dyadic rings [2^k, 2^(k+1)] carrying fixed-order Gauss-Legendre
nodes, optionally mirrored to the negative half-line, plus uniform Gauss
panels for the regular directions.  tensor_eval never holds a whole grid: it
builds and sums one slab of at most 2^17 points (whole grid rows) at a time,
so beyond a small grid of leading rows its memory is O(2^17 * d).
integrate alone picks the route: a Product is the product of 1-D Gauss sums on
the same axes, and an even func runs half of a grid that mirrors onto itself.
Summation uses np.sum, whose pairwise reduction keeps results deterministic,
and parallel_map yields blocked work in block order whatever the thread count.
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass

import numpy as np


@functools.lru_cache(maxsize=None)
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def composite_gauss(a: float, b: float, panels: int, order: int):
    """Uniform panels on [a, b], Gauss-Legendre nodes per panel."""
    edges = np.linspace(a, b, panels + 1)
    x, w = _gl(order)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return np.ravel(mid[:, None] + half[:, None] * x), np.ravel(half[:, None] * w)


@functools.lru_cache(maxsize=None)
def signed_dyadic_axis(kmin: int, kmax: int, order: int, include_center: int = 0):
    """Nodes covering +-[2^kmin, 2^kmax] by per-ring Gauss panels.

    include_center uniform Gauss panels cover the gap (-2^kmin, 2^kmin): one
    (True) for an integrand regular across zero, two half panels meeting at
    zero, which is never a node, for one that is bounded but kinked there.
    Each axis is built once and shared by every caller, so its arrays are read-only.
    """
    nodes, weights = [], []
    for k in range(kmin, kmax):
        x, w = composite_gauss(2.0 ** k, 2.0 ** (k + 1), 1, order)
        nodes.extend([x, -x])
        weights.extend([w, w])
    if include_center:
        x, w = composite_gauss(-(2.0 ** kmin), 2.0 ** kmin, include_center, order)
        nodes.append(x)
        weights.append(w)
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    for array in (nodes, weights):
        array.setflags(write=False)
    return nodes, weights


@dataclass
class Axis:
    nodes: np.ndarray
    weights: np.ndarray

    def mirrors(self) -> bool:
        """Whether its sorted nodes equal their negatives reversed, with equal weights."""
        x, w = (a[np.argsort(self.nodes)] for a in (self.nodes, self.weights))
        return np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def mirrored(nodes: np.ndarray, weights: np.ndarray) -> Axis:
    """The axis of nodes followed by their negatives, the weights repeated: a
    rule on a half-line carried over to both signs."""
    return Axis(np.concatenate([nodes, -nodes]), np.concatenate([weights, weights]))


def tensor_points(axes) -> np.ndarray:
    """(n, d) points of the tensor grid of node arrays, in C order (the last
    axis varies fastest); an (m, k) node array is one axis of m rows that
    fills k coordinates."""
    blocks = [np.asarray(b) for b in axes]
    widths = [b.shape[1] if b.ndim == 2 else 1 for b in blocks]
    pts = np.empty([len(b) for b in blocks] + [sum(widths)])
    col = 0
    for j, (b, w) in enumerate(zip(blocks, widths)):
        shape = [1] * len(blocks) + [w]
        shape[j] = len(b)
        pts[..., col:col + w] = b.reshape(shape)
        col += w
    return pts.reshape(-1, col)


def tensor_weights(axes: list[Axis]) -> np.ndarray:
    """Product weights of the tensor grid of axes, folded left to right: ((w0 w1) w2)..."""
    wts = axes[0].weights
    for ax in axes[1:]:
        wts = np.multiply.outer(wts, ax.weights)
    return np.ravel(wts)


def tensor_grid(axes: list[Axis]) -> tuple[np.ndarray, np.ndarray]:
    """Tensor grid points of axes with their tensor_weights.  An axis of (m, k) nodes
    is a block of grid rows, which is how tensor_eval builds its slabs."""
    return tensor_points([ax.nodes for ax in axes]), tensor_weights(axes)


def tensor_eval(axes: list[Axis], func) -> float:
    """Integrate func over the tensor grid of axes.

    func maps an (n, d) array of points to (n,) values, one slab at a time.
    The leading axes, up to the first k >= 1 whose trailing axes hold 1 to
    2^17 points, form a small grid of rows (none if an axis is empty); a slab
    is as many whole rows as fit in 2^17 points, broadcast against the
    trailing axes and summed as one chunk, so memory beyond the row grid is
    O(2^17 * d).  A grid of at most 2^17 points is one chunk: tensor_grid(axes).
    """
    slab, sizes = 1 << 17, [len(ax.nodes) for ax in axes]
    k = next(k for k in range(1, len(axes) + 1) if 0 < math.prod(sizes[k:]) <= slab)
    rows, step = Axis(*tensor_grid(axes[:k])), slab // math.prod(sizes[k:])
    total = 0.0
    for first in range(0, len(rows.nodes), step):
        slab_axes = [Axis(rows.nodes[first:first + step], rows.weights[first:first + step])]
        slab_axes += axes[k:]
        values = func(tensor_points([ax.nodes for ax in slab_axes]))  # the points die here,
        total += float(np.sum(values * tensor_weights(slab_axes)))  # before the weights exist
    return total


@dataclass(frozen=True)
class Product:
    """The function prod_j factors[j](x_j), declared by its 1-D factors: called on
    (n, d) points it is the product of its factors on the columns."""

    factors: tuple

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return math.prod(f(pts[:, j]) for j, f in enumerate(self.factors))


def integrate(axes: list[Axis], func) -> float:
    """Integrate func over the tensor grid of axes: the product of the 1-D Gauss sums
    sum_i w_i f_j(x_i) for a func that declares its factors f_j (a Product), else tensor_eval.
    If func declares itself even (func.even: func(-x) == func(x) bit for bit) and every axis
    mirrors, x -> -x maps the grid onto itself, so the first axis keeps its nodes > 0 at
    twice their weight and a node at 0 once."""
    factors = getattr(func, "factors", None)
    if factors is not None:
        return math.prod(float(np.sum(f(ax.nodes) * ax.weights)) for ax, f in zip(axes, factors))
    if getattr(func, "even", False) and all(ax.mirrors() for ax in axes):
        x, w = axes[0].nodes, axes[0].weights
        axes = [Axis(x[x >= 0], np.where(x > 0, 2.0 * w, w)[x >= 0])] + axes[1:]
    return tensor_eval(axes, func)


def parallel_map(fn, blocks, threads: int = 1):
    """Yield fn(b) for b in blocks (a sequence) in block order as each is done, from
    min(threads, len(blocks)) worker threads, each block in a copy of the caller's context so
    that its np.errstate holds; one worker runs in the caller's thread, with no pool.  At
    most 2 * threads blocks are submitted ahead of the consumer, so finished results never
    pile up behind a slow block.  Nothing runs before the first result is asked for."""
    threads = min(threads, len(blocks))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it
        ahead = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for b in blocks:
                ahead.append(pool.submit(contextvars.copy_context().run, fn, b))
                if len(ahead) == 2 * threads:
                    yield ahead.pop(0).result()
            yield from (job.result() for job in ahead)
    else:
        yield from map(fn, blocks)


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
    min_stages) or at max_stages with converged=False.  A zero, subnormal or
    infinite value never converges: its relative change 0/0 or inf/inf gains no digit.
    """
    history = []
    for stage in range(max_stages):
        history.append(val := make_value(stage))
        if stage + 1 >= max(min_stages, 2) and np.finfo(float).tiny <= abs(val) < math.inf and \
                abs(val - history[-2]) <= RTOL * abs(val):
            return StagedResult(val, True, stage + 1, tuple(history))
    return StagedResult(history[-1], False, max_stages, tuple(history))
