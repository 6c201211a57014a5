"""tensor_eval streams its grid slab by slab with the sums of the full grid.

The reference materializes the whole tensor grid and sums it in 2^19-point
chunks.  Equal points, weights and chunk bounds give equal sums, so the
comparisons are exact.
"""

import tracemalloc

import numpy as np
import pytest

from orbitlet import groups as gr
from orbitlet import orbit as ob
from orbitlet import quadrature as quad

CHUNK = 1 << 19


def materialized_eval(axes, func):
    pts, wts = quad.tensor_grid(axes)
    total = 0.0
    for start in range(0, len(pts), CHUNK):
        sl = slice(start, start + CHUNK)
        total += float(np.sum(func(pts[sl]) * wts[sl]))
    return total


def random_axes(shape, seed):
    rng = np.random.default_rng(seed)
    return [quad.Axis(np.sort(rng.normal(size=n)), rng.uniform(0.1, 1.0, n)) for n in shape]


GRIDS = {
    "1-D small": (7,),
    "1-D over one chunk": (600_001,),
    "2-D in one chunk": (30, 41),
    "3-D, chunk bounds inside slab rows": (100, 77, 91),
    "3-D, exactly two chunks": (2, 1024, 512),
    "4-D, trailing 3-axis block over one chunk": (3, 90, 90, 90),
}


@pytest.mark.parametrize("shape", GRIDS.values(), ids=GRIDS.keys())
def test_streamed_sum_is_bit_identical(shape):
    axes = random_axes(shape, len(shape))
    c = np.linspace(0.7, 1.9, len(shape))

    def func(p):  # not a product of 1-D factors
        return np.sin(p @ c) + p[:, 0] ** 2

    assert quad.tensor_eval(axes, func) == materialized_eval(axes, func)


def test_block_axis_builds_rows_of_the_full_grid():
    axes = random_axes((5, 4, 3), 1)
    pts, wts = quad.tensor_grid(axes)
    rows = quad.Axis(*quad.tensor_grid(axes[:2]))
    slab_pts, slab_wts = quad.tensor_grid([quad.Axis(rows.nodes[7:13], rows.weights[7:13])]
                                          + axes[2:])
    assert np.array_equal(slab_pts, pts[7 * 3:13 * 3])
    assert np.array_equal(slab_wts, wts[7 * 3:13 * 3])


def test_orbit_stage_memory_is_bounded():
    # the standard-3d orbit grid at stage 4: 380 x 170 x 170 = 10.98 M points,
    # whose materialized points and weights alone take 335 MB
    axes = ob._orbit_axes(ob.orbit_of(gr.standard_shearlet_group(3)), 4)
    tracemalloc.start()
    try:
        value = quad.tensor_eval(axes, lambda p: np.exp(-0.5 * np.einsum("ni,ni->n", p, p)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 80 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"
