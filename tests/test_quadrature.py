"""tensor_eval streams its grid slab by slab with the sums of the full grid.

The reference materializes the whole tensor grid and sums it in slabs of the
most whole rows that fit in SLAB points, a row being the points of the
trailing axes after the first k >= 1 leading ones for which that is at most
SLAB.  Equal points, weights and slab bounds give equal sums, so the
comparisons are exact.  The center panels of signed_dyadic_axis and the
convergence rule of staged_refinement are checked here too, and so is the fold
of integrate, which runs half of a mirrored grid for an even function.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from orbitlet import groups as gr
from orbitlet import orbit as ob
from orbitlet import quadrature as quad

SLAB = 1 << 17


def slab_points(sizes):
    row = next(r for r in (math.prod(sizes[k:]) for k in range(1, len(sizes) + 1))
               if r <= SLAB)
    return SLAB // row * row


def materialized_eval(axes, func):
    pts, wts = quad.tensor_grid(axes)
    step = slab_points([len(ax.nodes) for ax in axes])
    total = 0.0
    for start in range(0, len(pts), step):
        sl = slice(start, start + step)
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
    # a 3-D orbit grid of 380 x 170 x 170 = 10.98 M points (one singular axis,
    # two regular ones), whose materialized points and weights alone take 335 MB
    singular = quad.Axis(*quad.signed_dyadic_axis(-13, 6, 10))
    regular = quad.Axis(*quad.signed_dyadic_axis(-2, 6, 10, include_center=True))
    axes = [singular, regular, regular]
    tracemalloc.start()
    try:
        value = quad.tensor_eval(axes, lambda p: np.exp(-0.5 * np.einsum("ni,ni->n", p, p)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    # one slab's points and weights take SLAB * (d + 1) doubles (4 MB); func and
    # the weighted product add a few slab-long vectors on top
    bound = 3 * SLAB * (len(axes) + 1) * 8
    assert peak < bound, f"traced peak {peak / 2 ** 20:.1f} MB, bound {bound / 2 ** 20:.0f} MB"


@pytest.mark.parametrize("empty", [0, 1, 2])
def test_empty_axis_integrates_to_zero(empty):
    axes = random_axes((5, 4, 3), 2)
    axes[empty] = quad.Axis(np.empty(0), np.empty(0))
    assert quad.tensor_eval(axes, lambda p: np.ones(len(p))) == 0.0


@pytest.mark.parametrize("kmin", [-3, -7])
def test_split_center_closes_the_gap_without_a_node_at_zero(kmin):
    open_nodes, open_wts = quad.signed_dyadic_axis(kmin, 3, 8)
    one_nodes, one_wts = quad.signed_dyadic_axis(kmin, 3, 8, include_center=True)
    nodes, wts = quad.signed_dyadic_axis(kmin, 3, 8, include_center=2)
    np.testing.assert_array_equal(nodes[:len(open_nodes)], open_nodes)
    np.testing.assert_array_equal(one_nodes[len(open_nodes):],
                                  quad.composite_gauss(-(2.0 ** kmin), 2.0 ** kmin, 1, 8)[0])
    center = nodes[len(open_nodes):]
    np.testing.assert_array_equal(np.sort(center), np.sort(-center))
    assert np.all(center != 0.0) and len(center) == 16
    assert wts.sum() == pytest.approx(one_wts.sum(), rel=1e-14)
    assert wts.sum() == pytest.approx(16.0, rel=1e-14)
    # |x| is kinked at zero: one panel across it misses, two half panels are exact
    kink = 2.0 ** (2 * kmin)
    assert np.sum(np.abs(center) * wts[len(open_nodes):]) == pytest.approx(kink, rel=1e-13)
    assert abs(np.sum(np.abs(one_nodes[len(open_nodes):]) * one_wts[len(open_nodes):])
               - kink) > 1e-3 * kink


def test_memoized_axis_is_read_only():
    nodes, weights = quad.signed_dyadic_axis(-2, 4, 6, include_center=True)
    assert quad.signed_dyadic_axis(-2, 4, 6, include_center=True)[0] is nodes
    for array in (nodes, weights):  # every caller shares it, so none may write
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_workers_keep_the_callers_errstate():
    def blow_up(x):
        return np.exp(np.array([x]))

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            list(quad.parallel_map(blow_up, [1000.0, 1000.0], threads=2))


def test_parallel_map_submits_at_most_two_blocks_per_thread_ahead():
    started = []

    def work(b):
        started.append(b)
        if b == 0:  # a slow first block: finished results must not pile up behind it
            time.sleep(0.2)
        return b * b

    results = quad.parallel_map(work, range(20), threads=2)
    assert not started  # nothing runs before the first result is asked for
    assert next(results) == 0
    started_before_first_result = len(started)
    assert list(results) == [b * b for b in range(1, 20)]
    assert started_before_first_result <= 2 * 2
    assert sorted(started) == list(range(20))


@pytest.mark.parametrize("tail", [0.0, 5e-324, -1e-310])
def test_zero_or_subnormal_stages_never_converge(tail):
    values = [1.0, tail, tail, tail, tail]
    res = quad.staged_refinement(lambda stage: values[stage], max_stages=5)
    assert not res.converged and res.stages == 5 and res.value == tail


def test_tiny_normal_stages_still_converge():
    tiny = np.finfo(float).tiny
    res = quad.staged_refinement(lambda stage: tiny * (1.0 + 0.5 ** (20 * stage + 20)))
    assert res.converged and res.stages == 2


def test_infinite_stages_never_converge():
    values = [1.0, math.inf, math.inf]
    res = quad.staged_refinement(lambda stage: values[stage], max_stages=3)
    assert not res.converged and res.stages == 3 and res.value == math.inf


# --- the even fold of quad.integrate -------------------------------------------

class Even:
    """An even function, exp(-|x|^2 / 50) (1 + x_0^2), that counts its points; declared
    even or not."""

    def __init__(self, even):
        self.even, self.points = even, 0

    def __call__(self, pts):
        self.points += len(pts)
        sq = np.einsum("ni,ni->n", pts, pts)
        return np.exp(-sq / 50.0) * (1.0 + pts[:, 0] * pts[:, 0])


def stage_axes(spec, stages, monkeypatch):
    """The axes ob.group_side_integral integrates on at each of the stages."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(quad, "integrate", lambda axes, func: seen.append(axes) or 1.0)
        patch.setattr(quad, "staged_refinement",
                      lambda make_value, **kw: [make_value(stage) for stage in stages])
        ob.group_side_integral(spec, None)
    return seen


def mirrored_grids(monkeypatch):
    grids = {f"{kind} stage {stage}": ob._orbit_axes(ob.orbit_of(spec), stage)
             for kind, spec in (("first-coordinate", gr.Shearlet2D(0.5)),
                                ("punctured", gr.Similitude(2)), ("cross", gr.Diagonal(2)))
             for stage in range(7)}
    for name, spec in (("shearlet c=1/2", gr.Shearlet2D(0.5)),
                       ("standard-3d", gr.standard_shearlet_group(3)),
                       ("diagonal-2d", gr.Diagonal(2))):
        grids.update({f"{name} group side stage {stage}": axes
                      for stage, axes in enumerate(stage_axes(spec, range(5), monkeypatch))})
    return grids


def test_even_fold_runs_half_of_every_mirrored_grid(monkeypatch):
    grids = mirrored_grids(monkeypatch)
    assert len(grids) == 36
    for name, axes in grids.items():
        assert all(ax.mirrors() for ax in axes), name
        folded, full = Even(True), Even(False)
        value = quad.integrate(axes, folded)
        assert value == pytest.approx(quad.integrate(axes, full), rel=1e-14), name
        assert 2 * folded.points == full.points == math.prod(len(ax.nodes) for ax in axes), name


def test_even_fold_needs_every_axis_mirrored():
    regular = quad.Axis(*quad.signed_dyadic_axis(-2, 4, 6, include_center=True))
    lopsided = quad.Axis(*quad.composite_gauss(0.1, 2.0, 3, 8))
    for axes in ([regular, lopsided], [lopsided, regular]):
        assert not lopsided.mirrors()
        folded, full = Even(True), Even(False)
        assert quad.integrate(axes, folded) == quad.integrate(axes, full)  # bit for bit
        assert folded.points == full.points == 24 * len(regular.nodes)


def test_even_fold_counts_a_node_at_zero_once():
    center = quad.Axis(*quad.composite_gauss(-1.0, 1.0, 1, 7))  # odd order: a node at 0
    assert np.count_nonzero(center.nodes == 0.0) == 1 and center.mirrors()
    regular = quad.Axis(*quad.signed_dyadic_axis(-2, 4, 6, include_center=True))
    folded, full = Even(True), Even(False)
    value = quad.integrate([center, regular], folded)
    assert value == pytest.approx(quad.integrate([center, regular], full), rel=1e-14)
    assert folded.points == 4 * len(regular.nodes) and full.points == 7 * len(regular.nodes)
