"""The circular-FFT transform and the cell-polynomial B-spline kernel against
direct references, the orbit members that share one atom spectrum, and the
thread-count independence of cwt/icwt."""

import concurrent.futures
import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from orbitlet import atoms as at
from orbitlet import cli
from orbitlet import groups as gr
from orbitlet import quadrature as quad
from orbitlet import transform as tr

SPEC = gr.Shearlet2D(0.5)
PSI = at.make_atom(SPEC, 2, at.spline_base([5, 5]))


def _truncated_power(k, m, x):
    """Exact m-th derivative of B_k from the truncated-power sum, with the
    right-continuous convention (x - j)_+^0 = [x >= j]."""
    x = Fraction(x)
    total = sum((-1) ** j * math.comb(k + 1, j) * (x - j) ** (k - m)
                for j in range(k + 2) if x >= j)
    return float(total / math.factorial(k - m))


@pytest.mark.parametrize("k", range(8))
def test_bspline_derivative_matches_truncated_powers(k):
    # step 1/32 from -1 to k + 2: every knot, both sides of every m = k jump
    xs = [Fraction(i, 32) for i in range(-32, 32 * (k + 2) + 1)]
    grid = np.array([float(x) for x in xs])
    for m in range(k + 1):
        expected = np.array([_truncated_power(k, m, x) for x in xs])
        assert np.abs(at.bspline_derivative(k, m, grid) - expected).max() <= 1e-12
    knots = np.arange(k + 2, dtype=float)
    assert at.bspline_derivative(k, k, knots)[-1] == 0.0  # support is [0, k+1)
    with pytest.raises(at.InsufficientSmoothnessError):
        at.bspline_derivative(k, k + 1, grid)


def _random_signal(counts, seed=0):
    values = np.random.default_rng(seed).standard_normal(counts)
    return at.SampledFunction(origin=[-2.0, -1.5], spacing=[4.0 / counts[0], 3.0 / counts[1]],
                              values=values)


def _clipping(mat, grid):
    """Lattice offsets of the dilated support beyond the +-(n - 1) cap."""
    mapped = quad.tensor_points(PSI.support_box()) @ mat.T
    lo = np.floor(mapped.min(axis=0) / grid.spacing) - 1
    hi = np.ceil(mapped.max(axis=0) / grid.spacing) + 1
    cap = np.array(grid.counts) - 1
    return float(np.sum(np.maximum(hi - cap, 0) + np.maximum(-cap - lo, 0)))


def _direct(signal, grid, mat):
    lattice = grid.lattice_points()
    return np.array([np.sum(signal.values.ravel()
                            * tr.quasi_regular_evaluate(x, mat, PSI, lattice))
                     for x in lattice]).reshape(grid.counts) * grid.cell_volume()


def _one_dilation(grid, i):
    return tr.TransformGrid(origin=grid.origin, spacing=grid.spacing, counts=grid.counts,
                            dilations=grid.dilations[i:i + 1],
                            dilation_weights=grid.dilation_weights[i:i + 1])


@pytest.mark.parametrize("counts,pick", [((32, 32), "clipped"), ((32, 32), "smallest"),
                                         ((37, 50), "clipped")])
def test_analyze_matches_direct_quadrature(counts, pick):
    signal = _random_signal(counts)
    grid = tr.make_transform_grid(SPEC, signal, r_max=2.5, n_r=11, t_max=2.0, n_t=5)
    if pick == "clipped":
        i = int(np.argmax([_clipping(m, grid) for m in grid.dilations]))
        assert _clipping(grid.dilations[i], grid) > 0
    else:
        i = int(np.argmin(np.abs(np.linalg.det(grid.dilations))))
    coeffs = tr.analyze(signal, PSI, _one_dilation(grid, i))
    direct = _direct(signal, grid, grid.dilations[i])
    assert np.abs(coeffs.values[0] - direct).max() <= 1e-8


def test_synthesize_is_the_direct_adjoint_sum():
    signal = _random_signal((12, 15))
    grid = tr.make_transform_grid(SPEC, signal, r_max=2.5, n_r=3, t_max=2.0, n_t=2)
    coeffs = tr.CoefficientField(grid, np.random.default_rng(1).standard_normal(
        (len(grid.dilations),) + grid.counts))
    recon = tr.synthesize(coeffs, PSI, grid, c_psi=2.0)
    lattice = grid.lattice_points()
    direct = np.zeros(len(lattice))
    for i, mat in enumerate(grid.dilations):
        scale = grid.dilation_weights[i] / abs(np.linalg.det(mat))
        for x, c in zip(lattice, coeffs.values[i].ravel()):
            direct += scale * c * tr.quasi_regular_evaluate(x, mat, PSI, lattice)
    direct *= grid.cell_volume() / 2.0
    assert np.abs(recon.values.ravel() - direct).max() <= 1e-8


def test_circular_shape_is_smooth_and_alias_free():
    assert tr.circular_shape((64, 128, 37, 50)) == (128, 256, 75, 100)


@pytest.fixture
def desk(tmp_path, capsys):
    spec_path = tmp_path / "shearlet.json"
    spec_path.write_text(json.dumps(gr.spec_to_json(SPEC)))
    atom_path = tmp_path / "atom.json"
    atom_path.write_text(json.dumps(PSI.to_json()))
    signal = tr.modulated_gaussian(extent=8 / 3, n=32, sigma=0.9)
    at.sampled_to_binary(signal, str(tmp_path / "signal.bin"))
    common = ["--group", str(spec_path), "--atom", str(atom_path), "--grid", "2.0,9,1.5,5"]

    def run(threads):
        cwt = ["--threads", str(threads), "cwt", *common,
               "--signal", str(tmp_path / "signal.bin"), "--out", str(tmp_path / "c.bin")]
        icwt = ["--threads", str(threads), "icwt", *common,
                "--coeffs", str(tmp_path / "c.bin"), "--out", str(tmp_path / "r.bin")]
        assert cli.main(cwt) == 0 and cli.main(icwt) == 0
        return (capsys.readouterr().out, (tmp_path / "c.bin").read_bytes(),
                (tmp_path / "r.bin").read_bytes())

    return run


def test_cwt_icwt_bytes_do_not_depend_on_threads(desk):
    assert desk(1) == desk(2)


def test_threaded_analyze_under_fast_switching_matches_serial():
    signal = _random_signal((24, 20))
    grid = tr.make_transform_grid(SPEC, signal, r_max=2.0, n_r=9, t_max=1.5, n_t=5)
    serial = tr.analyze(signal, PSI, grid).values
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:  # more workers than the blocks' share of cores; rows are disjoint per block
        threaded = tr.analyze(signal, PSI, grid, threads=4).values
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial, threaded)


class _FakePool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs serially."""

    seen: list = []

    def __init__(self, max_workers):
        _FakePool.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        job = concurrent.futures.Future()
        job.set_result(fn(*args))
        return job


def test_threads_are_clamped_to_cores_and_blocks(desk, monkeypatch, tmp_path, capsys):
    # parallel_map imports the pool class when it makes a pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    _FakePool.seen = []
    desk(1000)  # 90 dilations make 45 pairs, 27 orbits with their RhR, 4 blocks of 8
    assert _FakePool.seen == [4, 4]
    _FakePool.seen = []
    desk(3)
    assert _FakePool.seen == [3, 3]
    spec_path = str(tmp_path / "shearlet.json")
    _FakePool.seen = []
    assert cli.main(["--threads", "1000", "exponents", "--group", spec_path, "--empirical",
                     "--budget", "300", "--stages", "3"]) == 0
    assert _FakePool.seen == [64] * 3  # min(threads, cores, 100 samples per stage)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    _FakePool.seen = []
    assert cli.main(["--threads", "1000", "exponents", "--group", spec_path, "--empirical",
                     "--budget", "300", "--stages", "3"]) == 0
    assert _FakePool.seen == [2] * 3
    capsys.readouterr()


def test_parallel_map_runs_a_single_block_without_a_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _FakePool)
    _FakePool.seen = []
    assert list(quad.parallel_map(lambda b: b + 1, [1], threads=4)) == [2]
    assert _FakePool.seen == []


# ---------------------------------------------------------------------------
# lattice sampling beyond upper triangular 2-D partial atoms
# ---------------------------------------------------------------------------

def _similitude_grid(signal):
    """Rotation-and-scale dilations: full inverses, plus one diagonal one (angle 0)."""
    mats = [a * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            for a in (0.6, 1.0, 1.7) for th in (0.0, 0.4, 2.0, -1.1)]
    return tr.TransformGrid(origin=signal.origin, spacing=signal.spacing,
                            counts=signal.values.shape, dilations=np.array(mats),
                            dilation_weights=np.linspace(0.5, 1.5, len(mats)))


def _signal(counts, seed=0):
    rng = np.random.default_rng(seed)
    return at.SampledFunction(origin=[-1.0] * len(counts), spacing=[0.4] * len(counts),
                              values=rng.standard_normal(counts))


def _correlate(values, g):
    """out[k] = sum_j values[j] g[j - k + n - 1] for g on the full offset box."""
    windows = np.lib.stride_tricks.sliding_window_view(g, values.shape)
    return np.tensordot(windows, values, axes=values.ndim)[(slice(None, None, -1),) * values.ndim]


def _dense_atoms(psi, grid):
    """|det h|^(-1/2) psi(h^-1 m * spacing) over m in [-(n - 1), n - 1]^d, by
    psi.evaluate on the full (N, d) box of every dilation."""
    pts = quad.tensor_points([np.arange(1 - n, n) * s for n, s in zip(grid.counts, grid.spacing)])
    box = [2 * n - 1 for n in grid.counts]
    return [abs(np.linalg.det(mat)) ** -0.5 * psi.evaluate(pts @ np.linalg.inv(mat).T).reshape(box)
            for mat in grid.dilations]


def _direct_quadrature(signal, psi, grid, coeffs):
    """Coefficients and the synthesis sum (c_psi = 1) by quasi_regular_evaluate."""
    lattice = grid.lattice_points()
    vol = grid.cell_volume()
    direct = np.empty((len(grid.dilations), len(lattice)))
    recon = np.zeros(len(lattice))
    for i, mat in enumerate(grid.dilations):
        scale = grid.dilation_weights[i] / abs(np.linalg.det(mat))
        for k, (x, c) in enumerate(zip(lattice, coeffs[i].ravel())):
            atom = tr.quasi_regular_evaluate(x, mat, psi, lattice)
            direct[i, k] = np.sum(signal.values.ravel() * atom) * vol
            recon += scale * c * atom
    return direct.reshape(coeffs.shape), (recon * vol).reshape(grid.counts)


@pytest.mark.parametrize("case", ["similitude", "laplacian", "shearlet3d"])
def test_sampling_matches_direct_and_dense_routes(case):
    if case == "similitude":
        signal, psi = _signal((14, 17)), PSI
        grid = _similitude_grid(signal)
    elif case == "laplacian":
        signal = _signal((14, 17))
        psi = at.make_atom(gr.Similitude(2), 2, at.spline_base([5, 5]))
        assert psi.plan.kind == "laplacian"
        grid = tr.make_transform_grid(SPEC, signal, r_max=2.0, n_r=3, t_max=1.5, n_t=3)
    else:
        spec = gr.standard_shearlet_group(3)
        signal, psi = _signal((10, 10, 10)), at.make_atom(spec, 2, at.spline_base([5, 5, 5]))
        grid = tr.make_transform_grid(spec, signal, r_max=1.5, n_r=3, t_max=1.0, n_t=2)
        assert len(grid.dilations) == 24
    coeffs = tr.analyze(signal, psi, grid).values
    recon = tr.synthesize(tr.CoefficientField(grid, coeffs), psi, grid, c_psi=1.0).values
    assert np.abs(coeffs).max() > 0.1 and np.abs(recon).max() > 0.1
    direct, direct_recon = _direct_quadrature(signal, psi, grid, coeffs)
    assert np.abs(coeffs - direct).max() <= 1e-8
    assert np.abs(recon - direct_recon).max() <= 1e-8
    vol = grid.cell_volume()
    dense = _dense_atoms(psi, grid)
    scale = grid.dilation_weights / np.abs(np.linalg.det(grid.dilations))
    dense_coeffs = np.array([_correlate(signal.values, g) * vol for g in dense])
    dense_recon = vol * sum(s * _correlate(c, g[(slice(None, None, -1),) * g.ndim])
                            for s, c, g in zip(scale, coeffs, dense))
    assert np.abs(coeffs - dense_coeffs).max() <= 1e-12 * np.abs(dense_coeffs).max()
    assert np.abs(recon - dense_recon).max() <= 1e-12 * np.abs(dense_recon).max()


def test_evaluate_coords_broadcasts_factors_like_evaluate():
    for psi in (PSI, at.make_atom(gr.Similitude(2), 2, at.spline_base([5, 5]))):
        x = np.linspace(-3.5, 3.5, 23)
        y = np.linspace(-2.0, 3.1, 9)
        pts = quad.tensor_points([x, y])
        assert np.array_equal(psi.evaluate_coords([x[:, None], y[None, :]]).ravel(),
                              psi.evaluate(pts))


# ---------------------------------------------------------------------------
# the members of an orbit of h -> +-RhR share one sampled atom and one atom FFT
# ---------------------------------------------------------------------------

def _count_samples(monkeypatch):
    """A list that grows by one per sampled atom factor evaluation (Atom.evaluate_coords)."""
    sampled = []
    evaluate_coords = at.Atom.evaluate_coords
    monkeypatch.setattr(at.Atom, "evaluate_coords",
                        lambda self, coords: sampled.append(1) or evaluate_coords(self, coords))
    return sampled


def _halves(grid):
    """p, asserting that the second half of grid is the exact negative of its first p."""
    p = len(grid.dilations) // 2
    assert np.array_equal(grid.dilations[p:2 * p], -grid.dilations[:p])
    return p


def test_paired_grid_matches_the_same_grid_without_pairs(monkeypatch):
    # without its -h half a grid keeps its orbits of RhR, and each row keeps its bits
    sampled = _count_samples(monkeypatch)
    signal = _random_signal((24, 20))
    paired = tr.make_transform_grid(SPEC, signal, r_max=2.0, n_r=9, t_max=1.5, n_t=5)
    p = _halves(paired)
    assert p == 45
    half = dataclasses.replace(paired, dilations=paired.dilations[:p],
                               dilation_weights=paired.dilation_weights[:p])
    results = []
    # 9 r values times the t orbits {0}, {+-0.75}, {+-1.5}: 27 orbits in both grids
    for grid in (paired, half):
        sampled.clear()
        results.append(tr.analyze(signal, PSI, grid).values)
        assert len(sampled) == 27  # once per orbit
    assert np.array_equal(results[0][:p], results[1])


def test_a_reversed_half_grid_samples_as_the_ordered_grid(monkeypatch):
    """-h is looked up by value, so a grid whose -h half comes in another order samples
    as many atoms as the ordered grid and gives the same rows and reconstruction, bit for
    bit: each orbit derives its members in the same order from the same sampled atom."""
    sampled = _count_samples(monkeypatch)
    signal = _random_signal((24, 20))
    ordered = tr.make_transform_grid(SPEC, signal, r_max=2.0, n_r=9, t_max=1.5, n_t=5)
    p = _halves(ordered)
    flip = np.r_[:p, 2 * p - 1:p - 1:-1]  # the second half reversed
    reversed_half = dataclasses.replace(ordered, dilations=ordered.dilations[flip],
                                        dilation_weights=ordered.dilation_weights[flip])
    results = []
    for grid in (ordered, reversed_half):
        sampled.clear()
        coeffs = tr.analyze(signal, PSI, grid)
        recon = tr.synthesize(coeffs, PSI, grid, c_psi=1.0).values
        assert len(sampled) == 2 * 27  # once per orbit, per direction
        results.append((coeffs.values, recon))
    (c_ordered, r_ordered), (c_reversed, r_reversed) = results
    c_reversed = c_reversed[flip]  # flip is its own inverse
    assert np.array_equal(c_ordered, c_reversed) and np.array_equal(r_ordered, r_reversed)


def test_only_exact_negatives_pair(monkeypatch):
    # a nudged -h joins no orbit: it samples its own atom and gives its own row
    sampled = _count_samples(monkeypatch)
    signal = _random_signal((8, 8))
    grid = tr.make_transform_grid(SPEC, signal, r_max=2.0, n_r=3, t_max=1.5, n_t=2)
    _halves(grid)
    nudged = grid.dilations.copy()
    nudged[-1, 0, 0] = np.nextafter(nudged[-1, 0, 0], 0.0)
    nudged = dataclasses.replace(grid, dilations=nudged)
    orbits = [[o for b in tr._blocks(PSI, g) for o in b] for g in (grid, nudged)]
    assert [len(o) for o in orbits] == [3, 4]  # the 3 r values, t = +-1.5 in one orbit each
    assert orbits[1][-1] == [((), [(11, 1)])]
    sampled.clear()
    row = tr.analyze(signal, PSI, nudged).values[11]
    assert len(sampled) == 4  # once per orbit
    own = tr.analyze(signal, PSI, _one_dilation(nudged, 11)).values[0]
    assert np.abs(row - own).max() <= 1e-12 * np.abs(own).max()
    # rotations by 0, 0.4, 2.0 and -1.1: no dilation is another's +-RhR
    assert len([o for b in tr._blocks(PSI, _similitude_grid(signal)) for o in b]) == 12


@pytest.mark.parametrize("case", ["shearlet2d", "laplacian", "shearlet3d"])
def test_atom_spectrum_of_minus_h_is_the_conjugate(case):
    spec, signal, psi = SPEC, _random_signal((32, 37)), PSI
    if case == "laplacian":
        psi = at.make_atom(gr.Similitude(2), 2, at.spline_base([5, 5]))
    elif case == "shearlet3d":
        spec = gr.standard_shearlet_group(3)
        signal, psi = _signal((10, 10, 10)), at.make_atom(spec, 2, at.spline_base([5, 5, 5]))
    grid = tr.make_transform_grid(spec, signal, r_max=2.5, n_r=5, t_max=2.0, n_t=3)
    spectrum = tr._atom_spectra(psi, grid, tr.circular_shape(grid.counts))
    p = _halves(grid)
    for i in range(p):
        g, g_minus = spectrum(i), spectrum(p + i)
        assert np.abs(g_minus - np.conj(g)).max() <= 1e-13 * np.abs(g).max()


@pytest.mark.parametrize("case,reflections", [
    ("shearlet2d", {(): {1}, (1,): {1}}), ("odd", {(): {1}, (1,): {-1}}),
    ("offset", {(): {1}, (0, 1): {1}, (1,): {1}, (0,): {1}}),
    ("laplacian", {(): {1}, (1,): {1}}),
    ("shearlet3d", {(): {1}, (1,): {1}, (2,): {1}, (1, 2): {1}})])
def test_derived_orbit_spectra_match_the_sampled_ones(case, reflections):
    """Member i of a reflection has G_i = sign G, where G[k] = G_h[Rk] (conj(G_h[-Rk]) when
    R flips the halved last axis) is an index permutation of the orbit's one sampled
    spectrum; every derived spectrum matches the member's own sampled one.  A parity folds
    -RhR onto R's axes (sign sigma tau), else it is read on the axes of -R (sign tau)."""
    spec, signal, psi = SPEC, _random_signal((32, 37)), PSI
    if case == "odd":  # d/dx1 d/dx2 of the centered spline: tau = -1 for R = diag(1, -1)
        psi = at.Atom(PSI.base, at.DerivativePlan("partial", (1, 1)), 1)
    elif case == "offset":  # only axis 1 is centered: R = diag(1, -1) takes part, no parity
        psi = at.make_atom(SPEC, 2, at.spline_base([5, 5], [(-2.5, 3.5), (-3.0, 3.0)]))
    elif case == "laplacian":
        psi = at.make_atom(gr.Similitude(2), 2, at.spline_base([5, 5]))
    elif case == "shearlet3d":
        spec = gr.standard_shearlet_group(3)
        signal, psi = _signal((10, 10, 10)), at.make_atom(spec, 2, at.spline_base([5, 5, 5]))
    grid = tr.make_transform_grid(spec, signal, r_max=2.5, n_r=5, t_max=2.0, n_t=3)
    spectrum = tr._atom_spectra(psi, grid, tr.circular_shape(grid.counts))
    hit, held = {}, []
    for orbit in (orbit for block in tr._blocks(psi, grid) for orbit in block):
        for (flips, members), derived in zip(orbit, tr._spectra(spectrum, [orbit])):
            assert derived[0] == members
            for i, sign in members:
                direct = spectrum(i)
                assert np.abs(sign * derived[1] - direct).max() <= 1e-13 * np.abs(direct).max()
                hit.setdefault(flips, set()).add(sign)
                held.append(i)
    assert hit == reflections
    assert sorted(held) == list(range(len(grid.dilations)))


def test_an_atom_without_centered_axes_samples_one_atom_per_pair(monkeypatch):
    """No axis is centered, so the orbits are the +-h pairs, and every row keeps the bits of
    the pair path: W_h from conj(G_h), W_-h from G_h."""
    psi = at.make_atom(SPEC, 2, at.spline_base([5, 5], [(-2.5, 3.5), (-3.5, 2.5)]))
    assert psi.parity() is None and psi.reflection_sign((1,)) is None
    sampled = _count_samples(monkeypatch)
    signal = _random_signal((24, 20))
    grid = tr.make_transform_grid(SPEC, signal, r_max=2.0, n_r=5, t_max=1.5, n_t=3)
    coeffs = tr.analyze(signal, psi, grid).values
    p = _halves(grid)
    assert len(sampled) == p == 15
    shape, axes = tr.circular_shape(grid.counts), (0, 1)
    spectrum, spec_f = tr._atom_spectra(psi, grid, shape), np.fft.rfftn(signal.values, shape, axes)
    for i in range(p):
        g = spectrum(i)
        for j, g_j in ((i, np.conj(g)), (p + i, g)):
            row = np.fft.irfftn(g_j * spec_f, shape, axes=axes)[:24, :20] * grid.cell_volume()
            assert np.array_equal(coeffs[j], row)


@pytest.mark.parametrize("case,sigma", [("shearlet2d", 1), ("odd", -1), ("laplacian", 1),
                                        ("shearlet3d", -1)])
def test_parity_pairs_match_the_conjugate_path(monkeypatch, case, sigma):
    """A centered atom with psi(-x) = sigma psi(x) has G_-h = sigma G_h: analyze stores
    sigma W_h as the -h row, synthesize folds h and -h into one FFT.  With the parity
    hidden (no reflection sign for a set of axes with axis 0), -h reads conj(G_h)."""
    spec, signal, psi = SPEC, _random_signal((24, 20)), PSI
    if case == "odd":
        psi = at.make_atom(SPEC, 1, at.spline_base([5, 5]))
    elif case == "laplacian":
        psi = at.make_atom(gr.Similitude(2), 2, at.spline_base([5, 5]))
    elif case == "shearlet3d":
        spec = gr.standard_shearlet_group(3)
        signal, psi = _signal((10, 10, 10)), at.make_atom(spec, 1, at.spline_base([5, 5, 5]))
    assert psi.parity() == sigma
    grid = tr.make_transform_grid(spec, signal, r_max=2.0, n_r=5, t_max=1.5, n_t=3)
    grid = dataclasses.replace(  # one single dilation after the two halves
        grid, dilations=np.concatenate([grid.dilations, [np.eye(grid.dim) * 0.8]]),
        dilation_weights=np.append(grid.dilation_weights, 0.3))
    p = _halves(grid)
    assert p == (len(grid.dilations) - 1) // 2 > 8
    coeffs = tr.analyze(signal, psi, grid, threads=2)
    assert np.array_equal(coeffs.values[p:2 * p], sigma * coeffs.values[:p])
    recon = tr.synthesize(coeffs, psi, grid, c_psi=1.0, threads=2).values
    reflection_sign = at.Atom.reflection_sign
    monkeypatch.setattr(at.Atom, "reflection_sign",
                        lambda self, axes: None if 0 in axes else reflection_sign(self, axes))
    assert psi.parity() is None
    general = tr.analyze(signal, psi, grid)
    assert np.array_equal(general.values[:p], coeffs.values[:p])  # first rows keep their bits
    assert np.abs(general.values - coeffs.values).max() <= 1e-12 * np.abs(general.values).max()
    general_recon = tr.synthesize(coeffs, psi, grid, c_psi=1.0).values
    assert np.abs(recon - general_recon).max() <= 1e-12 * np.abs(general_recon).max()
