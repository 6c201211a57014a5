"""cwt/icwt stream their coefficients block by block: every dilation lands in one
block, a coefficient file holds the same bits as the in-memory field, and the
commands' traced peak stays a fraction of the coefficient bytes."""

import contextlib
import dataclasses
import io
import json
import os
import sys
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from orbitlet import atoms as at
from orbitlet import cli
from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import quadrature as quad
from orbitlet import transform as tr

SPEC = gr.Shearlet2D(0.5)
PSI = at.make_atom(SPEC, 2, at.spline_base([5, 5]))


@pytest.mark.parametrize("n,box,orbits", [(16, (2.0, 5, 1.5, 3), 10),
                                           (64, (2.5, 41, 2.0, 17), 41 * 9),
                                           (128, (2.5, 21, 2.0, 9), 21 * 5)])
def test_blocks_hold_every_dilation_once(n, box, orbits):
    # the benchmark-shaped grids (64^2 and 128^2) sample one atom per orbit of h -> +-RhR,
    # R = diag(1, -1): n_r times the (n_t + 1) / 2 t orbits {0}, {+-t}, ...
    ordered = tr.make_transform_grid(SPEC, tr.modulated_gaussian(extent=8 / 3, n=n), *box)
    p = len(ordered.dilations) // 2
    assert np.array_equal(ordered.dilations[p:], -ordered.dilations[:p])
    flip = np.r_[:p, 2 * p - 1:p - 1:-1]  # the second half reversed: -h is found by value
    reversed_half = dataclasses.replace(ordered, dilations=ordered.dilations[flip],
                                        dilation_weights=ordered.dilation_weights[flip])
    odd = dataclasses.replace(ordered, dilations=np.concatenate([ordered.dilations, [np.eye(2)]]),
                              dilation_weights=np.append(ordered.dilation_weights, 0.3))
    # the identity appended to odd equals RhR for h = 1 (r = 0, t = 0) and joins its orbit
    for grid in (ordered, reversed_half, odd):
        blocks = tr._blocks(PSI, grid)
        assert all(len(block) == 8 for block in blocks[:-1]) and 0 < len(blocks[-1]) <= 8
        found = [orbit for block in blocks for orbit in block]
        assert len(found) == orbits
        firsts = [orbit[0][1][0][0] for orbit in found]
        assert firsts == sorted(firsts)  # the blocks come in order of their representatives
        held = []
        for first, orbit in zip(firsts, found):
            h = grid.dilations[first]
            assert orbit[0][0] == ()  # h itself is the first member of the first reflection
            for flips, members in orbit:  # PSI is even: RhR, then -RhR, on R's axes, sign 1
                r = np.array([1.0, -1.0 if flips else 1.0])
                rhr = h * np.outer(r, r)
                eps = [e for i, _ in members for e in (1, -1)
                       if np.array_equal(grid.dilations[i], e * rhr)]
                assert len(eps) == len(members) and eps == sorted(eps, reverse=True)
                assert all(sign == 1 for _, sign in members)
                held += [i for i, _ in members]
        assert sorted(held) == list(range(len(grid.dilations)))
    if n == 16:  # per r: t = -1.5 (sampled) with its RhR at t = 1.5, then t = 0, which R fixes
        # h and -h share g_h, RhR and -RhR its reflection on axis 1; every sign is 1
        assert tr._blocks(PSI, ordered)[0][:3] == [
            [((), [(0, 1), (15, 1)]), ((1,), [(2, 1), (17, 1)])],
            [((), [(1, 1), (16, 1)])],
            [((), [(3, 1), (18, 1)]), ((1,), [(5, 1), (20, 1)])]]


def _odd_grid(signal):
    """A shearlet grid whose second half negates its first, plus one single dilation, so
    the last block straddles."""
    grid = tr.make_transform_grid(SPEC, signal, r_max=2.0, n_r=5, t_max=1.5, n_t=3)
    grid = dataclasses.replace(grid, dilations=np.concatenate([grid.dilations, [np.eye(2)]]),
                               dilation_weights=np.append(grid.dilation_weights, 0.3))
    assert len(grid.dilations) == 31
    assert np.array_equal(grid.dilations[15:30], -grid.dilations[:15])
    return grid


def test_coefficient_file_holds_the_in_memory_bits(tmp_path):
    signal = tr.modulated_gaussian(extent=8 / 3, n=16, sigma=0.9)
    grid = _odd_grid(signal)
    memory = tr.analyze(signal, PSI, grid)
    path = str(tmp_path / "coeffs.bin")
    stored = tr.analyze(signal, PSI, grid, threads=2, out=tr.coefficient_file(path, grid))
    assert np.array_equal(at.sampled_from_binary(path).values, memory.values)
    for i in (0, 15, 14, 29, 30):  # first members, their partners and the single
        alone = dataclasses.replace(grid, dilations=grid.dilations[i:i + 1],
                                    dilation_weights=grid.dilation_weights[i:i + 1])
        own = tr.analyze(signal, PSI, alone).values[0]  # the partner's own atom: G_-h = conj(G_h)
        assert np.abs(own - memory.values[i]).max() <= 1e-12 * np.abs(own).max()
    assert np.array_equal(tr.synthesize(stored, PSI, grid, 1.5, threads=2).values,
                          tr.synthesize(memory, PSI, grid, 1.5).values)
    weight = em.WeightSpec.make(p=2, q=2, s=1)
    assert tr.coefficient_norm(stored, weight) == tr.coefficient_norm(memory, weight)


def test_synthesize_refuses_coefficients_that_are_not_finite():
    signal = tr.modulated_gaussian(extent=8 / 3, n=16, sigma=0.9)
    grid = _odd_grid(signal)
    values = tr.analyze(signal, PSI, grid).values
    values[30, 2, 3] = np.inf  # the single, alone at the end of the last block
    with pytest.raises(tr.TransformError, match="not finite"):
        tr.synthesize(tr.CoefficientField(grid, values), PSI, grid, 1.0, threads=2)


def test_synthesize_refuses_a_reconstruction_that_is_not_finite():
    signal = tr.modulated_gaussian(extent=8 / 3, n=16, sigma=0.9)
    grid = _odd_grid(signal)
    huge = np.full((len(grid.dilations), 16, 16), 1e308)  # finite, but the sum overflows
    with np.errstate(all="ignore"), pytest.raises(tr.TransformError, match="not finite"):
        tr.synthesize(tr.CoefficientField(grid, huge), PSI, grid, 1.0)


def test_cwt_and_icwt_peak_below_a_quarter_of_the_coefficients(tmp_path, monkeypatch):
    # 1394 dilations of a 32^2 signal: 11.4 MB of coefficients; icwt is given --cpsi,
    # as the Calderon quadrature is sized by the dilation box (about 3.8 MB traced here)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(gr.spec_to_json(SPEC)))
    (tmp_path / "atom.json").write_text(json.dumps(PSI.to_json()))
    at.sampled_to_binary(tr.modulated_gaussian(extent=8 / 3, n=32, sigma=0.9), "sig.bin")
    common = ["--group", "spec.json", "--atom", "atom.json", "--grid", "2.5,41,2.0,17"]
    coefficient_bytes = 1394 * 32 * 32 * 8
    for argv in (["cwt", *common, "--signal", "sig.bin", "--out", "c.bin"],
                 ["icwt", *common, "--coeffs", "c.bin", "--cpsi", "1", "--out", "r.bin"]):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["--threads", "2", *argv]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < coefficient_bytes / 4, f"{argv[0]} traced peak {peak / 2 ** 20:.1f} MB"
    assert (tmp_path / "c.bin").stat().st_size == 12 + 3 * 24 + coefficient_bytes


class _RowLog:
    """An in-memory row store that logs how many rows each read or write moves."""

    def __init__(self, values):
        self.values, self.shape, self.moved = values, values.shape, []

    def __getitem__(self, rows):
        self.moved.append(len(range(*rows.indices(len(self.values)))))
        return self.values[rows].copy()

    def __setitem__(self, rows, values):
        self.moved.append(len(range(*rows.indices(len(self.values)))))
        self.values[rows] = values


def test_workers_move_one_row_at_a_time():
    # analyze stores each row of a +-h pair as it is computed, synthesize and the norm read
    # one row at a time: no access moves a block's range of up to 8 rows
    signal = tr.modulated_gaussian(extent=8 / 3, n=16, sigma=0.9)
    grid = _odd_grid(signal)
    memory = tr.analyze(signal, PSI, grid)
    log = _RowLog(np.zeros_like(memory.values))
    stored = tr.analyze(signal, PSI, grid, threads=2, out=log)
    assert log.moved == [1] * 31 and np.array_equal(log.values, memory.values)
    log.moved.clear()
    assert np.array_equal(tr.synthesize(stored, PSI, grid, 1.5, threads=2).values,
                          tr.synthesize(memory, PSI, grid, 1.5).values)
    weight = em.WeightSpec.make(p=2, q=2, s=1)
    assert tr.coefficient_norm(stored, weight) == tr.coefficient_norm(memory, weight)
    assert log.moved == [1] * 62  # every row once by synthesize, once by the norm


def test_grid_file_rows_move_on_its_one_descriptor(tmp_path, monkeypatch):
    path = str(tmp_path / "grid.bin")
    values = np.arange(60.0).reshape(5, 3, 4)
    written = at.GridFile.create(path, [0.0] * 3, [1.0] * 3, values.shape)
    read = at.GridFile.open(path)

    def no_open(*args, **kwargs):
        raise AssertionError("a row access opened the file")

    monkeypatch.setattr("builtins.open", no_open)
    monkeypatch.setattr(os, "open", no_open)
    for i in (4, 0, 2, 1, 3):
        written[i:i + 1] = values[i]
    written[5:5] = values[:0]
    assert np.array_equal(read[1:4], values[1:4]) and read[3:1].shape == (0, 3, 4)
    monkeypatch.undo()
    for grid in (written, read):
        grid.close()
        with pytest.raises(OSError):
            os.fstat(grid.fd)
    with at.GridFile.open(path) as grid:
        assert np.array_equal(grid[:], values)


def test_grid_file_rows_move_from_many_threads_at_once(tmp_path):
    # positional reads and writes share no file offset, so concurrent rows never mix
    rows = np.random.default_rng(4).standard_normal((64, 8, 8))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with at.GridFile.create(str(tmp_path / "g.bin"), [0.0] * 3, [1.0] * 3,
                                rows.shape) as grid:
            def move(i):  # write row i, then read it back
                grid[i:i + 1] = rows[i]
                return grid[i:i + 1][0]

            with ThreadPoolExecutor(max_workers=8) as pool:
                back = list(pool.map(move, range(64), timeout=60))
            assert np.array_equal(np.array(back), rows) and np.array_equal(grid[:], rows)
    finally:
        sys.setswitchinterval(interval)


def test_calderon_constant_takes_the_spectrum_once_per_node():
    # psi is real, so |psi^(-xi)|^2 = |psi^(xi)|^2: the two-sided integrand over the whole
    # grid at once (2 spectra of all 20,480 nodes) gives the value that one spectrum per
    # node, one r panel (8 r nodes x 128 t nodes) at a time, gives
    chart = gr.shear_chart(SPEC)
    axes = [quad.Axis(*quad.composite_gauss(-b, b, int(8 * b), 8)) for b in (2.5, 2.0)]

    def two_sided(pts):
        dual, r = chart.dual(1.0, pts[:, 0], pts[:, 1:]), pts[:, 0]
        return (np.abs(PSI.spectrum(dual)) ** 2 + np.abs(PSI.spectrum(-dual)) ** 2) * chart.haar(r)

    calls = []
    counting = types.SimpleNamespace(spectrum=lambda pts: calls.append(len(pts)) or
                                     PSI.spectrum(pts))
    value = tr.calderon_constant(SPEC, counting, r_max=2.5, t_max=2.0)
    reference = quad.tensor_eval(axes, two_sided)
    assert abs(value - reference) <= 1e-12 * reference
    assert calls == [8 * 128] * 20


def test_cwt_and_icwt_hold_one_pair_per_worker(tmp_path, monkeypatch):
    # a 128^2 signal on 30 dilations: two blocks, both in flight on 2 workers.  A worker
    # holds one +-h pair (its two rows and the pair's atom spectra) and traces 7.1 MB for
    # cwt and 6.5 MB for icwt here; workers that build whole blocks of rows, which then
    # queue for the consumer, traced 11.8 and 10.6 MB
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(gr.spec_to_json(SPEC)))
    (tmp_path / "atom.json").write_text(json.dumps(PSI.to_json()))
    at.sampled_to_binary(tr.modulated_gaussian(extent=8 / 3, n=128, sigma=0.9), "sig.bin")
    common = ["--group", "spec.json", "--atom", "atom.json", "--grid", "2.5,5,2.0,3"]
    for argv in (["cwt", *common, "--signal", "sig.bin", "--out", "c.bin"],
                 ["icwt", *common, "--coeffs", "c.bin", "--cpsi", "1", "--out", "r.bin"]):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["--threads", "2", *argv]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2 ** 20, f"{argv[0]} traced peak {peak / 2 ** 20:.1f} MB"
