"""cwt/icwt stream their coefficients block by block: every dilation lands in one
block, a coefficient file holds the same bits as the in-memory field, and the
commands' traced peak stays a fraction of the coefficient bytes."""

import contextlib
import dataclasses
import io
import json
import tracemalloc
import types

import numpy as np
import pytest

from orbitlet import atoms as at
from orbitlet import cli
from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import transform as tr

SPEC = gr.Shearlet2D(0.5)
PSI = at.make_atom(SPEC, 2, at.spline_base([5, 5]))


@pytest.mark.parametrize("n,pairs", [(16, 8), (30, 15), (31, 15), (378, 189), (1394, 697),
                                     (90, 0), (7, 0), (33, 16)])
def test_blocks_hold_every_dilation_once(n, pairs):
    grid = types.SimpleNamespace(dilations=range(n), pairs=pairs)
    seen = []
    for first, second in tr._map_blocks(lambda block: block, grid, 1):
        rows = [*first, *second]  # the order a block holds its rows in
        assert len(rows) <= tr.DILATION_BLOCK
        for dilations, places in tr._atoms((first, second)):
            assert [rows[k] for k in places] == list(dilations)
            if len(dilations) == 2:
                assert dilations[1] == pairs + dilations[0]
            else:
                assert dilations[0] >= 2 * pairs
        seen += rows
    assert sorted(seen) == list(range(n))


def _odd_grid(signal):
    """A paired shearlet grid plus one single dilation, so the last block straddles."""
    grid = tr.make_transform_grid(SPEC, signal, r_max=2.0, n_r=5, t_max=1.5, n_t=3)
    grid = dataclasses.replace(grid, dilations=np.concatenate([grid.dilations, [np.eye(2)]]),
                               dilation_weights=np.append(grid.dilation_weights, 0.3))
    assert (len(grid.dilations), grid.pairs) == (31, 15)
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
