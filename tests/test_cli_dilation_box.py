"""CLI handling of malformed dilation boxes in cwt and icwt."""

import json

import numpy as np
import pytest

from orbitlet import atoms as at
from orbitlet import cli
from orbitlet import groups as gr

BAD_GRIDS = ["2.5,5,-2,3",    # negative t_max: negative Haar cell weights
             "nan,5,2,3",     # non-finite r_max
             "2.5,5,nan,3",
             "inf,5,2,3",
             "0,5,2,3",       # empty scale range
             "2.5,0,2,3",     # no scale samples
             "2.5,5,2,0",
             "2.5,-3,2,3"]


@pytest.fixture
def files(tmp_path):
    spec = gr.Shearlet2D(0.5)
    paths = {name: str(tmp_path / name)
             for name in ("group.json", "atom.json", "signal.bin", "coeffs.bin")}
    with open(paths["group.json"], "w") as fh:
        json.dump(gr.spec_to_json(spec), fh)
    with open(paths["atom.json"], "w") as fh:
        json.dump(at.make_atom(spec, 2, at.spline_base([5, 5])).to_json(), fh)
    at.sampled_to_binary(at.SampledFunction(origin=[0.0, 0.0], spacing=[0.1, 0.1],
                                            values=np.zeros((8, 8))), paths["signal.bin"])
    at.sampled_to_binary(at.SampledFunction(origin=[0.0, 0.0, 0.0],
                                            spacing=[1.0, 0.1, 0.1],
                                            values=np.zeros((2, 8, 8))), paths["coeffs.bin"])
    return paths


@pytest.mark.parametrize("command", ["cwt", "icwt"])
@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_bad_dilation_box_exits_2_with_one_line(capsys, files, tmp_path, command, grid):
    source = (["--signal", files["signal.bin"]] if command == "cwt"
              else ["--coeffs", files["coeffs.bin"]])
    code = cli.main([command, "--group", files["group.json"], "--atom", files["atom.json"],
                     *source, "--grid", grid, "--out", str(tmp_path / "out.bin")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_small_dilation_box_round_trips(capsys, files, tmp_path):
    # boxes narrower than one Calderon quadrature panel still invert
    common = ["--group", files["group.json"], "--atom", files["atom.json"],
              "--grid", "0.1,3,0.1,3"]
    coeffs = str(tmp_path / "small.bin")
    assert cli.main(["cwt", *common, "--signal", files["signal.bin"], "--out", coeffs]) == 0
    capsys.readouterr()
    assert cli.main(["icwt", *common, "--coeffs", coeffs,
                     "--out", str(tmp_path / "recon.bin")]) == 0
    assert json.loads(capsys.readouterr().out)["c_psi"] > 0
