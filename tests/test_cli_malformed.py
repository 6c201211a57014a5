"""Malformed group specs and truncated grid files exit 2 with one stderr line."""

import json

import numpy as np
import pytest

from orbitlet import atoms as at
from orbitlet import cli
from orbitlet import groups as gr

E12 = [[0.0, 1.0], [0.0, 0.0]]

# (case, group document or the byte length of a truncated coefficient file, command)
CASES = [
    ("no-dim", {"family": "diagonal"}, "describe"),
    ("dim-0", {"family": "diagonal", "dim": 0}, "haar-check"),
    ("dim-0", {"family": "diagonal", "dim": 0}, "phi-check"),
    ("dim-negative", {"family": "similitude", "dim": -2}, "describe"),
    ("dim-fractional", {"family": "diagonal", "dim": 2.7}, "describe"),
    ("c-nan", {"family": "shearlet2d", "c": float("nan")}, "describe"),
    ("c-nan", {"family": "shearlet2d", "c": float("nan")}, "exponents"),
    ("dim-3-with-2x2-basis", {"family": "generalized_shearlet", "dim": 3,
                              "shear_basis": [E12], "Y": [1.0, 0.5]}, "exponents"),
    ("Y-length-3-with-2x2-basis", {"family": "generalized_shearlet", "dim": 2,
                                   "shear_basis": [E12], "Y": [1.0, 0.5, 0.5]}, "describe"),
    ("empty-product", {"family": "direct_product", "factors": []}, "describe"),
    ("empty-product", {"family": "direct_product", "factors": []}, "haar-check"),
    ("truncated-payload", 300, "icwt"),
    ("truncated-header", 20, "icwt"),
]


@pytest.fixture
def files(tmp_path):
    spec = gr.Shearlet2D(0.5)
    paths = {name: str(tmp_path / name) for name in ("group.json", "atom.json", "coeffs.bin")}
    with open(paths["group.json"], "w") as fh:
        json.dump(gr.spec_to_json(spec), fh)
    with open(paths["atom.json"], "w") as fh:
        json.dump(at.make_atom(spec, 2, at.spline_base([5, 5])).to_json(), fh)
    at.sampled_to_binary(at.SampledFunction(origin=[0.0, 0.0, 0.0], spacing=[1.0, 0.1, 0.1],
                                            values=np.zeros((2, 8, 8))), paths["coeffs.bin"])
    return paths


@pytest.mark.parametrize("case,doc,command",
                         [pytest.param(*row, id=f"{row[0]}-{row[2]}") for row in CASES])
def test_malformed_input_exits_2_with_one_line(capsys, files, tmp_path, case, doc, command):
    if isinstance(doc, int):
        with open(files["coeffs.bin"], "rb") as fh:
            (tmp_path / "truncated.bin").write_bytes(fh.read(doc))
        argv = ["icwt", "--group", files["group.json"], "--atom", files["atom.json"],
                "--coeffs", str(tmp_path / "truncated.bin"), "--grid", "1,1,1,2",
                "--out", str(tmp_path / "recon.bin")]
    else:
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        argv = [command, "--group", str(tmp_path / "bad.json")]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
