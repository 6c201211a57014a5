"""Malformed group specs and truncated or lying grid files exit 2 with one stderr line."""

import json
import struct

import numpy as np
import pytest

from orbitlet import atoms as at
from orbitlet import cli
from orbitlet import groups as gr

E12 = [[0.0, 1.0], [0.0, 0.0]]

# a coefficient file header claiming 2^14 * 2^13 * 2^13 = 2^40 values (8 TB) over 300 bytes
LYING_HEADER = (b"ORBLETF1" + struct.pack("<I", 3) + struct.pack("<ddQ", 0.0, 1.0, 2 ** 14)
                + 2 * struct.pack("<ddQ", 0.0, 0.1, 2 ** 13) + bytes(300))

# (case, group document or coefficient file (the byte length to cut the valid one
# to, or the file's bytes), command)
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
    ("Y-trace-overflows", {**gr.spec_to_json(gr.standard_shearlet_group(3)),
                           "Y": [1.0, 1e308, 1e308]}, "describe"),
    ("Y-entry-overflows", {**gr.spec_to_json(gr.standard_shearlet_group(3)),
                           "Y": [1e-5, 1e305, 1.0]}, "describe"),
    ("empty-product", {"family": "direct_product", "factors": []}, "describe"),
    ("empty-product", {"family": "direct_product", "factors": []}, "haar-check"),
    ("truncated-payload", 300, "icwt"),
    ("truncated-header", 20, "icwt"),
    ("lying-header", LYING_HEADER, "icwt"),
    ("abelian-without-unit", {"family": "abelian_algebra", "algebra": {
        "dim": 2, "unit_index": None, "tensor": [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]}},
     "describe"),
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
    if not isinstance(doc, dict):
        if isinstance(doc, int):
            with open(files["coeffs.bin"], "rb") as fh:
                doc = fh.read(doc)
        (tmp_path / "truncated.bin").write_bytes(doc)
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


# signal CSV files whose header is malformed or does not fit the values: case -> text
BAD_CSV = {
    "bare-hash": "#\n# dim 2\n",
    "no-counts": "# dim 2\n",
    "short-origin": "# counts 4 4\n# origin 0\n# spacing 0.25 0.25\n" + "1.0\n" * 16,
    "long-spacing": "# counts 4 4\n# origin 0 0\n# spacing 0.25 0.25 1\n" + "1.0\n" * 16,
    "negative-count": "# counts -1 4\n# origin 0 0\n# spacing 0.25 0.25\n" + "1.0\n" * 16,
    "too-few-values": "# counts 4 4\n# origin 0 0\n# spacing 0.25 0.25\n" + "1.0\n" * 15,
}


@pytest.mark.parametrize("text", BAD_CSV.values(), ids=BAD_CSV.keys())
def test_malformed_csv_signal_exits_2_with_one_line(capsys, files, tmp_path, text):
    (tmp_path / "signal.csv").write_text(text)
    code = cli.main(["cwt", "--group", files["group.json"], "--atom", files["atom.json"],
                     "--signal", str(tmp_path / "signal.csv"), "--grid", "1,2,1,2",
                     "--out", str(tmp_path / "coeffs.bin")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot read signal ") and captured.err.count("\n") == 1
