"""Out-of-range weights and grids, and groups haar-check cannot integrate,
are refused with a documented exit code and one stderr line."""

import json

import numpy as np
import pytest

from orbitlet import algebra as al
from orbitlet import cli
from orbitlet import groups as gr
from orbitlet import orbit as ob

GROUPS = {
    "shearlet": gr.spec_to_json(gr.Shearlet2D(0.5)),
    "similitude3": {"family": "similitude", "dim": 3},
    "product": {"family": "direct_product", "factors": [
        gr.spec_to_json(gr.AbelianFromAlgebra(al.polynomial_quotient_algebra(2)))]},
    "reals": {"family": "abelian_algebra", "algebra": {"dim": 1, "tensor": [[[1]]]}},
    "negative_order_atom": {"base": [{"degree": 5, "support": [-3.0, 3.0]}] * 2,
                            "plan": {"kind": "partial", "orders": [-1, 0]}, "moment_order": 0},
}

# (argv with {group} and {out} placeholders, exit code, stderr prefix)
CASES = [
    ("exponents --group {shearlet} --weight 2,nan,0", 2, "error: bad weight spec"),
    ("moments --group {shearlet} --weight 0,2,0,power:1", 2, "error: bad weight spec"),
    ("moments --group {shearlet} --weight 2,0,0,power:1", 2, "error: bad weight spec"),
    ("envelope --group {shearlet} --grid nan:1:3,0:1:3 --out {out}", 2, "error: bad grid"),
    ("envelope --group {shearlet} --grid 0:inf:3,0:1:3 --out {out}", 2, "error: bad grid"),
    ("envelope --group {shearlet} --grid 0:1:0,0:1:3 --out {out}", 2, "error: bad grid"),
    ("haar-check --group {similitude3}", 3, "unsupported: "),
    ("haar-check --group {product}", 3, "unsupported: "),
    ("describe --group {reals}", 2, "error: "),
    ("haar-check --group {shearlet} --sigma nan", 2, "error: --sigma"),
    ("haar-check --group {shearlet} --sigma 0", 2, "error: --sigma"),
    ("atom build --group {shearlet} --order -1 --out {out}", 2, "error: atom order"),
    ("--threads 0 exponents --group {shearlet} --empirical", 2, "error: --threads"),
    ("admissibility --group {shearlet} --atom {negative_order_atom}", 2,
     "error: cannot read atom"),
]


def _no_quadrature(*args, **kwargs):
    raise AssertionError("orbit integral ran for a refused group")


@pytest.fixture
def paths(tmp_path, monkeypatch):
    monkeypatch.setattr(ob, "orbit_integral", _no_quadrature)
    out = {"out": str(tmp_path / "out.csv")}
    for name, doc in GROUPS.items():
        out[name] = str(tmp_path / f"{name}.json")
        with open(out[name], "w") as fh:
            json.dump(doc, fh)
    return out


@pytest.mark.parametrize("argv,code,prefix", CASES, ids=[c[0] for c in CASES])
def test_refused_with_one_line(capsys, paths, argv, code, prefix):
    assert cli.main([token.format(**paths) for token in argv.split()]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


def test_haar_check_refuses_before_quadrature(monkeypatch):
    monkeypatch.setattr(ob, "orbit_integral", _no_quadrature)
    with pytest.raises(gr.UnsupportedSpecError):
        ob.haar_transfer_check(gr.Similitude(4), lambda pts: np.ones(len(pts)))
