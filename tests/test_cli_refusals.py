"""Out-of-range weights and grids, and groups haar-check cannot integrate,
are refused with a documented exit code and one stderr line."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types

import numpy as np
import pytest

import orbitlet
from orbitlet import algebra as al
from orbitlet import atoms as at
from orbitlet import cli
from orbitlet import groups as gr
from orbitlet import orbit as ob
from orbitlet import transform as tr

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

GROUPS = {
    "shearlet": gr.spec_to_json(gr.Shearlet2D(0.5)),
    "toeplitz3": gr.spec_to_json(gr.toeplitz_shearlet_group(3)),
    "standard3": gr.spec_to_json(gr.standard_shearlet_group(3)),
    "similitude3": {"family": "similitude", "dim": 3},
    "product": {"family": "direct_product", "factors": [
        gr.spec_to_json(gr.AbelianFromAlgebra(al.polynomial_quotient_algebra(2)))]},
    "reals": {"family": "abelian_algebra", "algebra": {"dim": 1, "tensor": [[[1]]]}},
    "zero_denominator_algebra": {"family": "abelian_algebra", "algebra": {
        "dim": 2, "tensor": [[[1, 0], [0, 1]], [[0, 1], [0, "1/0"]]]}},
    "infinite_algebra": {"family": "abelian_algebra", "algebra": {  # dumped as Infinity
        "dim": 2, "tensor": [[[1, 0], [0, 1]], [[0, 1], [0, float("inf")]]]}},
    "negative_order_atom": {"base": [{"degree": 5, "support": [-3.0, 3.0]}] * 2,
                            "plan": {"kind": "partial", "orders": [-1, 0]}, "moment_order": 0},
    "weird_plan_atom": {"base": [{"degree": 5, "support": [-3.0, 3.0]}] * 2,
                        "plan": {"kind": "weird", "orders": [1]}, "moment_order": 2},
    "short_orders_atom": {"base": [{"degree": 5, "support": [-3.0, 3.0]}] * 2,
                          "plan": {"kind": "partial", "orders": [2]}, "moment_order": 2},
    "flat_support_atom": {"base": [{"degree": 5, "support": [1.0, 1.0]}] * 2,
                          "plan": {"kind": "partial", "orders": [2, 0]}, "moment_order": 2},
    "one_dim_atom": {"base": [{"degree": 5, "support": [-3.0, 3.0]}],
                     "plan": {"kind": "partial", "orders": [2]}, "moment_order": 2},
    "string_threads_config": {"threads": "2.5"},
    "list_config": ["threads", 2],
    "typo_config": {"budgte": 10},
    "null_group_config": {"group": None},
    "huge_c": {"family": "shearlet2d", "c": 1e308},
    "c_1000": {"family": "shearlet2d", "c": 1000},
    "c_1e300": {"family": "shearlet2d", "c": 1e300},
    "nested": gr.spec_to_json(gr.DirectProduct((gr.Similitude(2), gr.DirectProduct(
        (gr.Diagonal(1), gr.AbelianFromAlgebra(al.trivial_product_algebra(2))))))),
    "atom": at.make_atom(gr.Shearlet2D(0.5), 2, at.spline_base([5, 5])).to_json(),
}
# sampled grids written as binary files: name -> values
SIGNALS = {"signal": np.ones((16, 16)), "cube_signal": np.ones((4, 4, 4)),
           "nan_signal": np.full((16, 16), np.nan),
           "coeffs": np.ones((8, 16, 16)),  # 8 dilations of --grid 1,2,1,2
           "nan_coeffs": np.full((8, 16, 16), np.nan)}
# grid files with a header SampledFunction refuses: name -> (origin, spacing, values)
BAD_HEADERS = {"inf_spacing_signal": ([0.0, 0.0], [np.inf, 0.25], np.ones((16, 16))),
               "inf_origin_signal": ([-np.inf, 0.0], [0.25, 0.25], np.ones((16, 16))),
               "nan_spacing_coeffs": ([0.0, 0.0, 0.0], [1.0, np.nan, 0.25], np.ones((8, 16, 16))),
               "inf_origin_coeffs": ([0.0, np.inf, 0.0], [1.0, 0.25, 0.25], np.ones((8, 16, 16)))}

# (argv with {group} and {out} placeholders, exit code, stderr prefix)
CASES = [
    ("exponents --group {shearlet} --weight 2,nan,0", 2, "error: bad weight spec"),
    ("moments --group {shearlet} --weight 0,2,0,power:1", 2, "error: bad weight spec"),
    ("moments --group {shearlet} --weight 2,0,0,power:1", 2, "error: bad weight spec"),
    ("exponents --group {shearlet} --weight 2,2,0,power:-1", 2, "error: bad weight spec"),
    ("exponents --group {shearlet} --weight 2,2,0,powerful:1", 2, "error: bad weight spec"),
    ("moments --group {shearlet} --weight 2,2,0,maxdelta:1", 2, "error: bad weight spec"),
    ("exponents --group {shearlet} --weight 2,2,1/0", 2, "error: bad weight spec"),
    ("moments --group {shearlet} --weight 2,2,0,power:1/0", 2, "error: bad weight spec"),
    ("exponents --group {shearlet} --weight 2,2,1e400", 2, "error: bad weight spec"),
    ("envelope --group {shearlet} --grid nan:1:3,0:1:3 --out {out}", 2, "error: bad grid"),
    ("envelope --group {shearlet} --grid 0:inf:3,0:1:3 --out {out}", 2, "error: bad grid"),
    ("envelope --group {shearlet} --grid 0:1:0,0:1:3 --out {out}", 2, "error: bad grid"),
    ("haar-check --group {similitude3}", 3, "unsupported: "),
    ("haar-check --group {product}", 3, "unsupported: "),
    # (weight at r / k)^k with k ~ 1e298 overflows: refused where it arises, not as NaN output
    ("haar-check --group {c_1e300}", 2, "error: group-side weight |det h| exp(-r (trace Y - 1)) "
     "is not finite for trace Y = 1e+300"),
    ("describe --group {reals}", 2, "error: "),
    ("describe --group {zero_denominator_algebra}", 2, "error: cannot interpret '1/0'"),
    ("describe --group {infinite_algebra}", 2, "error: cannot interpret inf"),
    ("describe --group {not_utf8}", 2, "error: cannot read group spec "),
    ("--config {not_utf8} describe --group {shearlet}", 2, "error: cannot read config "),
    ("haar-check --group {shearlet} --sigma nan", 2, "error: --sigma"),
    ("haar-check --group {shearlet} --sigma 0", 2, "error: --sigma"),
    ("atom build --group {shearlet} --order -1 --out {out}", 2, "error: atom order"),
    ("--threads 0 exponents --group {shearlet} --empirical", 2, "error: --threads"),
    ("admissibility --group {shearlet} --atom {negative_order_atom}", 2,
     "error: cannot read atom"),
    ("atom verify --group {shearlet} --atom {weird_plan_atom}", 2, "error: cannot read atom"),
    ("atom verify --group {shearlet} --atom {short_orders_atom}", 2, "error: cannot read atom"),
    ("atom verify --group {shearlet} --atom {flat_support_atom}", 2, "error: cannot read atom"),
    ("atom verify --group {shearlet} --atom {one_dim_atom}", 2, "error: atom "),
    ("cwt --group {shearlet} --atom {one_dim_atom} --signal {out}", 2, "error: atom "),
    ("--threads 0 describe --group {shearlet}", 2, "error: --threads"),
    ("--config {string_threads_config} exponents --group {shearlet} --empirical", 2,
     "error: --config threads"),
    ("--config {list_config} describe --group {shearlet}", 2, "error: config "),
    ("--config {typo_config} exponents --group {shearlet}", 2, "error: --config budgte"),
    ("--config {null_group_config} describe", 2,
     "error: the following arguments are required: --group"),
    ("moments --group {huge_c}", 2, "error: exponents must lie in [0, 2^53]"),
    ("moments --mode atom --group {huge_c}", 2, "error: exponents must lie in [0, 2^53]"),
    ("exponents --group {huge_c}", 2, "error: exponents must lie in [0, 2^53]"),
    ("moments --group {shearlet} --weight 2,2,1e20,maxdelta", 2,
     "error: moment index lies past 2^53"),
    ("moments --group {shearlet} --weight 2,2,1e300,maxdelta", 2,
     "error: moment index lies past 2^53"),
    ("atom build --group {shearlet} --order 1 --spline-degree 0 --out {out}", 3,
     "unsupported: axis degree 0"),
    ("atom build --group {nested} --order 1 --out {out}", 3, "unsupported: no differential "
     "operator for orbit block_product: block (0, 2) spans 2 axes"),
    ("phi-check --group {shearlet} --count 0", 2, "error: --count"),
    ("phi-check --group {shearlet} --count -3", 2, "error: --count"),
    ("phi-check --group {shearlet} --count 1 --seed -1", 2, "error: --seed"),
    # e^(1000 r) overflows: the draw is refused before any quadrature, not printed as NaN
    ("phi-check --group {c_1000} --count 2 --seed 1", 2,
     "error: group element (eps, r, t) = (-1, 1.351391088977806, [-1.423361549121465]) "
     "overflows"),
    ("exponents --group {shearlet} --empirical --seed -1", 2, "error: --seed"),
    ("exponents --group {shearlet} --empirical --budget 0", 2,
     "error: --budget must be >= 1, got 0"),
    ("exponents --group {shearlet} --empirical --stages 0", 2, "error: --stages"),
    # from stage 8 on, |r| <= 512, A_H underflows to 0 on part of the samples
    ("exponents --group {toeplitz3} --empirical --stages 10 --seed 7 --budget 1000", 2,
     "error: Monte Carlo stage 8 (box |r| <= 512, |t| <= 512) gives a non-finite log A_H"),
    ("exponents --group {standard3} --empirical --stages 10 --seed 7 --budget 1000", 2,
     "error: Monte Carlo stage 8 (box |r| <= 512, |t| <= 512) gives a non-finite log A_H"),
    ("exponents --group {shearlet} --empirical --stages 10 --seed 7 --budget 1000", 2,
     "error: Monte Carlo stage 8 (box |r| <= 512, |t| <= 512) gives a non-finite log A_H"),
    ("exponents --group {shearlet} --empirical --weight 2,2,0,power:1000 --stages 3 "
     "--budget 300", 2, "error: Monte Carlo stage 0 (box |r| <= 2, |t| <= 2) gives a "
     "non-finite log control_weight"),
    ("cwt --group {shearlet} --atom {atom} --signal {cube_signal} --grid 1,2,1,2 --out {bin}",
     2, "error: signal "),
    ("cwt --group {shearlet} --atom {atom} --signal {nan_signal} --grid 1,2,1,2 --out {bin}",
     2, "error: signal "),
    ("icwt --group {shearlet} --atom {atom} --coeffs {nan_coeffs} --grid 1,2,1,2 --cpsi 1 "
     "--out {bin}", 2, "error: coefficients of dilations "),
    ("cwt --group {shearlet} --atom {atom} --signal {inf_spacing_signal} --grid 1,2,1,2 "
     "--out {bin}", 2, "error: cannot read signal "),
    ("cwt --group {shearlet} --atom {atom} --signal {inf_origin_signal} --grid 1,2,1,2 "
     "--out {bin}", 2, "error: cannot read signal "),
    ("icwt --group {shearlet} --atom {atom} --coeffs {nan_spacing_coeffs} --grid 1,2,1,2 "
     "--cpsi 1 --out {bin}", 2, "error: cannot read signal "),
    ("icwt --group {shearlet} --atom {atom} --coeffs {inf_origin_coeffs} --grid 1,2,1,2 "
     "--cpsi 1 --out {bin}", 2, "error: cannot read signal "),
    ("icwt --group {shearlet} --atom {atom} --coeffs {coeffs} --grid 1,2,1,2 --cpsi 0 "
     "--out {bin}", 2, "error: c_psi"),
    ("icwt --group {shearlet} --atom {atom} --coeffs {coeffs} --grid 1,2,1,2 --cpsi 1e-320 "
     "--out {bin}", 2, "error: reconstruction with c_psi 1e-320 is not finite"),
    ("cwt --group {shearlet} --atom {atom} --signal {signal} --grid 1e308,3,1,3 --out {bin}",
     2, "error: dilation box"),
    ("cwt --group {shearlet} --atom {atom} --signal {signal} --grid 700,3,1,3 --out {bin}",
     2, "error: dilation box"),
    ("cwt --group {shearlet} --atom {atom} --signal {signal} --grid 100,3,1,3 --out {bin}",
     2, "error: coefficient norm is inf"),
    ("cwt --group {shearlet} --atom {atom} --signal {signal} --grid 1,2,1,2 --out {nodir}", 2,
     "error: [Errno 2]"),
    ("envelope --group {shearlet} --grid 0:1:3,0:1:3 --out {nodir}", 2, "error: [Errno 2]"),
    ("atom build --group {shearlet} --order 1 --out {nodir}", 2, "error: [Errno 2]"),
    ("describe --group {shearlet} --bogus", 2, "error: unrecognized arguments: --bogus"),
    ("describe", 2, "error: the following arguments are required: --group"),
    ("phi-check --group {shearlet} --count abc", 2, "error: argument --count: invalid int"),
    ("", 2, "error: the following arguments are required: command"),
    # a grid of 10^14 points asks for more than the 47-bit address space: numpy refuses
    # it at once, under any overcommit setting, without touching its pages
    ("envelope --group {shearlet} --grid 0:1:10000000,0:1:10000000 --out {out}", 2,
     "error: Unable to allocate"),
    ("cwt --group {shearlet} --atom {atom} --signal {signal} --grid 2.5,10000000,2.0,10000000 "
     "--out {bin}", 2, "error: Unable to allocate"),
]


def _no_quadrature(*args, **kwargs):
    raise AssertionError("orbit integral ran for a refused group")


@pytest.fixture
def paths(tmp_path, monkeypatch):
    monkeypatch.setattr(ob, "orbit_integral", _no_quadrature)
    out = {"out": str(tmp_path / "out.csv"), "bin": str(tmp_path / "out.bin"),
           "nodir": str(tmp_path / "nodir" / "out.csv")}
    for name, doc in GROUPS.items():
        out[name] = str(tmp_path / f"{name}.json")
        with open(out[name], "w") as fh:
            json.dump(doc, fh)
    for name, values in SIGNALS.items():
        out[name] = str(tmp_path / f"{name}.bin")
        at.sampled_to_binary(at.SampledFunction(origin=np.zeros(values.ndim),
                                                spacing=np.full(values.ndim, 0.25),
                                                values=values), out[name])
    for name, (origin, spacing, values) in BAD_HEADERS.items():
        out[name] = str(tmp_path / f"{name}.bin")
        header = types.SimpleNamespace(dim=values.ndim, origin=origin, spacing=spacing,
                                       values=values)  # the writer does not validate
        at.sampled_to_binary(header, out[name])
    out["not_utf8"] = str(tmp_path / "not_utf8.json")
    with open(out["not_utf8"], "wb") as fh:
        fh.write(b"\xff\xfe{}")
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


def test_config_values_convert_like_flags(capsys, paths, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threads": "2", "budget": "300", "stages": 3, "seed": "1"}))
    flags = ["exponents", "--group", paths["shearlet"], "--empirical"]
    assert cli.main(["--config", str(config)] + flags) == 0
    from_config = capsys.readouterr().out
    assert cli.main(["--threads", "2"] + flags + ["--budget", "300", "--stages", "3",
                                                  "--seed", "1"]) == 0
    assert capsys.readouterr().out == from_config
    # an explicit flag wins over the config value
    assert cli.main(["--config", str(config)] + flags + ["--seed", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["empirical"]["seed"] == 2


def test_explicit_zero_spline_degree_is_kept(capsys, paths, tmp_path):
    out = tmp_path / "atom.json"
    argv = ["atom", "build", "--group", paths["shearlet"], "--order", "0",
            "--spline-degree", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert [ax["degree"] for ax in json.loads(out.read_text())["base"]] == [0, 0]


def test_result_that_is_not_json_is_refused(capsys, paths, monkeypatch):
    monkeypatch.setattr(tr, "coefficient_norm", lambda coeffs, weight: float("nan"))
    argv = ["cwt", "--group", paths["shearlet"], "--atom", paths["atom"], "--signal",
            paths["signal"], "--grid", "1,2,1,2", "--out", paths["bin"]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: result is not JSON") and captured.err.count("\n") == 1


def test_zero_valued_phi_check_is_not_converged(capsys, tmp_path):
    # A^ell underflows to 0 on every stage: 0 == 0 carries no digits
    (tmp_path / "shearlet.json").write_text(json.dumps(GROUPS["shearlet"]))
    assert cli.main(["phi-check", "--group", str(tmp_path / "shearlet.json"), "--ell",
                     "100000", "--count", "2"]) == 4
    assert json.loads(capsys.readouterr().out)["converged"] is False


def test_huge_sigma_is_not_converged(capsys, tmp_path):
    # sigma^2 overflows to inf: the Gaussian is 1 and its integrals do not converge
    (tmp_path / "shearlet.json").write_text(json.dumps(GROUPS["shearlet"]))
    assert cli.main(["haar-check", "--group", str(tmp_path / "shearlet.json"),
                     "--sigma", "1e160"]) == 4
    assert json.loads(capsys.readouterr().out)["converged"] is False


def test_chart_overflow_writes_one_stderr_line(tmp_path):
    # a subprocess, because pytest would capture numpy's RuntimeWarnings
    (tmp_path / "huge.json").write_text(json.dumps({"family": "shearlet2d", "c": 1e308}))
    proc = subprocess.run([sys.executable, "-m", "orbitlet.cli", "haar-check", "--group",
                           "huge.json"], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("grid,prefix", [("0:1:10000000,0:1:10000000", "error: Unable to allocate"),
                                         ("0:1:10000000,0:x:3", "error: bad grid ranges")])
def test_refused_grid_builds_no_axis(capsys, paths, monkeypatch, grid, prefix):
    def no_axis(*args, **kwargs):
        raise AssertionError("np.linspace ran for a refused grid")

    monkeypatch.setattr(np, "linspace", no_axis)
    argv = ["envelope", "--group", paths["shearlet"], "--grid", grid, "--out", paths["out"]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


def test_refused_cwt_writes_no_coefficient_file(capsys, paths):
    argv = ["cwt", "--group", paths["shearlet"], "--atom", paths["atom"], "--signal",
            paths["signal"], "--grid", "100,3,1,3", "--out", paths["bin"]]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: coefficient norm is inf")
    assert not os.path.exists(paths["bin"])


def test_refused_cpsi_writes_no_reconstruction_file(capsys, paths):
    argv = ["icwt", "--group", paths["shearlet"], "--atom", paths["atom"], "--coeffs",
            paths["coeffs"], "--grid", "1,2,1,2", "--cpsi", "nan", "--out", paths["bin"]]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: c_psi")
    assert not os.path.exists(paths["bin"])


def test_reconstruction_that_is_not_finite_writes_no_file(capsys, paths):
    # c_psi = 1e-320 is finite and > 0, but cell_volume / c_psi overflows to inf
    argv = ["icwt", "--group", paths["shearlet"], "--atom", paths["atom"], "--coeffs",
            paths["coeffs"], "--grid", "1,2,1,2", "--cpsi", "1e-320", "--out", paths["bin"]]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: reconstruction with c_psi")
    assert not os.path.exists(paths["bin"])


def test_config_may_hold_flags_of_other_commands(capsys, paths, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budget": 300}))
    assert cli.main(["--config", str(config), "describe", "--group", paths["shearlet"]]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 2



@pytest.mark.parametrize("key", ["out", "cpsi", "threads", "empirical"])
def test_config_null_keeps_the_default(capsys, paths, tmp_path, monkeypatch, key):
    # JSON null means "no value": not the text "null" (a file named null, a bad float)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: None}))
    assert cli.main(["describe", "--group", paths["shearlet"]]) == 0
    expected = capsys.readouterr().out
    assert cli.main(["--config", str(config), "describe", "--group", paths["shearlet"]]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected and captured.err == ""
    assert not (tmp_path / "null").exists()


def test_config_supplies_a_required_flag(capsys, paths, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"group": paths["shearlet"]}))
    assert cli.main(["describe", "--group", paths["shearlet"]]) == 0
    expected = capsys.readouterr().out
    assert cli.main(["--config", str(config), "describe"]) == 0
    assert capsys.readouterr().out == expected
    # an explicit --group still wins over the config value
    config.write_text(json.dumps({"group": str(tmp_path / "missing.json")}))
    assert cli.main(["--config", str(config), "describe", "--group", paths["shearlet"]]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv", [["--help"], ["describe", "--help"], ["atom", "build", "-h"]])
def test_help_exits_zero(capsys, argv):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: orbitlet") and captured.err == ""


def _orbitlet_exceptions():
    """Every exception class defined in an orbitlet module, found by walking them."""
    found = {}
    for info in pkgutil.iter_modules(orbitlet.__path__):
        module = importlib.import_module(f"orbitlet.{info.name}")
        found.update({f"{info.name}.{name}": obj for name, obj in vars(module).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)
                      and obj.__module__ == module.__name__})
    return found


ERRORS = {**_orbitlet_exceptions(), "OSError": OSError, "MemoryError": MemoryError}
UNSUPPORTED = {"algebra.UnsupportedError", "algebra.UnsupportedAlgebraError",
               "groups.UnsupportedSpecError", "atoms.InsufficientSmoothnessError"}


def test_every_module_and_error_is_walked():
    assert {"cli.CliParseError", "embeddedness.EmbeddednessError", "transform.TransformError",
            "orbit.OrbitError"} | UNSUPPORTED <= set(ERRORS)


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_exit_code_of_every_error_class(capsys, paths, monkeypatch, name):
    def handler(args):
        raise ERRORS[name]("first line\nsecond line")

    monkeypatch.setattr(cli, "cmd_describe", handler)
    code, prefix = (3, "unsupported: ") if name in UNSUPPORTED else (2, "error: ")
    assert cli.main(["describe", "--group", paths["shearlet"]]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"{prefix}first line second line\n"


@pytest.mark.parametrize("error", [ValueError, KeyError, RuntimeError])
def test_errors_from_outside_orbitlet_are_not_caught(paths, monkeypatch, error):
    def handler(args):
        raise error("not ours")

    monkeypatch.setattr(cli, "cmd_describe", handler)
    with pytest.raises(error):
        cli.main(["describe", "--group", paths["shearlet"]])


def _coefficient_file(path, values):
    at.sampled_to_binary(at.SampledFunction(origin=np.zeros(3), spacing=np.full(3, 0.25),
                                            values=values), path)
    return path


def test_icwt_refuses_a_nan_in_the_last_dilation_row(capsys, paths, tmp_path):
    values = np.ones((18, 16, 16))  # 18 dilations of --grid 1,3,1,3: two blocks
    values[-1, 15, 15] = np.nan
    coeffs = _coefficient_file(str(tmp_path / "last_nan.bin"), values)
    argv = ["icwt", "--group", paths["shearlet"], "--atom", paths["atom"], "--coeffs", coeffs,
            "--grid", "1,3,1,3", "--cpsi", "1", "--out", paths["bin"]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coefficients of dilations ")
    assert captured.err.count("\n") == 1
    assert not os.path.exists(paths["bin"])


def test_refused_cwt_keeps_an_existing_out_and_leaves_no_part_file(capsys, paths, tmp_path):
    out = tmp_path / "kept.bin"
    out.write_bytes(b"coefficients of an earlier run")
    before = sorted(os.listdir(tmp_path))
    argv = ["cwt", "--group", paths["shearlet"], "--atom", paths["atom"], "--signal",
            paths["signal"], "--grid", "100,3,1,3", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: coefficient norm is inf")
    assert out.read_bytes() == b"coefficients of an earlier run"
    assert sorted(os.listdir(tmp_path)) == before


def test_icwt_refuses_another_dilation_count_before_reading_values(capsys, paths, monkeypatch):
    def no_read(self, rows):
        raise AssertionError("coefficient rows were read")

    monkeypatch.setattr(at.GridFile, "__getitem__", no_read)
    argv = ["icwt", "--group", paths["shearlet"], "--atom", paths["atom"], "--coeffs",
            paths["coeffs"], "--grid", "1,3,1,3", "--out", paths["bin"]]  # 8 rows, 18 dilations
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: coefficient file does not match the dilation grid\n"
    assert not os.path.exists(paths["bin"])


def test_icwt_may_write_its_reconstruction_over_its_coefficients(capsys, paths, tmp_path):
    common = ["--group", paths["shearlet"], "--atom", paths["atom"], "--grid", "1,2,1,2"]
    coeffs, recon = str(tmp_path / "c.bin"), str(tmp_path / "r.bin")
    assert cli.main(["cwt", *common, "--signal", paths["signal"], "--out", coeffs]) == 0
    assert cli.main(["icwt", *common, "--coeffs", coeffs, "--out", recon]) == 0
    assert cli.main(["icwt", *common, "--coeffs", coeffs, "--out", coeffs]) == 0
    capsys.readouterr()
    with open(coeffs, "rb") as fh, open(recon, "rb") as expected:
        assert fh.read() == expected.read()


def test_cwt_refuses_a_missing_out_directory_before_sampling_an_atom(capsys, paths,
                                                                     monkeypatch):
    def no_sampling(self, coords):
        raise AssertionError("an atom was sampled")

    monkeypatch.setattr(at.Atom, "evaluate_coords", no_sampling)
    argv = ["cwt", "--group", paths["shearlet"], "--atom", paths["atom"], "--signal",
            paths["signal"], "--grid", "1,2,1,2", "--out", paths["nodir"]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 2]") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["moments", "exponents"])
@pytest.mark.parametrize("k", ["1e308", "1e20", "1e400"])
def test_power_weight_past_the_float_exact_range_is_refused(capsys, paths, command, k):
    # e1 = 2 k e2 + ... past 2^53 is no float-exact exponent: unrefused, power:1e308 raises
    # OverflowError when the exponents are printed and power:1e20 prints an order past 2^53
    argv = [command, "--group", paths["shearlet"], "--weight", f"2,2,0,power:{k}"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: exponents must lie in [0, 2^53]")


def test_phi_check_outside_the_one_percent_contract_is_not_converged(capsys, tmp_path):
    # on Shearlet2D(-3) both routes report converged on every seed-5 draw, yet one draw
    # differs by 83 %: the Phi_ell contract is 1 %, so the run exits 4
    (tmp_path / "c-3.json").write_text(json.dumps(gr.spec_to_json(gr.Shearlet2D(-3))))
    argv = ["phi-check", "--group", str(tmp_path / "c-3.json"), "--ell", "4", "--count", "4",
            "--seed", "5"]
    assert cli.main(argv) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is False and doc["max_rel_error"] > 0.5
