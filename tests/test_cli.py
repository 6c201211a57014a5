"""End-to-end CLI tests: JSON output, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from orbitlet import algebra as al
from orbitlet import atoms as at
from orbitlet import cli
from orbitlet import groups as gr
from orbitlet import transform as tr


@pytest.fixture
def shearlet_spec_path(tmp_path):
    path = tmp_path / "shearlet.json"
    path.write_text(json.dumps(gr.spec_to_json(gr.Shearlet2D(0.5))))
    return str(path)


@pytest.fixture
def toeplitz_spec_path(tmp_path):
    path = tmp_path / "toeplitz.json"
    path.write_text(json.dumps(gr.spec_to_json(gr.toeplitz_shearlet_group(3))))
    return str(path)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip() else None
    return code, doc


def test_describe_toeplitz(capsys, toeplitz_spec_path):
    code, doc = run_cli(capsys, ["describe", "--group", toeplitz_spec_path])
    assert code == 0
    assert doc["schema"] == "orbitlet/1"
    assert doc["orbit_kind"] == "first_coordinate_nonzero"
    assert doc["nilpotency_class"] == 3
    assert doc["differential_operator"] == "d100"


def test_describe_similitude_laplacian(capsys, tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(gr.spec_to_json(gr.Similitude(2))))
    code, doc = run_cli(capsys, ["describe", "--group", str(path)])
    assert code == 0
    assert doc["differential_operator"].startswith("laplacian")


def test_describe_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run_cli(capsys, ["describe", "--group", str(path)])
    assert code == 2


def test_validate(capsys, toeplitz_spec_path):
    code, doc = run_cli(capsys, ["validate", "--group", toeplitz_spec_path])
    assert code == 0
    assert doc["passed"] is True


@pytest.mark.parametrize("dim,count", [(2, 1), (3, 2), (4, 5)])
def test_classify_counts(capsys, dim, count):
    code, doc = run_cli(capsys, ["classify", "--dim", str(dim)])
    assert code == 0
    assert doc["count"] == count


def test_classify_unsupported_dim(capsys):
    code, _ = run_cli(capsys, ["classify", "--dim", "5"])
    assert code == 3


def test_classify_h_a_invariants_distinct(capsys):
    code, doc = run_cli(capsys, ["classify", "--dim", "4"])
    assert code == 0
    tags = {(c["nilpotency_class"], c.get("bilinear_rank"),
             c.get("bilinear_abs_signature")) for c in doc["classes"]}
    assert len(tags) == 5


def test_exponents_analytic(capsys, shearlet_spec_path):
    code, doc = run_cli(capsys, ["exponents", "--group", shearlet_spec_path,
                                 "--weight", "2,2,0,maxdelta"])
    assert code == 0
    e = doc["exponents"]
    assert (e["e1"], e["e2"], e["e3"], e["e4"]) == (2.0, 1.5, 1.5, 0.5)


@pytest.mark.parametrize("weight,p,q", [("2,inf,0,maxdelta", 2.0, "inf"),
                                        ("inf,1,0,maxdelta", "inf", 1.0),
                                        ("inf,inf,1,maxdelta", "inf", "inf")])
def test_exponents_echo_an_infinite_weight_as_strict_json(capsys, shearlet_spec_path,
                                                          weight, p, q):
    code, doc = run_cli(capsys, ["exponents", "--group", shearlet_spec_path,
                                 "--weight", weight])
    assert code == 0
    assert (doc["weight"]["p"], doc["weight"]["q"]) == (p, q)
    assert doc["exponents"]["e1"] == 2.0


def test_exponents_empirical_reproducible(capsys, shearlet_spec_path):
    argv = ["exponents", "--group", shearlet_spec_path, "--empirical",
            "--budget", "5000", "--seed", "11"]
    code1, _ = run_cli(capsys, argv)
    out1 = None
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical for fixed seed


def test_moments_golden(capsys, shearlet_spec_path):
    code, doc = run_cli(capsys, ["moments", "--group", shearlet_spec_path,
                                 "--mode", "analyzing"])
    assert code == 0
    assert doc["order"] == 15
    code, doc = run_cli(capsys, ["moments", "--group", shearlet_spec_path,
                                 "--mode", "atom"])
    assert code == 0
    assert doc["order"] == 19
    assert doc["atom_order_closed_form"] == 24


def test_envelope_csv(capsys, shearlet_spec_path, tmp_path):
    out = str(tmp_path / "env.csv")
    code, doc = run_cli(capsys, ["envelope", "--group", shearlet_spec_path,
                                 "--grid", "0.5:2:4,-1:1:3", "--out", out])
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "xi1,xi2,A"
    assert len(lines) == 1 + 12
    # plain parseable floats, no stray reprs
    for line in lines[1:]:
        assert all(float(tok) is not None for tok in line.split(","))


def test_atom_build_and_verify(capsys, shearlet_spec_path, tmp_path):
    atom_path = str(tmp_path / "atom.json")
    code, doc = run_cli(capsys, ["atom", "build", "--group", shearlet_spec_path,
                                 "--order", "2", "--spline-degree", "5",
                                 "--out", atom_path])
    assert code == 0
    assert doc["atom"]["moment_order"] == 2
    code, doc = run_cli(capsys, ["atom", "verify", "--group", shearlet_spec_path,
                                 "--atom", atom_path])
    assert code == 0
    assert doc["spectrum_probe"]["verdict"] == "verified"
    assert doc["admissibility"]["verdict"] == "finite"


@pytest.mark.parametrize("spec", gr.enumerate_catalog(4), ids=lambda s: s.name)
def test_atom_verify_4d_catalog_skips_probes_in_the_zero_set(capsys, tmp_path, spec):
    """On the 4-D catalog the probe lines eta = (0, v, v, v), v in {-1, 5},
    lie in the zero set of the spline spectrum: they are reported as null and
    refute nothing, so the order-2 quintic atom verifies."""
    group, atom_path = tmp_path / "group.json", str(tmp_path / "atom.json")
    group.write_text(json.dumps(gr.spec_to_json(spec)))
    assert run_cli(capsys, ["atom", "build", "--group", str(group), "--order", "2",
                            "--out", atom_path])[0] == 0
    assert cli.main(["atom", "verify", "--group", str(group), "--atom", atom_path]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)  # no NaN or inf
    probe = doc["spectrum_probe"]
    assert probe["verdict"] == "verified" and probe["moments_pass"]
    assert probe["fitted_orders"][2] is probe["fitted_orders"][4] is None
    assert probe["fit_residuals"][2] is probe["fit_residuals"][4] is None
    assert abs(probe["fitted_order"] - 2) <= 0.1
    assert doc["admissibility"]["verdict"] == "finite"


def test_atom_build_insufficient_degree(capsys, shearlet_spec_path, tmp_path):
    code, _ = run_cli(capsys, ["atom", "build", "--group", shearlet_spec_path,
                               "--order", "4", "--spline-degree", "3",
                               "--out", str(tmp_path / "a.json")])
    assert code == 3


def test_admissibility_divergent_for_base(capsys, shearlet_spec_path, tmp_path):
    atom_path = str(tmp_path / "atom0.json")
    run_cli(capsys, ["atom", "build", "--group", shearlet_spec_path,
                     "--order", "0", "--spline-degree", "5",
                     "--out", atom_path])
    code, doc = run_cli(capsys, ["admissibility", "--group", shearlet_spec_path,
                                 "--atom", atom_path])
    assert code == 0
    assert doc["verdict"] == "divergent"


def test_cwt_icwt_roundtrip(capsys, shearlet_spec_path, tmp_path):
    atom_path = str(tmp_path / "atom.json")
    run_cli(capsys, ["atom", "build", "--group", shearlet_spec_path,
                     "--order", "2", "--spline-degree", "5", "--out", atom_path])
    signal = tr.modulated_gaussian(extent=8 / 3, n=32, sigma=0.9)
    sig_path = str(tmp_path / "signal.bin")
    at.sampled_to_binary(signal, sig_path)
    coeff_path = str(tmp_path / "coeffs.bin")
    code, doc = run_cli(capsys, ["cwt", "--group", shearlet_spec_path,
                                 "--atom", atom_path, "--signal", sig_path,
                                 "--grid", "2.0,9,1.5,5",
                                 "--out", coeff_path])
    assert code == 0
    assert doc["dilations"] == 2 * 9 * 5
    recon_path = str(tmp_path / "recon.bin")
    code, doc = run_cli(capsys, ["icwt", "--group", shearlet_spec_path,
                                 "--atom", atom_path, "--coeffs", coeff_path,
                                 "--grid", "2.0,9,1.5,5", "--out", recon_path])
    assert code == 0
    recon = at.sampled_from_binary(recon_path)
    err = np.linalg.norm(recon.values - signal.values) / np.linalg.norm(signal.values)
    assert err < 0.25  # coarse grid; accuracy criteria live in acceptance


def test_haar_check(capsys, shearlet_spec_path):
    code, doc = run_cli(capsys, ["haar-check", "--group", shearlet_spec_path])
    assert code == 0
    assert doc["rel_error"] < 1e-3


def test_haar_check_toeplitz(capsys, toeplitz_spec_path):
    # the group side follows the t-mass of Y = 1: three stages, not eleven
    code, doc = run_cli(capsys, ["haar-check", "--group", toeplitz_spec_path])
    assert code == 0 and doc["converged"] is True
    assert doc["rel_error"] < 1e-3


@pytest.mark.parametrize("spec", [gr.Diagonal(3), gr.standard_shearlet_group(4)] + [
    gr.h_a_shearlet_group(a) for a in (-1, 0, 1)],
    ids=["diagonal-3d", "standard-4d", "Ha(-1)", "Ha(0)", "Ha(1)"])
def test_haar_check_on_the_groups_too_slow_for_the_tensor_grid(capsys, tmp_path, spec):
    # the Gaussian declares its factors, so both sides are products of 1-D sums
    path = tmp_path / "group.json"
    path.write_text(json.dumps(gr.spec_to_json(spec)))
    code, doc = run_cli(capsys, ["haar-check", "--group", str(path)])
    assert code == 0 and doc["converged"] is True
    assert doc["rel_error"] < 1e-3


def test_phi_check(capsys, shearlet_spec_path):
    code, doc = run_cli(capsys, ["phi-check", "--group", shearlet_spec_path,
                                 "--ell", "4", "--count", "2", "--seed", "3"])
    assert code == 0
    assert doc["max_rel_error"] < 0.01


def test_phi_check_threads_change_nothing(capsys, shearlet_spec_path):
    # the samples run on worker threads and come back in sample order
    outputs = []
    for threads in ("1", "2"):
        assert cli.main(["--threads", threads, "phi-check", "--group", shearlet_spec_path,
                         "--count", "4", "--seed", "7"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_phi_check_abelian(capsys, tmp_path):
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps(gr.spec_to_json(
        gr.AbelianFromAlgebra(al.polynomial_quotient_algebra(2)))))
    code, doc = run_cli(capsys, ["phi-check", "--group", str(path), "--count", "2"])
    assert code == 0 and doc["converged"]
    assert doc["max_rel_error"] < 0.01


@pytest.mark.parametrize("argv,key", [
    (["haar-check"], "rel_error"),
    (["phi-check", "--count", "2", "--seed", "1"], "max_rel_error")],
    ids=["haar-check", "phi-check"])
def test_checks_hold_when_the_first_rows_scale(capsys, tmp_path, argv, key):
    """First rows F = [[2]]: the group side integrates over the Haar measure
    |det F| Delta_H dt dr, which h -> h^T xi0 carries onto Lebesgue measure."""
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"family": "generalized_shearlet", "dim": 2,
                                "shear_basis": [[[0, 2], [0, 0]]], "Y": [1, 0.5]}))
    code, doc = run_cli(capsys, argv + ["--group", str(path)])
    assert code == 0 and doc["converged"] and doc[key] < 0.01, doc


def test_config_file_defaults(capsys, shearlet_spec_path, tmp_path):
    # flags omitted on the command line are taken from the config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": "2,2,0,maxdelta", "mode": "atom"}))
    code, doc = run_cli(capsys, ["--config", str(cfg), "moments",
                                 "--group", shearlet_spec_path])
    assert code == 0
    assert doc["mode"] == "atom"
    assert doc["order"] == 19


def test_default_output_files(capsys, shearlet_spec_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    signal = tr.modulated_gaussian(extent=2.0, n=16, carrier=(1.0, 0.0), sigma=0.5)
    at.sampled_to_binary(signal, "signal.bin")
    group = ["--group", shearlet_spec_path]
    runs = [(["atom", "build", *group, "--order", "2"], "path", "atom.json"),
            (["envelope", *group, "--grid", "0:1:3,0:1:3"], "csv", "envelope.csv"),
            (["cwt", *group, "--atom", "atom.json", "--signal", "signal.bin",
              "--grid", "1,2,1,2"], "coefficients", "coeffs.bin"),
            (["icwt", *group, "--atom", "atom.json", "--coeffs", "coeffs.bin",
              "--grid", "1,2,1,2"], "reconstruction", "reconstruction.bin")]
    for argv, key, name in runs:
        code, doc = run_cli(capsys, argv)
        assert code == 0 and doc[key] == name
        assert (tmp_path / name).stat().st_size > 0


# --out of the JSON commands is a copy of the printed JSON; of the data
# commands it is the data file the printed JSON names
OUT_RUNS = {
    "json copy": [["describe", "--group", "{group}"], ["validate", "--group", "{group}"],
                  ["classify", "--dim", "3"], ["exponents", "--group", "{group}"],
                  ["moments", "--group", "{group}"],
                  ["atom", "verify", "--group", "{group}", "--atom", "atom.json"],
                  ["admissibility", "--group", "{group}", "--atom", "atom.json"],
                  ["haar-check", "--group", "{group}"],
                  ["phi-check", "--group", "{group}", "--count", "1"]],
    "data file": [["envelope", "--group", "{group}", "--grid", "0:1:3,0:1:3"],
                  ["atom", "build", "--group", "{group}", "--order", "2"],
                  ["cwt", "--group", "{group}", "--atom", "atom.json", "--signal", "signal.bin",
                   "--grid", "1,2,1,2"],
                  ["icwt", "--group", "{group}", "--atom", "atom.json", "--coeffs", "out2",
                   "--grid", "1,2,1,2", "--cpsi", "1"]],
}


@pytest.mark.parametrize("case", sorted(OUT_RUNS))
def test_out_is_the_printed_json_or_the_data_file(capsys, shearlet_spec_path, tmp_path,
                                                  monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    signal = tr.modulated_gaussian(extent=2.0, n=16, carrier=(1.0, 0.0), sigma=0.5)
    at.sampled_to_binary(signal, "signal.bin")
    atom = at.make_atom(gr.Shearlet2D(0.5), 2, at.spline_base([5, 5]))
    (tmp_path / "atom.json").write_text(json.dumps(atom.to_json()))
    for k, argv in enumerate(OUT_RUNS[case]):
        out = f"out{k}"
        code = cli.main([a.format(group=shearlet_spec_path) for a in argv] + ["--out", out])
        printed = capsys.readouterr().out
        assert code == 0, argv
        written = (tmp_path / out).read_bytes()
        if case == "json copy":
            assert written == printed.encode(), argv
        else:
            assert out in json.loads(printed).values() and b'"schema"' not in written, argv


def test_main_sets_the_allocator_policy_once_per_call(capsys, monkeypatch, shearlet_spec_path):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(
        mallopt=lambda param, value: calls.append((param, value)) or 1))
    for _ in range(2):
        assert cli.main(["describe", "--group", shearlet_spec_path]) == 0
    capsys.readouterr()
    assert calls == [(-3, 4 << 20), (-1, 64 << 20)] * 2  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: types.SimpleNamespace()],
                         ids=["CDLL-raises-OSError", "libc-without-mallopt"])
def test_main_runs_unchanged_without_mallopt(capsys, monkeypatch, shearlet_spec_path, cdll):
    argv = ["haar-check", "--group", shearlet_spec_path]
    assert cli.main(argv) == 0
    with_policy = capsys.readouterr().out
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == with_policy


def test_phi_check_process_prints_the_in_process_json(capsys, shearlet_spec_path):
    argv = ["phi-check", "--group", shearlet_spec_path, "--count", "2"]
    proc = subprocess.run([sys.executable, "-m", "orbitlet.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == proc.stdout


def test_unknown_subcommand(capsys):
    code = cli.main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


# Runs cli.main in a fresh interpreter and writes the orbitlet modules it loaded,
# and whether a thread pool module came in, to the file named first.
LOADED_PROBE = """
import json, sys
from orbitlet import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump(sorted(m for m in sys.modules
                     if m.startswith("orbitlet.") or m == "concurrent.futures"), fh)
sys.exit(code)
"""
QUADRATURE_ONLY = {"algebra", "cli", "groups", "orbit", "quadrature"}


@pytest.mark.parametrize("argv,loaded", [
    ("haar-check --group {group}", QUADRATURE_ONLY),
    ("classify --dim 3", QUADRATURE_ONLY),
    ("phi-check --group {group} --count 1", QUADRATURE_ONLY | {"embeddedness"}),
    ("atom verify --group {group} --atom {atom}", QUADRATURE_ONLY | {"atoms"}),
    ("cwt --group {group} --atom {atom} --signal {signal} --grid 1,2,1,2 --out {coeffs}",
     QUADRATURE_ONLY | {"atoms", "embeddedness", "transform"}),
], ids=["haar-check", "classify", "phi-check", "atom-verify", "cwt"])
def test_each_command_loads_only_the_modules_it_runs(shearlet_spec_path, tmp_path, argv, loaded):
    paths = {"group": shearlet_spec_path, "atom": str(tmp_path / "atom.json"),
             "signal": str(tmp_path / "signal.bin"), "coeffs": str(tmp_path / "coeffs.bin")}
    (tmp_path / "atom.json").write_text(json.dumps(
        at.make_atom(gr.Shearlet2D(0.5), 2, at.spline_base([5, 5])).to_json()))
    at.sampled_to_binary(at.SampledFunction(origin=np.zeros(2), spacing=np.full(2, 0.25),
                                            values=np.ones((16, 16))), paths["signal"])
    report = tmp_path / "modules.json"
    proc = subprocess.run([sys.executable, "-c", LOADED_PROBE, str(report)]
                          + [token.format(**paths) for token in argv.split()],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema"] == "orbitlet/1"  # stdout is the command's JSON
    assert json.loads(report.read_text()) == sorted(f"orbitlet.{m}" for m in loaded)


def test_bare_import_loads_no_submodule():
    probe = ("import sys, orbitlet\n"
             "print(sorted(m for m in sys.modules if m.startswith('orbitlet.')))\n"
             "print(orbitlet.atoms.__name__, orbitlet.transform.__name__)\n"
             "print(orbitlet.transform.at is orbitlet.atoms)\n"
             "try:\n    orbitlet.nonexistent\nexcept AttributeError:\n    print('refused')\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "orbitlet.atoms orbitlet.transform", "True",
                                        "refused"]


# One matrix group spelled two ways: an abelian unit group is the shearlet group of
# its algebra with Y = 1, and every d = 2 shear group is a Shearlet2D.
SAME_GROUP = {
    "R[X]/(X^3)-toeplitz-3": (gr.AbelianFromAlgebra(al.polynomial_quotient_algebra(3)),
                              gr.toeplitz_shearlet_group(3)),
    "R[X]/(X^4)-toeplitz-4": (gr.AbelianFromAlgebra(al.polynomial_quotient_algebra(4)),
                              gr.toeplitz_shearlet_group(4)),
    **{f"H_a({a})-Ha({a})": (gr.AbelianFromAlgebra(al.h_a_algebra(a)), gr.h_a_shearlet_group(a))
       for a in (-1, 0, 1)},
    "R[X]/(X^2)-shearlet2d(1)": (gr.AbelianFromAlgebra(al.polynomial_quotient_algebra(2)),
                                 gr.Shearlet2D(1.0)),
    "standard-2d-shearlet2d(0.5)": (gr.standard_shearlet_group(2), gr.Shearlet2D(0.5)),
}
SAME_GROUP_COMMANDS = ["exponents", "exponents --weight 2,3,1,power:1",
                       "moments --mode analyzing", "moments --mode atom",
                       "exponents --empirical --budget 3000 --stages 3 --seed 7"]


@pytest.mark.parametrize("pair", sorted(SAME_GROUP))
def test_one_matrix_group_prints_one_answer(pair, tmp_path, capsys):
    specs = SAME_GROUP[pair]
    np.testing.assert_array_equal(specs[0].chart.basis, specs[1].chart.basis)
    np.testing.assert_array_equal(specs[0].chart.Y, specs[1].chart.Y)
    assert type(specs[0]) is not type(specs[1])
    paths = []
    for i, spec in enumerate(specs):
        paths.append(tmp_path / f"spelling{i}.json")
        paths[-1].write_text(json.dumps(gr.spec_to_json(spec)))

    def stdout(command, path):
        assert cli.main([*command.split(), "--group", str(path)]) == 0, command
        return capsys.readouterr().out

    for command in SAME_GROUP_COMMANDS:
        first, second = (stdout(command, p) for p in paths)
        assert first == second, command
    facts = [{k: json.loads(stdout("describe", p))[k]
              for k in ("delta_H", "delta_G", "nilpotency_class")} for p in paths]
    assert facts[0] == facts[1]
