"""The traced launcher of the benchmark runs cwt/icwt with unchanged stdout,
and every FFT it records has the grid's one circular shape."""

import json
import math
import os
import subprocess
import sys

from orbitlet import atoms as at
from orbitlet import groups as gr
from orbitlet import transform as tr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCHER = os.path.join(ROOT, "perfbench", "trace_launcher.py")
GRID = "2.0,5,1.5,3"  # 2 * 5 * 3 = 30 dilations


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_traced_cwt_icwt_match_untraced(tmp_path):
    spec = gr.Shearlet2D(0.5)
    (tmp_path / "spec.json").write_text(json.dumps(gr.spec_to_json(spec)))
    (tmp_path / "atom.json").write_text(json.dumps(
        at.make_atom(spec, 2, at.spline_base([5, 5])).to_json()))
    signal = tr.modulated_gaussian(extent=8 / 3, n=16, sigma=0.9)
    at.sampled_to_binary(signal, str(tmp_path / "sig.bin"))
    common = ["--group", "spec.json", "--atom", "atom.json", "--grid", GRID]
    commands = [["cwt", *common, "--signal", "sig.bin", "--out", "c.bin"],
                ["icwt", *common, "--coeffs", "c.bin", "--out", "r.bin"]]
    shape = tr.circular_shape((16, 16))
    assert shape == (32, 32)
    for cmd_id, argv in enumerate(commands):
        out_file = tmp_path / argv[-1]
        plain = _run(["-m", "orbitlet.cli", "--threads", "2", *argv], tmp_path)
        assert plain.returncode == 0, plain.stderr
        plain_bytes = out_file.read_bytes()
        spans_path = str(tmp_path / f"spans{cmd_id}.json")
        traced = _run([LAUNCHER, spans_path, str(cmd_id), "--threads", "2", *argv], tmp_path)
        assert traced.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        assert out_file.read_bytes() == plain_bytes
        with open(spans_path) as fh:
            spans = json.load(fh)["spans"]
        ffts = [s for s in spans if s["name"] == "transform.fft"]
        # 30 per-dilation FFTs, one atom FFT per +-h pair, one signal or output FFT
        assert len(ffts) == 30 + 15 + 1
        assert all(s["count"] == math.prod(shape) for s in ffts)
