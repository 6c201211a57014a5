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


def _traced_ffts(tmp_path, atom) -> list:
    """The FFT spans of a traced cwt and icwt, whose stdout and files match an untraced run."""
    spec = gr.Shearlet2D(0.5)
    (tmp_path / "spec.json").write_text(json.dumps(gr.spec_to_json(spec)))
    (tmp_path / "atom.json").write_text(json.dumps(atom.to_json()))
    signal = tr.modulated_gaussian(extent=8 / 3, n=16, sigma=0.9)
    at.sampled_to_binary(signal, str(tmp_path / "sig.bin"))
    common = ["--group", "spec.json", "--atom", "atom.json", "--grid", GRID]
    commands = [["cwt", *common, "--signal", "sig.bin", "--out", "c.bin"],
                ["icwt", *common, "--coeffs", "c.bin", "--out", "r.bin"]]
    shape = tr.circular_shape((16, 16))
    assert shape == (32, 32)
    ffts = []
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
        cmd_ffts = [s for s in spans if s["name"] == "transform.fft"]
        assert all(s["count"] == math.prod(shape) for s in cmd_ffts)
        ffts.append(cmd_ffts)
    return ffts


def test_traced_cwt_icwt_match_untraced(tmp_path):
    spec = gr.Shearlet2D(0.5)
    atom = at.make_atom(spec, 2, at.spline_base([5, 5]))
    assert atom.parity() == 1
    # a centered atom has a parity: per +-h pair one row FFT (W_-h = W_h in cwt, the
    # folded pair in icwt), one atom FFT per orbit of h -> -h and h -> RhR (5 r values
    # times the t orbits {0} and {+-1.5}), plus one signal or output FFT
    assert [len(ffts) for ffts in _traced_ffts(tmp_path, atom)] == [15 + 10 + 1] * 2


def test_traced_offset_atom_takes_a_row_fft_per_dilation(tmp_path):
    spec = gr.Shearlet2D(0.5)
    atom = at.make_atom(spec, 2, at.spline_base([5, 5], [(-2.5, 3.5), (-3.0, 3.0)]))
    assert atom.parity() is None
    # 30 per-dilation FFTs, one atom FFT per orbit (axis 1 is centered, so h and RhR share
    # one, R = diag(1, -1)), one signal or output FFT
    assert [len(ffts) for ffts in _traced_ffts(tmp_path, atom)] == [30 + 10 + 1] * 2
