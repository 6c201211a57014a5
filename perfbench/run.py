"""orbitlet benchmark: real CLI commands, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  Every command runs in a fresh
`python -m orbitlet.cli --threads 2` process, one at a time (a closed loop
with one client), from the orbitlet sources under ./src.

--trace 0 repeats full passes of the workload until --seconds have elapsed
(at least one) and reports the end-to-end metrics as medians over the
passes.  Two fresh `describe` processes before the first pass and after
each pass give setup_s (their median).

--trace 1 runs one pass in which every command runs twice, back to back:
plainly and under trace_launcher.py, which records spans around each
layer's public functions.  It reports the per-layer metrics.  Each traced
command's stdout must be byte-identical to its untraced stdout, and the
tracing overhead is the traced minus the untraced command time.

Human-readable lines (prefixed "#") describe the machine, the inputs and
every metric by name; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  Inputs and outputs live in
.perfbench_work/ under the current directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import spans as sp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "trace_launcher.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

THREADS = "2"
SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 150.0
WORKLOAD_NAMES = ("desk-cwt", "atom-certify", "orbit-checks")
LAYERS = ("cli", "transform", "atoms", "quadrature", "orbit", "embeddedness",
          "groups", "algebra")
COMMAND_METRICS = ("cwt_s", "icwt_s", "atom_verify_s", "admissibility_s",
                   "haar_check_s", "phi_check_s")

# per-layer metric -> (span name, field of spans.function_metrics, unit)
FUNCTION_METRICS = {
    "transform.analyze_s": ("transform.analyze", "busy_s", "s"),
    "transform.synthesize_s": ("transform.synthesize", "busy_s", "s"),
    "transform.coefficient_norm_s": ("transform.coefficient_norm", "busy_s", "s"),
    "transform.calderon_constant_s": ("transform.calderon_constant", "busy_s", "s"),
    "transform.make_transform_grid_s": ("transform.make_transform_grid", "busy_s", "s"),
    "transform.dilations": ("transform.make_transform_grid", "count", "count"),
    "transform.fft_s": ("transform.fft", "busy_s", "s"),
    "transform.fft_calls": ("transform.fft", "calls", "count"),
    "transform.fft_points": ("transform.fft", "count", "count"),
    "transform.fft_bytes_computed": ("transform.fft", "bytes", "bytes"),
    "atoms.evaluate_s": ("atoms.evaluate", "busy_s", "s"),
    "atoms.evaluate_points": ("atoms.evaluate", "count", "count"),
    "atoms.spectrum_s": ("atoms.spectrum", "busy_s", "s"),
    "atoms.spectrum_points": ("atoms.spectrum", "count", "count"),
    "atoms.verify_vanishing_moments_s": ("atoms.verify_vanishing_moments", "busy_s", "s"),
    "atoms.admissibility_check_s": ("atoms.admissibility_check", "busy_s", "s"),
    "atoms.shells": ("atoms.admissibility_check", "count", "count"),
    "atoms.io_s": ("atoms.io", "busy_s", "s"),
    "atoms.io_bytes": ("atoms.io", "bytes", "bytes"),
    "quadrature.tensor_eval_self_s": ("quadrature.tensor_eval", "self_s", "s"),
    "quadrature.tensor_eval_calls": ("quadrature.tensor_eval", "calls", "count"),
    "quadrature.nodes": ("quadrature.tensor_eval", "count", "count"),
    "quadrature.staged_refinement_s": ("quadrature.staged_refinement", "busy_s", "s"),
    "quadrature.stages": ("quadrature.staged_refinement", "count", "count"),
    "quadrature.unconverged": ("quadrature.staged_refinement", "failed", "count"),
    "orbit.orbit_integral_s": ("orbit.orbit_integral", "busy_s", "s"),
    "orbit.group_side_integral_s": ("orbit.group_side_integral", "busy_s", "s"),
    "orbit.envelope_values_s": ("orbit.envelope_values", "busy_s", "s"),
    "orbit.envelope_points": ("orbit.envelope_values", "count", "count"),
    "orbit.orbit_density_s": ("orbit.orbit_density", "busy_s", "s"),
    "embeddedness.phi_ell_direct_s": ("embeddedness.phi_ell_direct", "busy_s", "s"),
    "embeddedness.phi_ell_convolution_s": ("embeddedness.phi_ell_convolution", "busy_s", "s"),
    "embeddedness.empirical_exponent_check_s": ("embeddedness.empirical_exponent_check",
                                                "busy_s", "s"),
    "groups.sample_group_s": ("groups.sample_group", "busy_s", "s"),
    "groups.sample_group_points": ("groups.sample_group", "count", "count"),
    "groups.element_from_factored_calls": ("groups.element_from_factored", "calls", "count"),
    "algebra.isomorphism_invariants_s": ("algebra.isomorphism_invariants", "busy_s", "s"),
}


def end_to_end_units() -> dict[str, str]:
    return {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cmd1_s": "s",
            "cmd2_s": "s", "ok_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units["cli.cpu_s"] = "s"
    units.update({name: unit for name, (_, _, unit) in FUNCTION_METRICS.items()})
    units.update({name: "s" for name in COMMAND_METRICS})
    units.update({"tol_ratio": "ratio", "fail_ratio": "ratio",
                  "trace.overhead_s": "s", "trace.stdout_identical": "ratio"})
    return units


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    label: str
    metric: str | None
    seconds: float
    rss_mb: float
    cpu_s: float
    stdout: bytes
    pairs: list = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Pass:
    results: list
    wall_s: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_command(cmd: list, workdir: str):
    """Run cmd to completion; returns (exit code, stdout, stderr, seconds,
    peak RSS in MB, user+sys CPU seconds).  Time runs from spawn to exit."""
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode(errors="replace")
    return (proc.returncode, out, stderr, seconds, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


def run_op(op, workdir: str, cmd_id: int, traced: bool) -> OpResult:
    if traced:
        prefix = [sys.executable, LAUNCHER, spans_path(workdir, cmd_id), str(cmd_id)]
    else:
        prefix = [sys.executable, "-m", "orbitlet.cli"]
    code, out, stderr, seconds, rss, cpu = run_command(
        prefix + ["--threads", THREADS] + op.argv, workdir)
    res = OpResult(op.label, op.metric, seconds, rss, cpu, out)
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        res.error = f"exit {code}: {tail[0]}"
        return res
    try:
        res.pairs = op.check(json.loads(out))
    except (ValueError, KeyError, TypeError) as exc:  # CheckFailed is a ValueError
        res.error = f"check failed: {exc!r}"
        return res
    bad = [(err, tol) for err, tol in res.pairs if not err < tol]  # NaN fails too
    if bad:
        res.error = f"error {bad[0][0]:.3g} not below tolerance {bad[0][1]:.3g}"
    return res


def spans_path(workdir: str, cmd_id: int) -> str:
    return os.path.join(workdir, f"spans-{cmd_id}.json")


def run_pass(plan, workdir: str) -> Pass:
    start = time.perf_counter()
    results = [run_op(op, workdir, i, traced=False) for i, op in enumerate(plan.ops)]
    return Pass(results, time.perf_counter() - start)


def setup_times(plan, workdir: str) -> list[OpResult]:
    return [run_op(plan.setup, workdir, 0, traced=False) for _ in range(SETUP_REPEATS)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def command_seconds(p: Pass, metric: str) -> float:
    return sum(r.seconds for r in p.results if r.metric == metric)


def pass_tol_ratio(passes) -> float:
    return sp.tol_ratio(pair for p in passes for r in p.results for pair in r.pairs)


def timed_run(plan, workdir: str, seconds: float):
    # set-up is sampled before the first pass and after every pass, so that
    # its median spans the whole run rather than one moment of it
    setups = setup_times(plan, workdir)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(plan, workdir))
        setups += setup_times(plan, workdir)
    results = setups + [r for p in passes for r in p.results]
    cmd1, cmd2 = plan.cmd_metrics
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(r.seconds for r in setups),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p.results)
                                         for p in passes),
        "cmd1_s": statistics.median(command_seconds(p, cmd1) for p in passes),
        "cmd2_s": statistics.median(command_seconds(p, cmd2) for p in passes),
        "ok_ratio": 1.0 - sp.fail_ratio(results),
    }
    notes = {
        "passes": len(passes),
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "setup_runs_s": [round(r.seconds, 4) for r in setups],
        f"{cmd1} (cmd1_s)": metrics["cmd1_s"],
        f"{cmd2} (cmd2_s)": metrics["cmd2_s"],
        "tol_ratio": pass_tol_ratio(passes),
        "fail_ratio": sp.fail_ratio(results),
    }
    return metrics, results, {f"pass {i}": p for i, p in enumerate(passes)}, notes


def load_spans(workdir: str, count: int) -> list[dict]:
    """Spans of all traced commands, parents re-indexed into one list."""
    merged = []
    for cmd_id in range(count):
        path = spans_path(workdir, cmd_id)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        offset = len(merged)
        for s in spans:
            if s["parent"] is not None:
                s["parent"] += offset
        merged.extend(spans)
    return merged


def traced_run(plan, workdir: str):
    # Each command runs untraced and then traced, back to back, so that both
    # see the same machine state; outputs are deterministic, so the traced
    # run rewrites the same files and the pass order is kept.
    pairs = [(run_op(op, workdir, i, traced=False), run_op(op, workdir, i, traced=True))
             for i, op in enumerate(plan.ops)]
    plain, traced = (Pass(list(side), sum(r.seconds for r in side))
                     for side in zip(*pairs))
    identical = 0
    for a, b in zip(plain.results, traced.results):
        if a.stdout == b.stdout:
            identical += 1
        elif b.ok:
            b.error = "traced stdout differs from the untraced run"
    all_spans = load_spans(workdir, len(plan.ops))
    fm = sp.function_metrics(all_spans, {name for name, _, _ in FUNCTION_METRICS.values()})
    results = plain.results + traced.results
    metrics = sp.layer_metrics(all_spans, LAYERS)
    metrics["cli.cpu_s"] = sum(r.cpu_s for r in plain.results)
    for name, (span, key, _) in FUNCTION_METRICS.items():
        metrics[name] = fm[span][key]
    for name in COMMAND_METRICS:
        metrics[name] = command_seconds(plain, name)
    metrics["tol_ratio"] = pass_tol_ratio([plain, traced])
    metrics["fail_ratio"] = sp.fail_ratio(results)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["trace.stdout_identical"] = identical / len(plan.ops)
    notes = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
             "spans": len(all_spans)}
    return metrics, results, {"untraced": plain, "traced": traced}, notes


# ---------------------------------------------------------------------------
# machine description and output
# ---------------------------------------------------------------------------

def _read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return None


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(),
            "cpu_model": _read_first("/proc/cpuinfo", "model name"),
            "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "execution": f"one command at a time, --threads {THREADS}, BLAS "
                         "thread count as inherited (at most nproc)"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version",
                                                 "openblas configuration")}
    except (TypeError, KeyError):
        info["blas"] = None
    return info


def emit(metrics: dict, units: dict, results: list, notes: dict,
         passes: dict, info: dict, inputs: dict, args) -> None:
    print(f"# orbitlet benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine: " + json.dumps(info, sort_keys=True))
    print("# inputs: " + json.dumps(inputs, sort_keys=True))
    for name, p in passes.items():
        for r in p.results:
            status = "ok" if r.ok else f"FAILED {r.error}"
            print(f"# {name:<8s} {r.label:<34s} {r.seconds:8.3f} s "
                  f"{r.rss_mb:8.1f} MB  {status}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    failed = sum(1 for r in results if not r.ok)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orbitlet", "cli.py")):
        sys.stderr.write(f"error: no orbitlet sources under {SRC}; run from the "
                         "repository root\n")
        return 2
    sys.path.insert(0, SRC)
    import workloads

    info = machine_info()
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, results, passes, notes = traced_run(plan, workdir)
            units = per_layer_units()
        else:
            metrics, results, passes, notes = timed_run(plan, workdir, args.seconds)
            units = end_to_end_units()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    emit(metrics, units, results, notes, passes, info, plan.inputs, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
