"""Tests for the benchmark's own arithmetic and workload definitions.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import spans  # noqa: E402
import trace_launcher  # noqa: E402
import workloads  # noqa: E402


def span(name, layer, start, end, parent=None, cmd=0, count=0):
    return {"name": name, "layer": layer, "start": start, "end": end,
            "parent": parent, "cmd": cmd, "count": count, "bytes": 0,
            "failed": 0}


def test_union_length_merges_overlaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.union_length([]) == 0


def test_self_time_subtracts_covered_child_time():
    tree = [span("cli.main", "cli", 0.0, 10.0),
            span("transform.analyze", "transform", 1.0, 4.0, parent=0),
            span("transform.fft", "transform", 2.0, 3.0, parent=1),
            # overlaps its sibling (recorded from another thread)
            span("groups.sample_group", "groups", 3.0, 6.0, parent=0)]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 3.0])
    layers = spans.layer_metrics(tree, ("cli", "transform", "groups", "algebra"))
    assert layers["transform.busy_s"] == pytest.approx(3.0)
    assert layers["transform.self_s"] == pytest.approx(3.0)
    assert layers["cli.self_s"] == pytest.approx(5.0)
    assert layers["algebra.busy_s"] == 0


def test_busy_time_never_merges_across_commands():
    two = [span("atoms.io", "atoms", 0.0, 2.0, cmd=0),
           span("atoms.io", "atoms", 1.0, 3.0, cmd=1)]
    fm = spans.function_metrics(two, {"atoms.io"})["atoms.io"]
    assert fm["busy_s"] == pytest.approx(4.0)
    assert fm["calls"] == 2


def test_recorder_nests_spans_and_keeps_results():
    rec = trace_launcher.Recorder(cmd=3)
    inner = rec.wrap(lambda x: x * 2, "inner", "atoms",
                     lambda args, result: {"count": result})
    outer = rec.wrap(lambda x: inner(x) + 1, "outer", "cli")
    assert outer(5) == 11
    first, second = rec.spans
    assert (first["name"], first["parent"]) == ("outer", None)
    assert (second["name"], second["parent"], second["count"]) == ("inner", 0, 10)
    assert first["start"] <= second["start"] <= second["end"] <= first["end"]


class Result:
    def __init__(self, ok):
        self.ok = ok


def test_tol_and_fail_ratio_aggregation():
    assert spans.tol_ratio([(1e-10, 1e-8), (0.02, 0.05), (3e-6, 1e-3)]) == \
        pytest.approx(0.4)
    assert spans.tol_ratio([]) == 0.0
    assert spans.fail_ratio([Result(True), Result(False), Result(True),
                             Result(True)]) == 0.25
    with pytest.raises(ValueError):
        spans.fail_ratio([])


def _shape(plan):
    """Command list with flag values dropped: what the seed must not change."""
    return [(op.label, op.metric, [a for a in op.argv if not a[0].isdigit()])
            for op in plan.ops]


@pytest.mark.parametrize("name", ["atom-certify", "orbit-checks", "desk-cwt"])
def test_seed_changes_inputs_not_commands(name, tmp_path):
    make = workloads.WORKLOADS[name]
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    plan_a, plan_b = make(1, str(a)), make(2, str(b))
    assert _shape(plan_a) == _shape(plan_b)
    assert plan_a.inputs != plan_b.inputs
    assert make(1, str(b)).inputs == plan_a.inputs


def test_benchmark_json_lists_what_run_reports():
    root = os.path.dirname(BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
