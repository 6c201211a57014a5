"""Run one orbitlet CLI command with spans recorded around each layer.

Usage: python3 trace_launcher.py SPANS_JSON CMD_ID [orbitlet arguments...]

The launcher wraps the public functions of each orbitlet module that the
benchmark reports on, then calls orbitlet.cli.main with the remaining
arguments.  Spans are kept in memory and written to SPANS_JSON when the
command returns; nothing is added to stdout, so the command's output stays
byte-identical to an untraced run.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import threading
from time import perf_counter

import numpy as np

from orbitlet import algebra as al
from orbitlet import atoms as at
from orbitlet import cli
from orbitlet import embeddedness as em
from orbitlet import groups as gr
from orbitlet import orbit as ob
from orbitlet import quadrature as quad
from orbitlet import transform as tr


class Recorder:
    """Spans of one command, with a per-thread stack of open spans."""

    def __init__(self, cmd: int):
        self.cmd = cmd
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn, name: str, layer: str, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"name": name, "layer": layer, "cmd": self.cmd,
                    "parent": stack[-1] if stack else None,
                    "count": 0, "bytes": 0, "failed": 0}
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if measure is not None:
                span.update(measure(args, result))
            return result
        return wrapper


def _fft(args, result):
    # args: (a, s, axes); bytes are computed from the shapes, not observed
    return {"count": math.prod(args[1]),
            "bytes": int(np.asarray(args[0]).nbytes + result.nbytes)}


def _file_bytes(path_index: int):
    return lambda args, result: {"bytes": os.path.getsize(args[path_index])}


def _length(args, result):
    return {"count": len(result)}


def _stages(args, result):
    return {"count": result.stages, "failed": int(not result.converged)}


# (owner, attribute, span name, layer, measure)
TARGETS = [
    (tr, "analyze", "transform.analyze", "transform", None),
    (tr, "synthesize", "transform.synthesize", "transform", None),
    (tr, "coefficient_norm", "transform.coefficient_norm", "transform", None),
    (tr, "calderon_constant", "transform.calderon_constant", "transform", None),
    (tr, "make_transform_grid", "transform.make_transform_grid", "transform",
     lambda args, result: {"count": len(result.dilations)}),
    (np.fft, "rfftn", "transform.fft", "transform", _fft),
    (np.fft, "irfftn", "transform.fft", "transform", _fft),
    (at.Atom, "evaluate", "atoms.evaluate", "atoms", _length),
    (at.Atom, "spectrum", "atoms.spectrum", "atoms", _length),
    (at, "verify_vanishing_moments", "atoms.verify_vanishing_moments", "atoms",
     None),
    (at, "admissibility_check", "atoms.admissibility_check", "atoms",
     lambda args, result: {"count": len(result.inner_shells)
                           + len(result.outer_shells)}),
    (at, "sampled_to_binary", "atoms.io", "atoms", _file_bytes(1)),
    (at, "sampled_from_binary", "atoms.io", "atoms", _file_bytes(0)),
    (quad, "tensor_eval", "quadrature.tensor_eval", "quadrature",
     lambda args, result: {"count": math.prod(len(ax.nodes) for ax in args[0])}),
    (quad, "staged_refinement", "quadrature.staged_refinement", "quadrature",
     _stages),
    (ob, "orbit_integral", "orbit.orbit_integral", "orbit", None),
    (ob, "group_side_integral", "orbit.group_side_integral", "orbit", None),
    (ob, "envelope_values", "orbit.envelope_values", "orbit", _length),
    (ob, "orbit_density", "orbit.orbit_density", "orbit", None),
    (em, "phi_ell_direct", "embeddedness.phi_ell_direct", "embeddedness", None),
    (em, "phi_ell_convolution", "embeddedness.phi_ell_convolution",
     "embeddedness", None),
    (em, "empirical_exponent_check", "embeddedness.empirical_exponent_check",
     "embeddedness", None),
    (gr, "sample_group", "groups.sample_group", "groups",
     lambda args, result: {"count": len(result.delta_h)}),
    (gr, "element_from_factored", "groups.element_from_factored", "groups",
     None),
    (al, "isomorphism_invariants", "algebra.isomorphism_invariants", "algebra",
     None),
]


def install(recorder: Recorder) -> None:
    for owner, attr, name, layer, measure in TARGETS:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, recorder.wrap(fn, name, layer, measure))


def main(argv) -> int:
    spans_path, cmd = argv[0], int(argv[1])
    recorder = Recorder(cmd)
    install(recorder)
    run_cli = recorder.wrap(cli.main, "cli.main", "cli")
    try:
        return run_cli(argv[2:])
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"cmd": cmd, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
