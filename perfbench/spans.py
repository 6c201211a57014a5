"""Span arithmetic for the traced run: busy time, self time, layer totals.

A span is a dict with keys name, layer, start, end (seconds on the clock of
the process that recorded it), parent (index of the enclosing span in the
same list, or None), cmd (command id), count, bytes and failed (0 or 1).  Spans
of different commands come from different processes, so intervals are only
ever merged within one command.
"""

from __future__ import annotations

from collections import defaultdict


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [(spans[k]["start"], spans[k]["end"]) for k in children.get(i, ())]
        clipped = [(max(lo, s["start"]), min(hi, s["end"])) for lo, hi in kids]
        covered = union_length([(lo, hi) for lo, hi in clipped if hi > lo])
        out.append(s["end"] - s["start"] - covered)
    return out


def busy_time(spans, keep) -> float:
    """Time during which at least one span selected by keep(span) is open,
    summed over commands."""
    per_cmd = defaultdict(list)
    for s in spans:
        if keep(s):
            per_cmd[s["cmd"]].append((s["start"], s["end"]))
    return sum(union_length(iv) for iv in per_cmd.values())


def layer_metrics(spans, layers) -> dict[str, float]:
    """<layer>.busy_s and <layer>.self_s for every layer name given."""
    selfs = self_times(spans)
    out = {}
    for layer in layers:
        out[f"{layer}.busy_s"] = busy_time(spans, lambda s: s["layer"] == layer)
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs)
                                     if s["layer"] == layer)
    return out


def function_metrics(spans, names) -> dict[str, float]:
    """Busy time, self time, call count and the summed counts, bytes and
    failures of the spans named in names, keyed by span name."""
    selfs = self_times(spans)
    out = {}
    for name in names:
        picked = [(s, t) for s, t in zip(spans, selfs) if s["name"] == name]
        out[name] = {
            "busy_s": busy_time(spans, lambda s: s["name"] == name),
            "self_s": sum(t for _, t in picked),
            "calls": len(picked),
            "count": sum(s["count"] for s, _ in picked),
            "bytes": sum(s["bytes"] for s, _ in picked),
            "failed": sum(s["failed"] for s, _ in picked),
        }
    return out


def tol_ratio(pairs) -> float:
    """Largest observed error as a share of its contract tolerance."""
    return max((err / tol for err, tol in pairs), default=0.0)


def fail_ratio(results) -> float:
    """Operations that exited non-zero or failed a check, over those tried."""
    results = list(results)
    if not results:
        raise ValueError("no operations attempted")
    return sum(1 for r in results if not r.ok) / len(results)
