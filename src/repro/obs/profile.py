"""Profiling analysis over recorded span trees.

A trace answers "what ran, nested how, for how long"; this module turns
it into the profiler views people actually reach for:

- :func:`self_times` — per-span *self* time (duration minus the summed
  durations of direct children, clamped at zero against clock skew), so
  a parent that merely awaits its children stops dominating the ranking;
- :func:`hotspots` — per-name aggregation of call count, total time,
  and self time, ranked by self time: the top-K table wired into
  :func:`repro.obs.report.render_trace`;
- :func:`critical_path` — the walk from the longest root span down its
  longest child at every level: the chain a latency optimisation has to
  shorten;
- :func:`folded_stacks` / :func:`export_folded` — the
  ``root;child;grandchild <weight>`` folded-stack lines that standard
  flame-graph tooling (Brendan Gregg's ``flamegraph.pl``, speedscope,
  ``inferno``) consumes directly, weighted by self time in microseconds.

Everything here is pure analysis over :class:`~repro.obs.trace.SpanRecord`
sequences — it works identically on a live tracer buffer and on a trace
JSONL loaded back from disk (the CLI ``report`` subcommand does the
latter).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.obs.trace import SpanRecord, get_tracer


def _children_by_parent(
    records: Sequence[SpanRecord],
) -> dict[int | None, list[SpanRecord]]:
    """Record-order children per parent id; orphans root at ``None``.

    The one span forest of this module and
    :func:`repro.obs.report.render_trace`: a record whose parent id is
    absent (a truncated trace, or worker spans exported before merging)
    is treated as a root.
    """
    ids = {r.span_id for r in records}
    by_parent: dict[int | None, list[SpanRecord]] = {}
    for r in records:
        parent = r.parent_id if r.parent_id in ids else None
        by_parent.setdefault(parent, []).append(r)
    return by_parent


def self_times(records: Sequence[SpanRecord]) -> dict[int, float]:
    """Per-span self time: duration minus direct children, floored at 0.

    The floor matters in practice: a parent's duration comes from one
    ``perf_counter`` pair while its children's come from many, so
    rounding (or a child recorded under a remapped parent) can push the
    difference a few microseconds negative.
    """
    child_sum: dict[int | None, float] = {}
    ids = {r.span_id for r in records}
    for r in records:
        parent = r.parent_id if r.parent_id in ids else None
        child_sum[parent] = child_sum.get(parent, 0.0) + r.duration_s
    return {
        r.span_id: max(0.0, r.duration_s - child_sum.get(r.span_id, 0.0))
        for r in records
    }


@dataclass(frozen=True)
class Hotspot:
    """One span name's aggregate cost across a trace."""

    name: str
    count: int
    total_s: float
    self_s: float


def hotspots(records: Sequence[SpanRecord], top: int | None = None) -> list[Hotspot]:
    """Per-name cost aggregates, ranked by self time (name breaks ties).

    ``total_s`` sums every span's full duration (so nested same-name
    spans double-count by design — it answers "how long were we inside
    this stage"), while ``self_s`` partitions wall-clock exactly once.
    """
    selfs = self_times(records)
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_: dict[str, float] = {}
    for r in records:
        count[r.name] = count.get(r.name, 0) + 1
        total[r.name] = total.get(r.name, 0.0) + r.duration_s
        self_[r.name] = self_.get(r.name, 0.0) + selfs[r.span_id]
    ranked = sorted(count, key=lambda name: (-self_[name], name))
    if top is not None:
        ranked = ranked[:top]
    return [Hotspot(name, count[name], total[name], self_[name]) for name in ranked]


def critical_path(
    records: Sequence[SpanRecord],
) -> list[tuple[SpanRecord, float]]:
    """The longest-root, longest-child-at-every-level chain of a trace.

    Returns ``[(record, self_seconds), ...]`` from root to leaf.  Ties
    (identical durations) resolve to the earlier record, keeping the
    path deterministic for a given trace.
    """
    if not records:
        return []
    by_parent = _children_by_parent(records)
    selfs = self_times(records)
    path: list[tuple[SpanRecord, float]] = []
    node = max(by_parent.get(None, []), key=lambda r: r.duration_s, default=None)
    while node is not None:
        path.append((node, selfs[node.span_id]))
        node = max(
            by_parent.get(node.span_id, []),
            key=lambda r: r.duration_s,
            default=None,
        )
    return path


def format_hotspots(records: Sequence[SpanRecord], top: int = 10) -> str:
    """An aligned top-*top* hotspot table (self-time ranked)."""
    spots = hotspots(records, top=top)
    if not spots:
        return "(empty trace)"
    width = max(4, max(len(s.name) for s in spots))
    header = f"{'span':<{width}}  {'count':>7}  {'total':>10}  {'self':>10}"
    lines = [header, "-" * len(header)]
    for s in spots:
        lines.append(
            f"{s.name:<{width}}  {s.count:>7}  {s.total_s:>9.3f}s  {s.self_s:>9.3f}s"
        )
    remaining = len({r.name for r in records}) - len(spots)
    if remaining > 0:
        lines.append(f"... {remaining} more span names below the top {top}")
    return "\n".join(lines)


def format_critical_path(records: Sequence[SpanRecord]) -> str:
    """The critical path as an indented chain with total and self times."""
    path = critical_path(records)
    if not path:
        return "(empty trace)"
    width = max(len("  " * d + r.name) for d, (r, _) in enumerate(path))
    lines = []
    for depth, (r, self_s) in enumerate(path):
        label = "  " * depth + r.name
        lines.append(
            f"{label:<{width}}  {r.duration_s:>9.3f}s total  {self_s:>9.3f}s self"
        )
    return "\n".join(lines)


def folded_stacks(records: Sequence[SpanRecord]) -> dict[str, int]:
    """Semicolon-folded stack lines weighted by self time in microseconds.

    Every span contributes its self time under its full ancestry
    (``study;fits;fits.unit``); same-stack spans (e.g. the hundreds of
    ``placebo`` spans under one unit) accumulate into one line.  Zero
    weights are dropped — flame-graph tools render them as noise.
    """
    by_parent = _children_by_parent(records)
    selfs = self_times(records)
    folded: dict[str, int] = {}

    def walk(parent: int | None, prefix: str) -> None:
        for r in by_parent.get(parent, []):
            stack = f"{prefix};{r.name}" if prefix else r.name
            weight = int(round(selfs[r.span_id] * 1e6))
            if weight > 0:
                folded[stack] = folded.get(stack, 0) + weight
            walk(r.span_id, stack)

    walk(None, "")
    return folded


def export_folded(
    path: str | Path, records: Sequence[SpanRecord] | None = None
) -> int:
    """Write folded stacks (default: the live trace) for flame-graph tools.

    Returns the number of stack lines written.  Lines are sorted so the
    export is byte-stable for a given trace.
    """
    if records is None:
        records = get_tracer().records
    folded = folded_stacks(records)
    with open(path, "w") as f:
        for stack in sorted(folded):
            f.write(f"{stack} {folded[stack]}\n")
    return len(folded)
