"""Text renderers for traces and metrics.

One renderer serves both the CLI (``--trace`` prints a summary tree at
higher log levels, benchmarks embed trees in their reports) and ad-hoc
analysis of exported JSONL files: :func:`render_trace` rebuilds the
span forest from parent pointers and prints an aligned, indented tree
— names left, durations right, attributes trailing — so the slowest
stage is readable at a glance.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.obs.profile import _children_by_parent
from repro.obs.trace import SpanRecord

_INDENT = "  "


def _attr_text(attrs: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in attrs.items())


def render_trace(
    records: Sequence[SpanRecord],
    max_spans: int | None = None,
    hotspots: int | None = None,
) -> str:
    """An aligned text tree of a span forest.

    Children print under their parent in record order (which both the
    serial path and the order-stable worker merge produce in task
    order).  *max_spans* truncates huge traces, noting how many spans
    were elided — silent truncation would read as full coverage.
    *hotspots* appends a top-K self-time table
    (:func:`repro.obs.profile.format_hotspots`) under the tree.
    """
    if not records:
        return "(empty trace)"
    by_parent = _children_by_parent(records)

    # Depth-first, children in record order.
    lines: list[tuple[str, float, str]] = []

    def walk(parent: int | None, depth: int) -> None:
        for r in by_parent.get(parent, []):
            lines.append(
                (f"{_INDENT * depth}{r.name}", r.duration_s, _attr_text(r.attrs))
            )
            walk(r.span_id, depth + 1)

    walk(None, 0)

    elided = 0
    if max_spans is not None and len(lines) > max_spans:
        elided = len(lines) - max_spans
        lines = lines[:max_spans]
    width = max(len(label) for label, _, _ in lines)
    out = [
        f"{label:<{width}}  {duration:>9.3f}s" + (f"  {attrs}" if attrs else "")
        for label, duration, attrs in lines
    ]
    if elided:
        out.append(f"... {elided} more spans elided")
    if hotspots is not None:
        from repro.obs.profile import format_hotspots

        out.append("")
        out.append(f"top {hotspots} hotspots by self time")
        out.append(format_hotspots(records, top=hotspots))
    return "\n".join(out)


def span_counts(records: Sequence[SpanRecord]) -> dict[str, int]:
    """How many spans of each name a trace holds (shape comparisons)."""
    counts: dict[str, int] = {}
    for r in records:
        counts[r.name] = counts.get(r.name, 0) + 1
    return counts
