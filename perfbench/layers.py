"""Per-layer spans recorded from outside the program.

The benchmark does not rely on the program's own tracing.  While a
:class:`LayerTracer` is active it replaces each layer's public function
(every module-level reference to it under ``repro``, or the method on
its class) with a wrapper that records a span: name, start, end and the
span that was open when it was called.  Deactivating restores the
originals, so untimed and untraced operations run the program's code
unchanged.

A layer's busy time is the summed duration of its spans; its self time
subtracts the part covered by other layers' spans nested inside it.
What the layers' self times do not cover of an operation is reported
as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Layer:
    """One public call to time: ``module:qualname`` and its metric stem."""

    target: str
    metric: str


#: The layer boundaries, from the data layers down to the stream engine.
LAYERS = (
    Layer("repro.mplatform.speedtest:measurements_frame", "mplatform.generate"),
    Layer("repro.pipeline.crossing:assign_treatment", "pipeline.crossing.assign"),
    Layer("repro.pipeline.aggregate:rtt_panel", "pipeline.aggregate.panel"),
    Layer("repro.pipeline.study:execute_unit_plan", "pipeline.study.fits"),
    Layer("repro.pipeline.prefactor:prefactor_unit_plan", "pipeline.prefactor.svd"),
    Layer("repro.synthcontrol.donor:select_donors", "synthcontrol.donors"),
    Layer("repro.stream.state:PanelAccumulator.apply", "stream.state.panel_apply"),
    Layer("repro.stream.state:AssignmentAccumulator.apply", "stream.state.assign_apply"),
    Layer("repro.stream.refit:LiveRefitter.refresh", "stream.refit.refresh"),
    Layer("repro.stream.engine:StreamStudy.finalize", "stream.finalize"),
)


def _count_outputs(metric: str, result, counts: Counter) -> None:
    """Work counts read from a layer call's return value."""
    if metric == "mplatform.generate":
        counts["mplatform.rows"] += result.num_rows
    elif metric == "pipeline.study.fits":
        rows, skipped = result
        counts["pipeline.study.units_fitted"] += len(rows)
        counts["pipeline.study.units_skipped"] += len(skipped)
    elif metric == "pipeline.prefactor.svd":
        counts["pipeline.prefactor.units"] += len(result)


@dataclass
class Span:
    """One recorded call into a layer."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0


@dataclass
class OpTrace:
    """Every span of one operation plus the counts read at its boundaries."""

    op: int
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def calls(self, name: str) -> int:
        """How many times the operation entered layer *name*."""
        return sum(1 for sp in self.spans if sp.name == name)

    def busy_s(self) -> dict[str, float]:
        """Summed span duration per layer (inclusive of nested layers)."""
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += sp.end - sp.start
        return out

    def self_s(self) -> dict[str, float]:
        """Summed span duration per layer minus nested layers' spans."""
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += sp.end - sp.start - sp.child_s
        return out


class LayerTracer:
    """Installs span-recording wrappers around :data:`LAYERS`."""

    def __init__(self, layers=LAYERS) -> None:
        self._layers = layers
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self.current: OpTrace | None = None
        self.ops: list[OpTrace] = []

    def _wrap(self, fn, metric: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.current
            parent = tracer._stack[-1] if tracer._stack else None
            sp = Span(tracer._next_id, parent.span_id if parent else None, metric, 0.0)
            tracer._next_id += 1
            tracer._stack.append(sp)
            sp.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += sp.end - sp.start
                op.spans.append(sp)
            _count_outputs(metric, result, op.counts)
            return result

        return traced

    def begin(self, op: int) -> None:
        """Install the wrappers and start recording operation *op*."""
        if self._restore:
            raise RuntimeError("layer tracer is already active")
        self.current = OpTrace(op)
        repro_modules = [
            m for name, m in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and m is not None
        ]
        for layer in self._layers:
            module_name, qualname = layer.target.split(":")
            owner = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, layer.metric))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(original, layer.metric)
            for module in repro_modules:
                namespace = vars(module)
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def end(self) -> OpTrace:
        """Restore the originals and return the finished operation's trace."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} layer spans left open")
        op, self.current = self.current, None
        self.ops.append(op)
        return op

    def write_jsonl(self, path: Path) -> int:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = 0
        with open(path, "w") as f:
            for op in self.ops:
                for sp in op.spans:
                    f.write(json.dumps({
                        "op": op.op,
                        "id": sp.span_id,
                        "parent": sp.parent_id,
                        "name": sp.name,
                        "start": sp.start,
                        "end": sp.end,
                        "self_s": sp.end - sp.start - sp.child_s,
                    }) + "\n")
                    n += 1
        return n
