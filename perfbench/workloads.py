"""The benchmark's workloads, driven through the program's public entry points.

Each workload is a closed loop in one serial process: the next
operation starts when the previous one returns.  A workload has a
``prepare`` step (its set-up, repeated to time it), an ``operation``
(timed) that returns the finished table, and a ``verify`` step run
after timing that compares outputs with a reference.

- ``table1-10x``: generate a fresh 10x-paper-scale Table-1 world and
  its measurements (~1.7M rows) per operation, then run the serial
  batch study.  Generation dominates; the fit engine fits only the 8
  treated units, so this workload bypasses fit-engine changes.
- ``stream-6h``: set-up generates the CLI's default world at that
  scale (world seed 2) and a measurement feed drawn from the workload
  seed, and cuts it into 240 six-hour batches; an operation streams
  the whole feed through a fresh ``StreamStudy`` with live refits and
  finalizes.  Live refits dominate and generation is not timed, so
  this workload bypasses generation changes.  The world is fixed
  because its population draw alone moves the feed's size, and with
  it peak memory, by up to 15% from seed to seed, while the measurement
  draw moves it by under 1%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import repro.mplatform as mplatform
import repro.netsim as netsim
import repro.pipeline as pipeline
import repro.stream as stream

from measure import post_join_latencies

#: The 10x-paper-scale Table-1 world both workloads use.
WORLD = dict(n_donor_ases=30, duration_days=60, join_day=30, user_scale=10.0)
STREAM_WORLD_SEED = 2
BATCH_HOURS = 6.0


def op_seed(seed: int, index: int) -> int:
    """A per-operation seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def table_text(result) -> str:
    """An exact, comparable rendering of a study's rows and skips."""
    return repr((result.rows, result.skipped))


@dataclass
class OpOutput:
    """What one operation produced, kept for the checks after timing."""

    table: str
    batch_latencies_ms: list[float] = field(default_factory=list)
    refit_counts: dict[str, int] = field(default_factory=dict)


class Table1Workload:
    name = "table1-10x"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._last: tuple[object, str] | None = None

    def prepare(self) -> None:
        """Nothing to prepare: every operation generates its own world."""

    def operation(self, index: int) -> OpOutput:
        self._last = None
        s = op_seed(self.seed, index)
        scenario = netsim.build_table1_scenario(seed=s, **WORLD)
        frame = mplatform.measurements_frame(scenario, rng=s)
        result = pipeline.run_ixp_study(frame, scenario.ixp_name, n_jobs=1)
        self._last = (frame, scenario.ixp_name)
        return OpOutput(table_text(result))

    def verify(self, outputs: dict[int, OpOutput]) -> list[int]:
        """Re-run the last operation's study unbatched; failed op indices."""
        if not outputs or self._last is None:
            return []
        frame, ixp = self._last
        last = max(outputs)
        reference = pipeline.run_ixp_study(frame, ixp, n_jobs=1, batch_fits=False)
        return [] if table_text(reference) == outputs[last].table else [last]


class StreamWorkload:
    name = "stream-6h"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scenario = None
        self.frame = None
        self.batches: list = []

    def prepare(self) -> None:
        """Generate the feed and cut it into six-hour batches."""
        self.scenario = self.frame = self.batches = None
        self.scenario = netsim.build_table1_scenario(seed=STREAM_WORLD_SEED, **WORLD)
        self.frame = mplatform.measurements_frame(self.scenario, rng=op_seed(self.seed, 0))
        self.batches = stream.slice_frame(self.frame, batch_hours=BATCH_HOURS)

    def operation(self, index: int) -> OpOutput:
        study = stream.StreamStudy(self.scenario.ixp_name, n_jobs=1)
        latencies = []
        for batch in self.batches:
            t0 = time.perf_counter()
            study.ingest(batch)
            latencies.append(time.perf_counter() - t0)
        result = study.finalize()
        reports = study.reports
        counts = {
            "warm": sum(r.warm_refits for r in reports),
            "cold": sum(r.cold_refits for r in reports),
            "placebo_refreshes": sum(r.placebo_refreshes for r in reports),
        }
        post = post_join_latencies(self.batches, latencies, self.scenario.join_hours)
        return OpOutput(table_text(result), [1e3 * x for x in post], counts)

    def verify(self, outputs: dict[int, OpOutput]) -> list[int]:
        """Finalized rows must equal the batch study's on the same frame."""
        if not outputs:
            return []
        reference = table_text(
            pipeline.run_ixp_study(self.frame, self.scenario.ixp_name, n_jobs=1)
        )
        return [i for i, out in outputs.items() if out.table != reference]


WORKLOADS = {w.name: w for w in (Table1Workload, StreamWorkload)}
