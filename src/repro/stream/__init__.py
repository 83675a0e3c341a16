"""Streaming ingestion and the incremental study engine.

The batch pipeline (:func:`repro.pipeline.study.run_ixp_study`)
consumes a complete measurement frame; this package consumes the same
measurements as a time-ordered feed and keeps a live study current
between batches:

- :mod:`repro.stream.batches` — slicing frames into
  :class:`MeasurementBatch` feeds, plus the scenario replay driver;
- :mod:`repro.stream.state` — incremental panel and treatment-
  assignment accumulators (the dirty-unit model lives here);
- :mod:`repro.stream.refit` — warm-started per-unit robust refits;
- :mod:`repro.stream.engine` — the :class:`StreamStudy` driver tying
  them to the executor/retry/checkpoint/observability stack.

The contract throughout: after the final batch, ``finalize()`` returns
rows bit-identical to the batch study's on the same measurements,
whatever the batch split, serial or parallel, resumed or not.
"""

from repro.stream.batches import (
    MeasurementBatch,
    random_batches,
    replay_scenario,
    slice_frame,
)
from repro.stream.engine import BatchReport, StreamOutcome, StreamStudy
from repro.stream.refit import LiveRefitter, UnitFitState
from repro.stream.state import (
    AssignmentAccumulator,
    PanelAccumulator,
    PanelDelta,
)

__all__ = [
    "AssignmentAccumulator",
    "BatchReport",
    "LiveRefitter",
    "MeasurementBatch",
    "PanelAccumulator",
    "PanelDelta",
    "StreamOutcome",
    "StreamStudy",
    "UnitFitState",
    "random_batches",
    "replay_scenario",
    "slice_frame",
]
