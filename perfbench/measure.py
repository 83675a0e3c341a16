"""Summary statistics for the benchmark's timings.

Every timing is reported as a median with its sample count.  A higher
percentile is reported only when at least ``MIN_TAIL`` samples lie
beyond it, so a tail figure never rests on one or two observations.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10


def median(samples: Sequence[float]) -> float:
    """The median of *samples*; raises ``ValueError`` when empty."""
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank *q*-th percentile, or ``None`` without enough tail.

    The value is the sample at rank ``ceil(q / 100 * n)`` of the sorted
    samples; the ``n - rank`` samples after it are "beyond" it.  With
    fewer than :data:`MIN_TAIL` of those, the percentile is not
    reported (``None``).
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_TAIL:
        return None
    return sorted(samples)[rank - 1]


def post_join_latencies(
    batches: Iterable, latencies: Sequence[float], join_hours: dict
) -> list[float]:
    """Latencies of the batches that end at or after the first IXP join.

    *batches* are the feed's :class:`~repro.stream.MeasurementBatch`
    objects in ingest order and *latencies* their ingest times.  The
    cut comes from the scenario's input (``scenario.join_hours``), not
    from anything the program reports about its own work, so a change
    that refits more or fewer units cannot move batches in or out of
    the sample.
    """
    batches = list(batches)
    if len(batches) != len(latencies):
        raise ValueError(f"{len(batches)} batches but {len(latencies)} latencies")
    if not join_hours:
        raise ValueError("the scenario schedules no IXP join")
    first_join = min(join_hours.values())
    return [lat for batch, lat in zip(batches, latencies) if batch.end_hour >= first_join]
