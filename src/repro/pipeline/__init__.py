"""Analysis pipeline: raw measurements -> the paper's Table 1.

- :func:`crossing_mask` / :func:`assign_treatment` — IXP-crossing
  detection from traceroute evidence and first-crossing treatment
  timing;
- :func:`daily_median_rtt` / :func:`rtt_panel` — ⟨ASN, city⟩ daily
  median RTTs, as a long table and as the study's (days x units)
  panel; :func:`measurement_volume` — tests per unit;
- :func:`run_ixp_study` — the end-to-end Table-1 runner with donor
  screening, robust synthetic control, and placebo inference;
- :func:`get_executor` — serial and process-pool execution backends
  behind ``n_jobs`` (the pool builds a campaign's scenarios; fits run
  serially), with :class:`RetryPolicy` fault tolerance (transient-error
  retries, per-task deadlines, broken-pool recovery);
- :class:`StudyCheckpoint` / :func:`read_jsonl_tolerant` — the
  checkpoint/resume journal behind ``--checkpoint``/``--resume``.
"""

from repro.pipeline.aggregate import (
    daily_median_rtt,
    measurement_volume,
    rtt_panel,
)
from repro.pipeline.importer import (
    detect_crossings_from_hops,
    import_csv,
    load_ixp_prefixes,
    normalise_measurements,
    read_measurement_csv,
)
from repro.pipeline.checkpoint import StudyCheckpoint, read_jsonl_tolerant
from repro.pipeline.crossing import (
    TreatmentAssignment,
    assign_treatment,
    crossing_mask,
)
from repro.pipeline.executor import (
    ProcessPoolBackend,
    RetryPolicy,
    SerialExecutor,
    get_executor,
    resolve_n_jobs,
)
from repro.pipeline.study import (
    StudyResult,
    StudyRow,
    StudyTimings,
    parse_unit_label,
    run_ixp_study,
)

__all__ = [
    "ProcessPoolBackend",
    "RetryPolicy",
    "SerialExecutor",
    "StudyCheckpoint",
    "StudyResult",
    "StudyRow",
    "StudyTimings",
    "TreatmentAssignment",
    "assign_treatment",
    "crossing_mask",
    "daily_median_rtt",
    "detect_crossings_from_hops",
    "get_executor",
    "import_csv",
    "load_ixp_prefixes",
    "measurement_volume",
    "normalise_measurements",
    "parse_unit_label",
    "read_jsonl_tolerant",
    "read_measurement_csv",
    "resolve_n_jobs",
    "rtt_panel",
    "run_ixp_study",
]
