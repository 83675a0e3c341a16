"""Shared reporting helper for the benchmark harness.

Each benchmark regenerates one of the paper's artefacts (Table 1, a
boxed example, or an ablation) and records the produced table under
``benchmarks/results/`` so the numbers survive the pytest run.  The
report is also echoed to stdout (visible with ``pytest -s``).  Smoke
runs (``ANALYSIS_BENCH_SMOKE=1``) write to ``benchmarks/results/smoke/``
instead, which is not tracked, so a smoke-scale number never replaces
a full-scale record.

Performance benchmarks additionally pass ``data`` — machine-readable
numbers written alongside the table as ``results/<name>.json`` with the
keys ``{name, wall_seconds, speedup, rows, timestamp}`` — so CI history
and tooling can track regressions without parsing the text tables.

Run as a script, ``python benchmarks/_report.py collate`` merges every
``results/*.json`` into one speedup-trajectory table — printed, and
written to ``results/trajectory.json`` so CI can upload a single
artifact.  Entries produced on a single-core runner are flagged: their
wall-clock floor assertions were disarmed, so their speedups are
recorded-but-unasserted numbers, not guarantees.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Any

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE_RESULTS_DIR = RESULTS_DIR / "smoke"

#: Keys every benchmark data record must provide.  ``speedup`` is NOT
#: required: benchmarks whose headline number is something else (e.g.
#: the campaign's refits-to-convergence) omit it, and collate renders
#: the gap as ``n/a`` rather than refusing the record.
DATA_KEYS = ("wall_seconds", "rows")


def _percentile(series: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation, no numpy dependency)."""
    ordered = sorted(series)
    idx = min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))
    return float(ordered[idx])


def write_report(
    name: str,
    title: str,
    body: str,
    data: dict[str, Any] | None = None,
) -> Path:
    """Persist one benchmark's output table (and optional JSON) and echo it.

    *data*, when given, must provide ``wall_seconds`` and ``rows``;
    ``speedup`` is optional (absent or None both land as JSON null) and
    ``name`` plus a ``timestamp`` (unix seconds) are filled in here, the
    record landing at ``results/<name>.json``.  Any further keys (e.g.
    ``n_cores``/``n_jobs``, which make a scaling regression attributable
    to the machine it ran on) pass through verbatim.  Under
    ``ANALYSIS_BENCH_SMOKE=1`` both files go to ``results/smoke/``.
    """
    smoke = os.environ.get("ANALYSIS_BENCH_SMOKE") == "1"
    out_dir = SMOKE_RESULTS_DIR if smoke else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.txt"
    text = f"{title}\n{'=' * len(title)}\n\n{body}\n"
    path.write_text(text)
    if data is not None:
        missing = [k for k in DATA_KEYS if k not in data]
        if missing:
            raise ValueError(f"benchmark data for {name!r} is missing {missing}")
        speedup = data.get("speedup")
        record = {
            "name": name,
            "wall_seconds": float(data["wall_seconds"]),
            "speedup": None if speedup is None else float(speedup),
            "rows": int(data["rows"]),
        }
        for key, value in data.items():
            if key not in record:
                record[key] = value
        # Streaming benchmarks report per-batch wall times; summarise
        # their latency tails so CI history can track them as scalars.
        batch_seconds = data.get("batch_seconds")
        if batch_seconds:
            record["batch_p50_s"] = _percentile(batch_seconds, 50)
            record["batch_p99_s"] = _percentile(batch_seconds, 99)
        record["timestamp"] = time.time()
        json_path = out_dir / f"{name}.json"
        json_path.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(text)
    return path


def collate(results_dir: Path = RESULTS_DIR) -> dict[str, Any]:
    """Merge every ``results/*.json`` into one speedup-trajectory record.

    Returns (and writes to ``results/trajectory.json``) ``{"entries":
    [...]}`` where each entry carries ``name``, ``speedup``, ``rows``,
    ``n_cores``, ``timestamp``, and ``floor_disarmed`` — true when the
    record came off a single-core runner (or predates core reporting),
    where the wall-clock floor assertions could not arm and the speedup
    is a recorded number, not an enforced one.
    """
    entries: list[dict[str, Any]] = []
    for path in sorted(results_dir.glob("*.json")):
        if path.name == "trajectory.json":
            continue
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"skipping {path.name}: {exc}")
            continue
        n_cores = record.get("n_cores")
        entries.append(
            {
                "name": record.get("name", path.stem),
                "speedup": record.get("speedup"),
                "rows": record.get("rows"),
                "n_cores": n_cores,
                "timestamp": record.get("timestamp"),
                "floor_disarmed": n_cores is None or int(n_cores) < 2,
                # Overhead benchmarks (P4/P6/P9) record the measured
                # feature cost so CI history can watch it creep.
                "overhead_pct": record.get("overhead_pct"),
            }
        )
    trajectory = {"entries": entries}
    out = results_dir / "trajectory.json"
    out.write_text(json.dumps(trajectory, indent=2) + "\n")
    return trajectory


def _format_trajectory(trajectory: dict[str, Any]) -> str:
    header = (
        f"{'name':<28} {'speedup':>8} {'rows':>12} {'cores':>6} "
        f"{'overhead':>9}  flags"
    )
    lines = [header, "-" * len(header)]
    for e in trajectory["entries"]:
        speedup = "n/a" if e["speedup"] is None else f"{e['speedup']:.1f}x"
        rows = "-" if e["rows"] is None else f"{e['rows']:,}"
        cores = "-" if e["n_cores"] is None else str(e["n_cores"])
        overhead = (
            "-"
            if e.get("overhead_pct") is None
            else f"{e['overhead_pct']:+.1f}%"
        )
        flags = "floor disarmed" if e["floor_disarmed"] else ""
        lines.append(
            f"{e['name']:<28} {speedup:>8} {rows:>12} {cores:>6} "
            f"{overhead:>9}  {flags}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_collate = sub.add_parser(
        "collate", help="merge results/*.json into results/trajectory.json"
    )
    p_collate.add_argument(
        "--results-dir",
        type=Path,
        default=RESULTS_DIR,
        help="directory holding the per-benchmark JSON records",
    )
    args = parser.parse_args(argv)
    trajectory = collate(args.results_dir)
    print(_format_trajectory(trajectory))
    print(f"\n{len(trajectory['entries'])} records -> "
          f"{args.results_dir / 'trajectory.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
