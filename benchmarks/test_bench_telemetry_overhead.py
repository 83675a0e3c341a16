"""Experiment P9 — live telemetry overhead on a streamed study.

The telemetry stack added for long-running studies has three moving
parts that all run *concurrently with* the study: the resource sampler
(a background thread reading ``/proc`` and the checkpoint journal
every tick), the span→histogram bridge (one
histogram observation per closed span), and the HTTP endpoint (a
``ThreadingHTTPServer`` rendering ``/metrics``, ``/health`` and
``/live`` for whoever polls).  The claim this benchmark holds: with
all of it on — sampler at a 50 ms tick, endpoint polled continuously
on every route — a full streamed Table-1 study at 10x-paper scale
costs at most 5% more wall-clock than the same study with telemetry
off, and produces bit-identical rows.

The arms run in interleaved pairs (fresh ``StreamStudy`` per run,
day-sized batches, serial fits), and the pairs alternate which arm
runs first, so drift in the machine's speed lands on both arms alike;
the gate compares the two arms' median wall-clock.  The sampler and
the endpoint poller run only during the telemetry arm's runs.  A
parity check (telemetry on/off) runs at smoke scale in every mode.

Smoke mode (``ANALYSIS_BENCH_SMOKE=1``, used by CI) runs a reduced
scale and skips the wall-clock ratio assertion.
"""

import os
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _report import write_report

from repro.frames.io import to_csv_text
from repro.mplatform import measurements_frame
from repro.netsim import build_table1_scenario
from repro.obs import ResourceSampler, TelemetryPublisher, TelemetryServer
from repro.stream import StreamStudy, slice_frame

MAX_OVERHEAD = 0.05  # telemetry may cost at most 5% over the bare stream
ABS_EPSILON_S = 0.05  # absolute slack for sub-second runs on fast machines
SMOKE = os.environ.get("ANALYSIS_BENCH_SMOKE") == "1"
PAIRS = 3 if SMOKE else 10  # interleaved (bare, telemetry) pairs

ROUTES = ("/metrics", "/health", "/live")


def _scenario_frame():
    if SMOKE:
        scenario = build_table1_scenario(
            n_donor_ases=8, duration_days=12, join_day=6, seed=2
        )
    else:
        scenario = build_table1_scenario(
            n_donor_ases=30, duration_days=60, join_day=30, seed=2, user_scale=10.0
        )
    return scenario, measurements_frame(scenario, rng=3)


def _smoke_frame():
    scenario = build_table1_scenario(
        n_donor_ases=8, duration_days=12, join_day=6, seed=2
    )
    return scenario, measurements_frame(scenario, rng=3)


class _EndpointPoller:
    """Hammer every telemetry route from a daemon thread while a study runs."""

    def __init__(self, server: TelemetryServer, period_s: float = 0.05) -> None:
        self._server = server
        self._period_s = period_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="p9-endpoint-poller", daemon=True
        )
        self.polls = 0

    def _run(self) -> None:
        while not self._stop.wait(self._period_s):
            for route in ROUTES:
                try:
                    with urllib.request.urlopen(
                        self._server.url(route), timeout=5
                    ) as resp:
                        resp.read()
                except urllib.error.HTTPError as err:
                    err.read()  # 503 from /health mid-run still counts
                self.polls += 1

    def __enter__(self) -> "_EndpointPoller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _run_stream(frame, ixp_name, *, telemetry=None):
    batches = slice_frame(frame, batch_hours=24.0)
    study = StreamStudy(ixp_name, telemetry=telemetry)
    try:
        for batch in batches:
            study.ingest(batch)
        return study.finalize(), len(batches)
    finally:
        study.close()


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def test_telemetry_overhead():
    scenario, frame = _scenario_frame()
    bare_times: list[float] = []
    full_times: list[float] = []
    n_samples = polls = 0

    def bare_arm():
        seconds, result = _timed(lambda: _run_stream(frame, scenario.ixp_name))
        bare_times.append(seconds)
        return result

    def full_arm():
        # Sampler, span->histogram bridge and a live-polled endpoint.
        nonlocal n_samples, polls
        publisher = TelemetryPublisher()  # fresh, like one study's endpoint
        sampler = ResourceSampler(interval_s=0.05)
        with TelemetryServer(publisher) as server:
            with _EndpointPoller(server) as poller, sampler:
                seconds, result = _timed(
                    lambda: _run_stream(frame, scenario.ixp_name, telemetry=publisher)
                )
        full_times.append(seconds)
        n_samples += len(sampler.samples)
        polls += poller.polls
        return result

    for pair in range(PAIRS):
        if pair % 2:
            full_result, _ = full_arm()
            bare_result, n_batches = bare_arm()
        else:
            bare_result, n_batches = bare_arm()
            full_result, _ = full_arm()
    bare_s = statistics.median(bare_times)
    full_s = statistics.median(full_times)

    # Telemetry is observability, not computation: identical rows.
    assert to_csv_text(full_result.to_frame()) == to_csv_text(
        bare_result.to_frame()
    )
    assert full_result.skipped == bare_result.skipped
    assert n_samples >= 2  # the sampler actually ran alongside the study
    assert polls > 0  # ...and the endpoint was genuinely being scraped

    overhead = (full_s - bare_s) / bare_s if bare_s > 0 else 0.0
    if not SMOKE:
        assert frame.num_rows > 1_000_000, "10x scale should exceed a million tests"
        assert full_s <= bare_s * (1.0 + MAX_OVERHEAD) + ABS_EPSILON_S, (
            f"telemetry overhead {overhead * 100:.1f}% "
            f"({full_s:.3f}s on vs {bare_s:.3f}s off) "
            f"exceeds {MAX_OVERHEAD * 100:.0f}%"
        )

    # --- parity: telemetry on/off ------------------------------------------
    # Always at smoke scale, so the check stays cheap in bench mode too.
    m_scenario, m_frame = _smoke_frame()
    matrix = {}
    for with_telemetry in (False, True):
        telemetry = TelemetryPublisher() if with_telemetry else None
        result, _ = _run_stream(m_frame, m_scenario.ixp_name, telemetry=telemetry)
        matrix[with_telemetry] = (to_csv_text(result.to_frame()), result.skipped)
    assert matrix[True] == matrix[False], "telemetry changed study rows"

    lines = [
        f"rows streamed:              {frame.num_rows:,}",
        f"batches (day-sized):        {n_batches}",
        f"telemetry off:              {bare_s:.3f} s (median of {PAIRS})",
        f"telemetry on:               {full_s:.3f} s (median of {PAIRS})",
        f"pairs:                      {PAIRS}, interleaved, alternating first arm",
        "  off, per pair:            " + " ".join(f"{t:.3f}" for t in bare_times),
        "  on, per pair:             " + " ".join(f"{t:.3f}" for t in full_times),
        f"overhead:                   {overhead * 100:+.1f}%"
        f"  (threshold {MAX_OVERHEAD * 100:.0f}%"
        + (", smoke mode: not asserted)" if SMOKE else ")"),
        "",
        "telemetry-on arm ran with:",
        f"  resource sampler:         50 ms tick ({n_samples} samples)",
        f"  endpoint poller:          {polls} scrapes across {ROUTES}",
        "  span->histogram bridge:   on (tracing enabled)",
        "",
        "rows bit-identical: telemetry on/off (smoke scale)",
    ]
    write_report(
        "P9_telemetry_overhead",
        "P9: live telemetry overhead — sampler + endpoint vs bare stream",
        "\n".join(lines),
        data={
            "wall_seconds": full_s,
            "speedup": bare_s / full_s if full_s > 0 else None,
            "rows": frame.num_rows,
            "overhead_pct": overhead * 100,
            "n_batches": n_batches,
            "n_resource_samples": n_samples,
            "n_endpoint_polls": polls,
            "smoke": SMOKE,
        },
    )
