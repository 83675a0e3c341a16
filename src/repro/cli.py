"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Run the paper's case study end to end and print the table (with
    simulator ground truth alongside).
``studies``
    Run every boxed-example experiment and print each report.
``import``
    Normalise a measurement CSV and run the IXP study on it
    (``--ixp`` names the exchange; ``--prefix`` may repeat to supply
    its peering-LAN prefixes for hop-IP matching).
``simulate``
    Build a named scenario, generate its speed tests (batched columnar
    path by default), and write the measurement frame to CSV — ready to
    feed back through ``import``.
``validate``
    Parse a DAG file (dagitty-like text) and report identification
    strategies for ``--treatment``/``--outcome``.
``power``
    Placebo-test power analysis for a synthetic-control design: can
    this many donors over this window detect the effect you care about?
``stream``
    Replay a scenario's measurements as a time-ordered feed through the
    incremental study engine (``--batches``/``--batch-hours`` pick the
    split), printing a per-batch progress line and the final table;
    ``--parity-check`` re-runs the batch study on the same measurements
    and fails unless the rows match exactly.
``report``
    Offline profiling analysis of an exported ``--trace`` file: the
    top-K self-time hotspot table, the critical path, optionally the
    span tree, and ``--folded FILE`` writes folded stacks for standard
    flame-graph tooling.
``campaign``
    Run a multi-scenario measurement campaign: a fleet of seeded
    scenario perturbations (``--scenarios N`` for a default fleet, or a
    campaign file path for a declarative one), generated one scenario
    per task on ``--jobs`` worker processes and analysed together, with
    the placebo-refit budget allocated adaptively
    toward the scenarios whose effect estimates are still uncertain
    (``--allocation uniform`` disables this — the Sisyphus baseline).
    Prints the cross-scenario verdict table; ``--export-csv`` /
    ``--export-json`` write machine-readable copies, ``--checkpoint
    DIR`` / ``--resume`` journal per-scenario progress, and
    ``--serve-telemetry PORT`` multiplexes per-scenario health under
    one endpoint.

Observability
-------------
``table1``, ``import``, ``simulate``, and ``stream`` accept
``--trace FILE.jsonl``
(hierarchical span trace of the run) and ``--metrics FILE.prom``
(Prometheus-style metrics dump); ``table1``, ``stream`` and
``campaign`` add ``--sample-resources SECONDS`` (a background sampler
recording RSS, checkpoint size, executor queue depth, and GC pressure
into the metrics output).  ``stream`` additionally accepts
``--serve-telemetry PORT``: a live loopback HTTP endpoint serving
``/metrics``, ``/health``, and ``/live`` for the duration of the run
(``--telemetry-linger`` keeps it up after the final table for scrapes).
The top-level ``--log-level`` flag turns on structured stderr logging
for all of ``repro``.

Fault tolerance
---------------
``table1``, ``import``, and ``stream`` accept ``--retries N`` (retry
transiently failed fit tasks with exponential backoff) and
``--checkpoint FILE.jsonl`` / ``--resume`` (journal each fit and placebo
refit so a killed run picks up where it stopped, producing
byte-identical output).
Their fits run in one process; only ``campaign`` takes ``--jobs`` (and
``--task-timeout``), fanning whole scenarios out over worker
processes.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.errors import ReproError


def _retry_policy(args: argparse.Namespace):
    """Build a RetryPolicy from ``--retries``/``--task-timeout``, or None."""
    retries = getattr(args, "retries", 1)
    timeout = getattr(args, "task_timeout", None)
    if retries <= 1 and timeout is None:
        return None
    from repro.pipeline.executor import RetryPolicy

    return RetryPolicy(max_attempts=max(retries, 1), timeout=timeout)


def _maybe_sampler(args: argparse.Namespace):
    """A running ResourceSampler context per ``--sample-resources``, or a no-op."""
    import contextlib

    interval = getattr(args, "sample_resources", None)
    if not interval:
        return contextlib.nullcontext()
    from repro.obs.resources import ResourceSampler

    return ResourceSampler(interval_s=interval)


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.studies import run_table1_experiment

    with _maybe_sampler(args):
        output = run_table1_experiment(
            n_donor_ases=args.donors,
            duration_days=args.days,
            join_day=args.days // 2,
            seed=args.seed,
            retry=_retry_policy(args),
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    print(output.format_report())
    _maybe_print_timings(args, output.result)
    _write_obs_outputs(args)
    return 0


def _maybe_print_timings(args: argparse.Namespace, result) -> None:
    if getattr(args, "timings", False) and result.timings is not None:
        print()
        print("stage timings:")
        print(result.timings.format())


def _write_obs_outputs(args: argparse.Namespace) -> None:
    """Write the run's trace/metrics files when the flags asked for them."""
    from repro.obs import export_jsonl, get_metrics

    trace_path = getattr(args, "trace", None)
    if trace_path:
        n = export_jsonl(trace_path)
        print(f"wrote {n} spans to {trace_path}", file=sys.stderr)
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        with open(metrics_path, "w") as f:
            f.write(get_metrics().render())
        print(f"wrote metrics to {metrics_path}", file=sys.stderr)


def _cmd_studies(args: argparse.Namespace) -> int:
    from repro.studies import (
        run_collider_experiment,
        run_confounding_experiment,
        run_edge_selection_experiment,
        run_instrument_experiment,
        run_randomization_experiment,
        run_reroute_experiment,
        run_root_cause_experiment,
    )

    sections = [
        ("E1 confounding (cellular reliability box)", run_confounding_experiment),
        ("E2 collider (speed-test box)", run_collider_experiment),
        ("E3 instruments (natural-experiment box)", run_instrument_experiment),
        ("E4 counterfactual (Xaminer box)", run_reroute_experiment),
        ("E5 randomization (M-Lab load balancer)", run_randomization_experiment),
        ("E6 root cause (PoiRoot poisoning)", run_root_cause_experiment),
        ("E7 edge selection (resolver rotation)", run_edge_selection_experiment),
    ]
    for title, runner in sections:
        print("=" * 64)
        print(title)
        print("=" * 64)
        print(runner().format_report())
        print()
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    from repro.netsim.ids import Prefix
    from repro.pipeline import import_csv, run_ixp_study

    prefixes = None
    if args.prefix:
        prefixes = {args.ixp: [Prefix.parse(p) for p in args.prefix]}
    import time

    t0 = time.perf_counter()
    frame = import_csv(args.csv, prefixes)
    import_seconds = time.perf_counter() - t0
    print(f"imported {frame.num_rows} measurements from {args.csv}")
    result = run_ixp_study(
        frame,
        args.ixp,
        generation_seconds=import_seconds,
        retry=_retry_policy(args),
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(result.format_table())
    if result.skipped:
        print()
        for unit, reason in result.skipped:
            print(f"skipped {unit}: {reason}")
    _maybe_print_timings(args, result)
    _write_obs_outputs(args)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.frames import write_csv
    from repro.mplatform import measurements_frame
    from repro.netsim import build_table1_scenario, build_trombone_scenario

    if args.scenario == "table1":
        scenario = build_table1_scenario(
            n_donor_ases=args.donors,
            duration_days=args.days,
            join_day=args.days // 2,
            seed=args.seed,
        )
    else:
        scenario = build_trombone_scenario(
            duration_days=args.days,
            join_day=args.days // 2,
            seed=args.seed,
        )
    frame = measurements_frame(scenario, rng=args.measurement_seed)
    write_csv(frame, args.out)
    print(
        f"wrote {frame.num_rows} measurements "
        f"({args.scenario}, {args.days} days) to {args.out}"
    )
    _write_obs_outputs(args)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.frames.io import to_csv_text
    from repro.netsim import build_table1_scenario
    from repro.stream import StreamStudy, replay_scenario

    scenario = build_table1_scenario(
        n_donor_ases=args.donors,
        duration_days=args.days,
        join_day=args.days // 2,
        seed=args.seed,
    )
    frame, batches = replay_scenario(
        scenario,
        rng=args.measurement_seed,
        n_batches=None if args.batch_hours else args.batches,
        batch_hours=args.batch_hours,
    )
    # Progress narration goes to stderr: stdout stays byte-identical
    # across runs (per-batch lines include wall-clock seconds), so
    # `diff` of two same-flag invocations remains a valid equality check.
    print(
        f"replaying {frame.num_rows} measurements as {len(batches)} batches "
        f"(ixp={scenario.ixp_name})",
        file=sys.stderr,
    )
    publisher = None
    server = None
    if args.serve_telemetry is not None:
        from repro.obs.serve import TelemetryPublisher, TelemetryServer

        publisher = TelemetryPublisher()
        server = TelemetryServer(publisher, port=args.serve_telemetry).start()
        print(
            f"telemetry endpoint: {server.url()} "
            f"(/metrics /health /live)",
            file=sys.stderr,
        )
    study = StreamStudy(
        scenario.ixp_name,
        retry=_retry_policy(args),
        checkpoint=args.checkpoint,
        resume=args.resume,
        live_refits=not args.no_live_refits,
        telemetry=publisher,
    )
    try:
        with _maybe_sampler(args), study:
            for batch in batches:
                report = study.ingest(batch)
                tag = " (replayed)" if report.replayed else ""
                print(
                    f"batch {report.index:>3}: {report.n_rows:>7} rows, "
                    f"{report.n_dirty_units:>3} dirty units, "
                    f"{report.n_refits:>3} refits "
                    f"({report.warm_refits} warm / {report.cold_refits} cold), "
                    f"{report.seconds:.3f}s{tag}",
                    file=sys.stderr,
                )
            result = study.finalize()
    except BaseException:
        if server is not None:
            server.stop()
        raise
    print(result.format_table())
    if result.skipped:
        print()
        for unit, reason in result.skipped:
            print(f"skipped {unit}: {reason}")
    exit_code = 0
    if args.parity_check:
        from repro.pipeline import run_ixp_study

        reference = run_ixp_study(frame, scenario.ixp_name)
        if to_csv_text(result.to_frame()) == to_csv_text(
            reference.to_frame()
        ) and result.skipped == reference.skipped:
            print("\nparity check: streamed rows identical to batch study")
        else:
            print(
                "parity check FAILED: streamed rows differ from the batch study",
                file=sys.stderr,
            )
            exit_code = 1
    _write_obs_outputs(args)
    if server is not None:
        if args.telemetry_linger > 0:
            import time

            print(
                f"telemetry endpoint lingering {args.telemetry_linger:g}s "
                f"at {server.url()}",
                file=sys.stderr,
            )
            time.sleep(args.telemetry_linger)
        server.stop()
    return exit_code


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import default_fleet, load_campaign, run_campaign

    # --scenarios is either a fleet size or a campaign-file path; flags
    # given on the command line override the file's campaign section,
    # which overrides the engine defaults.
    budget = args.budget
    allocation = args.allocation
    tol = args.tol
    round_refits = args.round_refits
    try:
        n_scenarios = int(args.scenarios)
    except ValueError:
        config = load_campaign(args.scenarios)
        specs = config.scenarios
        budget = budget if budget is not None else config.budget
        allocation = allocation if allocation is not None else config.allocation
        tol = tol if tol is not None else config.tol
        round_refits = (
            round_refits if round_refits is not None else config.round_refits
        )
    else:
        specs = default_fleet(
            n_scenarios,
            seed=args.seed,
            duration_days=args.days,
            n_donor_ases=args.donors,
        )
    print(
        f"campaign: {len(specs)} scenarios "
        f"({', '.join(s.name for s in sorted(specs, key=lambda s: s.name))})",
        file=sys.stderr,
    )
    telemetry = None
    server = None
    if args.serve_telemetry is not None:
        from repro.obs.serve import TelemetryMux, TelemetryServer

        telemetry = TelemetryMux()
        server = TelemetryServer(telemetry, port=args.serve_telemetry).start()
        print(
            f"telemetry endpoint: {server.url()} "
            f"(/metrics /health /live; per-scenario channels under /live)",
            file=sys.stderr,
        )
    try:
        with _maybe_sampler(args):
            result = run_campaign(
                specs,
                budget=budget if budget is not None else 200,
                allocation=allocation if allocation is not None else "adaptive",
                tol=tol if tol is not None else 0.25,
                round_refits=round_refits,
                alloc_seed=args.alloc_seed,
                n_jobs=args.jobs,
                retry=_retry_policy(args),
                checkpoint_dir=args.checkpoint,
                resume=args.resume,
                telemetry=telemetry,
            )
    except BaseException:
        if server is not None:
            server.stop()
        raise
    print(result.format_campaign_table())
    if args.export_csv:
        with open(args.export_csv, "w") as f:
            f.write(result.to_csv())
        print(f"wrote verdict table to {args.export_csv}", file=sys.stderr)
    if args.export_json:
        with open(args.export_json, "w") as f:
            f.write(result.to_json())
        print(f"wrote campaign JSON to {args.export_json}", file=sys.stderr)
    _write_obs_outputs(args)
    if server is not None:
        if args.telemetry_linger > 0:
            import time

            print(
                f"telemetry endpoint lingering {args.telemetry_linger:g}s "
                f"at {server.url()}",
                file=sys.stderr,
            )
            time.sleep(args.telemetry_linger)
        server.stop()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import load_jsonl, render_trace
    from repro.obs.profile import (
        export_folded,
        format_critical_path,
        format_hotspots,
    )

    records = load_jsonl(args.trace)
    print(f"{len(records)} spans from {args.trace}\n")
    print(f"top {args.top} hotspots by self time")
    print(format_hotspots(records, top=args.top))
    print()
    print("critical path (longest root, longest child at every level)")
    print(format_critical_path(records))
    if args.tree:
        print()
        print("span tree")
        print(render_trace(records, max_spans=args.max_spans))
    if args.folded:
        n = export_folded(args.folded, records)
        print(
            f"\nwrote {n} folded stacks to {args.folded} "
            f"(feed to flamegraph.pl / speedscope / inferno)",
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.design import CausalProtocol
    from repro.graph import parse_dag

    with open(args.dag_file) as f:
        dag = parse_dag(f.read())
    protocol = CausalProtocol(
        question=f"effect of {args.treatment} on {args.outcome}",
        dag=dag,
        treatment=args.treatment,
        outcome=args.outcome,
    )
    print(protocol.preregistration())
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.design import design_feasibility, placebo_power

    feasible, why = design_feasibility(args.donors, alpha=args.alpha)
    print(why)
    if not feasible:
        return 1
    estimate = placebo_power(
        args.effect,
        n_donors=args.donors,
        pre_periods=args.pre,
        post_periods=args.post,
        noise_std=args.noise,
        alpha=args.alpha,
        n_simulations=args.simulations,
    )
    print(estimate)
    return 0


def _add_timings_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print per-stage wall-clock seconds after the table",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        help="write the run's span trace as JSONL to this path",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE.prom",
        help="write a Prometheus-style metrics dump to this path",
    )


def _add_sampler_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample-resources",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sample RSS, checkpoint size, executor queue depth, and GC "
        "stats on this interval into the metrics output (observation "
        "only; rows are unchanged)",
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="attempts per fit task (1 = no retries); transient failures "
        "(injected faults) re-run with backoff",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="FILE.jsonl",
        default=None,
        help="journal each fit and placebo refit to this JSONL file so a "
        "killed run can be resumed",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint: load journaled fits and refits from the "
        "file and run only the rest (output is byte-identical to an "
        "uninterrupted run)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Causal inference for Internet measurement "
        "(reproduction of 'The Internet as Sisyphus', HotNets '25)",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable structured stderr logging for repro at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table1 = sub.add_parser("table1", help="run the IXP/latency case study")
    p_table1.add_argument("--days", type=int, default=40, help="window length")
    p_table1.add_argument("--donors", type=int, default=25, help="donor ASes")
    p_table1.add_argument("--seed", type=int, default=2, help="world seed")
    _add_resilience_arguments(p_table1)
    _add_timings_argument(p_table1)
    _add_obs_arguments(p_table1)
    _add_sampler_argument(p_table1)
    p_table1.set_defaults(func=_cmd_table1)

    p_studies = sub.add_parser("studies", help="run every boxed-example experiment")
    p_studies.set_defaults(func=_cmd_studies)

    p_import = sub.add_parser("import", help="run the study on a measurement CSV")
    p_import.add_argument("csv", help="measurement CSV path")
    p_import.add_argument("--ixp", required=True, help="exchange name to analyse")
    p_import.add_argument(
        "--prefix",
        action="append",
        help="peering-LAN prefix (repeatable) for hop-IP matching",
    )
    _add_resilience_arguments(p_import)
    _add_timings_argument(p_import)
    _add_obs_arguments(p_import)
    p_import.set_defaults(func=_cmd_import)

    p_sim = sub.add_parser("simulate", help="generate a scenario's tests to CSV")
    p_sim.add_argument(
        "--scenario",
        choices=("table1", "trombone"),
        default="table1",
        help="named world to build",
    )
    p_sim.add_argument("--days", type=int, default=20, help="window length")
    p_sim.add_argument(
        "--donors", type=int, default=12, help="donor ASes (table1 only)"
    )
    p_sim.add_argument("--seed", type=int, default=2, help="world seed")
    p_sim.add_argument(
        "--measurement-seed", type=int, default=1, help="speed-test RNG seed"
    )
    p_sim.add_argument("--out", required=True, help="output CSV path")
    _add_obs_arguments(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_stream = sub.add_parser(
        "stream", help="replay a scenario through the incremental study engine"
    )
    p_stream.add_argument("--days", type=int, default=40, help="window length")
    p_stream.add_argument("--donors", type=int, default=25, help="donor ASes")
    p_stream.add_argument("--seed", type=int, default=2, help="world seed")
    p_stream.add_argument(
        "--measurement-seed", type=int, default=3, help="speed-test RNG seed"
    )
    p_stream.add_argument(
        "--batches",
        type=int,
        default=8,
        metavar="N",
        help="equal-width time slices to replay (ignored with --batch-hours)",
    )
    p_stream.add_argument(
        "--batch-hours",
        type=float,
        default=None,
        metavar="H",
        help="fixed slice width in hours instead of an equal-width count",
    )
    p_stream.add_argument(
        "--no-live-refits",
        action="store_true",
        help="skip the advisory per-batch refits; ingest state only",
    )
    p_stream.add_argument(
        "--parity-check",
        action="store_true",
        help="also run the batch study and fail unless the rows match exactly",
    )
    p_stream.add_argument(
        "--serve-telemetry",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /health, and /live on this loopback port "
        "for the duration of the run (0 picks a free port)",
    )
    p_stream.add_argument(
        "--telemetry-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --serve-telemetry: keep the endpoint up this long "
        "after the final table (lets scrapers catch the end state)",
    )
    _add_resilience_arguments(p_stream)
    _add_obs_arguments(p_stream)
    _add_sampler_argument(p_stream)
    p_stream.set_defaults(func=_cmd_stream)

    p_campaign = sub.add_parser(
        "campaign",
        help="run a multi-scenario campaign with adaptive refit budgeting",
    )
    p_campaign.add_argument(
        "--scenarios",
        default="4",
        metavar="N|FILE",
        help="fleet size (an integer cycles the registered scenario kinds) "
        "or a campaign file (YAML with PyYAML installed, JSON always)",
    )
    p_campaign.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="total placebo-refit budget across the fleet (default 200, "
        "or the campaign file's value)",
    )
    p_campaign.add_argument(
        "--allocation",
        choices=("adaptive", "uniform"),
        default=None,
        help="budget policy: 'adaptive' spends rounds where placebo CIs "
        "are still wide and freezes converged scenarios; 'uniform' splits "
        "every round evenly (the Sisyphus baseline)",
    )
    p_campaign.add_argument(
        "--tol",
        type=float,
        default=None,
        metavar="WIDTH",
        help="convergence tolerance on the placebo-ratio CI width "
        "(default 0.25)",
    )
    p_campaign.add_argument(
        "--round-refits",
        type=int,
        default=None,
        metavar="N",
        help="refits granted per allocation round (default: 4 per scenario)",
    )
    p_campaign.add_argument(
        "--alloc-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed for the allocator's deterministic tie-breaks",
    )
    p_campaign.add_argument(
        "--days", type=int, default=20, help="window length (default fleet)"
    )
    p_campaign.add_argument(
        "--donors", type=int, default=12, help="donor ASes (default fleet)"
    )
    p_campaign.add_argument(
        "--seed", type=int, default=0, help="base world seed (default fleet)"
    )
    p_campaign.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="attempts per scenario, fit, or refit task (1 = no retries)",
    )
    p_campaign.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-scenario deadline (with --jobs above 1)",
    )
    p_campaign.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="journal per-scenario progress (one JSONL per scenario plus a "
        "campaign manifest) under this directory",
    )
    p_campaign.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint: replay journaled fits/refits and continue; "
        "output is byte-identical to an uninterrupted run",
    )
    p_campaign.add_argument(
        "--serve-telemetry",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /health, and /live on this loopback port, "
        "multiplexing every scenario's channel under one endpoint "
        "(0 picks a free port)",
    )
    p_campaign.add_argument(
        "--telemetry-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --serve-telemetry: keep the endpoint up this long "
        "after the verdict table",
    )
    p_campaign.add_argument(
        "--export-csv",
        metavar="FILE.csv",
        default=None,
        help="also write the verdict table as CSV",
    )
    p_campaign.add_argument(
        "--export-json",
        metavar="FILE.json",
        default=None,
        help="also write the verdicts + allocation trace as JSON",
    )
    p_campaign.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes that generate scenarios, one scenario per "
        "task (1 serial, -1 all cores); fits run in this process and the "
        "verdict table is identical for every value",
    )
    _add_obs_arguments(p_campaign)
    _add_sampler_argument(p_campaign)
    p_campaign.set_defaults(func=_cmd_campaign)

    p_report = sub.add_parser(
        "report", help="profile an exported span trace (hotspots, flame graph)"
    )
    p_report.add_argument(
        "--trace", required=True, metavar="FILE.jsonl", help="trace to analyse"
    )
    p_report.add_argument(
        "--top", type=int, default=10, metavar="K", help="hotspot rows to show"
    )
    p_report.add_argument(
        "--tree", action="store_true", help="also print the span tree"
    )
    p_report.add_argument(
        "--max-spans",
        type=int,
        default=200,
        metavar="N",
        help="with --tree: truncate the tree past this many spans",
    )
    p_report.add_argument(
        "--folded",
        metavar="FILE",
        default=None,
        help="write folded stacks (flame-graph input) to this path",
    )
    p_report.set_defaults(func=_cmd_report)

    p_validate = sub.add_parser("validate", help="identify a DAG's strategies")
    p_validate.add_argument("dag_file", help="dagitty-like DAG text file")
    p_validate.add_argument("--treatment", required=True)
    p_validate.add_argument("--outcome", required=True)
    p_validate.set_defaults(func=_cmd_validate)

    p_power = sub.add_parser("power", help="placebo-test power analysis")
    p_power.add_argument("effect", type=float, help="true effect size (ms)")
    p_power.add_argument("--donors", type=int, default=20)
    p_power.add_argument("--pre", type=int, default=30, help="pre-periods")
    p_power.add_argument("--post", type=int, default=15, help="post-periods")
    p_power.add_argument("--noise", type=float, default=1.0, help="unit noise std")
    p_power.add_argument("--alpha", type=float, default=0.10)
    p_power.add_argument("--simulations", type=int, default=30)
    p_power.set_defaults(func=_cmd_power)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
