"""End-to-end benchmark of the Table-1 and streaming entry points.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-10x --seed 0 --seconds 35 --trace 0

Workloads are defined in ``workloads.py``.  A run imports the program
from ``src/``, sets up (three timed ``prepare`` passes and one untimed
warm-up operation), then runs operations in a closed loop until
``--seconds`` have passed, and finally checks every output against a
reference outside the timed section.

With ``--trace 0`` every operation runs the program's code untouched
and the result carries the end-to-end metrics.  With ``--trace 1``
operations alternate between untraced and traced (``layers.py``) and
the result carries the per-layer metrics, the part of an operation no
layer accounts for, and the tracing overhead.  Spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

T_START = time.perf_counter()

import argparse
import json
import platform
import resource
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WARMUP_INDEX = 0

LIVE_BATCH = {"live_batch_p50_ms": 50, "live_batch_p90_ms": 90}
COUNTS = ("mplatform.rows", "pipeline.study.units_fitted", "pipeline.study.units_skipped")


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Runner:
    """Runs operations, keeping each one's time, output and failure."""

    def __init__(self, workload, tracer) -> None:
        from repro.obs import get_tracer
        from repro.pipeline.shm import live_arena_blocks, live_panel_blocks

        self.workload = workload
        self.tracer = tracer
        self._program_tracer = get_tracer()
        self._live_blocks = lambda: live_arena_blocks() + live_panel_blocks()
        self.outputs = {}
        self.seconds = {}
        self.traced_seconds = {}
        self.attempted = 0
        self.failed = 0

    def run(self, index: int, traced: bool = False) -> float:
        """Run operation *index*; returns its wall time in seconds."""
        self.attempted += 1
        # Each operation starts as a fresh CLI process would: no spans
        # left in the program's trace buffer and no shared memory held.
        self._program_tracer.reset()
        leaked = self._live_blocks()
        if traced:
            self.tracer.begin(index)
        t0 = time.perf_counter()
        try:
            out = self.workload.operation(index)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        dt = time.perf_counter() - t0
        if traced:
            self.tracer.end()
        leaked = leaked or self._live_blocks()
        if leaked:
            print(f"operation {index}: shared-memory blocks live: {leaked}", file=sys.stderr)
        if out is None or leaked:
            self.failed += 1
            return dt
        self.outputs[index] = out
        (self.traced_seconds if traced else self.seconds)[index] = dt
        return dt


def show(metrics: dict) -> None:
    """Print metrics as ``name value unit n=samples`` lines."""
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<34} {value:>16.6f} {unit:<6} n={n}")


def per_layer(runner, layers, measure) -> dict:
    """The traced run's per-layer metrics, medians over traced operations."""
    ops = [op for op in runner.tracer.ops if op.op in runner.traced_seconds]
    n = len(ops)

    def med(values):
        return measure.median(values) if values else 0.0

    metrics = {}
    for stem in (layer.metric for layer in layers.LAYERS):
        busy = med([op.busy_s().get(stem, 0.0) for op in ops])
        own = med([op.self_s().get(stem, 0.0) for op in ops])
        print(f"  {stem:<34} busy {busy:.6f} s  self {own:.6f} s")
        metrics[stem + "_s"] = (busy, "s", n)
    for name in COUNTS:
        metrics[name] = (med([op.counts[name] for op in ops]), "count", n)
    metrics["synthcontrol.donor_selections"] = (
        med([op.calls("synthcontrol.donors") for op in ops]), "count", n)
    metrics["pipeline.prefactor.hit_ratio"] = (med([
        op.counts["pipeline.prefactor.units"] / op.counts["pipeline.study.units_fitted"]
        for op in ops if op.counts["pipeline.study.units_fitted"]
    ]), "ratio", n)
    refits = [runner.outputs[op.op].refit_counts for op in ops]
    for key in ("warm", "cold", "placebo_refreshes"):
        metrics["stream.refit." + key] = (med([r.get(key, 0) for r in refits]), "count", n)
    metrics["stream.refit.warm_ratio"] = (med([
        r["warm"] / (r["warm"] + r["cold"]) for r in refits if r.get("warm", 0) + r.get("cold", 0)
    ]), "ratio", n)
    traced = list(runner.traced_seconds.values())
    untraced = list(runner.seconds.values())
    metrics["obs.traced_table_s"] = (med(traced), "s", n)
    metrics["obs.unattributed_s"] = (med([
        runner.traced_seconds[op.op] - sum(op.self_s().values()) for op in ops
    ]), "s", n)
    overhead = 100.0 * (med(traced) / med(untraced) - 1.0) if traced and untraced else 0.0
    metrics["obs.trace_overhead_pct"] = (overhead, "%", n + len(untraced))
    return metrics


def live_batch(runner, measure) -> dict:
    """Post-join ingest latency percentiles, median over untraced operations.

    Each operation streams one feed, so each gives its own percentile
    over its ~120 post-join batches; n counts the batches behind them.
    """
    per_op = [runner.outputs[i].batch_latencies_ms for i in runner.seconds]
    n = sum(len(lat) for lat in per_op)
    metrics = {}
    for name, q in LIVE_BATCH.items():
        values = [v for v in (measure.percentile(lat, q) for lat in per_op) if v is not None]
        metrics[name] = (measure.median(values) if values else 0.0, "ms", n)
    return metrics


def main(argv=None) -> int:
    # One BLAS/OpenMP thread per process, fixed before numpy is imported:
    # left alone, every process starts one thread per core and a serial
    # process competes with itself on a small machine.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    import layers
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - T_START

    nproc = len(os.sched_getaffinity(0))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"nproc {nproc}  " + "  ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print(f"python {platform.python_version()}  numpy {numpy.__version__}  git {git_sha()}")

    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload, layers.LayerTracer())
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.prepare()
        prepare_s.append(time.perf_counter() - t0)
    warmup_s = runner.run(WARMUP_INDEX)
    runner.seconds.pop(WARMUP_INDEX, None)
    setup_s = imports_s + measure.median(prepare_s) + warmup_s

    index = WARMUP_INDEX + 1
    t_begin = time.perf_counter()
    while time.perf_counter() - t_begin < args.seconds:
        traced = bool(args.trace) and index % 2 == 0
        dt = runner.run(index, traced=traced)
        print(f"operation {index}{' traced' if traced else ''}: {dt:.6f} s")
        index += 1

    for bad in workload.verify(runner.outputs):
        print(f"operation {bad}: output differs from the reference", file=sys.stderr)
        runner.failed += 1

    timed = list(runner.seconds.values())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"imports {imports_s:.3f} s  prepare median {measure.median(prepare_s):.3f} s "
          f"(n={SETUP_REPEATS})  warm-up operation {warmup_s:.3f} s")
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "table_s": (measure.median(timed) if timed else 0.0, "s", len(timed)),
        "peak_rss_mb": (rss / 1024.0, "MB", 1),
    }
    show(metrics)
    batch = live_batch(runner, measure)
    show(batch)
    if args.trace:
        print(f"per-layer busy and self time, median over "
              f"{len(runner.traced_seconds)} traced operations:")
        layer_table = per_layer(runner, layers, measure)
        print("per-layer metrics:")
        show(layer_table)
        metrics = {**batch, **layer_table}
        out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        n_spans = runner.tracer.write_jsonl(out)
        print(f"wrote {n_spans} spans to {out.relative_to(ROOT)}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
