"""Cold start: the analysis entry points never import scipy.

``table1``, ``stream`` and ``campaign`` call no scipy function, so a
module on their import path keeps any scipy import inside the one
function that uses it. Paying ~0.9 s for scipy at module scope on every
CLI run, campaign re-run and benchmark operation is the regression
these tests catch.

Both checks run in a child interpreter: this test process has scipy
loaded already (other test modules import it), so ``sys.modules`` here
says nothing about a cold start.

- The entry-point packages import, and small ``table1``, ``stream`` and
  ``campaign`` runs complete, with no ``scipy`` module loaded.
- Every function that imports scipy lazily still runs and returns a
  finite result, so a function that lost its import fails here rather
  than in a rarely run study.
- No entry point loads ``multiprocessing.shared_memory``, not even a
  campaign on a process pool: scenarios come home through the
  executor's pickling and every fit runs in the parent, so no process
  shares memory with another.
- No entry point loads the telemetry server's HTTP stack
  (``http.server``, ``http.client``, ``socketserver``) unless telemetry
  is served: ``repro.obs`` imports :mod:`repro.obs.serve` on first use
  of its names, not at package import.
"""

import json
import os
import subprocess
import sys
import textwrap

import repro


def _run_child(script: str) -> str:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_entry_points_run_without_scipy():
    script = """
        import contextlib, io, json, sys

        import repro.campaign
        import repro.cli
        import repro.mplatform
        import repro.netsim
        import repro.pipeline
        import repro.stream
        import repro.studies

        imported = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        with contextlib.redirect_stdout(io.StringIO()):
            repro.cli.main(["table1", "--days", "12", "--donors", "6", "--seed", "0"])
            repro.cli.main(
                ["stream", "--days", "12", "--donors", "6", "--seed", "0",
                 "--batches", "4"]
            )
            repro.cli.main(
                ["campaign", "--scenarios", "2", "--days", "10", "--donors", "6",
                 "--seed", "0"]
            )
        ran = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps({"imported": imported, "ran": ran}))
    """
    loaded = json.loads(_run_child(script))
    assert loaded == {"imported": [], "ran": []}


def test_entry_points_never_load_shared_memory():
    script = """
        import contextlib, io, json, sys

        import repro.campaign
        import repro.cli
        import repro.stream

        imported = "multiprocessing.shared_memory" in sys.modules
        with contextlib.redirect_stdout(io.StringIO()):
            repro.cli.main(["table1", "--days", "12", "--donors", "6", "--seed", "0"])
            repro.cli.main(
                ["stream", "--days", "12", "--donors", "6", "--seed", "0",
                 "--batches", "4"]
            )
            repro.cli.main(
                ["campaign", "--scenarios", "2", "--days", "10", "--donors", "6",
                 "--seed", "0", "--jobs", "2"]
            )
        ran = "multiprocessing.shared_memory" in sys.modules
        print(json.dumps({"imported": imported, "ran": ran}))
    """
    assert json.loads(_run_child(script)) == {"imported": False, "ran": False}


def test_entry_points_never_load_the_telemetry_server():
    script = """
        import contextlib, io, json, sys

        import repro.campaign
        import repro.cli
        import repro.stream
        import repro.studies

        with contextlib.redirect_stdout(io.StringIO()):
            repro.cli.main(["table1", "--days", "12", "--donors", "6", "--seed", "0"])
            repro.cli.main(
                ["stream", "--days", "12", "--donors", "6", "--seed", "0",
                 "--batches", "4"]
            )
            repro.cli.main(
                ["campaign", "--scenarios", "2", "--days", "10", "--donors", "6",
                 "--seed", "0"]
            )
        server = ("http.server", "http.client", "socketserver")
        print(json.dumps(sorted(m for m in server if m in sys.modules)))
    """
    assert json.loads(_run_child(script)) == []


def test_lazy_scipy_sites_still_work():
    script = """
        import json, math

        import numpy as np

        from repro.estimators import fit_ols, matching_estimate, two_stage_least_squares
        from repro.frames.frame import Frame
        from repro.graph import partial_correlation
        from repro.synthcontrol import fit_simplex_weights

        rng = np.random.default_rng(0)
        n = 60
        w = rng.normal(size=n)
        z = (rng.random(n) < 0.5).astype(float)
        t = z + 0.5 * w + rng.normal(scale=0.5, size=n)
        y = 2.0 * t + w + rng.normal(scale=0.5, size=n)
        binary = (t > np.median(t)).astype(float)
        data = Frame.from_dict({"z": z, "w": w, "t": t, "b": binary, "y": y})

        donors = rng.normal(size=(10, 3))
        weights = fit_simplex_weights(donors @ [0.5, 0.3, 0.2], donors)
        fit = fit_ols(y, {"t": t, "w": w})
        values = {
            "fit_simplex_weights": float(weights.sum()),
            "partial_correlation": partial_correlation(data, "t", "y", ("w",))[1],
            "fit_ols": float(fit.p_values.sum()),
            "confidence_interval": sum(fit.confidence_interval("t")),
            "two_stage_least_squares": two_stage_least_squares(data, "z", "t", "y").ci_low,
            "matching_estimate": matching_estimate(data, "b", "y", ["w"]).effect,
        }
        print(json.dumps({k: math.isfinite(v) for k, v in values.items()}))
    """
    finite = json.loads(_run_child(script))
    assert finite == {
        "fit_simplex_weights": True,
        "partial_correlation": True,
        "fit_ols": True,
        "confidence_interval": True,
        "two_stage_least_squares": True,
        "matching_estimate": True,
    }
