"""Tests for checkpoint/resume: the journal file and the resumed study.

Two contracts:

- **Tolerant journal reads** (satellite): a run killed mid-append leaves
  a truncated final record; the reader drops exactly that record with a
  warning — never raising, never dropping complete records — and resuming
  truncates back to the last complete record before appending.  Proved
  by a byte-level truncation sweep over a real checkpoint file.
- **Byte-identical resume** (acceptance): a study killed at *any*
  checkpoint boundary and resumed reproduces the uninterrupted run's
  table byte for byte, rerunning only the base fits and placebo refits
  the journal is missing — mid-unit too.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import CheckpointError
from repro.frames.io import to_csv_text
from repro.pipeline import run_ixp_study
from repro.pipeline.checkpoint import StudyCheckpoint, read_jsonl_tolerant
from repro.obs import get_tracer
from repro.pipeline.study import UnitFit
from repro.stream import StreamStudy

RECORDS = [
    {"kind": "header", "ixp": "NAPAfrica-JNB", "method": "robust", "outcome": "rtt_ms"},
    {"kind": "skip", "unit": "AS101/jnb", "reason": "only 2 pre-treatment days"},
    {"kind": "unitfit", "unit": "AS100/jnb", "effect": -3.0000000000000004,
     "rmse_ratio": 1.25, "pre_periods": 10, "post_periods": 10,
     "donors": ["AS200/jnb", "AS201/cpt"]},
    {"kind": "placebo", "unit": "AS100/jnb", "col": 0, "donor": "AS200/jnb",
     "ratio": 0.3333333333333333, "reason": ""},
    {"kind": "placebo", "unit": "AS100/jnb", "col": 1, "donor": "AS201/cpt",
     "ratio": None, "reason": "non-finite RMSE ratio"},
    {"kind": "unitfit", "unit": "AS102/cpt", "effect": 1.5e-17,
     "rmse_ratio": 0.875, "pre_periods": 10, "post_periods": 10,
     "donors": ["AS200/jnb"]},
]


def _write_jsonl(path, records) -> bytes:
    data = b"".join(
        json.dumps(r, separators=(",", ":")).encode() + b"\n" for r in records
    )
    path.write_bytes(data)
    return data


class TestReadJsonlTolerant:
    def test_complete_file_round_trips(self, tmp_path):
        path = tmp_path / "run.jsonl"
        data = _write_jsonl(path, RECORDS)
        records, good_bytes = read_jsonl_tolerant(path)
        assert records == RECORDS
        assert good_bytes == len(data)

    def test_truncation_sweep_never_raises_and_keeps_complete_prefix(
        self, tmp_path
    ):
        """Cut the file at every byte; the reader must always return the
        complete-record prefix (floats intact) and the matching resume
        offset."""
        path = tmp_path / "run.jsonl"
        data = _write_jsonl(path, RECORDS)
        lines = data.split(b"\n")[:-1]
        boundaries = []  # byte offset just past each record's newline
        offset = 0
        for line in lines:
            offset += len(line) + 1
            boundaries.append(offset)
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            records, good_bytes = read_jsonl_tolerant(path)
            expected = sum(1 for b in boundaries if b <= cut)
            assert len(records) == expected, f"cut at byte {cut}"
            assert records == RECORDS[:expected]
            assert good_bytes == (boundaries[expected - 1] if expected else 0)

    def test_unterminated_but_parseable_final_record_is_dropped(self, tmp_path):
        # A truncated longer record can parse as a shorter one (e.g. a
        # float cut mid-digits), so an unterminated line is never trusted.
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"kind":"header","ixp":"X"}\n{"kind":"skip","unit":"u"}')
        records, good_bytes = read_jsonl_tolerant(path)
        assert records == [{"kind": "header", "ixp": "X"}]
        assert good_bytes == len(b'{"kind":"header","ixp":"X"}\n')

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"kind":"header"}\n###garbage###\n{"kind":"skip"}\n')
        with pytest.raises(CheckpointError, match="malformed record mid-file"):
            read_jsonl_tolerant(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"")
        assert read_jsonl_tolerant(path) == ([], 0)


class TestStudyCheckpoint:
    def _open(self, path, resume=False) -> StudyCheckpoint:
        return StudyCheckpoint(
            path, ixp_name="NAPAfrica-JNB", method="robust",
            outcome="rtt_ms", resume=resume,
        )

    def test_fits_refits_and_skips_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        fit = UnitFit(
            unit="AS100/jnb", effect=-2.700000000000001, rmse_ratio=1.3,
            pre_periods=9, post_periods=11, donors=("AS200/jnb", "AS201/cpt"),
        )
        refits = {
            0: ("AS200/jnb", 0.3333333333333333, ""),
            1: ("AS201/cpt", None, "non-finite RMSE ratio"),
        }
        with self._open(path) as ckpt:
            ckpt.append_fit(fit)
            for col, refit in refits.items():
                ckpt.append_placebo("AS100/jnb", col, refit)
            ckpt.append_skip("AS101/jnb", "only 1 pre-treatment days")
        resumed = self._open(path, resume=True)
        resumed.close()
        assert resumed.completed_fits == {"AS100/jnb": fit}
        assert resumed.completed_refits == {
            ("AS100/jnb", col): refit for col, refit in refits.items()
        }
        assert resumed.completed_skips == {"AS101/jnb": "only 1 pre-treatment days"}

    def test_unknown_record_kind_refuses_to_resume(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        _write_jsonl(path, [RECORDS[0], {"kind": "row", "unit": "AS1/x"}])
        with pytest.raises(CheckpointError, match="unknown checkpoint record kind"):
            self._open(path, resume=True)

    def test_header_mismatch_refuses_to_resume(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        self._open(path).close()
        with pytest.raises(CheckpointError, match="method"):
            StudyCheckpoint(
                path, ixp_name="NAPAfrica-JNB", method="classic",
                outcome="rtt_ms", resume=True,
            )

    def test_headerless_file_refuses_to_resume(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text('{"kind":"skip","unit":"u","reason":"r"}\n')
        with pytest.raises(CheckpointError, match="not a header"):
            self._open(path, resume=True)

    def test_without_resume_an_existing_file_is_restarted(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with self._open(path) as ckpt:
            ckpt.append_skip("AS1/x", "gone after restart")
        fresh = self._open(path)
        fresh.close()
        assert fresh.completed_skips == {}
        records, _ = read_jsonl_tolerant(path)
        assert len(records) == 1  # header only

    def test_resume_truncates_a_partial_tail_before_appending(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with self._open(path) as ckpt:
            ckpt.append_skip("AS1/x", "kept")
        with open(path, "ab") as f:
            f.write(b'{"kind":"skip","unit":"AS2/x","rea')  # killed mid-append
        with self._open(path, resume=True) as ckpt:
            assert set(ckpt.completed_skips) == {"AS1/x"}
            ckpt.append_skip("AS3/x", "appended after truncation")
        records, _ = read_jsonl_tolerant(path)
        assert [r.get("unit") for r in records] == [None, "AS1/x", "AS3/x"]


#: One changed value for each fit parameter the journal header records
#: beside the exchange, the method and the outcome.
CHANGED_PARAMETERS = [
    ("energy", 0.6),
    ("ridge", 0.5),
    ("max_placebos", 3),
    ("min_pre_periods", 5),
    ("min_post_periods", 2),
    ("max_donor_missing", 0.4),
]


class TestResumeRefusesChangedParameters:
    """A journal serves fits only to a run with the parameters that made them."""

    @pytest.fixture(scope="class")
    def journal(self, small_frame, small_scenario, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "default.jsonl"
        run_ixp_study(small_frame, small_scenario.ixp_name, checkpoint=path)
        return path.read_bytes()

    @pytest.mark.parametrize("name,value", CHANGED_PARAMETERS)
    def test_study_resume(
        self, small_frame, small_scenario, journal, tmp_path, name, value
    ):
        path = tmp_path / "run.jsonl"
        path.write_bytes(journal)
        with pytest.raises(CheckpointError, match=name):
            run_ixp_study(
                small_frame, small_scenario.ixp_name,
                checkpoint=path, resume=True, **{name: value},
            )
        assert path.read_bytes() == journal

    @pytest.mark.parametrize("name,value", CHANGED_PARAMETERS)
    def test_stream_resume(self, small_scenario, tmp_path, name, value):
        path = tmp_path / "stream.jsonl"
        StreamStudy(small_scenario.ixp_name, checkpoint=path, live_refits=False).close()
        with pytest.raises(CheckpointError, match=name):
            StreamStudy(
                small_scenario.ixp_name, checkpoint=path, resume=True,
                live_refits=False, **{name: value},
            )

    def test_journal_without_fit_parameters_refuses_to_resume(
        self, small_frame, small_scenario, tmp_path
    ):
        """A header that records only the exchange, method and outcome."""
        path = tmp_path / "old.jsonl"
        _write_jsonl(
            path,
            [{"kind": "header", "ixp": small_scenario.ixp_name,
              "method": "robust", "outcome": "rtt_ms"}],
        )
        with pytest.raises(CheckpointError, match="energy=None"):
            run_ixp_study(
                small_frame, small_scenario.ixp_name, checkpoint=path, resume=True
            )


class TestResumedStudyIsByteIdentical:
    """Kill-and-resume at every journal boundary (acceptance criterion)."""

    @pytest.fixture(scope="class")
    def baseline(self, small_frame, small_scenario):
        result = run_ixp_study(small_frame, small_scenario.ixp_name)
        return result.format_table(), to_csv_text(result.to_frame())

    @pytest.fixture(scope="class")
    def full_checkpoint(self, small_frame, small_scenario, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "full.jsonl"
        run_ixp_study(small_frame, small_scenario.ixp_name, checkpoint=path)
        return path.read_bytes()

    def test_checkpointed_run_matches_plain_run(
        self, small_frame, small_scenario, baseline, tmp_path
    ):
        result = run_ixp_study(
            small_frame, small_scenario.ixp_name,
            checkpoint=tmp_path / "c.jsonl",
        )
        assert (result.format_table(), to_csv_text(result.to_frame())) == baseline

    def test_resume_at_every_record_boundary(
        self, small_frame, small_scenario, baseline, full_checkpoint, tmp_path
    ):
        lines = full_checkpoint.split(b"\n")[:-1]
        records = [json.loads(line) for line in lines[1:]]
        kinds = [r["kind"] for r in records]
        assert kinds.count("unitfit") >= 2, "small study should fit several units"
        assert "placebo" in kinds
        # Every skip is the plan's, journaled before the first fit, so
        # what a cut loses is base fits and placebo refits alone.
        assert "skip" not in kinds[kinds.index("unitfit"):]

        for k in range(len(records) + 1):
            path = tmp_path / f"cut{k}.jsonl"
            path.write_bytes(b"".join(line + b"\n" for line in lines[: k + 1]))
            lost = kinds[k:]
            get_tracer().reset()
            result = run_ixp_study(
                small_frame, small_scenario.ixp_name,
                checkpoint=path, resume=True,
            )
            spans = get_tracer().records
            assert (
                result.format_table(), to_csv_text(result.to_frame())
            ) == baseline, f"resume after {k} journaled records diverged"
            # Only the lost fits and placebo columns run again.
            fits = sum(1 for r in spans if r.name == "fits.unit")
            assert fits == lost.count("unitfit")
            assert sum(
                r.attrs["n_cols"] for r in spans if r.name == "placebo.ensemble"
            ) == lost.count("placebo")
            # The finished journal is whole again.
            assert path.read_bytes() == full_checkpoint

    def test_resume_between_one_units_placebo_records(
        self, small_frame, small_scenario, baseline, full_checkpoint, tmp_path
    ):
        lines = full_checkpoint.split(b"\n")[:-1]
        records = [json.loads(line) for line in lines]
        # Cut after a unit's first placebo record, before its second.
        first = next(
            i for i, r in enumerate(records)
            if r["kind"] == "placebo" and r["col"] == 0
            and records[i + 1]["kind"] == "placebo"
        )
        unit = records[first]["unit"]
        missing = sum(
            1 for r in records[first + 1:]
            if r["kind"] == "placebo" and r["unit"] == unit
        )
        path = tmp_path / "mid_unit.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines[: first + 1]))
        get_tracer().reset()
        result = run_ixp_study(
            small_frame, small_scenario.ixp_name, checkpoint=path, resume=True
        )
        spans = get_tracer().records
        assert (result.format_table(), to_csv_text(result.to_frame())) == baseline
        assert path.read_bytes() == full_checkpoint
        # The cut unit's fit is journaled: it refits only its missing
        # columns, in one ensemble, outside any fits.unit span; every
        # later unit runs whole.
        later = [r for r in records[first + 1:] if r["unit"] != unit]
        ensembles = [r for r in spans if r.name == "placebo.ensemble"]
        by_id = {r.span_id: r for r in spans}
        resumed = [e for e in ensembles if by_id[e.parent_id].name == "fits"]
        assert [e.attrs["n_cols"] for e in resumed] == [missing]
        assert sum(e.attrs["n_cols"] for e in ensembles) == missing + sum(
            1 for r in later if r["kind"] == "placebo"
        )
        assert sum(1 for r in spans if r.name == "fits.unit") == sum(
            1 for r in later if r["kind"] == "unitfit"
        )

    def test_resume_from_a_mid_record_kill(
        self, small_frame, small_scenario, baseline, full_checkpoint, tmp_path
    ):
        # kill -9 landing mid-append: cut inside the second record's bytes.
        first_nl = full_checkpoint.index(b"\n")
        second_nl = full_checkpoint.index(b"\n", first_nl + 1)
        cut = (second_nl + full_checkpoint.index(b"\n", second_nl + 1)) // 2
        path = tmp_path / "killed.jsonl"
        path.write_bytes(full_checkpoint[:cut])
        result = run_ixp_study(
            small_frame, small_scenario.ixp_name, checkpoint=path, resume=True
        )
        assert (result.format_table(), to_csv_text(result.to_frame())) == baseline
        assert path.read_bytes() == full_checkpoint


class TestCheckpointCli:
    ARGS = ["table1", "--days", "16", "--donors", "8", "--seed", "0"]

    def test_checkpoint_then_resume_reproduces_stdout(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "run.jsonl")
        assert main(self.ARGS + ["--checkpoint", path]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--checkpoint", path, "--resume"]) == 0
        assert capsys.readouterr().out == first
        assert "verdict" in first

    def test_kill_dash_nine_then_resume(self, tmp_path):
        """The headline scenario, end to end: SIGKILL a checkpointing
        run mid-fits, resume it, and get the uninterrupted stdout."""
        path = tmp_path / "run.jsonl"
        env = dict(os.environ, PYTHONPATH="src")
        cmd = [sys.executable, "-m", "repro", *self.ARGS]

        proc = subprocess.Popen(
            cmd + ["--checkpoint", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        )
        # Wait for the journal to hold at least one fit, then kill -9.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and proc.poll() is None:
            if path.exists() and path.read_bytes().count(b"\n") >= 2:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)

        resumed = subprocess.run(
            cmd + ["--checkpoint", str(path), "--resume"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            timeout=300, check=True,
        )
        uninterrupted = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            timeout=300, check=True,
        )
        assert resumed.stdout == uninterrupted.stdout
        assert b"verdict" in resumed.stdout


class TestCloseSemantics:
    def _open(self, path) -> StudyCheckpoint:
        return StudyCheckpoint(
            path, ixp_name="NAPAfrica-JNB", method="robust", outcome="rtt_ms",
        )

    def test_close_is_idempotent(self, tmp_path):
        ckpt = self._open(tmp_path / "ckpt.jsonl")
        ckpt.close()
        ckpt.close()  # second close must be a no-op, not a ValueError

    def test_exit_after_explicit_close_is_harmless(self, tmp_path):
        with self._open(tmp_path / "ckpt.jsonl") as ckpt:
            ckpt.close()

    def test_close_fsyncs_the_journal(self, tmp_path, monkeypatch):
        import repro.pipeline.checkpoint as checkpoint_mod

        synced: list[int] = []
        monkeypatch.setattr(
            checkpoint_mod.os, "fsync", lambda fd: synced.append(fd)
        )
        ckpt = self._open(tmp_path / "ckpt.jsonl")
        ckpt.append_skip("AS1/x", "reason")
        ckpt.close()
        ckpt.close()
        assert len(synced) == 1  # exactly once: close after close is a no-op
