"""Tests for checkpoint/resume: the journal file and the resumed study.

Two contracts:

- **Tolerant journal reads** (satellite): a run killed mid-append leaves
  a truncated final record; the reader drops exactly that record with a
  warning — never raising, never dropping complete rows — and resuming
  truncates back to the last complete record before appending.  Proved
  by a byte-level truncation sweep over a real checkpoint file.
- **Byte-identical resume** (acceptance): a study killed at *any*
  checkpoint boundary and resumed reproduces the uninterrupted run's
  table byte for byte, refitting only the units the journal is missing.
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
from repro.pipeline.study import StudyRow

RECORDS = [
    {"kind": "header", "ixp": "NAPAfrica-JNB", "method": "robust", "outcome": "rtt_ms"},
    {"kind": "row", "unit": "AS100/jnb", "rtt_delta_ms": -3.0000000000000004,
     "rmse_ratio": 1.25, "p_value": 0.3333333333333333, "pre_periods": 10,
     "post_periods": 10, "n_donors": 8, "n_placebos": 8, "n_placebos_skipped": 0},
    {"kind": "skip", "unit": "AS101/jnb", "reason": "only 2 pre-treatment days"},
    {"kind": "row", "unit": "AS102/cpt", "rtt_delta_ms": 1.5e-17,
     "rmse_ratio": 0.875, "p_value": 1.0, "pre_periods": 10,
     "post_periods": 10, "n_donors": 7, "n_placebos": 7, "n_placebos_skipped": 1},
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

    def test_rows_and_skips_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        row = StudyRow(
            unit="AS100/jnb", rtt_delta_ms=-2.700000000000001, rmse_ratio=1.3,
            p_value=0.25, pre_periods=9, post_periods=11, n_donors=6,
            n_placebos=6, n_placebos_skipped=2,
        )
        with self._open(path) as ckpt:
            ckpt.append_result(row)
            ckpt.append_result(("AS101/jnb", "only 1 pre-treatment days"))
        resumed = self._open(path, resume=True)
        resumed.close()
        assert resumed.completed == {
            "AS100/jnb": row,
            "AS101/jnb": ("AS101/jnb", "only 1 pre-treatment days"),
        }

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
            ckpt.append_result(("AS1/x", "gone after restart"))
        fresh = self._open(path)
        fresh.close()
        assert fresh.completed == {}
        records, _ = read_jsonl_tolerant(path)
        assert len(records) == 1  # header only

    def test_resume_truncates_a_partial_tail_before_appending(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        with self._open(path) as ckpt:
            ckpt.append_result(("AS1/x", "kept"))
        with open(path, "ab") as f:
            f.write(b'{"kind":"skip","unit":"AS2/x","rea')  # killed mid-append
        with self._open(path, resume=True) as ckpt:
            assert set(ckpt.completed) == {"AS1/x"}
            ckpt.append_result(("AS3/x", "appended after truncation"))
        records, _ = read_jsonl_tolerant(path)
        assert [r.get("unit") for r in records] == [None, "AS1/x", "AS3/x"]


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
        self, small_frame, small_scenario, baseline, full_checkpoint,
        tmp_path, monkeypatch
    ):
        import repro.pipeline.study as study_mod

        lines = full_checkpoint.split(b"\n")[:-1]
        n_records = len(lines) - 1  # journaled fit outcomes, header aside
        assert n_records >= 2, "small study should journal several units"

        refits: list[str] = []
        analyse = study_mod._analyse_unit
        monkeypatch.setattr(
            study_mod, "_analyse_unit",
            lambda task, prefactors: (
                refits.append(task.unit), analyse(task, prefactors)
            )[1],
        )
        for k in range(n_records + 1):
            path = tmp_path / f"cut{k}.jsonl"
            path.write_bytes(b"".join(line + b"\n" for line in lines[: k + 1]))
            refits.clear()
            result = run_ixp_study(
                small_frame, small_scenario.ixp_name,
                checkpoint=path, resume=True,
            )
            assert (
                result.format_table(), to_csv_text(result.to_frame())
            ) == baseline, f"resume after {k} journaled units diverged"
            assert len(refits) == n_records - k
            # The finished journal is whole again.
            assert path.read_bytes() == full_checkpoint

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
        ckpt.append_result(("AS1/x", "reason"))
        ckpt.close()
        ckpt.close()
        assert len(synced) == 1  # exactly once: close after close is a no-op
