"""Pinned user-visible outputs: SHA-256 digests of rendered tables.

The digests were captured at commit ``15d64b9``, the last commit whose
leave-one-out de-noising ran one LAPACK SVD per placebo core.  Placebo
panels reach these tables only through placebo-ratio ranks and skip
screens, so a leave-one-out kernel that keeps every rank and changes
panels only by rounding must leave every byte in place.
"""

from __future__ import annotations

import hashlib

from repro.cli import main
from repro.pipeline import run_ixp_study
from repro.stream import StreamStudy, slice_frame

STUDY_TABLE = "513995e9f6f1a2c50dbf728f2cf935500caae0fa4e15212c0fe9d5481ae6db4f"
STREAM_LIVE_TABLE = "fe47d371565140f828742565883a6b1697640ca1bd77b0a4e57a189b47c333b5"
CAMPAIGN_TABLE = "7e56c9ab55033d3a30bbe5151a7fc70e7cad51286a818e5db859d4fd75e0f2d3"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_small_frame_study_table(small_frame, small_scenario):
    table = run_ixp_study(small_frame, small_scenario.ixp_name).format_table()
    assert sha256(table) == STUDY_TABLE


def test_six_hour_stream_finalize_and_live_tables(small_frame, small_scenario):
    study = StreamStudy(small_scenario.ixp_name)
    outcome = study.run(slice_frame(small_frame, batch_hours=6.0))
    # The finalized table is the batch study's; the live table is the
    # stream's own advisory view after the last batch.
    assert sha256(outcome.result.format_table()) == STUDY_TABLE
    assert sha256(study.live_result().format_table()) == STREAM_LIVE_TABLE


def test_four_scenario_campaign_verdict_table(capsys):
    code = main(
        [
            "campaign", "--scenarios", "4", "--days", "12", "--donors", "8",
            "--seed", "0", "--budget", "64", "--jobs", "1",
        ]
    )
    assert code == 0
    assert sha256(capsys.readouterr().out) == CAMPAIGN_TABLE
