"""Pinned user-visible outputs: SHA-256 digests of rendered tables.

The digests were captured at commit ``15d64b9``, the last commit whose
leave-one-out de-noising ran one LAPACK SVD per placebo core.  Placebo
panels reach these tables only through placebo-ratio ranks and skip
screens, so a leave-one-out kernel that keeps every rank and changes
panels only by rounding must leave every byte in place.

The study tables never read ``asn``, ``download_mbps`` or ``trigger``,
so one more digest pins every value of ``small_frame`` itself: each
column's name, kind and length, then its values decoded — floats as
``float64`` bytes, ints and bools as ``int64`` bytes, labels as UTF-8
lines.  It was captured at commit ``db02328``, the last commit that
stored ``asn`` and ``day`` as ``int64`` arrays; however a column is
stored, its decoded values must not move.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cli import main
from repro.pipeline import run_ixp_study
from repro.stream import StreamStudy, slice_frame

STUDY_TABLE = "513995e9f6f1a2c50dbf728f2cf935500caae0fa4e15212c0fe9d5481ae6db4f"
STREAM_LIVE_TABLE = "fe47d371565140f828742565883a6b1697640ca1bd77b0a4e57a189b47c333b5"
CAMPAIGN_TABLE = "7e56c9ab55033d3a30bbe5151a7fc70e7cad51286a818e5db859d4fd75e0f2d3"
FRAME_VALUES = "d738580544389ee2f8c9bb6cd4debc59f2decbd62e26e9c02b47e5be3738951f"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def frame_values_sha256(frame) -> str:
    digest = hashlib.sha256()
    for name in frame.column_names:
        col = frame.column(name)
        digest.update(f"{name}:{col.kind}:{len(col)}\n".encode())
        if col.kind == "float":
            digest.update(np.asarray(col.values, dtype=np.float64).tobytes())
        elif col.kind in ("int", "bool"):
            digest.update(np.asarray(col.values, dtype=np.int64).tobytes())
        else:
            digest.update("".join(f"{v}\n" for v in col.values).encode())
    return digest.hexdigest()


def test_small_frame_values(small_frame):
    assert small_frame.num_rows == 27590
    assert frame_values_sha256(small_frame) == FRAME_VALUES


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
