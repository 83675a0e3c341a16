"""Unit tests for the measurement CSV importer."""

import numpy as np
import pytest

from repro.errors import FrameError
from repro.frames import Frame, write_csv
from repro.netsim.ids import Prefix
from repro.pipeline import (
    detect_crossings_from_hops,
    import_csv,
    load_ixp_prefixes,
    normalise_measurements,
    run_ixp_study,
)
from repro.pipeline.importer import read_measurement_csv

PREFIXES = {"NAPAfrica-JNB": [Prefix.parse("196.60.8.0/24")]}


def raw_frame() -> Frame:
    return Frame.from_dict(
        {
            "asn": [3741, 3741, 37053],
            "city": ["East London", "East London", "Cape Town"],
            "time_hour": [0.5, 25.0, 1.0],
            "rtt_ms": [30.0, 28.0, 45.0],
            "hop_ips": [
                "10.0.1.1|10.0.2.1",
                "10.0.1.1|196.60.8.7|10.0.3.1",
                "10.0.4.1|*",
            ],
        }
    )


class TestHopMatching:
    def test_crossing_detected(self):
        assert detect_crossings_from_hops(
            "10.0.0.1|196.60.8.9", load_ixp_prefixes({"NAP": ["196.60.8.0/24"]})
        ) == ["NAP"]

    def test_no_crossing(self):
        assert detect_crossings_from_hops("10.0.0.1", PREFIXES) == []

    def test_unparseable_hops_skipped(self):
        assert detect_crossings_from_hops("*|?|196.60.8.3", PREFIXES) == [
            "NAPAfrica-JNB"
        ]

    def test_each_ixp_once(self):
        hops = "196.60.8.1|196.60.8.2"
        assert detect_crossings_from_hops(hops, PREFIXES) == ["NAPAfrica-JNB"]


class TestNormalisation:
    def test_derives_unit_day_and_crossings(self):
        out = normalise_measurements(raw_frame(), PREFIXES)
        rows = list(out.iter_rows())
        assert rows[0]["unit"] == "AS3741/East London"
        assert rows[1]["day"] == 1
        assert rows[1]["ixps"] == "NAPAfrica-JNB"
        assert rows[1]["crosses_ixp"] in (True, 1)
        assert rows[0]["ixps"] == ""

    def test_fills_optional_columns(self):
        out = normalise_measurements(raw_frame(), PREFIXES)
        assert set(out.column_names) >= {
            "unit",
            "day",
            "ixps",
            "crosses_ixp",
            "trigger",
            "server_site",
            "as_path",
        }

    def test_missing_required_column(self):
        bad = raw_frame().drop("rtt_ms")
        with pytest.raises(FrameError, match="missing required"):
            normalise_measurements(bad, PREFIXES)

    def test_non_numeric_rtt_rejected(self):
        bad = raw_frame().with_column("rtt_ms", ["a", "b", "c"])
        with pytest.raises(FrameError):
            normalise_measurements(bad, PREFIXES)

    def test_all_missing_rows_rejected(self):
        empty = Frame.from_dict(
            {
                "asn": [3741, 37053],
                "city": ["X", "Y"],
                "time_hour": [None, 1.0],
                "rtt_ms": [10.0, None],
            }
        )
        with pytest.raises(FrameError, match="no complete"):
            normalise_measurements(empty, PREFIXES)

    def test_no_prefixes_yields_empty_crossings(self):
        out = normalise_measurements(raw_frame())
        assert all(r["ixps"] == "" for r in out.iter_rows())

    def test_non_finite_hours_rejected(self):
        bad = raw_frame().with_column("time_hour", [0.5, float("inf"), 1.0])
        with pytest.raises(FrameError, match="non-finite"):
            normalise_measurements(bad, PREFIXES)


def rowwise_normalise(raw, ixp_prefixes=None):
    """The per-row derivation the importer replaced, as the reference."""
    out = raw.drop_missing(["asn", "city", "time_hour", "rtt_ms"])
    out = out.derive("unit", lambda r: f"AS{int(r['asn'])}/{r['city']}")
    out = out.derive("day", lambda r: int(float(r["time_hour"]) // 24))
    if "ixps" not in out:
        if ixp_prefixes and "hop_ips" in out:
            out = out.derive(
                "ixps",
                lambda r: ",".join(
                    detect_crossings_from_hops(r.get("hop_ips") or "", ixp_prefixes)
                ),
            )
        else:
            out = out.with_column("ixps", [""] * out.num_rows)
    out = out.derive("crosses_ixp", lambda r: bool(r["ixps"]))
    for name, value in (("trigger", "unknown"), ("server_site", "default"), ("as_path", "")):
        if name not in out:
            out = out.with_column(name, [value] * out.num_rows)
    return out


def assert_same_frame(got, want):
    assert got.column_names == want.column_names
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        assert a.kind == b.kind, name
        assert a == b, name
        assert [type(v) for v in a.to_list()] == [type(v) for v in b.to_list()], name


class TestDerivedOncePerKey:
    """Per-key derivation gives the per-row derivation's values, as codes."""

    def mixed_frame(self, n=400):
        rng = np.random.default_rng(5)
        hops = ["10.0.1.1|196.60.8.7", "10.0.4.1|*", "", None, "196.60.8.200"]
        return Frame.from_dict(
            {
                # Fractional ASNs: two keys can share one unit label.
                "asn": rng.choice([3741.0, 3741.5, 37053.0, 64500.0], size=n),
                "city": rng.choice(["Cape Town", "East London", "Durban"], size=n),
                "time_hour": rng.uniform(-30.0, 100.0, size=n).round(1),
                "rtt_ms": rng.uniform(10.0, 90.0, size=n),
                "hop_ips": [hops[i] for i in rng.integers(0, len(hops), size=n)],
            }
        )

    @pytest.mark.parametrize("prefixes", [PREFIXES, None])
    def test_matches_the_rowwise_derivation(self, prefixes):
        raw = self.mixed_frame()
        out = normalise_measurements(raw, prefixes)
        assert_same_frame(out, rowwise_normalise(raw, prefixes))
        for name in ("unit", "day", "trigger", "server_site", "as_path"):
            assert out.column(name)._codes is not None, name
        assert out.column("day").kind == "int"
        assert min(out["day"]) < 0  # negative hours floor to negative days

    def test_matches_with_an_ixps_column_present(self):
        raw = raw_frame().drop("hop_ips").with_column("ixps", ["", "NAP", None])
        assert_same_frame(
            normalise_measurements(raw, PREFIXES), rowwise_normalise(raw, PREFIXES)
        )

    def test_simulated_csv_imports_like_the_rowwise_derivation(self, tmp_path, small_frame):
        csv_path = tmp_path / "sim.csv"
        write_csv(small_frame, csv_path)
        imported = import_csv(csv_path)
        assert_same_frame(imported, rowwise_normalise(read_measurement_csv(csv_path)))
        for name in ("unit", "day"):
            assert imported.column(name) == small_frame.column(name), name


class TestRoundTripThroughPipeline:
    def test_csv_import_feeds_study(self, tmp_path, small_scenario, small_frame):
        """Export simulated data to CSV, re-import, and re-run the study:
        the result must match the in-memory run."""
        in_memory = run_ixp_study(small_frame, small_scenario.ixp_name)

        csv_path = tmp_path / "mlab_export.csv"
        export = small_frame.select(
            ["asn", "city", "time_hour", "rtt_ms", "ixps", "trigger"]
        )
        write_csv(export, csv_path)
        imported = import_csv(csv_path)
        re_run = run_ixp_study(imported, small_scenario.ixp_name)

        assert {r.unit for r in re_run.rows} == {r.unit for r in in_memory.rows}
        by_unit = {r.unit: r for r in in_memory.rows}
        for row in re_run.rows:
            assert row.rtt_delta_ms == pytest.approx(
                by_unit[row.unit].rtt_delta_ms, abs=1e-6
            )
