"""Result envelope and CSV / JSON / SVG emitter tests."""

from __future__ import annotations

import csv
import io
import json

import pytest

from leonav.output import (
    Column,
    EmitError,
    ResultEnvelope,
    emit,
    rows_envelope,
    to_csv,
    to_json,
    to_svg,
    utc_timestamp,
)


def table_envelope() -> ResultEnvelope:
    return ResultEnvelope(
        "table",
        (Column("altitude_km", "km"), Column("loss_db", "dB"), Column("note")),
        ((500.0, 150.25, "a"), (1000.0, None, 'needs "quoting", really')),
        scenario_hash="ab" * 32,
        tool_version="0.1.0",
    )


def series_envelope() -> ResultEnvelope:
    return ResultEnvelope(
        "series",
        (Column("altitude_km", "km"), Column("gain_db", "dB"), Column("delta_db", "dB")),
        ((500.0, 10.0, -32.0), (900.0, 8.0, -28.0), (1400.0, 6.4, -24.5)),
        scenario_hash="cd" * 32,
        tool_version="0.1.0",
    )


def matrix_envelope() -> ResultEnvelope:
    rows = (
        (24, 600.0, 1.0, 5.2),
        (24, 800.0, 0.9, None),
        (48, 600.0, 1.0, 3.1),
        (48, 800.0, 1.0, 2.8),
    )
    return ResultEnvelope(
        "matrix",
        (
            Column("requested_sats"),
            Column("altitude_km", "km"),
            Column("coverage"),
            Column("pdop_p95"),
        ),
        rows,
        scenario_hash="ef" * 32,
        tool_version="0.1.0",
        axes={"requested_sats": (24, 48), "altitude_km": (600.0, 800.0)},
    )


class TestEnvelope:
    def test_kinds_validated(self):
        with pytest.raises(EmitError, match="kind"):
            ResultEnvelope("scatter", (Column("x"),), (), "h", "v")

    def test_row_width_validated(self):
        with pytest.raises(EmitError, match="row 1 has 1 fields"):
            ResultEnvelope("table", (Column("x"), Column("y")), ((1, 2), (3,)), "h", "v")

    def test_matrix_requires_axes(self):
        with pytest.raises(EmitError, match="axes"):
            ResultEnvelope("matrix", (Column("x"),), (), "h", "v")

    def test_rows_envelope_preserves_first_row_order(self):
        env = rows_envelope(
            "table",
            [{"b_db": 1.0, "a_km": 2.0}, {"b_db": 3.0, "a_km": 4.0}],
            scenario_hash="h",
            tool_version="v",
        )
        assert [c.name for c in env.columns] == ["b_db", "a_km"]
        assert env.rows == ((1.0, 2.0), (3.0, 4.0))

    def test_rows_envelope_units_follow_column_names(self):
        units = {
            "lat_deg": "deg", "slant_range_km": "km", "jammer_radius_m": "m",
            "low_w": "W", "fspl_db": "dB", "gain_db_mask5": "dB",
            "canopy": "", "quantity": "", "note": "",
            "walls_wood": "1", "pdop_p95": "1", "coverage_fraction": "1",
        }
        env = rows_envelope("table", [dict.fromkeys(units, 0)], "h", "v")
        assert {c.name: c.unit for c in env.columns} == units

    def test_rows_envelope_rejects_empty(self):
        with pytest.raises(EmitError, match="zero rows"):
            rows_envelope("table", [], "h", "v")


class TestTimestamp:
    def test_pinned_by_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
        assert utc_timestamp() == "2000-01-01T00:00:00Z"

    def test_rejects_non_integer_pin(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        with pytest.raises(ValueError, match="SOURCE_DATE_EPOCH"):
            utc_timestamp()

    def test_iso_shape_without_pin(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        stamp = utc_timestamp()
        assert len(stamp) == 20
        assert stamp.endswith("Z") and stamp[10] == "T"


class TestCsv:
    def test_rfc4180_shape(self):
        text = to_csv(table_envelope())
        lines = text.split("\r\n")
        assert lines[0] == "altitude_km,loss_db,note"
        assert lines[1] == "500.0,150.25,a"
        # None becomes an empty field; embedded quotes are doubled
        assert lines[2] == '1000.0,,"needs ""quoting"", really"'
        assert text.endswith("\r\n")

    def test_round_trips_through_csv_reader(self):
        text = to_csv(table_envelope())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["altitude_km", "loss_db", "note"]
        assert rows[2] == ["1000.0", "", 'needs "quoting", really']

    def test_no_timestamp_in_csv(self):
        assert "T" not in to_csv(series_envelope()).split("\r\n")[0]


class TestJson:
    def test_document_shape(self):
        doc = json.loads(to_json(table_envelope()))
        assert doc["kind"] == "table"
        assert doc["columns"] == ["altitude_km", "loss_db", "note"]
        assert doc["units"] == {"altitude_km": "km", "loss_db": "dB"}
        assert doc["rows"][1][1] is None
        assert doc["scenario_hash"] == "ab" * 32
        assert doc["tool_version"] == "0.1.0"
        assert "created_utc" in doc

    def test_keys_sorted_and_newline_terminated(self):
        text = to_json(series_envelope())
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == sorted(doc)

    def test_axes_included_for_matrix(self):
        doc = json.loads(to_json(matrix_envelope()))
        assert doc["axes"] == {
            "requested_sats": [24, 48],
            "altitude_km": [600.0, 800.0],
        }

    def test_rejects_nan(self):
        env = ResultEnvelope("table", (Column("x"),), ((float("nan"),),), "h", "v")
        with pytest.raises(ValueError):
            to_json(env)


class TestSvg:
    def test_series_chart(self):
        text = to_svg(series_envelope())
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline ") == 2  # one per y column
        assert "altitude_km" in text
        assert "gain_db / delta_db" in text

    def test_series_skips_undefined_points(self):
        env = ResultEnvelope(
            "series",
            (Column("x"), Column("y")),
            ((0.0, 1.0), (1.0, None), (2.0, 3.0)),
            "h",
            "v",
        )
        text = to_svg(env)
        polyline = [ln for ln in text.splitlines() if "<polyline" in ln][0]
        assert polyline.count(",") == 2  # two plotted points

    def test_empty_series_renders_placeholder(self):
        env = ResultEnvelope("series", (Column("x"), Column("y")), (), "h", "v")
        assert "no data" in to_svg(env)

    def test_matrix_heatmap(self):
        text = to_svg(matrix_envelope())
        # one cell per axis combination plus the background rect
        assert text.count("<rect ") == 1 + 4
        assert "#cccccc" in text  # undefined cell gets the neutral fill
        assert "pdop_p95" in text  # trailing metric column is the value
        assert "coverage" not in text.split("pdop_p95")[0]

    def test_matrix_color_scale_label(self):
        text = to_svg(matrix_envelope())
        assert "2.8 (dark) to 5.2 (bright)" in text

    def test_table_not_drawable(self):
        with pytest.raises(EmitError, match="svg output supports"):
            to_svg(table_envelope())


class TestEmit:
    def test_writes_file_and_returns_text(self, tmp_path):
        out = tmp_path / "result.csv"
        text = emit(table_envelope(), "csv", str(out))
        assert out.read_bytes().decode("utf-8") == text
        # newline="" must keep CRLF intact on disk
        assert b"\r\n" in out.read_bytes()

    def test_writes_stdout_when_no_path(self, capsys):
        emit(series_envelope(), "json", None)
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "series"

    def test_unknown_format(self):
        with pytest.raises(EmitError, match="format"):
            emit(table_envelope(), "yaml", None)
