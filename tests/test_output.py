"""Result envelope and CSV / JSON / SVG emitter tests."""

from __future__ import annotations

import csv
import hashlib
import io
import json

import numpy as np
import pytest

from leonav.output import (
    EmitError,
    ResultEnvelope,
    emit,
    rows_envelope,
    to_csv,
    to_json,
    to_svg,
    _column_unit,
    utc_timestamp,
)


def table_envelope() -> ResultEnvelope:
    return ResultEnvelope(
        "table",
        ("altitude_km", "loss_db", "note"),
        ((500.0, 150.25, "a"), (1000.0, None, 'needs "quoting", really')),
        scenario_hash="ab" * 32,
        tool_version="0.1.0",
    )


def series_envelope() -> ResultEnvelope:
    return ResultEnvelope(
        "series",
        ("altitude_km", "gain_db", "delta_db"),
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
            "requested_sats",
            "altitude_km",
            "coverage",
            "pdop_p95",
        ),
        rows,
        scenario_hash="ef" * 32,
        tool_version="0.1.0",
        axes={"requested_sats": (24, 48), "altitude_km": (600.0, 800.0)},
    )


class TestEnvelope:
    def test_kinds_validated(self):
        with pytest.raises(EmitError, match="kind"):
            ResultEnvelope("scatter", ("x",), (), "h", "v")

    def test_row_width_validated(self):
        with pytest.raises(EmitError, match="row 1 has 1 fields"):
            ResultEnvelope("table", ("x", "y"), ((1, 2), (3,)), "h", "v")

    def test_needs_a_column(self):
        with pytest.raises(EmitError, match="at least one column"):
            ResultEnvelope("table", (), ((), ()), "h", "v")

    @pytest.mark.parametrize("cell", [[1, 2], (1,), {"a": 1}, []])
    def test_cells_are_scalars(self, cell):
        with pytest.raises(EmitError, match="scalars"):
            ResultEnvelope("table", ("x", "y"), ((1, 2), (3, cell)), "h", "v")

    def test_matrix_requires_axes(self):
        with pytest.raises(EmitError, match="axes"):
            ResultEnvelope("matrix", ("x",), (), "h", "v")

    def test_rows_envelope_preserves_first_row_order(self):
        env = rows_envelope(
            "table",
            [{"b_db": 1.0, "a_km": 2.0}, {"b_db": 3.0, "a_km": 4.0}],
            scenario_hash="h",
            tool_version="v",
        )
        assert env.columns == ("b_db", "a_km")
        assert env.rows == ((1.0, 2.0), (3.0, 4.0))

    def test_rows_envelope_units_follow_column_names(self):
        units = {
            "lat_deg": "deg", "slant_range_km": "km", "jammer_radius_m": "m",
            "low_w": "W", "fspl_db": "dB", "gain_db_mask5": "dB",
            "canopy": "", "quantity": "", "note": "",
            "walls_wood": "1", "pdop_p95": "1", "coverage_fraction": "1",
        }
        env = rows_envelope("table", [dict.fromkeys(units, 0)], "h", "v")
        assert {name: _column_unit(name) for name in env.columns} == units
        assert json.loads(to_json(env))["units"] == {k: v for k, v in units.items() if v}

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

    @pytest.mark.parametrize("pin", ["99999999999999999999", "-99999999999", "253402300800"])
    def test_rejects_out_of_range_pin(self, monkeypatch, pin):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", pin)
        with pytest.raises(ValueError, match=f"SOURCE_DATE_EPOCH \\('{pin}'\\) is out of range"):
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, value):
        env = ResultEnvelope("table", ("x", "y"), ((1.0, 2.0), (3.0, value)), "h", "v")
        with pytest.raises(ValueError):
            to_json(env)

    def test_rejects_numpy_scalars(self):
        env = ResultEnvelope("table", ("x",), ((1,), (np.int64(2),)), "h", "v")
        with pytest.raises(TypeError):
            to_json(env)
        env = ResultEnvelope("table", ("x",), ((np.int64(1),), (np.int64(1),)), "h", "v")
        with pytest.raises(TypeError):
            to_json(env)


def _oracle(envelope: ResultEnvelope) -> str:
    """The document ``to_json`` must write, by the stdlib's indenting encoder."""
    doc = {
        "kind": envelope.kind,
        "scenario_hash": envelope.scenario_hash,
        "tool_version": envelope.tool_version,
        "created_utc": utc_timestamp(),
        "columns": list(envelope.columns),
        "units": {n: _column_unit(n) for n in envelope.columns if _column_unit(n)},
        "rows": [list(row) for row in envelope.rows],
    }
    if envelope.axes is not None:
        doc["axes"] = {k: list(v) for k, v in envelope.axes.items()}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_oracle(envelope: ResultEnvelope) -> str:
    """The text ``to_csv`` must write, by ``csv.writer`` over the raw rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(envelope.columns)
    writer.writerows(envelope.rows)
    return buf.getvalue()


#: Cells that could break the row splice: brackets, commas, quotes,
#: escapes, whitespace and non-ASCII text in strings; every other scalar,
#: including values a dict takes for one key (1, 1.0 and True; 0.0 and
#: -0.0).
_AWKWARD_CELLS = (
    "]", "[", "],", '"],\n      ["', "a \"quoted\" word", "back\\slash", "two\nlines",
    "tab\there", "Zürich 東京 ☃", "", None, True, 1, 1.0, False, 0, -7, 10**30,
    -0.0, 0.0, 1e16, 5e-324, 1e308, 0.1, -2.5,
)

#: Columns whose distinct values a dict would merge, in both orders; the
#: zeros of one sign, and float subclasses, beside them.
_MERGING_COLUMNS = (
    (1, 1.0, True, 1),
    (True, 1.0, 1, None),
    (False, 0, 0.0, -0.0),
    (0.0, -0.0, None, 0.0),
    (-0.0, 0.0, None, -0.0),
    (0.0, None, 0.0, 2.5),
    (-0.0, None, -0.0, 2.5),
    (np.float64(-0.0), np.float64(0.0), np.float64(1.5)),
    (np.float64(1.5), 1.5, 2.5),
)


def _large_envelope(negative_zero: bool = False) -> ResultEnvelope:
    """2,000 rows: repeating floats with None holes and zeros, a column of
    one value, repeating integers and text, and distinct floats."""
    rows = [
        (
            (i % 37) * 0.25 - 4.5,
            None if i % 7 == 0 else 0.0 if i % 5 == 0 else 1.0 / (1 + i % 13),
            1.0,
            i % 4,
            f"site {i % 9}",
            i / 3,
        )
        for i in range(2000)
    ]
    if negative_zero:
        rows[1500] = (-0.0, -0.0, *rows[1500][2:])
    return ResultEnvelope(
        "table",
        ("lat_deg", "pdop_p95", "coverage_fraction", "k", "note", "x_km"),
        tuple(rows),
        "h",
        "v",
    )


class _OracleCases:
    """A writer's bytes equal its oracle's on every kind of cell and shape."""

    write = oracle = None

    @pytest.mark.parametrize(
        "envelope",
        [table_envelope(), series_envelope(), matrix_envelope()],
        ids=["table", "series", "matrix"],
    )
    def test_fixture_envelopes(self, envelope):
        assert self.write(envelope) == self.oracle(envelope)

    @pytest.mark.parametrize("cell", _AWKWARD_CELLS, ids=repr)
    def test_every_cell_kind(self, cell):
        env = ResultEnvelope(
            "table",
            ("a_km", "note", "b"),
            ((cell, "x", 1.5), ("y", cell, cell), (cell, cell, None)),
            "h",
            "v",
        )
        assert self.write(env) == self.oracle(env)

    def test_all_cells_in_one_document(self):
        cells = _AWKWARD_CELLS
        rows = tuple(zip(cells, cells[1:] + cells[:1], cells[2:] + cells[:2]))
        env = ResultEnvelope("series", ("x", "y", "z"), rows, "h", "v")
        assert self.write(env) == self.oracle(env)

    @pytest.mark.parametrize("column", _MERGING_COLUMNS, ids=repr)
    def test_values_a_dict_merges(self, column):
        rows = tuple(zip(column, reversed(column)))
        env = ResultEnvelope("table", ("x", "y"), rows, "h", "v")
        assert self.write(env) == self.oracle(env)

    @pytest.mark.parametrize("negative_zero", [False, True], ids=["one-sign", "both-signs"])
    def test_large_document(self, negative_zero):
        env = _large_envelope(negative_zero)
        assert self.write(env) == self.oracle(env)

    def test_one_column(self):
        env = ResultEnvelope("table", ("x",), (("]",), (2,), ("[",)), "h", "v")
        assert self.write(env) == self.oracle(env)

    def test_one_row(self):
        env = ResultEnvelope("table", ("x", "y"), ((1, "],\n["),), "h", "v")
        assert self.write(env) == self.oracle(env)

    def test_zero_rows(self):
        env = ResultEnvelope("table", ("x", "y_db"), (), "h", "v")
        assert self.write(env) == self.oracle(env)


class TestJsonOracle(_OracleCases):
    """``to_json`` writes the bytes of the indenting stdlib encoder."""

    write, oracle = staticmethod(to_json), staticmethod(_oracle)

    @pytest.fixture(autouse=True)
    def _pinned_clock(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

    def test_matrix_with_an_axis_named_rows(self):
        env = ResultEnvelope(
            "matrix",
            ("rows", "altitude_km", "pdop_p95"),
            ((1, 600.0, 2.5), (2, 600.0, None)),
            "h",
            "v",
            axes={"rows": (), "altitude_km": (600.0,)},
        )
        assert to_json(env) == _oracle(env)


class TestCsvOracle(_OracleCases):
    """``to_csv`` writes the text of ``csv.writer`` over the raw rows."""

    write, oracle = staticmethod(to_csv), staticmethod(_csv_oracle)

    def test_non_finite_floats_written_by_repr(self):
        nan, inf = float("nan"), float("inf")
        env = ResultEnvelope(
            "table", ("x", "y"), ((nan, inf), (-inf, None), (nan, 1.0)), "h", "v"
        )
        assert to_csv(env) == "x,y\r\nnan,inf\r\n-inf,\r\nnan,1.0\r\n" == _csv_oracle(env)


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
            ("x", "y"),
            ((0.0, 1.0), (1.0, None), (2.0, 3.0)),
            "h",
            "v",
        )
        text = to_svg(env)
        polyline = [ln for ln in text.splitlines() if "<polyline" in ln][0]
        assert polyline.count(",") == 2  # two plotted points

    def test_empty_series_renders_placeholder(self):
        env = ResultEnvelope("series", ("x", "y"), (), "h", "v")
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


def _bare(kind: str, names: tuple, rows: tuple, axes: dict | None = None) -> ResultEnvelope:
    return ResultEnvelope(kind, names, rows, "h", "v", axes=axes)


#: Charts the report pins do not reach: (envelope, SHA-256 of its SVG).
_SVG_EDGES = {
    "series-no-plottable-point": (
        _bare("series", ("x", "y"), ((0.0, None), (None, 2.0))),
        "81e7ea98a37cc6f1d33b656e4e3479522d139e7801002fe1d58f658bd182894c",
    ),
    "series-none-x-and-y": (
        _bare(
            "series",
            ("altitude_km", "a_db", "b_db"),
            ((None, 1.0, 2.0), (500.0, None, 3.0), (900.0, 4.0, None), (1400.0, 5.5, 6.0)),
        ),
        "c4fcd200fce877faa1fd4e36fde34c4d19cbe556b525eacb599f545006cb0f1e",
    ),
    "series-single-point": (
        _bare("series", ("x", "y"), ((5.0, 2.0),)),
        "c1d0be50b6bce69c9a1567ca7718555558a3b440bb222c14950cc9ada6e44def",
    ),
    "matrix-none-cell-and-empty-row": (
        _bare(
            "matrix",
            ("requested_sats", "altitude_km", "coverage", "pdop_p95"),
            ((24, 600.0, 1.0, 5.2), (24, 800.0, 0.9, None), (48, 600.0, 1.0, 3.1)),
            axes={"requested_sats": (24, 48, 96), "altitude_km": (600.0, 800.0)},
        ),
        "240fef6d74e743d3e513c87596ce4cb8969cd76f0c5e2f93aa5ccd1989bc119c",
    ),
    "matrix-1x2": (
        _bare(
            "matrix",
            ("requested_sats", "altitude_km", "pdop_p95"),
            ((24, 600.0, 2.5), (24, 800.0, 3.5)),
            axes={"requested_sats": (24,), "altitude_km": (600.0, 800.0)},
        ),
        "1d448c8fb8329b6ffa27f5dbde895edc4a3f9363c47216f1661c3fee63671449",
    ),
}


@pytest.mark.parametrize("case", _SVG_EDGES)
def test_svg_edge_pins(case):
    envelope, digest = _SVG_EDGES[case]
    assert hashlib.sha256(to_svg(envelope).encode("utf-8")).hexdigest() == digest


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
