"""Result envelopes and the CSV / JSON / SVG emitters.

Every report is wrapped in a ResultEnvelope carrying reproducibility
metadata (scenario hash, tool version, UTC timestamp).  CSV holds the
bare table (RFC 4180, unit-suffixed headers); JSON mirrors the envelope
and adds each column's unit, read from its name; SVG renders a minimal
dependency-free line chart (series) or heatmap (matrix).

Output bytes are a pure function of (scenario, format, version): the
timestamp honors the SOURCE_DATE_EPOCH convention, and CSV/SVG carry no
timestamp at all.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, filterfalse
from math import isfinite
from operator import itemgetter, not_
from types import NoneType
from typing import Iterable, Iterator, Sequence


class EmitError(ValueError):
    """Unsupported format/shape combination or malformed envelope payload."""


@dataclass(frozen=True)
class ResultEnvelope:
    """Self-describing result table.

    kind is "table" (plain rows), "series" (first column is the x axis),
    or "matrix" (rows are long-form cells with ``axes`` giving the two
    axis vectors for chart layout).  Column names carry their unit
    suffix.  Every cell is a scalar: a string, number, bool or None.
    """

    kind: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    scenario_hash: str
    tool_version: str
    axes: dict[str, tuple] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("table", "series", "matrix"):
            raise EmitError(f"envelope kind ({self.kind!r}) must be table, series, or matrix")
        width = len(self.columns)
        if not width:
            raise EmitError("envelopes need at least one column")
        if set(map(len, self.rows)) - {width}:
            i, row = next((i, r) for i, r in enumerate(self.rows) if len(r) != width)
            raise EmitError(f"row {i} has {len(row)} fields, expected {width}")
        cell_types = set(map(type, chain.from_iterable(self.rows)))
        if any(issubclass(t, (list, tuple, dict)) for t in cell_types):
            raise EmitError("row cells must be scalars, not lists or objects")
        if self.kind == "matrix" and not self.axes:
            raise EmitError("matrix envelopes require axes")


def utc_timestamp() -> str:
    """ISO-8601 UTC second timestamp; SOURCE_DATE_EPOCH pins it when set."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        seconds = int(epoch) if epoch else int(time.time())
    except ValueError:
        raise ValueError(f"SOURCE_DATE_EPOCH ({epoch!r}) must be an integer") from None
    try:
        stamp = datetime.fromtimestamp(seconds, tz=timezone.utc)
    except (OverflowError, OSError, ValueError) as exc:
        raise ValueError(f"SOURCE_DATE_EPOCH ({epoch!r}) is out of range: {exc}") from None
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def _column_unit(name: str) -> str:
    """Unit symbol of a report column, read from its name: a suffix _deg,
    _km, _m or _w, or "_db" anywhere; text columns have none, and every
    other column is a pure number ("1")."""
    if name in ("canopy", "quantity", "note"):
        return ""
    if "_db" in name:
        return "dB"
    for suffix, unit in (("_deg", "deg"), ("_km", "km"), ("_m", "m"), ("_w", "W")):
        if name.endswith(suffix):
            return unit
    return "1"


def rows_envelope(
    kind: str,
    rows: Sequence[dict],
    scenario_hash: str,
    tool_version: str,
    axes: dict[str, Sequence] | None = None,
) -> ResultEnvelope:
    """Envelope from homogeneous dict rows; column order follows the first
    row."""
    if not rows:
        raise EmitError("cannot build an envelope from zero rows")
    names = list(rows[0])
    values = itemgetter(*names) if len(names) > 1 else lambda row: (row[names[0]],)
    return ResultEnvelope(
        kind=kind,
        columns=tuple(names),
        rows=tuple(map(values, rows)),
        scenario_hash=scenario_hash,
        tool_version=tool_version,
        axes=None if axes is None else {k: tuple(v) for k, v in axes.items()},
    )


#: What the C encoder writes for one scalar, as inside a document: it
#: refuses NaN, the infinities and types JSON lacks.
_encode_cell = json.JSONEncoder(allow_nan=False).encode


def _column_cells(column: tuple, json_cells: bool) -> Iterable:
    """The cells of one column in row order.

    A float column renders each distinct value once, as ``float.__repr__``,
    the text both the C JSON encoder and ``csv.writer`` write for it (None
    stays None without ``json_cells``).  A dict takes 0.0 and -0.0 for one
    key, so floats holding zeros of both signs render cell by cell.  With
    ``json_cells`` every other cell renders as ``_encode_cell`` writes it;
    without, ``csv.writer`` renders the rest.
    """
    kinds = set(map(type, column)) - {NoneType}
    if kinds == {float}:
        distinct = dict.fromkeys(column)
        if 0.0 not in distinct or not {"0.0", "-0.0"} <= set(map(repr, filter(not_, column))):
            distinct.pop(None, None)
            texts = dict(zip(distinct, map(float.__repr__, distinct)))
            if json_cells:
                for value in filterfalse(isfinite, distinct):
                    _encode_cell(value)  # raises the encoder's ValueError
            texts[None] = "null" if json_cells else None
            return map(texts.__getitem__, column)
    return map(_encode_cell, column) if json_cells else column


def _rendered_rows(rows: tuple[tuple, ...], json_cells: bool) -> Iterator[tuple]:
    """``rows`` with their cells rendered a column at a time (see
    ``_column_cells``), built one row at a time."""
    return zip(*(_column_cells(column, json_cells) for column in zip(*rows)))


def to_csv(envelope: ResultEnvelope) -> str:
    """RFC 4180 text: one unit-suffixed header row, then data rows.

    The csv module writes undefined numeric cells (None) as empty fields
    and floats by ``repr``.  Each column's distinct floats are rendered
    once, by that same ``repr``, and handed to the writer as text.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(envelope.columns)
    writer.writerows(_rendered_rows(envelope.rows, json_cells=False))
    return buf.getvalue()


def to_json(envelope: ResultEnvelope) -> str:
    """The envelope itself plus its creation time and column units,
    key-sorted; floats round-trip exactly.  Only this format carries a
    timestamp.

    The bytes are ``json.dumps(doc, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"``.  The head is encoded that way, with the rows
    left empty.  Each row cell is rendered as the C encoder writes it, each
    distinct float of a column once (``_column_cells``), and the rows are
    joined with the separators ``indent=2`` puts between two cells and
    between two rows, then spliced in at the top-level "rows" key.
    """
    doc = {
        "kind": envelope.kind,
        "scenario_hash": envelope.scenario_hash,
        "tool_version": envelope.tool_version,
        "created_utc": utc_timestamp(),
        "columns": list(envelope.columns),
        "units": {name: unit for name in envelope.columns if (unit := _column_unit(name))},
        "rows": [],
    }
    if envelope.axes is not None:
        doc["axes"] = {k: list(v) for k, v in envelope.axes.items()}
    head = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if not envelope.rows:
        return head
    rows = "\n    ],\n    [\n      ".join(
        map(",\n      ".join, _rendered_rows(envelope.rows, json_cells=True))
    )
    # Only a top-level key follows a newline and two spaces.
    return head.replace(
        '\n  "rows": []', '\n  "rows": [\n    [\n      ' + rows + "\n    ]\n  ]", 1
    )


# ---------------------------------------------------------------------------
# SVG rendering: hand-rolled, no external assets, deterministic formatting.

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 800.0, 480.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72.0, 24.0, 36.0, 56.0
#: The plot box: left and right x, bottom and top y (SVG y grows downward).
_X0, _X1 = _MARGIN_L, _WIDTH - _MARGIN_R
_Y0, _Y1 = _HEIGHT - _MARGIN_B, _MARGIN_T


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _text(
    x: float, y: float, body: str, anchor: str = "middle", size: int = 12, attrs: str = ""
) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
        f'text-anchor="{anchor}"{attrs}>{body}</text>'
    )


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="black"/>'
    )


def _page(body: list[str], x_title: str, y_title: str, *tail: str) -> str:
    """One chart page: white canvas, ``body``, both axis titles, ``tail``."""
    w, h, mid = _fmt(_WIDTH), _fmt(_HEIGHT), (_Y0 + _Y1) / 2
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        *body,
        _text((_X0 + _X1) / 2, _HEIGHT - 12, x_title, size=13),
        _text(16, mid, y_title, size=13, attrs=f' transform="rotate(-90 16 {_fmt(mid)})"'),
        *tail,
        "</svg>",
    ]) + "\n"


def _series_svg(envelope: ResultEnvelope) -> str:
    x_name, *y_names = envelope.columns
    if not y_names:
        raise EmitError("series envelopes need at least one y column")
    rows = [r for r in envelope.rows if r[0] is not None]
    series = [
        [(float(r[0]), float(r[i])) for r in rows if r[i] is not None]
        for i in range(1, len(envelope.columns))
    ]
    all_y = [y for pts in series for _, y in pts]
    body = [_line(_X0, _Y0, _X1, _Y0), _line(_X0, _Y0, _X0, _Y1)]
    y_title = " / ".join(y_names)
    if not all_y:
        body.append(_text(_WIDTH / 2, _HEIGHT / 2, "no data", size=14))
        return _page(body, x_name, y_title)

    xs = [float(r[0]) for r in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _X0 + (x - x_lo) / (x_hi - x_lo) * (_X1 - _X0)

    def py(y: float) -> float:
        return _Y0 - (y - y_lo) / (y_hi - y_lo) * (_Y0 - _Y1)

    for t in _ticks(x_lo, x_hi):
        body += [_line(px(t), _Y0, px(t), _Y0 + 5), _text(px(t), _Y0 + 20, _fmt(t))]
    for t in _ticks(y_lo, y_hi):
        body += [_line(_X0 - 5, py(t), _X0, py(t)), _text(_X0 - 8, py(t) + 4, _fmt(t), "end")]
    for i, (name, pts) in enumerate(zip(y_names, series)):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
            body.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        body.append(_text(_X1 - 4, _Y1 + 14 * (i + 1), name, "end", attrs=f' fill="{color}"'))
    return _page(body, x_name, y_title)


def _heat_color(frac: float) -> str:
    """Five-stop dark-to-bright color ramp on [0, 1]."""
    stops = (
        (0.267, 0.005, 0.329),
        (0.229, 0.322, 0.546),
        (0.128, 0.567, 0.551),
        (0.369, 0.789, 0.383),
        (0.993, 0.906, 0.144),
    )
    frac = min(1.0, max(0.0, frac))
    scaled = frac * (len(stops) - 1)
    i = min(int(scaled), len(stops) - 2)
    t = scaled - i
    rgb = tuple(
        round(255 * ((1.0 - t) * stops[i][c] + t * stops[i + 1][c])) for c in range(3)
    )
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def _matrix_svg(envelope: ResultEnvelope) -> str:
    axes = envelope.axes or {}
    names = envelope.columns
    if len(axes) != 2:
        raise EmitError("matrix envelopes need exactly two axes")
    (row_name, row_vals), (col_name, col_vals) = axes.items()
    candidates = [
        n for n in names
        if n not in (row_name, col_name) and not n.startswith("coverage")
    ]
    if not candidates:
        raise EmitError("matrix envelopes need a value column")
    value_name = candidates[-1]  # by convention the trailing metric column
    idx = {n: i for i, n in enumerate(names)}
    cell = {
        (r[idx[row_name]], r[idx[col_name]]): r[idx[value_name]]
        for r in envelope.rows
    }
    finite = [v for v in cell.values() if v is not None]
    v_lo, v_hi = (min(finite), max(finite)) if finite else (0.0, 0.0)
    span = (v_hi - v_lo) or 1.0  # one value widens the colour scale, not the legend

    cw = (_X1 - _X0) / len(col_vals)
    ch = (_Y0 - _Y1) / len(row_vals)
    body = []
    for i, rv in enumerate(row_vals):
        for j, cv in enumerate(col_vals):
            value = cell.get((rv, cv))
            color = "#cccccc" if value is None else _heat_color(
                (value - v_lo) / span
            )
            body.append(
                f'<rect x="{_fmt(_X0 + j * cw)}" y="{_fmt(_Y1 + i * ch)}" '
                f'width="{_fmt(cw)}" height="{_fmt(ch)}" fill="{color}" '
                f'stroke="white" stroke-width="0.5"/>'
            )
    body += [
        _text(_X0 + (j + 0.5) * cw, _Y0 + 18, _fmt(float(cv))) for j, cv in enumerate(col_vals)
    ]
    body += [
        _text(_X0 - 8, _Y1 + (i + 0.5) * ch + 4, _fmt(float(rv)), "end")
        for i, rv in enumerate(row_vals)
    ]
    legend = f"{value_name}: " + (
        f"{_fmt(v_lo)} (dark) to {_fmt(v_hi)} (bright)" if finite else "no data"
    )
    return _page(body, col_name, row_name, _text(_X1, _Y1 - 8, legend, "end"))


_SVG_WRITERS = {"series": _series_svg, "matrix": _matrix_svg}


def to_svg(envelope: ResultEnvelope) -> str:
    """Line chart for series, heatmap for matrix; tables are not drawable."""
    check_format("svg", envelope.kind)
    return _SVG_WRITERS[envelope.kind](envelope)


_WRITERS = {"csv": to_csv, "json": to_json, "svg": to_svg}


def check_format(fmt: str, kind: str) -> None:
    """Raises EmitError unless ``fmt`` can write an envelope of ``kind``;
    callers may check before they compute the rows."""
    if fmt not in _WRITERS:
        raise EmitError(f"format ({fmt!r}) must be one of {sorted(_WRITERS)}")
    if fmt == "svg" and kind not in _SVG_WRITERS:
        raise EmitError(f"svg output supports series and matrix results, not {kind!r}")


def emit(envelope: ResultEnvelope, fmt: str, path: str | None = None) -> str:
    """Serializes an envelope and writes it to a path or stdout.

    Returns the serialized text (also when written to a file).
    """
    check_format(fmt, envelope.kind)
    text = _WRITERS[fmt](envelope)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
