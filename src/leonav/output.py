"""Result envelopes and the CSV / JSON / SVG emitters.

Every report is wrapped in a ResultEnvelope carrying reproducibility
metadata (scenario hash, tool version, UTC timestamp) and per-column units.  CSV holds the
bare table (RFC 4180, unit-suffixed headers); JSON mirrors the envelope
verbatim; SVG renders a minimal dependency-free line chart (series) or
heatmap (matrix).

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
from operator import itemgetter
from typing import Any, Sequence


class EmitError(ValueError):
    """Unsupported format/shape combination or malformed envelope payload."""


@dataclass(frozen=True)
class Column:
    """One output column: name carries the unit suffix, unit the symbol."""

    name: str
    unit: str = ""


@dataclass(frozen=True)
class ResultEnvelope:
    """Self-describing result table.

    kind is "table" (plain rows), "series" (first column is the x axis),
    or "matrix" (rows are long-form cells with ``axes`` giving the two
    axis vectors for chart layout).
    """

    kind: str
    columns: tuple[Column, ...]
    rows: tuple[tuple, ...]
    scenario_hash: str
    tool_version: str
    axes: dict[str, tuple] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("table", "series", "matrix"):
            raise EmitError(f"envelope kind ({self.kind!r}) must be table, series, or matrix")
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise EmitError(
                    f"row {i} has {len(row)} fields, expected {width}"
                )
        if self.kind == "matrix" and not self.axes:
            raise EmitError("matrix envelopes require axes")


def utc_timestamp() -> str:
    """ISO-8601 UTC second timestamp; SOURCE_DATE_EPOCH pins it when set."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        seconds = int(epoch) if epoch else int(time.time())
    except ValueError:
        raise ValueError(f"SOURCE_DATE_EPOCH ({epoch!r}) must be an integer") from None
    return (
        datetime.fromtimestamp(seconds, tz=timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ")
    )


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
    row, and each column's unit follows from its name."""
    if not rows:
        raise EmitError("cannot build an envelope from zero rows")
    names = list(rows[0])
    values = itemgetter(*names) if len(names) > 1 else lambda row: (row[names[0]],)
    return ResultEnvelope(
        kind=kind,
        columns=tuple(Column(name, _column_unit(name)) for name in names),
        rows=tuple(map(values, rows)),
        scenario_hash=scenario_hash,
        tool_version=tool_version,
        axes=None if axes is None else {k: tuple(v) for k, v in axes.items()},
    )


def to_csv(envelope: ResultEnvelope) -> str:
    """RFC 4180 text: one unit-suffixed header row, then data rows.

    Undefined numeric cells (None) serialize as empty fields.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow([c.name for c in envelope.columns])
    for row in envelope.rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def to_json(envelope: ResultEnvelope) -> str:
    """The envelope itself plus its creation time, key-sorted; floats
    round-trip exactly.  Only this format carries a timestamp."""
    doc = {
        "kind": envelope.kind,
        "scenario_hash": envelope.scenario_hash,
        "tool_version": envelope.tool_version,
        "created_utc": utc_timestamp(),
        "columns": [c.name for c in envelope.columns],
        "units": {c.name: c.unit for c in envelope.columns if c.unit},
        "rows": [list(row) for row in envelope.rows],
    }
    if envelope.axes is not None:
        doc["axes"] = {k: list(v) for k, v in envelope.axes.items()}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering: hand-rolled, no external assets, deterministic formatting.

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 800.0, 480.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72.0, 24.0, 36.0, 56.0


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _series_svg(envelope: ResultEnvelope) -> str:
    names = [c.name for c in envelope.columns]
    x_name, y_names = names[0], names[1:]
    if not y_names:
        raise EmitError("series envelopes need at least one y column")
    rows = [r for r in envelope.rows if r[0] is not None]
    xs = [float(r[0]) for r in rows]
    series = {
        name: [
            (float(r[0]), float(r[i + 1])) for r in rows if r[i + 1] is not None
        ]
        for i, name in enumerate(y_names)
    }
    all_y = [y for pts in series.values() for _, y in pts]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>',
    ]
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" stroke="black"/>'
    )

    if xs and all_y:
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(all_y), max(all_y)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def px(x: float) -> float:
            return x0 + (x - x_lo) / (x_hi - x_lo) * (x1 - x0)

        def py(y: float) -> float:
            return y0 - (y - y_lo) / (y_hi - y_lo) * (y0 - y1)

        for t in _ticks(x_lo, x_hi):
            parts.append(
                f'<line x1="{_fmt(px(t))}" y1="{_fmt(y0)}" x2="{_fmt(px(t))}" '
                f'y2="{_fmt(y0 + 5)}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{_fmt(px(t))}" y="{_fmt(y0 + 20)}" font-size="12" '
                f'text-anchor="middle">{_fmt(t)}</text>'
            )
        for t in _ticks(y_lo, y_hi):
            parts.append(
                f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py(t))}" x2="{_fmt(x0)}" '
                f'y2="{_fmt(py(t))}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py(t) + 4)}" font-size="12" '
                f'text-anchor="end">{_fmt(t)}</text>'
            )
        for i, name in enumerate(y_names):
            pts = series[name]
            color = _PALETTE[i % len(_PALETTE)]
            if pts:
                coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
            parts.append(
                f'<text x="{_fmt(x1 - 4)}" y="{_fmt(y1 + 14 * (i + 1))}" font-size="12" '
                f'text-anchor="end" fill="{color}">{name}</text>'
            )
    else:
        parts.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_HEIGHT / 2)}" font-size="14" '
            f'text-anchor="middle">no data</text>'
        )

    parts.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(_HEIGHT - 12)}" font-size="13" '
        f'text-anchor="middle">{x_name}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt((y0 + y1) / 2)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt((y0 + y1) / 2)})">{" / ".join(y_names)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
    names = [c.name for c in envelope.columns]
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
    v_lo = min(finite) if finite else 0.0
    v_hi = max(finite) if finite else 1.0
    if v_hi == v_lo:
        v_hi = v_lo + 1.0

    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    cw = (x1 - x0) / len(col_vals)
    ch = (y0 - y1) / len(row_vals)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="white"/>',
    ]
    for i, rv in enumerate(row_vals):
        for j, cv in enumerate(col_vals):
            value = cell.get((rv, cv))
            color = "#cccccc" if value is None else _heat_color(
                (value - v_lo) / (v_hi - v_lo)
            )
            parts.append(
                f'<rect x="{_fmt(x0 + j * cw)}" y="{_fmt(y1 + i * ch)}" '
                f'width="{_fmt(cw)}" height="{_fmt(ch)}" fill="{color}" '
                f'stroke="white" stroke-width="0.5"/>'
            )
    for j, cv in enumerate(col_vals):
        parts.append(
            f'<text x="{_fmt(x0 + (j + 0.5) * cw)}" y="{_fmt(y0 + 18)}" font-size="12" '
            f'text-anchor="middle">{_fmt(float(cv))}</text>'
        )
    for i, rv in enumerate(row_vals):
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(y1 + (i + 0.5) * ch + 4)}" font-size="12" '
            f'text-anchor="end">{_fmt(float(rv))}</text>'
        )
    parts.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(_HEIGHT - 12)}" font-size="13" '
        f'text-anchor="middle">{col_name}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt((y0 + y1) / 2)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt((y0 + y1) / 2)})">{row_name}</text>'
    )
    parts.append(
        f'<text x="{_fmt(x1)}" y="{_fmt(y1 - 8)}" font-size="12" text-anchor="end">'
        f"{value_name}: {_fmt(v_lo)} (dark) to {_fmt(v_hi)} (bright)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def to_svg(envelope: ResultEnvelope) -> str:
    """Line chart for series, heatmap for matrix; tables are not drawable."""
    if envelope.kind == "series":
        return _series_svg(envelope)
    if envelope.kind == "matrix":
        return _matrix_svg(envelope)
    raise EmitError(
        f"svg output supports series and matrix results, not {envelope.kind!r}"
    )


_WRITERS = {"csv": to_csv, "json": to_json, "svg": to_svg}


def emit(envelope: ResultEnvelope, fmt: str, path: str | None = None) -> str:
    """Serializes an envelope and writes it to a path or stdout.

    Returns the serialized text (also when written to a file).
    """
    if fmt not in _WRITERS:
        raise EmitError(f"format ({fmt!r}) must be one of {sorted(_WRITERS)}")
    text = _WRITERS[fmt](envelope)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
