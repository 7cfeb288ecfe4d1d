"""The benchmark's workloads: one leonav report each, its inputs per seed,
and the invariants its output must meet.

Seed ``n`` selects variant ``n % 4`` of a workload; seed 0 is the workload
as documented in README.md.  Variants change the inputs only in ways that
leave the amount of work unchanged (the percentile, the Walker phasing,
or a PDOP target that keeps every pass/fail decision of the sizing
search), so seed-to-seed spread in the timings comes from the machine
and not from the inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Table:
    """A report parsed back into column names and typed rows."""

    columns: list[str]
    rows: list[list]
    meta: dict = field(default_factory=dict)


def _cell(text: str):
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_report(data: bytes, fmt: str) -> Table:
    text = data.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        meta = {k: v for k, v in doc.items() if k not in ("columns", "rows")}
        return Table(doc["columns"], doc["rows"], meta)
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    return Table(header, [[_cell(c) for c in row] for row in reader])


def same_value(a, b, rel: float = 1e-9) -> bool:
    """Floats agree to ``rel`` relative; everything else exactly."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_value(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_value(x, y, rel) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def compare(got: Table, ref: Table) -> list[str]:
    """Differences between a report and its reference."""
    if got.columns != ref.columns:
        return [f"columns {got.columns} != reference {ref.columns}"]
    if len(got.rows) != len(ref.rows):
        return [f"{len(got.rows)} rows != reference {len(ref.rows)}"]
    problems = [
        f"row {i}: {g} != reference {r}"
        for i, (g, r) in enumerate(zip(got.rows, ref.rows))
        if not same_value(g, r)
    ]
    if not same_value(got.meta, ref.meta):
        problems.append(f"envelope {got.meta} != reference {ref.meta}")
    return problems[:5]


def _in_unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def _positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]
    fmt: str
    scenario: dict
    variants: tuple[dict, ...]
    invariants: Callable[[Table, dict], list[str]]

    def variant(self, seed: int) -> dict:
        return self.variants[seed % len(self.variants)]

    def config(self, seed: int) -> dict:
        """Scenario file contents for a seed."""
        doc = {k: dict(v) for k, v in self.scenario.items()}
        for section, values in self.variant(seed).get("scenario", {}).items():
            doc.setdefault(section, {}).update(values)
        return doc

    def argv(self, seed: int, config_path: str, out_path: str) -> list[str]:
        return [
            *self.command, *self.variant(seed).get("args", ()),
            "--config", config_path, "--out", out_path, "--format", self.fmt,
            "--quiet",
        ]

    def check(self, table: Table, seed: int) -> list[str]:
        return self.invariants(table, self.config(seed))


def _pname(config: dict) -> str:
    return f"pdop_p{config['sweep']['percentile']:g}"


def _baseline_invariants(t: Table, config: dict) -> list[str]:
    problems = []
    if t.columns != ["total_sats", "planes", "altitude_km", _pname(config),
                     "coverage_fraction"]:
        problems.append(f"columns {t.columns}")
    elif len(t.rows) != 1:
        problems.append(f"{len(t.rows)} rows, expected 1")
    else:
        sats, planes, alt, pdop, cov = t.rows[0]
        if (sats, planes, alt) != (24, 6, 20182.0):
            problems.append(f"design {(sats, planes, alt)} is not GPS-like 24/6 @ 20182 km")
        if not _positive(pdop) or not _in_unit(cov):
            problems.append(f"pdop {pdop!r} or coverage {cov!r} out of range")
    return problems


def _sweep_invariants(t: Table, config: dict) -> list[str]:
    sizes = config["sweep"]["sizes"]
    alts = config["sweep"]["altitudes_km"]
    if t.columns != ["requested_sats", "total_sats", "planes", "altitude_km",
                     _pname(config), "coverage_fraction"]:
        return [f"columns {t.columns}"]
    if len(t.rows) != len(sizes) * len(alts):
        return [f"{len(t.rows)} rows, expected {len(sizes) * len(alts)}"]
    problems = []
    points = [(s, float(a)) for s in sizes for a in alts]
    for row, (size, alt) in zip(t.rows, points):
        req, total, planes, altitude, pdop, cov = row
        if (req, altitude) != (size, alt):
            problems.append(f"cell {(req, altitude)} out of order, expected {(size, alt)}")
        if not (isinstance(total, int) and isinstance(planes, int) and total % planes == 0):
            problems.append(f"cell {(req, altitude)}: {planes} planes do not divide {total}")
        if not _in_unit(cov) or (pdop is None) != (cov == 0.0):
            problems.append(f"cell {(req, altitude)}: coverage {cov!r} with pdop {pdop!r}")
        elif pdop is not None and not _positive(pdop):
            problems.append(f"cell {(req, altitude)}: pdop {pdop!r}")
    return problems


def _sizing_invariants(t: Table, config: dict) -> list[str]:
    if t.columns != ["altitude_km", "target_pdop", "total_sats", "planes", "phasing",
                     "achieved_pdop", "coverage_fraction", "reachable", "evaluations"]:
        return [f"columns {t.columns}"]
    if len(t.rows) != 1:
        return [f"{len(t.rows)} rows, expected 1"]
    alt, target, total, planes, _phasing, achieved, cov, reachable, evals = t.rows[0]
    problems = []
    if reachable != "True" or cov != 1.0:
        problems.append(f"reachable {reachable!r} with coverage {cov!r}")
    if not (_positive(achieved) and achieved <= target):
        problems.append(f"achieved pdop {achieved!r} misses its target {target!r}")
    if not (isinstance(total, int) and isinstance(planes, int) and total % planes == 0):
        problems.append(f"{planes} planes do not divide {total}")
    if not (isinstance(evals, int) and evals >= 1):
        problems.append(f"evaluations {evals!r}")
    return problems


def _map_invariants(t: Table, config: dict) -> list[str]:
    if t.columns != ["lat_deg", "lon_deg", "weight", _pname(config), "coverage_fraction"]:
        return [f"columns {t.columns}"]
    n_lat = max(1, round(math.sqrt(config["grid"]["resolution"] / 2.0)))
    if len(t.rows) != 2 * n_lat * n_lat:
        return [f"{len(t.rows)} rows, expected {2 * n_lat * n_lat}"]
    problems = []
    weight = 0.0
    for i, (lat, lon, w, pdop, cov) in enumerate(t.rows):
        weight += w
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            problems.append(f"site {i}: ({lat!r}, {lon!r}) off the globe")
        if not _in_unit(cov) or (pdop is None) != (cov == 0.0):
            problems.append(f"site {i}: coverage {cov!r} with pdop {pdop!r}")
        elif pdop is not None and not _positive(pdop):
            problems.append(f"site {i}: pdop {pdop!r}")
    if abs(weight - 1.0) > 1e-9:
        problems.append(f"site weights sum to {weight!r}")
    return problems[:5]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="meo-baseline",
            why="GPS-like 24/6/1, one dense evaluation (34% of site-satellite pairs "
                "visible): per-sample normal matrix, conditioning and inverse dominate",
            command=("baseline",),
            fmt="csv",
            scenario={
                "grid": {"scheme": "fibonacci", "resolution": 500},
                "window": {"duration_s": 21600.0, "step_s": 120.0},
            },
            variants=tuple(
                {"scenario": {"sweep": {"percentile": p}}} for p in (95.0, 90.0, 97.5, 99.0)
            ),
            invariants=_baseline_invariants,
        ),
        Workload(
            name="leo-sweep",
            why="nine independent sparse LEO evaluations (~4% visible) on two worker "
                "threads; the 200 @ 600 km cell runs the undefined-sample path",
            command=("dop-sweep", "--threads", "2"),
            fmt="csv",
            scenario={
                "grid": {"scheme": "fibonacci", "resolution": 200},
                "window": {"duration_s": 3600.0, "step_s": 240.0},
                "sweep": {"sizes": [200, 300, 400], "altitudes_km": [600.0, 900.0, 1200.0]},
            },
            variants=tuple(
                {"scenario": {"sweep": {"percentile": p}, "walker": {"phasing": f}}}
                for p, f in ((95.0, 1), (90.0, 2), (97.5, 3), (99.0, 0))
            ),
            invariants=_sweep_invariants,
        ),
        Workload(
            name="sizing-search",
            why="a chain of 14 dependent evaluations (24-384 satellites) through "
                "doubling, bisection and the non-monotone fallback scan",
            command=("optimize", "--threads", "2", "--altitude-km", "1200"),
            fmt="csv",
            scenario={
                "grid": {"scheme": "fibonacci", "resolution": 200},
                "window": {"duration_s": 1920.0, "step_s": 240.0},
            },
            # Every target lies between the worst passing p95 (2.619, at 198
            # satellites) and the best failing one (2.735, at 210), so each
            # evaluated size keeps its outcome and the search its path.
            variants=tuple(
                {"args": ("--target-pdop", f"{t:g}")} for t in (2.68, 2.63, 2.65, 2.72)
            ),
            invariants=_sizing_invariants,
        ),
        Workload(
            name="dop-map-fine",
            why="300 @ 900 km on 5,000 lat/lon sites and 3 epochs: wide site axis, "
                "the only workload whose memory and per-site percentiles show",
            command=("dop-map",),
            fmt="json",
            scenario={
                "grid": {"scheme": "latlon", "resolution": 5000},
                "window": {"duration_s": 540.0, "step_s": 180.0},
            },
            variants=tuple(
                {"scenario": {"sweep": {"percentile": p}, "walker": {"phasing": f}}}
                for p, f in ((95.0, 1), (90.0, 2), (97.5, 3), (99.0, 0))
            ),
            invariants=_map_invariants,
        ),
    )
}
