"""Trade-study reports for LEO navigation constellations: PDOP maps,
size/altitude sweeps, sizing searches, link budgets, jamming margins,
and payload power.

Subcommands map one-to-one onto the trade-study reports:

    dop-map    per-site percentile PDOP of the scenario constellation
    dop-sweep  percentile PDOP over the size x altitude grid
    optimize   smallest Walker size meeting a PDOP target at an altitude
    baseline   percentile PDOP of the GPS-like MEO reference
    pathloss   slant range and free-space path loss versus altitude
    footprint  LEO-over-MEO footprint gain versus altitude per mask
    jammer     penetration counts and jammer figures per margin
    power      heritage-to-LEO payload power budget lines

Exit codes: 0 success, 1 validation error (flags, scenario file, output
destination), 2 computation error (e.g. no coverage).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import __version__
from .geometry import GeometryError
from .output import Column, EmitError, emit, make_envelope
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_hash
from . import tradestudy


class _Parser(argparse.ArgumentParser):
    """argparse with validation failures mapped to exit code 1."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """Thread count from --threads or LEO_NAV_THREADS: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} must be an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="scenario JSON file")
    parser.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json", "svg"), default="csv",
        help="output format (default csv)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )
    parser.add_argument(
        "--threads", type=_positive_int, default=None, metavar="N",
        help="worker thread cap (default: LEO_NAV_THREADS or 1); results "
             "do not depend on it",
    )
    parser.add_argument(
        "--lenient", action="store_true",
        help="report unknown scenario keys instead of rejecting them",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="leonav", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"leonav {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("dop-map", "per-site percentile PDOP of the scenario constellation"),
        ("dop-sweep", "percentile PDOP over the size x altitude grid"),
        ("optimize", "smallest Walker size meeting a PDOP target"),
        ("baseline", "percentile PDOP of the GPS-like MEO reference"),
        ("pathloss", "path loss versus altitude"),
        ("footprint", "footprint gain versus altitude"),
        ("jammer", "penetration and jammer table"),
        ("power", "payload power budget"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        if name == "optimize":
            p.add_argument(
                "--altitude-km", type=float, default=None,
                help="search altitude (default: scenario walker altitude)",
            )
            p.add_argument(
                "--target-pdop", type=float, default=None,
                help="PDOP target (default: the GPS-like baseline value)",
            )
            p.add_argument(
                "--ceiling", type=int, default=1000,
                help="largest size the search may try (default 1000)",
            )
    return parser


def _threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return args.threads
    try:
        return _positive_int(os.environ.get("LEO_NAV_THREADS", "1"))
    except argparse.ArgumentTypeError as exc:
        raise ScenarioError(f"LEO_NAV_THREADS: {exc}") from None


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if args.config is None:
        text = "{}"
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read config {args.config!r}: {exc}") from None
    return parse_scenario(text, strict=not args.lenient)


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _percentile_name(scenario: Scenario) -> str:
    return f"pdop_p{scenario.sweep.percentile:g}"


def _cmd_dop_map(args, scenario: Scenario):
    _say(args, f"dop-map: {scenario.walker.total_sats} sats at "
               f"{scenario.walker.altitude_km:g} km")
    rows = tradestudy.dop_map(scenario)
    pname = _percentile_name(scenario)
    columns = [
        Column("lat_deg", "deg"), Column("lon_deg", "deg"), Column("weight", "1"),
        Column(pname, "1"), Column("coverage_fraction", "1"),
    ]
    data = [
        (r["lat_deg"], r["lon_deg"], r["weight"], r["pdop"], r["coverage_fraction"])
        for r in rows
    ]
    return make_envelope("table", columns, data, scenario_hash(scenario), __version__)


def _cmd_dop_sweep(args, scenario: Scenario):
    threads = _threads(args)
    _say(args, f"dop-sweep: {len(scenario.sweep.sizes)} sizes x "
               f"{len(scenario.sweep.altitudes_km)} altitudes, {threads} thread(s)")
    result = tradestudy.pdop_sweep(scenario, threads=threads)
    pname = _percentile_name(scenario)
    columns = [
        Column("requested_sats", "1"), Column("total_sats", "1"),
        Column("planes", "1"), Column("altitude_km", "km"),
        Column(pname, "1"), Column("coverage_fraction", "1"),
    ]
    data = [
        (c.requested_sats, c.total_sats, c.planes, c.altitude_km, c.pdop, c.coverage)
        for c in result.cells
    ]
    axes = {
        "requested_sats": list(result.sizes),
        "altitude_km": list(result.altitudes_km),
    }
    return make_envelope(
        "matrix", columns, data, result.scenario_hash, result.version, axes
    )


def _cmd_optimize(args, scenario: Scenario):
    altitude = args.altitude_km if args.altitude_km is not None else scenario.walker.altitude_km
    if args.target_pdop is not None:
        target = args.target_pdop
    else:
        _say(args, "optimize: computing GPS-like baseline target")
        target = tradestudy.gps_baseline(scenario).value
    _say(args, f"optimize: altitude {altitude:g} km, target PDOP {target:.4g}")
    result = tradestudy.min_constellation_size(
        altitude, target, scenario, ceiling=args.ceiling
    )
    columns = [
        Column("altitude_km", "km"), Column("target_pdop", "1"),
        Column("total_sats", "1"), Column("planes", "1"), Column("phasing", "1"),
        Column("achieved_pdop", "1"), Column("coverage_fraction", "1"),
        Column("reachable", "1"), Column("evaluations", "1"),
    ]
    data = [(
        result.altitude_km, result.target_pdop, result.total_sats, result.planes,
        result.phasing, result.achieved_pdop, result.coverage,
        result.reachable, result.evaluations,
    )]
    return make_envelope("table", columns, data, scenario_hash(scenario), __version__)


def _cmd_baseline(args, scenario: Scenario):
    _say(args, "baseline: GPS-like 24/6/1 at 20182 km")
    result = tradestudy.gps_baseline(scenario)
    columns = [
        Column("total_sats", "1"), Column("planes", "1"),
        Column("altitude_km", "km"), Column(_percentile_name(scenario), "1"),
        Column("coverage_fraction", "1"),
    ]
    spec = tradestudy.GPS_LIKE
    data = [(spec.total_sats, spec.planes, spec.altitude_km, result.value, result.coverage)]
    return make_envelope("table", columns, data, scenario_hash(scenario), __version__)


def _cmd_pathloss(args, scenario: Scenario):
    rows = tradestudy.pathloss_curve(scenario)
    columns = [
        Column("altitude_km", "km"), Column("slant_range_km", "km"),
        Column("fspl_db", "dB"),
    ]
    data = [(r["altitude_km"], r["slant_range_km"], r["fspl_db"]) for r in rows]
    return make_envelope("series", columns, data, scenario_hash(scenario), __version__)


def _cmd_footprint(args, scenario: Scenario):
    rows = tradestudy.footprint_curve(scenario)
    names = list(rows[0].keys())
    columns = [Column("altitude_km", "km")] + [
        Column(name, "dB") for name in names[1:]
    ]
    data = [tuple(r[name] for name in names) for r in rows]
    return make_envelope("series", columns, data, scenario_hash(scenario), __version__)


def _cmd_jammer(args, scenario: Scenario):
    rows = tradestudy.jammer_table(scenario)
    names = list(rows[0].keys())
    units = {"margin_db": "dB", "jammer_radius_m": "m", "jammer_power_w": "W"}
    columns = [
        Column(name, units.get(name, "1" if name != "canopy" else ""))
        for name in names
    ]
    data = [tuple(r[name] for name in names) for r in rows]
    return make_envelope("table", columns, data, scenario_hash(scenario), __version__)


def _cmd_power(args, scenario: Scenario):
    rows = tradestudy.power_report(scenario)
    columns = [
        Column("quantity", ""), Column("low_w", "W"), Column("high_w", "W"),
        Column("note", ""),
    ]
    data = [(r["quantity"], r["low_w"], r["high_w"], r["note"]) for r in rows]
    return make_envelope("table", columns, data, scenario_hash(scenario), __version__)


_COMMANDS = {
    "dop-map": _cmd_dop_map,
    "dop-sweep": _cmd_dop_sweep,
    "optimize": _cmd_optimize,
    "baseline": _cmd_baseline,
    "pathloss": _cmd_pathloss,
    "footprint": _cmd_footprint,
    "jammer": _cmd_jammer,
    "power": _cmd_power,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        scenario = _load_scenario(args)
        envelope = _COMMANDS[args.command](args, scenario)
        emit(envelope, args.format, args.out)
    except (ScenarioError, EmitError, ValueError) as exc:
        print(f"leonav: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"leonav: error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"leonav: computation failed: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        _say(args, f"wrote {args.out}")
    return 0


def run() -> None:
    sys.exit(main())
