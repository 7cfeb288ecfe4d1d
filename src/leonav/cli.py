"""Trade-study reports for LEO navigation constellations: PDOP maps,
size/altitude sweeps, sizing searches, link budgets, jamming margins,
and payload power.

Each subcommand is one report; ``_REPORTS`` lists them with their help.

Exit codes: 0 success, 1 validation error (flags, scenario file, output
destination) or a dead dop-sweep worker, 2 computation error (e.g. no
coverage).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, NamedTuple, Sequence

from . import __version__
from .geometry import GeometryError
from .output import ResultEnvelope, check_format, emit, rows_envelope
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_hash
from .schema import ALTITUDE, _check
from . import tradestudy


class _Parser(argparse.ArgumentParser):
    """argparse with validation failures mapped to exit code 1."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """The --threads value: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} must be an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if args.config is None:
        text = "{}"
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read config {args.config!r}: {exc}") from None
    return parse_scenario(text, strict=not args.lenient)


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _row(record, **renamed: str) -> dict:
    """A result record's fields as one report row, some keys renamed."""
    return {renamed.get(k, k): v for k, v in dataclasses.asdict(record).items()}


# Row producers look tradestudy functions up at call time, so that a
# caller may replace the module attribute (as a tracing harness does).

def _dop_map_rows(args, scenario: Scenario) -> list[dict]:
    spec = scenario.walker.design(scenario.walker.total_sats, scenario.walker.altitude_km)
    _say(args, f"dop-map: Walker {spec.total_sats}/{spec.planes}/{spec.phasing} "
               f"at {spec.altitude_km:g} km")
    return tradestudy.dop_map(scenario)


def _dop_sweep_rows(args, scenario: Scenario) -> list[dict]:
    _say(args, f"dop-sweep: {len(scenario.sweep.sizes)} sizes x "
               f"{len(scenario.sweep.altitudes_km)} altitudes, "
               f"{tradestudy.sweep_processes(scenario, args.threads)} process(es)")
    result = tradestudy.pdop_sweep(scenario, threads=args.threads)
    pdop = tradestudy.pdop_column(scenario)
    return [_row(c, pdop=pdop, coverage="coverage_fraction") for c in result]


def _optimize_rows(args, scenario: Scenario) -> list[dict]:
    altitude = args.altitude_km if args.altitude_km is not None else scenario.walker.altitude_km
    _check(ALTITUDE, **{"--altitude-km": altitude})  # the walker.altitude_km rule
    if args.target_pdop is not None:
        target = args.target_pdop
    else:
        _say(args, "optimize: computing GPS-like baseline target")
        target = tradestudy.gps_baseline(scenario).value
    _say(args, f"optimize: altitude {altitude:g} km, target PDOP {target:.4g}")
    result = tradestudy.min_constellation_size(
        altitude, target, scenario, ceiling=args.ceiling
    )
    return [_row(result, coverage="coverage_fraction")]


def _baseline_rows(args, scenario: Scenario) -> list[dict]:
    spec = tradestudy.GPS_LIKE
    _say(args, f"baseline: GPS-like {spec.total_sats}/{spec.planes}/{spec.phasing} "
               f"at {spec.altitude_km:g} km")
    result = tradestudy.gps_baseline(scenario)
    return [{
        "total_sats": spec.total_sats, "planes": spec.planes, "altitude_km": spec.altitude_km,
        tradestudy.pdop_column(scenario): result.value, "coverage_fraction": result.coverage,
    }]


class _Report(NamedTuple):
    help: str
    kind: str  # envelope kind: table, series or matrix
    rows: Callable[[argparse.Namespace, Scenario], list[dict]]


#: Every subcommand, in help order.
_REPORTS = {
    "dop-map": _Report("per-site percentile PDOP of the scenario constellation",
                       "table", _dop_map_rows),
    "dop-sweep": _Report("percentile PDOP over the size x altitude grid",
                         "matrix", _dop_sweep_rows),
    "optimize": _Report("smallest Walker size meeting a PDOP target at an altitude",
                        "table", _optimize_rows),
    "baseline": _Report("percentile PDOP of the GPS-like MEO reference",
                        "table", _baseline_rows),
    "pathloss": _Report("slant range and free-space path loss versus altitude",
                        "series", lambda _, s: tradestudy.pathloss_curve(s)),
    "footprint": _Report("LEO-over-MEO footprint gain versus altitude per mask",
                         "series", lambda _, s: tradestudy.footprint_curve(s)),
    "jammer": _Report("penetration counts and jammer figures per margin",
                      "table", lambda _, s: tradestudy.jammer_table(s)),
    "power": _Report("heritage-to-LEO payload power budget lines",
                     "table", lambda _, s: tradestudy.power_report(s)),
}


def _envelope(args: argparse.Namespace, scenario: Scenario) -> ResultEnvelope:
    """The subcommand's rows, stamped with the scenario hash and version.
    A format that cannot write the report fails before any row is computed."""
    report = _REPORTS[args.command]
    check_format(args.format, report.kind)
    sweep = scenario.sweep
    axes = None
    if report.kind == "matrix":
        axes = {"requested_sats": sweep.sizes, "altitude_km": sweep.altitudes_km}
    rows = report.rows(args, scenario)
    return rows_envelope(report.kind, rows, scenario_hash(scenario), __version__, axes)


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
        "--threads", type=_positive_int, default=1, metavar="N",
        help="worker process cap for dop-sweep's cells, also capped by the CPUs "
             "(default %(default)s); other reports run in one process; "
             "results do not depend on it",
    )
    parser.add_argument(
        "--lenient", action="store_true",
        help="report unknown scenario keys instead of rejecting them",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="leonav", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"leonav {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, report in _REPORTS.items():
        p = sub.add_parser(name, help=report.help)
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
                help="largest size the search may try (default %(default)s)",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        scenario = _load_scenario(args)
        emit(_envelope(args, scenario), args.format, args.out)
    except (ValueError, OSError) as exc:  # ScenarioError and EmitError included
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


if __name__ == "__main__":
    run()
