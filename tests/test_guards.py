"""Every scalar argument guard of the library against its rule.

Each guard lets through the values its rule accepts and rejects the rest
with a ``ValueError`` that starts with the argument's name.  A value let
through may still fail further on (a count past the largest float cannot
become one, and the largest float overflows a power); the table pins only
what the guard itself decides.  The values are those that each guard
accepted and rejected when it was written by hand, so a rule that moves one
must change this table on purpose.  Since then the finite rules reject an
integer past the largest float, and the sizing altitude takes the
``ALTITUDE`` rule of the altitude fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np
import pytest

from leonav import cli
from leonav.geometry import (
    GroundGrid,
    TimeWindow,
    _site_percentiles,
    pdop_samples,
    percentile_pdop,
    weighted_percentile,
)
from leonav.orbits import EarthModel, WalkerConfig, default_planes
from leonav.payload import (
    gnss_equivalent_power_w,
    leo_payload_power_w,
    per_signal_bus_power_w,
    signal_generation_w,
)
from leonav.rflink import (
    JammerCalibration,
    MaterialLossTable,
    coverage_half_angle_rad,
    fspl_db,
    jammer_effective_radius_m,
    jammer_power_for_radius_w,
    penetration_report,
    slant_range_km,
)
from leonav.scenario import parse_scenario
from leonav.schema import MAX_SATS
from leonav.tradestudy import GPS_LIKE, min_constellation_size, sweep_processes

NAN, INF = math.nan, math.inf
BIG = 10**5000  # too many digits for the interpreter to print
HUGE = 10**400  # printable, but past the largest float
TINIEST = 5e-324  # the smallest positive float
FLOAT_MAX = sys.float_info.max
R = 6378.137
# One site, one epoch: every engine call below takes a few milliseconds.
SCENARIO = parse_scenario(json.dumps({
    "grid": {"resolution": 1}, "window": {"duration_s": 600.0, "step_s": 600.0},
}))
GRID = GroundGrid.fibonacci(4)
WINDOW = TimeWindow(duration_s=600.0, step_s=600.0)
EARTH = EarthModel()


def _optimize_altitude(value: float):
    args = argparse.Namespace(altitude_km=value, target_pdop=3.0, ceiling=1, quiet=True)
    return cli._optimize_rows(args, SCENARIO)


#: (guard, argument, call on the value, values let through, values rejected)
GUARDS = [
    ("GroundGrid.fibonacci", "n_sites", GroundGrid.fibonacci,
     [1, INF, NAN, BIG], [0, -INF, -BIG]),
    ("GroundGrid.latlon", "n_sites", GroundGrid.latlon,
     [1, INF, NAN, BIG], [0, -INF, -BIG]),
    ("default_planes", "total_sats", default_planes,
     [1, INF, NAN, BIG], [0, -INF, -BIG]),
    ("sweep_processes", "threads", lambda v: sweep_processes(SCENARIO, v),
     [1, INF, NAN, BIG], [0, -INF, -BIG]),
    ("WalkerConfig.design", "total_sats", lambda v: WalkerConfig().design(v, 900.0),
     [1, MAX_SATS], [0, MAX_SATS + 1, NAN, INF, -INF, BIG, -BIG]),
    ("min_constellation_size ceiling", "ceiling",
     lambda v: min_constellation_size(900.0, 1e9, SCENARIO, ceiling=v),
     [1, MAX_SATS], [0, MAX_SATS + 1, NAN, INF, -INF, BIG, -BIG]),
    ("min_constellation_size altitude", "altitude_km",
     lambda v: min_constellation_size(v, 3.0, SCENARIO, ceiling=1),
     [1.0, 1e6], [math.nextafter(1.0, 0.0), math.nextafter(1e6, INF), 0.0, NAN, INF, -INF,
                  HUGE, BIG, -BIG]),
    ("min_constellation_size target", "target_pdop",
     lambda v: min_constellation_size(900.0, v, SCENARIO, ceiling=1),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("--altitude-km", "--altitude-km", _optimize_altitude,
     [1.0, 1e6], [math.nextafter(1.0, 0.0), math.nextafter(1e6, INF), NAN, INF, -INF, BIG, -BIG]),
    ("pdop_samples", "mask_deg",
     lambda v: pdop_samples(GPS_LIKE, GRID, WINDOW, v, EARTH, receive=lambda: None),
     [0.0, math.nextafter(90.0, 0.0)], [-TINIEST, 90.0, NAN, INF, -INF, BIG, -BIG]),
    ("weighted_percentile", "percentile",
     lambda v: weighted_percentile(np.ones((1, 1)), np.ones(1), v),
     [TINIEST, 100.0], [0.0, math.nextafter(100.0, INF), NAN, INF, -INF, BIG, -BIG]),
    ("_site_percentiles", "percentile", lambda v: _site_percentiles(np.ones((1, 1)), v),
     [TINIEST, 100.0], [0.0, math.nextafter(100.0, INF), NAN, INF, -INF, BIG, -BIG]),
    ("percentile_pdop", "aggregation",
     lambda v: percentile_pdop(GPS_LIKE, GRID, WINDOW, 5.0, 95.0, EARTH, v),
     ["pooled", "worst_site"], ["mean", "", NAN, INF, -INF]),
    ("fspl_db distance", "distance_km", lambda v: fspl_db(v, 1.5e9),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("fspl_db frequency", "frequency_hz", lambda v: fspl_db(1000.0, v),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("slant_range_km altitude", "altitude_km", lambda v: slant_range_km(v, 45.0, R),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("slant_range_km elevation", "elevation_deg", lambda v: slant_range_km(500.0, v, R),
     [0.0, 90.0], [-TINIEST, math.nextafter(90.0, INF), NAN, INF, -INF, BIG, -BIG]),
    ("slant_range_km radius", "earth_radius_km", lambda v: slant_range_km(500.0, 45.0, v),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("coverage_half_angle_rad altitude", "altitude_km",
     lambda v: coverage_half_angle_rad(v, 5.0, R),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("coverage_half_angle_rad mask", "mask_deg",
     lambda v: coverage_half_angle_rad(500.0, v, R),
     [0.0, math.nextafter(90.0, 0.0)], [-TINIEST, 90.0, NAN, INF, -INF, BIG, -BIG]),
    ("coverage_half_angle_rad radius", "earth_radius_km",
     lambda v: coverage_half_angle_rad(500.0, 5.0, v),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("jammer_effective_radius_m power", "power_w",
     lambda v: jammer_effective_radius_m(v, 0.0, JammerCalibration()),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("jammer_effective_radius_m margin", "margin_db",
     lambda v: jammer_effective_radius_m(1.0, v, JammerCalibration()),
     [0.0, FLOAT_MAX], [-TINIEST, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("jammer_power_for_radius_w radius", "radius_m",
     lambda v: jammer_power_for_radius_w(v, 0.0, JammerCalibration()),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("jammer_power_for_radius_w margin", "margin_db",
     lambda v: jammer_power_for_radius_w(100.0, v, JammerCalibration()),
     [0.0, FLOAT_MAX], [-TINIEST, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("penetration_report", "margin_db", lambda v: penetration_report(v, MaterialLossTable()),
     [0.0, FLOAT_MAX], [-TINIEST, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("signal_generation_w output", "rf_output_w", lambda v: signal_generation_w(v, 0.5),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("signal_generation_w efficiency", "pa_efficiency", lambda v: signal_generation_w(10.0, v),
     [TINIEST, 1.0], [0.0, math.nextafter(1.0, INF), NAN, INF, -INF, BIG, -BIG]),
    ("per_signal_bus_power_w", "n_signals", lambda v: per_signal_bus_power_w(10.0, v, 0.5),
     [1, FLOAT_MAX], [0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("leo_payload_power_w signals", "n_signals", lambda v: leo_payload_power_w(v, 1.0, 0.1),
     [1, FLOAT_MAX], [0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("leo_payload_power_w per signal", "per_signal_w",
     lambda v: leo_payload_power_w(2, v, 0.1),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("leo_payload_power_w overhead", "overhead", lambda v: leo_payload_power_w(2, 1.0, v),
     [0.0, FLOAT_MAX], [-TINIEST, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("gnss_equivalent_power_w power", "power_w", lambda v: gnss_equivalent_power_w(v, 3.0),
     [TINIEST, FLOAT_MAX], [0.0, NAN, INF, -INF, HUGE, BIG, -BIG]),
    ("gnss_equivalent_power_w gain", "footprint_gain_db",
     lambda v: gnss_equivalent_power_w(10.0, v),
     [0.0, FLOAT_MAX], [-TINIEST, NAN, INF, -INF, HUGE, BIG, -BIG]),
]


def _label(value) -> str:
    names = {BIG: "10**5000", -BIG: "-10**5000", HUGE: "10**400"}
    return names[value] if value in names else repr(value)


CASES = [
    pytest.param(argument, call, value, rejected, id=f"{guard}-{_label(value)}")
    for guard, argument, call, through, refused in GUARDS
    for rejected, values in ((False, through), (True, refused))
    for value in values
]


@pytest.mark.parametrize("argument, call, value, rejected", CASES)
def test_guard_decides_as_its_rule(argument, call, value, rejected):
    try:
        call(value)
    except ValueError as exc:
        named = str(exc).startswith(f"{argument} (")
        assert named == rejected, f"{argument} ({_label(value)}): {exc}"
    except (ArithmeticError, TypeError):  # past the guard, the value fails further on
        assert not rejected
    else:
        assert not rejected
