"""Constellation trade studies: sweeps, GPS-like baselining, and sizing.

Every operation takes a Scenario and returns plain result records the
output layer can serialize.  Sweep cells are pure functions of the
scenario, so they may run on worker threads; results are identical for
any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GroundGrid,
    NoCoverageError,
    PercentilePdop,
    pdop_field,
    percentile_pdop,
)
from .orbits import WalkerSpec, default_planes
from .payload import (
    clock_budget_w,
    gnss_equivalent_power_w,
    leo_payload_power_w,
    per_signal_bus_power_w,
    signal_generation_w,
)
from .rflink import (
    fspl_db,
    footprint_gain_db,
    jammer_effective_radius_m,
    jammer_power_for_radius_w,
    penetration_report,
    slant_range_km,
)
from .scenario import Scenario, scenario_hash

#: The MEO comparison constellation: 24 satellites, 6 planes, 55 degrees,
#: semi-synchronous altitude, full RAAN spread.
GPS_LIKE = WalkerSpec(
    total_sats=24,
    planes=6,
    phasing=1,
    altitude_km=20182.0,
    inclination_deg=55.0,
    raan_spread_deg=360.0,
)

#: Largest balance ratio max(P, T/P) / min(P, T/P) a size may have and
#: still count as plane-friendly for snapping and sizing searches.
_BALANCE_LIMIT = 2.0


def is_plane_friendly(total_sats: int) -> bool:
    """Whether the default plane rule yields a balanced constellation."""
    if total_sats < 1:
        return False
    p = default_planes(total_sats)
    s = total_sats // p
    return max(p, s) <= _BALANCE_LIMIT * min(p, s)


def snap_walker_size(total_sats: int, planes: int | None = None) -> tuple[int, int]:
    """Nearest valid (total_sats, planes) pair to a requested size.

    With a pinned plane count the size snaps to the nearest positive
    multiple of it; otherwise to the nearest plane-friendly size (ties
    toward the larger size).  Never silent: callers record the result.
    """
    if total_sats < 1:
        raise ValueError(f"total_sats ({total_sats}) must be >= 1")
    if planes is not None:
        if planes < 1:
            raise ValueError(f"planes ({planes}) must be >= 1")
        snapped = max(planes, round(total_sats / planes) * planes)
        return snapped, planes
    for delta in range(total_sats):
        for candidate in (total_sats + delta, total_sats - delta):
            if candidate >= 1 and is_plane_friendly(candidate):
                return candidate, default_planes(candidate)
    return 1, 1


def build_walker(
    total_sats: int, altitude_km: float, scenario: Scenario
) -> WalkerSpec:
    """WalkerSpec for a (possibly snapped) size at an altitude.

    Plane count comes from the scenario when pinned, otherwise from the
    default divisor-nearest-sqrt rule; phasing F folds into [0, P).
    """
    snapped, planes = snap_walker_size(total_sats, scenario.walker.planes)
    return WalkerSpec(
        total_sats=snapped,
        planes=planes,
        phasing=scenario.walker.phasing % planes,
        altitude_km=altitude_km,
        inclination_deg=scenario.walker.inclination_deg,
        raan_spread_deg=scenario.walker.raan_spread_deg,
    )


def _grid(scenario: Scenario) -> GroundGrid:
    if scenario.grid.scheme == "latlon":
        return GroundGrid.latlon(scenario.grid.resolution)
    return GroundGrid.fibonacci(scenario.grid.resolution)


def _evaluate(spec: WalkerSpec, scenario: Scenario) -> PercentilePdop:
    return percentile_pdop(
        spec,
        _grid(scenario),
        scenario.window,
        mask_deg=scenario.sweep.mask_deg,
        percentile=scenario.sweep.percentile,
        earth=scenario.earth,
        aggregation=scenario.sweep.aggregation,
    )


@dataclass(frozen=True)
class SweepCell:
    """One evaluated (size, altitude) point of a sweep."""

    requested_sats: int
    total_sats: int
    planes: int
    altitude_km: float
    pdop: float | None
    coverage: float


@dataclass(frozen=True)
class SweepResult:
    """Size-by-altitude PDOP matrix with the snapped sizes it actually ran."""

    sizes: tuple[int, ...]
    altitudes_km: tuple[float, ...]
    cells: tuple[SweepCell, ...]
    percentile: float
    scenario_hash: str


def pdop_sweep(scenario: Scenario, threads: int = 1) -> SweepResult:
    """Percentile PDOP over the scenario's size x altitude grid.

    Requested sizes snap to valid Walker designs (recorded per cell);
    cells with no coverage carry pdop=None and keep the sweep going.
    Cell order is size-major and independent of the worker count.
    """
    sizes = scenario.sweep.sizes
    altitudes = scenario.sweep.altitudes_km
    if threads < 1:
        raise ValueError(f"threads ({threads}) must be >= 1")

    points = [(size, alt) for size in sizes for alt in altitudes]

    def run(point: tuple[int, float]) -> SweepCell:
        size, alt = point
        spec = build_walker(size, alt, scenario)
        try:
            result = _evaluate(spec, scenario)
            value, coverage = result.value, result.coverage
        except NoCoverageError:
            value, coverage = None, 0.0
        return SweepCell(
            requested_sats=size,
            total_sats=spec.total_sats,
            planes=spec.planes,
            altitude_km=alt,
            pdop=value,
            coverage=coverage,
        )

    if threads == 1:
        cells = [run(p) for p in points]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(run, points))

    return SweepResult(
        sizes=tuple(sizes),
        altitudes_km=tuple(altitudes),
        cells=tuple(cells),
        percentile=scenario.sweep.percentile,
        scenario_hash=scenario_hash(scenario),
    )


def gps_baseline(scenario: Scenario) -> PercentilePdop:
    """Percentile PDOP of the GPS-like MEO reference on the scenario's
    grid, window, mask, and percentile."""
    return _evaluate(GPS_LIKE, scenario)


@dataclass(frozen=True)
class SizingResult:
    """Outcome of the minimum-size search at one altitude."""

    altitude_km: float
    target_pdop: float
    total_sats: int
    planes: int
    phasing: int
    achieved_pdop: float | None
    coverage: float
    reachable: bool
    evaluations: int


def _passes(result: PercentilePdop | None, target: float) -> bool:
    if result is None:
        return False
    return result.coverage == 1.0 and result.value <= target


def min_constellation_size(
    altitude_km: float,
    target_pdop: float,
    scenario: Scenario,
    ceiling: int = 1000,
) -> SizingResult:
    """Smallest valid Walker size meeting a PDOP target at an altitude.

    A size passes when coverage is complete and the percentile PDOP is at
    or below the target.  Doubling search brackets the boundary, then
    bisection over the valid-size ladder narrows it; if the evaluated
    points are not monotone (plane-count jumps can do that), the bracket
    is re-checked by linear scan.  An unreachable target returns the best
    evaluated size with reachable=False.
    """
    for name, value in (("altitude_km", altitude_km), ("target_pdop", target_pdop)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} ({value}) must be finite and strictly positive")
    if ceiling < 1:
        raise ValueError(f"ceiling ({ceiling}) must be >= 1")

    pinned = scenario.walker.planes
    if pinned is not None:
        ladder = [t for t in range(pinned, ceiling + 1, pinned)]
    else:
        ladder = [t for t in range(1, ceiling + 1) if is_plane_friendly(t)]
    if not ladder:
        raise ValueError(f"no valid Walker size at or below ceiling ({ceiling})")

    memo: dict[int, PercentilePdop | None] = {}

    def evaluate(idx: int) -> PercentilePdop | None:
        size = ladder[idx]
        if size not in memo:
            spec = build_walker(size, altitude_km, scenario)
            try:
                memo[size] = _evaluate(spec, scenario)
            except NoCoverageError:
                memo[size] = None
        return memo[size]

    # Doubling phase: start near a couple dozen satellites and grow.
    idx = min(range(len(ladder)), key=lambda i: (abs(ladder[i] - 24), ladder[i]))
    lo = -1  # highest failing index known, -1 if none
    hi = None  # lowest passing index known
    while True:
        if _passes(evaluate(idx), target_pdop):
            hi = idx
            break
        lo = idx
        if ladder[idx] == ladder[-1]:
            break
        next_size = 2 * ladder[idx]
        idx = next(
            (i for i in range(idx + 1, len(ladder)) if ladder[i] >= next_size),
            len(ladder) - 1,
        )
    if hi is None:
        # Unreachable: the best evaluated size, most coverage first, then
        # lowest PDOP.
        size = max(memo, key=lambda s: (memo[s].coverage, -memo[s].value)
                   if memo[s] else (0.0, -math.inf))
    else:
        bracket_lo = lo  # doubling bracket floor; bisection narrows inside it
        while hi - lo > 1:
            mid = (hi + lo) // 2
            if _passes(evaluate(mid), target_pdop):
                hi = mid
            else:
                lo = mid

        # Bisection trusts monotonicity; verify on what was actually computed
        # and fall back to a linear scan of the doubling bracket when violated.
        evaluated = sorted(
            (s, r) for s, r in memo.items() if r is not None and r.coverage == 1.0
        )
        monotone = all(
            earlier[1].value >= later[1].value * (1.0 - 1e-9)
            for earlier, later in zip(evaluated, evaluated[1:])
        )
        if not monotone:
            for i in range(bracket_lo + 1, hi + 1):
                if _passes(evaluate(i), target_pdop):
                    hi = i
                    break
        size = ladder[hi]

    result = memo[size]
    spec = build_walker(size, altitude_km, scenario)
    return SizingResult(
        altitude_km=altitude_km,
        target_pdop=target_pdop,
        total_sats=spec.total_sats,
        planes=spec.planes,
        phasing=spec.phasing,
        achieved_pdop=None if result is None else result.value,
        coverage=0.0 if result is None else result.coverage,
        reachable=hi is not None,
        evaluations=len(memo),
    )


def pdop_column(scenario: Scenario) -> str:
    """Report column name of the scenario's percentile PDOP, e.g. pdop_p95."""
    return f"pdop_p{scenario.sweep.percentile:g}"


def dop_map(scenario: Scenario) -> list[dict]:
    """Per-site percentile PDOP of the scenario's single constellation.

    Raises:
        NoCoverageError: no site has a single defined sample.
    """
    spec = build_walker(
        scenario.walker.total_sats, scenario.walker.altitude_km, scenario
    )
    grid = _grid(scenario)
    values, coverage = pdop_field(
        spec,
        grid,
        scenario.window,
        mask_deg=scenario.sweep.mask_deg,
        percentile=scenario.sweep.percentile,
        earth=scenario.earth,
    )
    if not np.isfinite(values).any():
        raise NoCoverageError(
            "no coverage: every site has undefined PDOP over the window"
        )
    pdop = pdop_column(scenario)
    rows = []
    for i in range(len(grid)):
        rows.append(
            {
                "lat_deg": float(grid.lat_deg[i]),
                "lon_deg": float(grid.lon_deg[i]),
                "weight": float(grid.weight[i]),
                pdop: None if math.isnan(values[i]) else float(values[i]),
                "coverage_fraction": float(coverage[i]),
            }
        )
    return rows


def pathloss_curve(scenario: Scenario) -> list[dict]:
    """Slant range and free-space path loss at each configured altitude."""
    frequency = scenario.link.params.carrier_hz
    elevation = scenario.link.elevation_deg
    rows = []
    for alt in scenario.link.pathloss_altitudes_km:
        rng = slant_range_km(alt, elevation, scenario.earth.radius_km)
        rows.append(
            {
                "altitude_km": alt,
                "slant_range_km": rng,
                "fspl_db": fspl_db(rng, frequency),
            }
        )
    return rows


def footprint_curve(scenario: Scenario) -> list[dict]:
    """LEO-over-MEO footprint gain versus altitude for each mask angle."""
    rows = []
    for alt in scenario.link.footprint_altitudes_km:
        row: dict = {"altitude_km": alt}
        for mask in scenario.link.footprint_masks_deg:
            row[f"gain_db_mask{mask:g}"] = footprint_gain_db(
                alt,
                meo_altitude_km=scenario.link.meo_altitude_km,
                mask_deg=mask,
                earth_radius_km=scenario.earth.radius_km,
            )
        rows.append(row)
    return rows


def jammer_table(scenario: Scenario) -> list[dict]:
    """Penetration counts and jammer figures per configured margin.

    One row per margin: canopy class, one-pass wall counts, the denial
    radius of the configured report jammer, and the jammer power needed
    at the configured report radius.
    """
    cal = scenario.jammer.calibration
    rows = []
    for margin in scenario.jammer.margins_db:
        pen = penetration_report(margin, scenario.materials.table)
        row: dict = {"margin_db": margin, "canopy": pen.canopy}
        for name, count in pen.wall_counts:
            row[f"walls_{name}"] = count
        row["jammer_radius_m"] = jammer_effective_radius_m(
            scenario.jammer.report_power_w, margin, cal
        )
        row["jammer_power_w"] = jammer_power_for_radius_w(
            scenario.jammer.report_radius_m, margin, cal
        )
        rows.append(row)
    return rows


def power_report(scenario: Scenario) -> list[dict]:
    """Heritage-to-LEO payload power pipeline as labeled budget lines.

    The GNSS-equivalent line derives its gain range from the footprint
    advantage at the scenario's altitude extremes (horizon mask).
    """
    heritage = scenario.payload.heritage
    clock_w = clock_budget_w(heritage.clocks)
    gen_low = signal_generation_w(heritage.rf_output_w_low, heritage.pa_efficiency)
    gen_high = signal_generation_w(heritage.rf_output_w_high, heritage.pa_efficiency)
    per_signal = per_signal_bus_power_w(
        heritage.rf_output_w_high, heritage.n_signals, heritage.pa_efficiency
    )
    leo_range = leo_payload_power_w(
        scenario.payload.leo_signals, per_signal, scenario.payload.overhead_range
    )
    alts = scenario.link.footprint_altitudes_km
    gain_low = footprint_gain_db(
        max(alts), scenario.link.meo_altitude_km, 0.0, scenario.earth.radius_km
    )
    gain_high = footprint_gain_db(
        min(alts), scenario.link.meo_altitude_km, 0.0, scenario.earth.radius_km
    )
    gnss_range = gnss_equivalent_power_w(leo_range, (gain_low, gain_high))
    return [
        {
            "quantity": "heritage_payload_w",
            "low_w": heritage.total_payload_w,
            "high_w": heritage.total_payload_w,
            "note": "total heritage navigation payload",
        },
        {
            "quantity": "clock_budget_w",
            "low_w": clock_w,
            "high_w": clock_w,
            "note": "exact unit sum; heritage figures round this to 200 W",
        },
        {
            "quantity": "signal_generation_w",
            "low_w": gen_low,
            "high_w": gen_high,
            "note": "RF output over PA efficiency",
        },
        {
            "quantity": "per_signal_bus_w",
            "low_w": per_signal,
            "high_w": per_signal,
            "note": "upper RF output split across heritage signals",
        },
        {
            "quantity": "leo_payload_w",
            "low_w": leo_range[0],
            "high_w": leo_range[1],
            "note": f"{scenario.payload.leo_signals} signals across the overhead range",
        },
        {
            "quantity": "gnss_equivalent_w",
            "low_w": gnss_range[0],
            "high_w": gnss_range[1],
            "note": (
                f"with-overhead payload over {gain_low:.2f}-{gain_high:.2f} dB "
                "footprint gain"
            ),
        },
    ]
