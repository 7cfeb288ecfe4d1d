"""Constellation trade studies: sweeps, GPS-like baselining, and sizing.

Every operation takes a Scenario and returns plain result records the
output layer can serialize.  Sweep cells are pure functions of the
scenario, so forked worker processes may compute their samples; the
calling process still evaluates every cell, in cell order, and results are
identical for any worker count.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GroundGrid,
    NoCoverageError,
    PdopSamples,
    PercentilePdop,
    pdop_field,
    pdop_samples,
    percentile_pdop,
)
from .orbits import WalkerSpec
from .payload import (
    clock_budget_w,
    gnss_equivalent_power_w,
    leo_payload_power_w,
    per_signal_bus_power_w,
    signal_generation_w,
)
from .rflink import (
    GPS_ALTITUDE_KM,
    fspl_db,
    footprint_gain_db,
    jammer_effective_radius_m,
    jammer_power_for_radius_w,
    penetration_report,
    slant_range_km,
)
# scenario_hash is not called here; the benchmark tracer wraps it under this name.
from .scenario import Scenario, scenario_hash  # noqa: F401
from .schema import ALTITUDE, AT_LEAST_ONE, POSITIVE, SIZE, _check

#: The MEO comparison constellation: 24 satellites, 6 planes, 55 degrees,
#: semi-synchronous altitude, full RAAN spread.
GPS_LIKE = WalkerSpec(
    total_sats=24,
    planes=6,
    phasing=1,
    altitude_km=GPS_ALTITUDE_KM,
    inclination_deg=55.0,
    raan_spread_deg=360.0,
)


def _engine_settings(scenario: Scenario) -> dict:
    """The window, mask and Earth ``pdop_samples`` takes."""
    return dict(window=scenario.window, mask_deg=scenario.sweep.mask_deg, earth=scenario.earth)


def _evaluate(
    spec: WalkerSpec, scenario: Scenario, grid: GroundGrid,
    *, receive: Callable[[], PdopSamples] | None = None,
) -> PercentilePdop:
    return percentile_pdop(
        spec, grid, **_engine_settings(scenario), percentile=scenario.sweep.percentile,
        aggregation=scenario.sweep.aggregation, receive=receive,
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


class _Worker:
    """A forked process that computes the samples of some sweep cells in
    order, and the calling process's end of the pipe they come through."""

    def __init__(self, cells: range, compute: Callable[[int], PdopSamples]) -> None:
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            code = 1
            try:
                with open(write, "wb") as out:
                    for cell in cells:
                        try:
                            sent = compute(cell)
                        except Exception as exc:
                            sent = exc
                        out.write(pickle.dumps(sent, pickle.HIGHEST_PROTOCOL))
                        out.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.cells = iter(cells)
        self.pipe = open(read, "rb")

    def receive(self) -> PdopSamples:
        """The next cell's samples; raises what computing them raised."""
        cell = next(self.cells)
        try:
            sent = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # died before or while sending
            status = os.waitpid(self.pid, 0)[1]
            self.pid = None
            raise ChildProcessError(
                f"sweep worker exited with status {os.waitstatus_to_exitcode(status)} "
                f"before sending cell {cell}"
            ) from None
        if isinstance(sent, Exception):
            raise sent
        return sent

    def close(self) -> None:
        """Closes the pipe, and kills and reaps the process if still unreaped."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def sweep_processes(scenario: Scenario, threads: int) -> int:
    """Processes that compute the sweep's cells on ``threads``, the calling
    one included: min(threads, cells, CPUs) on Linux with ``os.fork``,
    else 1."""
    _check(AT_LEAST_ONE, threads=threads)
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return 1
    cells = len(scenario.sweep.sizes) * len(scenario.sweep.altitudes_km)
    return min(threads, cells, len(os.sched_getaffinity(0)))


def pdop_sweep(scenario: Scenario, threads: int = 1) -> tuple[SweepCell, ...]:
    """Percentile PDOP over the scenario's size x altitude grid.

    Requested sizes snap to valid Walker designs (recorded per cell);
    cells with no coverage carry pdop=None and keep the sweep going.
    Cell order is size-major and independent of the worker count.

    With N = ``sweep_processes(scenario, threads)`` > 1, forked worker j in
    [1, N) computes the samples of cells j, j + N, ...; this process still
    evaluates every cell in order, taking those samples through
    ``pdop_samples``, so the first failing cell raises as in one process.
    No worker outlives the call.
    """
    share = sweep_processes(scenario, threads)
    sweep = scenario.sweep
    points = [(size, alt) for size in sweep.sizes for alt in sweep.altitudes_km]
    specs = [scenario.walker.design(size, alt) for size, alt in points]
    grid = scenario.grid.build()
    settings = _engine_settings(scenario)

    def compute(cell: int) -> PdopSamples:
        return pdop_samples(specs[cell], grid, **settings)

    workers: list[_Worker] = []
    try:
        for first in range(1, share):
            workers.append(_Worker(range(first, len(points), share), compute))
        receivers = [None] + [worker.receive for worker in workers]
        cells = []
        for cell, ((size, alt), spec) in enumerate(zip(points, specs)):
            result = _evaluate(spec, scenario, grid, receive=receivers[cell % share])
            cells.append(SweepCell(
                requested_sats=size,
                total_sats=spec.total_sats,
                planes=spec.planes,
                altitude_km=alt,
                pdop=result.value,
                coverage=result.coverage,
            ))
        return tuple(cells)
    finally:
        for worker in workers:
            worker.close()


def gps_baseline(scenario: Scenario) -> PercentilePdop:
    """Percentile PDOP of the GPS-like MEO reference on the scenario's
    grid, window, mask, and percentile.

    Raises:
        NoCoverageError: no sample produced a defined PDOP.
    """
    result = _evaluate(GPS_LIKE, scenario, scenario.grid.build())
    if result.value is None:
        raise NoCoverageError("no coverage: every (site, epoch) sample has undefined PDOP")
    return result


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


def _passes(result: PercentilePdop, target: float) -> bool:
    return result.coverage == 1.0 and result.value <= target


def min_constellation_size(
    altitude_km: float,
    target_pdop: float,
    scenario: Scenario,
    ceiling: int = 1000,
) -> SizingResult:
    """A Walker size meeting a PDOP target at an altitude, searched for
    the smallest.

    The ladder is the scenario walker's ``WalkerConfig.ladder(ceiling)``,
    the sizes its design runs unchanged; it takes about 3 ms to list at
    the ``MAX_SATS`` bound.  A size passes when coverage is complete and
    the percentile PDOP is at or below the target.  Doubling from the size
    nearest 24 brackets the first pass; a linear scan up from the last
    failing doubling point then answers the smallest passing size above
    it.  The search never looks below that point.  Bisection narrows the
    bracket before the scan, but pass and fail need not be monotone in
    size (plane-count jumps), so its sizes decide nothing; they are
    evaluated only for the ``evaluations`` count, which the scan's
    repeats do not add to.  An unreachable target returns the best
    evaluated size with reachable=False.
    """
    _check(ALTITUDE, altitude_km=altitude_km)
    _check(POSITIVE, target_pdop=target_pdop)
    _check(SIZE, ceiling=ceiling)

    ladder = scenario.walker.ladder(ceiling)
    if not ladder:
        raise ValueError(
            f"no valid Walker size at or below ceiling ({ceiling}): "
            f"walker.planes ({scenario.walker.planes}) exceeds it"
        )
    grid = scenario.grid.build()

    memo: dict[int, PercentilePdop] = {}

    def evaluate(idx: int) -> PercentilePdop:
        size = ladder[idx]
        if size not in memo:
            spec = scenario.walker.design(size, altitude_km)
            memo[size] = _evaluate(spec, scenario, grid)
        return memo[size]

    # Doubling phase: start at the size nearest 24 (ties to the smaller) and
    # grow.  No size past the first one >= 24 is nearer.
    near = range(min(bisect_left(ladder, 24) + 1, len(ladder)))
    idx = min(near, key=lambda i: (abs(ladder[i] - 24), ladder[i]))
    lo = -1  # highest failing index known, -1 if none
    hi = None  # lowest passing index known
    while True:
        if _passes(evaluate(idx), target_pdop):
            hi = idx
            break
        lo = idx
        if ladder[idx] == ladder[-1]:
            break
        idx = min(bisect_left(ladder, 2 * ladder[idx]), len(ladder) - 1)
    if hi is None:
        # Unreachable: the best evaluated size, most coverage first, then
        # lowest PDOP.
        size = max(memo, key=lambda s: (0.0, -math.inf) if memo[s].value is None
                   else (memo[s].coverage, -memo[s].value))
    else:
        floor = lo  # the last failing doubling point
        # Bisection's evaluations count in ``evaluations``; the scan below
        # decides the answer and, through ``memo``, repeats none of them.
        while hi - lo > 1:
            mid = (hi + lo) // 2
            if _passes(evaluate(mid), target_pdop):
                hi = mid
            else:
                lo = mid
        hi = next(i for i in range(floor + 1, hi + 1) if _passes(evaluate(i), target_pdop))
        size = ladder[hi]

    result = memo[size]
    spec = scenario.walker.design(size, altitude_km)
    return SizingResult(
        altitude_km=altitude_km,
        target_pdop=target_pdop,
        total_sats=spec.total_sats,
        planes=spec.planes,
        phasing=spec.phasing,
        achieved_pdop=result.value,
        coverage=result.coverage,
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
    spec = scenario.walker.design(scenario.walker.total_sats, scenario.walker.altitude_km)
    grid = scenario.grid.build()
    values, coverage = pdop_field(
        spec, grid, **_engine_settings(scenario), percentile=scenario.sweep.percentile
    )
    if not np.isfinite(values).any():
        raise NoCoverageError(
            "no coverage: every site has undefined PDOP over the window"
        )
    pdop = pdop_column(scenario)
    return [
        {
            "lat_deg": lat,
            "lon_deg": lon,
            "weight": weight,
            pdop: None if math.isnan(value) else value,
            "coverage_fraction": covered,
        }
        for lat, lon, weight, value, covered in zip(
            grid.lat_deg.tolist(), grid.lon_deg.tolist(), grid.weight.tolist(),
            values.tolist(), coverage.tolist(),
        )
    ]


def pathloss_curve(scenario: Scenario) -> list[dict]:
    """Slant range and free-space path loss at each configured altitude."""
    frequency = scenario.link.carrier_hz
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
    jammer = scenario.jammer
    rows = []
    for margin in jammer.margins_db:
        pen = penetration_report(margin, scenario.materials)
        row: dict = {"margin_db": margin, "canopy": pen.canopy}
        for name, count in pen.wall_counts:
            row[f"walls_{name}"] = count
        row["jammer_radius_m"] = jammer_effective_radius_m(jammer.report_power_w, margin, jammer)
        row["jammer_power_w"] = jammer_power_for_radius_w(jammer.report_radius_m, margin, jammer)
        rows.append(row)
    return rows


def power_report(scenario: Scenario) -> list[dict]:
    """Heritage-to-LEO payload power pipeline as labeled budget lines.

    The GNSS-equivalent line divides the with-overhead LEO payload by the
    footprint advantage at the scenario's altitude extremes (horizon mask).
    """
    payload = scenario.payload
    clock_w = clock_budget_w(payload.clocks)
    gen_low = signal_generation_w(payload.rf_output_w_low, payload.pa_efficiency)
    gen_high = signal_generation_w(payload.rf_output_w_high, payload.pa_efficiency)
    per_signal = per_signal_bus_power_w(
        payload.rf_output_w_high, payload.n_signals, payload.pa_efficiency
    )
    leo_low, leo_high = (
        leo_payload_power_w(payload.leo_signals, per_signal, overhead)
        for overhead in (payload.overhead_low, payload.overhead_high)
    )
    link = scenario.link
    gain_low, gain_high = (
        footprint_gain_db(alt, link.meo_altitude_km, 0.0, scenario.earth.radius_km)
        for alt in (max(link.footprint_altitudes_km), min(link.footprint_altitudes_km))
    )
    lines = [
        ("heritage_payload_w", payload.total_payload_w, payload.total_payload_w,
         "total heritage navigation payload"),
        ("clock_budget_w", clock_w, clock_w,
         "exact unit sum; heritage figures round this to 200 W"),
        ("signal_generation_w", gen_low, gen_high, "RF output over PA efficiency"),
        ("per_signal_bus_w", per_signal, per_signal,
         "upper RF output split across heritage signals"),
        ("leo_payload_w", leo_low, leo_high,
         f"{payload.leo_signals} signals across the overhead range"),
        ("gnss_equivalent_w", gnss_equivalent_power_w(leo_high, gain_high),
         gnss_equivalent_power_w(leo_high, gain_low),
         f"with-overhead payload over {gain_low:.2f}-{gain_high:.2f} dB footprint gain"),
    ]
    return [dict(zip(("quantity", "low_w", "high_w", "note"), line)) for line in lines]
