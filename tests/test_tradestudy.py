"""Trade-study orchestration tests: sweeps, baseline, sizing, reports."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np
import pytest

from leonav import geometry, tradestudy
from leonav.geometry import (
    GroundGrid,
    NoCoverageError,
    SingularGeometryError,
    percentile_pdop,
)
from leonav.orbits import EarthModel
from leonav.payload import MAX_UNITS, OVERHEAD, PA_EFFICIENCY, POWER_W, ClockUnit
from leonav.rflink import (
    FOOTPRINT_MASK_DEG,
    FREQUENCY_HZ,
    JAMMER_MARGIN_DB,
    JAMMER_POWER_W,
    JAMMER_RADIUS_M,
    footprint_gain_db,
    fspl_db,
    slant_range_km,
)
from leonav.scenario import (
    JammerConfig,
    LinkConfig,
    PayloadConfig,
    Scenario,
    SweepConfig,
    parse_scenario,
)
from leonav.tradestudy import (
    GPS_LIKE,
    SizingResult,
    SweepCell,
    dop_map,
    footprint_curve,
    gps_baseline,
    jammer_table,
    min_constellation_size,
    pathloss_curve,
    pdop_sweep,
    power_report,
)

from conftest import TINY, see_cpus

#: Earth radii (km) at the ends of the earth.radius_km bound.
RADIUS_KM = (1.0, 1e6)

#: (footprint altitudes, MEO altitude) at the ends of the altitude bound:
#: the largest and smallest LEO-over-MEO gaps.
FOOTPRINT_CORNERS = (((1.0,), 2.0), ((1.0,), 1e6), ((999_999.0,), 1e6))


def tiny() -> Scenario:
    return parse_scenario(json.dumps(TINY))


def grids_built(monkeypatch) -> list[GroundGrid]:
    """Every GroundGrid constructed from here on, in construction order."""
    built = []
    post_init = GroundGrid.__post_init__

    def recording(grid: GroundGrid) -> None:
        post_init(grid)
        built.append(grid)

    monkeypatch.setattr(GroundGrid, "__post_init__", recording)
    return built


class TestGpsLikeReference:
    def test_constellation_shape(self):
        assert GPS_LIKE.total_sats == 24
        assert GPS_LIKE.planes == 6
        assert GPS_LIKE.phasing == 1
        assert GPS_LIKE.altitude_km == 20182.0
        assert GPS_LIKE.inclination_deg == 55.0
        assert GPS_LIKE.raan_spread_deg == 360.0


class TestPdopSweep:
    def test_cell_grid_is_size_major(self):
        sc = tiny()
        cells = pdop_sweep(sc)
        assert [(c.requested_sats, c.altitude_km) for c in cells] == [
            (24, 800.0), (24, 1000.0), (36, 800.0), (36, 1000.0),
        ]

    def test_sweep_does_not_hash_the_scenario(self, monkeypatch):
        # The report layer stamps the hash; the study returns bare cells.
        calls = []
        hash_ = tradestudy.scenario_hash

        def counting(scenario):
            calls.append(scenario)
            return hash_(scenario)

        monkeypatch.setattr(tradestudy, "scenario_hash", counting)
        pdop_sweep(tiny())
        assert calls == []

    def test_cells_match_direct_evaluation(self):
        sc = tiny()
        cell = pdop_sweep(sc)[0]
        spec = sc.walker.design(24, 800.0)
        assert (cell.total_sats, cell.planes) == (spec.total_sats, spec.planes)
        direct = percentile_pdop(
            spec, GroundGrid.fibonacci(64), sc.window,
            mask_deg=5.0, percentile=95.0, earth=sc.earth, aggregation=sc.sweep.aggregation,
        )
        assert cell.pdop == pytest.approx(direct.value, rel=1e-12)
        assert cell.coverage == pytest.approx(direct.coverage, rel=1e-12)

    def test_thread_count_does_not_change_results(self):
        sc = tiny()
        assert pdop_sweep(sc, threads=1) == pdop_sweep(sc, threads=4)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_grid_serves_every_cell(self, monkeypatch, threads):
        sc = tiny()
        built = grids_built(monkeypatch)
        assert len(pdop_sweep(sc, threads=threads)) == 4
        assert len(built) == 1

    def test_no_coverage_cell_marked_not_fatal(self):
        sc = dataclasses.replace(
            tiny(), sweep=SweepConfig(sizes=(1, 24), altitudes_km=(800.0,))
        )
        starved, fed = pdop_sweep(sc)
        assert isinstance(starved, SweepCell)
        assert starved.pdop is None
        assert starved.coverage == 0.0
        assert fed.coverage > 0.0  # sweep carried on

    def test_no_coverage_cell_is_an_evaluation_that_returns(self, monkeypatch):
        returned = []
        evaluate = tradestudy.percentile_pdop

        def counting(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            returned.append(result)
            return result

        monkeypatch.setattr(tradestudy, "percentile_pdop", counting)
        sc = dataclasses.replace(
            tiny(), sweep=SweepConfig(sizes=(1, 24), altitudes_km=(800.0,))
        )
        pdop_sweep(sc)
        assert len(returned) == 2

    def test_validation(self):
        sc = tiny()
        with pytest.raises(ValueError, match="threads"):
            pdop_sweep(sc, threads=0)
        with pytest.raises(ValueError, match="sweep.sizes"):
            pdop_sweep(dataclasses.replace(sc, sweep=SweepConfig(sizes=())))
        with pytest.raises(ValueError, match="altitudes_km"):
            pdop_sweep(
                dataclasses.replace(sc, sweep=SweepConfig(altitudes_km=()))
            )


def no_child_left() -> bool:
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def fail_cells(monkeypatch, sc: Scenario, failing: dict[int, BaseException]) -> None:
    """Makes computing the samples of each listed cell (in the tiny sweep's
    size-major order) raise its exception, in whichever process runs it."""
    designs = [sc.walker.design(s, a) for s in sc.sweep.sizes for a in sc.sweep.altitudes_km]
    walker = geometry.walker_constellation

    def failing_walker(spec, earth):
        for cell, exc in failing.items():
            if spec == designs[cell]:
                raise exc
        return walker(spec, earth)

    monkeypatch.setattr(geometry, "walker_constellation", failing_walker)


FORKS = sys.platform == "linux"


class TestSweepWorkers:
    """Forked workers compute cell samples; the caller evaluates every cell."""

    def test_worker_count_is_capped_by_the_cpus(self, monkeypatch):
        see_cpus(monkeypatch, 2)
        forks = []
        fork = os.fork

        def counting():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting, raising=False)
        assert pdop_sweep(tiny(), threads=10_000) == pdop_sweep(tiny())
        assert len(forks) == (1 if FORKS else 0)
        assert no_child_left()

    def test_every_cell_is_evaluated_in_the_calling_process(self, monkeypatch):
        # The benchmark tracer wraps these two module attributes in the
        # calling process and reads its counts from pdop_samples' result.
        see_cpus(monkeypatch, 2)
        calls = {"percentile_pdop": [], "pdop_samples": [], "walker_constellation": []}

        def counting(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name].append(result)
                return result

            monkeypatch.setattr(module, name, counted)

        counting(tradestudy, "percentile_pdop")
        counting(geometry, "pdop_samples")
        counting(geometry, "walker_constellation")
        sc = tiny()
        cells = pdop_sweep(sc, threads=2)
        assert len(calls["percentile_pdop"]) == len(calls["pdop_samples"]) == 4
        assert [r.pdop.shape for r in calls["pdop_samples"]] == [(64, 6)] * 4
        assert [(r.value, r.coverage) for r in calls["percentile_pdop"]] == [
            (c.pdop, c.coverage) for c in cells
        ]
        # the worker propagated cells 1 and 3
        assert len(calls["walker_constellation"]) == (2 if FORKS else 4)
        monkeypatch.undo()
        assert cells == pdop_sweep(sc)

    def test_no_worker_outlives_a_sweep(self, monkeypatch):
        see_cpus(monkeypatch, 4)
        pdop_sweep(tiny(), threads=4)
        assert no_child_left()

    @pytest.mark.parametrize("failing", [
        {1: ValueError("cell 1")},  # a worker's cell
        {2: SingularGeometryError("cell 2")},  # the caller's own cell
        {1: ValueError("cell 1"), 2: ValueError("cell 2")},
        {2: SingularGeometryError("cell 2"), 3: ValueError("cell 3")},
    ])
    def test_failing_cell_raises_as_in_one_process(self, monkeypatch, failing):
        sc = tiny()
        fail_cells(monkeypatch, sc, failing)
        see_cpus(monkeypatch, 2)
        with pytest.raises(Exception) as alone:
            pdop_sweep(sc)
        with pytest.raises(Exception) as forked:
            pdop_sweep(sc, threads=2)
        assert type(forked.value) is type(alone.value) is type(failing[min(failing)])
        assert str(forked.value) == str(alone.value) == f"cell {min(failing)}"
        assert no_child_left()

    @pytest.mark.skipif(not FORKS, reason="workers fork only on Linux")
    def test_worker_death_names_its_status(self, monkeypatch):
        sc = tiny()
        caller = os.getpid()
        walker = geometry.walker_constellation

        def dying(spec, earth):
            if os.getpid() != caller:
                os._exit(3)
            return walker(spec, earth)

        monkeypatch.setattr(geometry, "walker_constellation", dying)
        see_cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError,
                           match=r"^sweep worker exited with status 3 before sending cell 1$"):
            pdop_sweep(sc, threads=2)
        assert no_child_left()

    def test_without_fork_the_cells_are_the_same(self, monkeypatch):
        sc = tiny()
        forked = pdop_sweep(sc, threads=2)
        monkeypatch.delattr(os, "fork", raising=False)
        see_cpus(monkeypatch, 2)
        assert pdop_sweep(sc, threads=2) == forked


class TestGpsBaseline:
    def test_full_coverage_and_plausible_value(self):
        out = gps_baseline(tiny())
        assert out.coverage == 1.0
        assert 1.0 < out.value < 4.0

    def test_no_coverage_raises(self):
        sc = dataclasses.replace(tiny(), earth=EarthModel(radius_km=1e6))
        with pytest.raises(
            NoCoverageError,
            match=r"^no coverage: every \(site, epoch\) sample has undefined PDOP$",
        ):
            gps_baseline(sc)

    def test_latlon_grid_keeps_its_area_weights(self):
        sc = parse_scenario(json.dumps({
            "grid": {"scheme": "latlon", "resolution": 120},
            "window": {"duration_s": 3600.0, "step_s": 600.0},
        }))
        grid = GroundGrid.latlon(120)
        direct = percentile_pdop(GPS_LIKE, grid, sc.window, 5.0, 95.0, sc.earth, "pooled")
        assert gps_baseline(sc) == direct
        assert direct.value == pytest.approx(2.485936341127829, rel=1e-9)
        equal = GroundGrid(grid.lat_deg, grid.lon_deg, np.full(len(grid), 1.0 / len(grid)))
        assert percentile_pdop(
            GPS_LIKE, equal, sc.window, 5.0, 95.0, sc.earth, "pooled"
        ).value == pytest.approx(
            2.5742073924288036, rel=1e-9
        )


class TestMinConstellationSize:
    def test_finds_minimal_ladder_size(self):
        sc = tiny()
        result = min_constellation_size(900.0, 10.0, sc, ceiling=600)
        assert isinstance(result, SizingResult)
        assert result.reachable
        assert result.coverage == 1.0
        assert result.achieved_pdop <= 10.0
        ladder = sc.walker.ladder(600)
        assert result.total_sats in ladder
        assert result.evaluations >= 3

        # the next size down the ladder must genuinely fail
        idx = ladder.index(result.total_sats)
        prev = sc.walker.design(ladder[idx - 1], 900.0)
        try:
            before = percentile_pdop(
                prev, GroundGrid.fibonacci(64), sc.window,
                mask_deg=5.0, percentile=95.0, earth=sc.earth, aggregation="pooled",
            )
            assert before.coverage < 1.0 or before.value > 10.0
        except NoCoverageError:
            pass  # no coverage at all certainly fails

    def test_one_grid_serves_every_evaluation(self, monkeypatch):
        sc = tiny()
        built = grids_built(monkeypatch)
        assert min_constellation_size(900.0, 10.0, sc, ceiling=600).evaluations > 1
        assert len(built) == 1

    def test_pinned_planes_ladder(self):
        sc = parse_scenario(json.dumps({**TINY, "walker": {"planes": 10}}))
        result = min_constellation_size(900.0, 10.0, sc, ceiling=600)
        assert result.reachable
        assert result.planes == 10
        assert result.total_sats % 10 == 0
        assert result.coverage == 1.0
        assert result.achieved_pdop <= 10.0

    def test_unreachable_target(self):
        result = min_constellation_size(900.0, 0.001, tiny(), ceiling=100)
        assert not result.reachable
        assert result.total_sats <= 100
        assert result.evaluations >= 2

    def test_unreachable_answer_is_the_best_evaluated_size(self):
        # Best means most coverage first, then lowest PDOP.
        result = min_constellation_size(900.0, 0.001, tiny(), ceiling=100)
        assert (result.total_sats, result.planes, result.phasing) == (100, 10, 1)
        assert result.achieved_pdop == pytest.approx(115.91078250467537, rel=1e-9)
        assert result.coverage == 194 / 384
        assert result.evaluations == 4
        assert not result.reachable

    def test_validation(self):
        sc = tiny()
        with pytest.raises(ValueError, match="altitude_km"):
            min_constellation_size(0.0, 2.0, sc)
        with pytest.raises(ValueError, match="target_pdop"):
            min_constellation_size(900.0, 0.0, sc)
        with pytest.raises(ValueError, match="ceiling"):
            min_constellation_size(900.0, 2.0, sc, ceiling=0)

    def test_pinned_planes_above_the_ceiling_name_the_key(self):
        sc = parse_scenario(json.dumps({**TINY, "walker": {"planes": 12, "total_sats": 24}}))
        with pytest.raises(ValueError, match=(
            r"^no valid Walker size at or below ceiling \(10\): "
            r"walker.planes \(12\) exceeds it$"
        )):
            min_constellation_size(900.0, 2.0, sc, ceiling=10)


class TestDopMap:
    def test_per_site_rows(self):
        rows = dop_map(tiny())
        assert len(rows) == 64
        assert list(rows[0]) == [
            "lat_deg", "lon_deg", "weight", "pdop_p95", "coverage_fraction",
        ]
        for row in rows:
            assert (row["pdop_p95"] is None) == (row["coverage_fraction"] == 0.0)
            assert 0.0 <= row["coverage_fraction"] <= 1.0

    def test_raises_without_any_coverage(self):
        sc = parse_scenario(
            json.dumps({**TINY, "walker": {"total_sats": 1, "phasing": 0}})
        )
        with pytest.raises(NoCoverageError):
            dop_map(sc)


class TestPathlossCurve:
    def test_default_eleven_altitudes(self):
        sc = Scenario()
        rows = pathloss_curve(sc)
        assert [r["altitude_km"] for r in rows] == [
            500.0, 700.0, 1000.0, 1400.0, 2000.0, 3000.0, 5000.0, 8000.0,
            12000.0, 20182.0, 23222.0,
        ]
        for row in rows:
            # zenith look: slant range equals altitude
            assert row["slant_range_km"] == pytest.approx(row["altitude_km"], rel=1e-12)
            assert row["fspl_db"] == pytest.approx(
                fspl_db(row["slant_range_km"], 1.57542e9), rel=1e-12
            )

    def test_oblique_elevation(self):
        sc = parse_scenario('{"link": {"elevation_deg": 5, "pathloss_altitudes_km": [1000]}}')
        (row,) = pathloss_curve(sc)
        assert row["slant_range_km"] == pytest.approx(
            slant_range_km(1000.0, 5.0, sc.earth.radius_km), rel=1e-12
        )
        assert row["slant_range_km"] > 1000.0

    def test_finite_and_positive_at_every_corner_of_the_bounds(self):
        for radius, frequency, elevation in itertools.product(
            RADIUS_KM, FREQUENCY_HZ, (0.0, 90.0)
        ):
            link = LinkConfig(frequency_hz=frequency, elevation_deg=elevation,
                              pathloss_altitudes_km=(1.0, 1e6))
            for row in pathloss_curve(Scenario(earth=EarthModel(radius_km=radius), link=link)):
                assert 0.0 < row["slant_range_km"] < math.inf, (radius, link, row)
                assert 0.0 < row["fspl_db"] < math.inf, (radius, link, row)


class TestFootprintCurve:
    def test_rows_and_masks(self):
        rows = footprint_curve(Scenario())
        assert [r["altitude_km"] for r in rows] == [
            500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0,
        ]
        assert set(rows[0]) == {"altitude_km", "gain_db_mask0", "gain_db_mask30"}
        at_1000 = next(r for r in rows if r["altitude_km"] == 1000.0)
        assert at_1000["gain_db_mask0"] == pytest.approx(7.625526147, abs=1e-6)
        gains = [r["gain_db_mask0"] for r in rows]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_masked_gain_exceeds_open_sky_gain(self):
        for row in footprint_curve(Scenario()):
            assert row["gain_db_mask30"] > row["gain_db_mask0"]

    def test_gains_finite_and_positive_at_every_corner_of_the_bounds(self):
        """Beyond 89 degrees, 1 - cos of the LEO cap's half angle rounds to 0
        at R = 1e6 km and a 1 km altitude."""
        for radius, (leo, meo) in itertools.product(RADIUS_KM, FOOTPRINT_CORNERS):
            link = LinkConfig(footprint_altitudes_km=leo, meo_altitude_km=meo,
                              footprint_masks_deg=FOOTPRINT_MASK_DEG)
            for row in footprint_curve(Scenario(earth=EarthModel(radius_km=radius), link=link)):
                for mask in FOOTPRINT_MASK_DEG:
                    assert 0.0 < row[f"gain_db_mask{mask:g}"] < math.inf, (radius, link, row)


class TestJammerTable:
    def test_default_margins(self):
        rows = jammer_table(Scenario())
        assert [r["margin_db"] for r in rows] == [0.0, 5.0, 10.0, 20.0, 30.0]
        assert list(rows[0]) == [
            "margin_db", "canopy", "walls_wood", "walls_brick", "walls_concrete",
            "walls_glass", "walls_container", "jammer_radius_m", "jammer_power_w",
        ]

    def test_radius_and_power_columns(self):
        rows = jammer_table(Scenario())
        radii = [r["jammer_radius_m"] for r in rows]
        assert radii == pytest.approx(
            [707.106781, 397.635364, 223.606798, 70.710678, 22.360680], abs=1e-5
        )
        powers = [r["jammer_power_w"] for r in rows]
        assert powers == pytest.approx(
            [0.01, 0.0316227766, 0.1, 1.0, 10.0], rel=1e-9
        )

    def test_penetration_columns(self):
        rows = jammer_table(Scenario())
        assert [r["canopy"] for r in rows] == [
            "Limited", "Deciduous", "Redwoods", "Most", "Most",
        ]
        assert [r["walls_wood"] for r in rows] == [0, 0, 1, 2, 3]
        assert [r["walls_container"] for r in rows] == [0, 0, 0, 0, 1]


    def test_figures_finite_and_non_zero_at_every_corner_of_the_bounds(self):
        bounds = {
            "ref_power_w": JAMMER_POWER_W, "report_power_w": JAMMER_POWER_W,
            "ref_radius_m": JAMMER_RADIUS_M, "report_radius_m": JAMMER_RADIUS_M,
        }
        for corner in itertools.product(*bounds.values()):
            jammer = JammerConfig(margins_db=JAMMER_MARGIN_DB, **dict(zip(bounds, corner)))
            for row in jammer_table(Scenario(jammer=jammer)):
                for key in ("jammer_radius_m", "jammer_power_w"):
                    assert 0.0 < row[key] < math.inf, (jammer, row)

class TestPowerReport:
    def test_budget_lines(self):
        rows = power_report(Scenario())
        by_name = {r["quantity"]: r for r in rows}
        assert list(by_name) == [
            "heritage_payload_w", "clock_budget_w", "signal_generation_w",
            "per_signal_bus_w", "leo_payload_w", "gnss_equivalent_w",
        ]
        assert by_name["heritage_payload_w"]["low_w"] == 900.0
        assert by_name["clock_budget_w"]["low_w"] == pytest.approx(210.0)
        assert by_name["signal_generation_w"]["low_w"] == pytest.approx(
            498.039216, abs=1e-5
        )
        assert by_name["signal_generation_w"]["high_w"] == pytest.approx(
            535.294118, abs=1e-5
        )
        assert by_name["per_signal_bus_w"]["low_w"] == pytest.approx(
            53.529412, abs=1e-5
        )
        assert by_name["leo_payload_w"]["low_w"] == pytest.approx(107.058824, abs=1e-5)
        assert by_name["leo_payload_w"]["high_w"] == pytest.approx(203.411765, abs=1e-5)

    def test_gnss_equivalent_uses_footprint_extremes(self):
        sc = Scenario()
        rows = power_report(sc)
        line = next(r for r in rows if r["quantity"] == "gnss_equivalent_w")
        leo_high = next(r for r in rows if r["quantity"] == "leo_payload_w")["high_w"]
        gain_low = footprint_gain_db(1400.0, sc.link.meo_altitude_km, 0.0, sc.earth.radius_km)
        gain_high = footprint_gain_db(500.0, sc.link.meo_altitude_km, 0.0, sc.earth.radius_km)
        assert line["low_w"] == pytest.approx(
            leo_high / 10.0 ** (gain_high / 10.0), rel=1e-12
        )
        assert line["high_w"] == pytest.approx(
            leo_high / 10.0 ** (gain_low / 10.0), rel=1e-12
        )
        assert line["low_w"] < line["high_w"] < leo_high

    def test_every_line_has_a_note(self):
        for row in power_report(Scenario()):
            assert isinstance(row["note"], str) and row["note"]

    def test_lines_finite_and_non_zero_at_every_corner_of_the_bounds(self):
        counts = (1, MAX_UNITS)
        bounds = {
            "total_payload_w": POWER_W, "rf_output_w_low": POWER_W,
            "rf_output_w_high": POWER_W, "pa_efficiency": PA_EFFICIENCY,
            "n_signals": counts, "leo_signals": counts,
            "overhead_low": OVERHEAD, "overhead_high": OVERHEAD,
        }
        corners = [dict(zip(bounds, corner)) for corner in itertools.product(*bounds.values())]
        payloads = [
            PayloadConfig(clocks=(ClockUnit("x", unit_power_w, count),), **fields)
            for fields in corners
            if fields["rf_output_w_low"] <= fields["rf_output_w_high"]
            and fields["overhead_low"] <= fields["overhead_high"]
            for unit_power_w, count in itertools.product(POWER_W, counts)
        ]
        assert len(payloads) == 2**4 * 3 * 3 * 4  # low <= high keeps 3 of 4 pairs
        links = [
            (EarthModel(radius_km=radius), LinkConfig(footprint_altitudes_km=leo,
                                                      meo_altitude_km=meo))
            for radius, (leo, meo) in itertools.product(RADIUS_KM, FOOTPRINT_CORNERS)
        ]
        for payload, (earth, link) in itertools.product(payloads, links):
            for row in power_report(Scenario(earth=earth, link=link, payload=payload)):
                for key in ("low_w", "high_w"):
                    assert 0.0 < row[key] < math.inf, (payload, earth, link, row)
