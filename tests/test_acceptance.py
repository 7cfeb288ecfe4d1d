"""Acceptance gate: one test, and one pass/fail line, per headline claim.

`pytest -v tests/test_acceptance.py` prints exactly one PASSED/FAILED
line per criterion; add `-s` to also see the measured numbers behind
each verdict.  Criteria 1-5 pin the physics outputs (path loss,
footprint gain, constellation sizing, interference tables, power
budget); criterion 6 runs the property suites (engine-vs-oracle
agreement, invariances, refinement stability, thread determinism).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from conftest import see_cpus
from oracles import (
    EcefPosition,
    dop_oracle,
    los_rows,
    random_observations,
    random_rotation,
    satellite_above,
    site_to_ecef,
    visible_sats,
)

from leonav.cli import main
from leonav.geometry import GroundGrid, TimeWindow, dop, percentile_pdop
from leonav.rflink import (
    BAND_HZ,
    GPS_ALTITUDE_KM,
    footprint_gain_db,
    fspl_db,
    jammer_effective_radius_m,
    jammer_power_for_radius_w,
    penetration_report,
)
from leonav.scenario import Scenario
from leonav.tradestudy import (
    gps_baseline,
    min_constellation_size,
    power_report,
)

L1_HZ = BAND_HZ["L1"]


@pytest.fixture(scope="module")
def desk():
    """Shared desk-scale DOP numbers: the MEO baseline and the 300-sat case."""
    scenario = Scenario()
    t0 = time.perf_counter()
    baseline = gps_baseline(scenario)
    baseline_s = time.perf_counter() - t0

    spec = scenario.walker.design(300, 900.0)
    t0 = time.perf_counter()
    p300 = percentile_pdop(
        spec, GroundGrid.fibonacci(500), TimeWindow(), mask_deg=5.0, percentile=95.0
    )
    p300_s = time.perf_counter() - t0
    return {
        "scenario": scenario,
        "spec300": spec,
        "baseline": baseline,
        "baseline_s": baseline_s,
        "p300": p300,
        "p300_s": p300_s,
    }


def test_criterion_1_path_loss_advantage():
    """LEO path loss sits roughly 32 dB (best case) below the MEO zenith loss."""
    best_case = fspl_db(504.5, L1_HZ) - fspl_db(GPS_ALTITUDE_KM, L1_HZ)
    assert best_case == pytest.approx(-32.0, abs=0.1)
    top_of_band = fspl_db(1200.0, L1_HZ) - fspl_db(GPS_ALTITUDE_KM, L1_HZ)
    assert -25.0 <= top_of_band <= -24.0
    print(
        f"\nCRITERION 1 PASS: zenith path-loss delta {best_case:+.3f} dB "
        f"(band -32.0 +/- 0.1), 1200 km delta {top_of_band:+.3f} dB (band [-25, -24])"
    )


def test_criterion_2_footprint_gain_bands():
    """Footprint advantage over the 23,222 km MEO cap sits in the quoted bands."""
    open_sky = {h: footprint_gain_db(float(h)) for h in range(600, 1401, 50)}
    assert all(6.0 <= g <= 10.0 for g in open_sky.values()), open_sky
    masked = {h: footprint_gain_db(float(h), mask_deg=30.0) for h in range(500, 1201, 50)}
    assert all(11.0 <= g <= 20.0 for g in masked.values()), masked
    at_600 = footprint_gain_db(600.0, mask_deg=30.0)
    assert 15.0 <= at_600 <= 17.0
    print(
        f"\nCRITERION 2 PASS: mask-0 gain {min(open_sky.values()):.2f}"
        f"-{max(open_sky.values()):.2f} dB over 600-1400 km (band [6, 10]); "
        f"mask-30 gain {min(masked.values()):.2f}-{max(masked.values()):.2f} dB "
        f"over 500-1200 km (band [11, 20]); 600 km mask-30 {at_600:.2f} dB (band [15, 17])"
    )


def test_criterion_3_constellation_sizing(desk):
    """A ~300-sat polar Walker at 900 km matches the MEO baseline PDOP, and
    the sizing search lands in the 250-350 satellite range."""
    baseline = desk["baseline"]
    assert 1.5 <= baseline.value <= 2.6
    assert baseline.coverage == 1.0
    assert desk["baseline_s"] <= 120.0

    p300 = desk["p300"]
    assert p300.coverage == 1.0
    assert p300.value <= 1.25 * baseline.value
    assert desk["p300_s"] <= 120.0

    t0 = time.perf_counter()
    sizing = min_constellation_size(900.0, baseline.value, desk["scenario"])
    search_s = time.perf_counter() - t0
    assert search_s <= 900.0
    assert sizing.reachable
    assert sizing.coverage == 1.0
    assert 250 <= sizing.total_sats <= 350
    print(
        f"\nCRITERION 3 PASS: baseline p95 {baseline.value:.4f} (band [1.5, 2.6], "
        f"{desk['baseline_s']:.1f} s); 300@900 p95 {p300.value:.4f} "
        f"<= 1.25x baseline ({1.25 * baseline.value:.4f}, {desk['p300_s']:.1f} s); "
        f"search -> T={sizing.total_sats} P={sizing.planes} "
        f"p95 {sizing.achieved_pdop:.4f} in {sizing.evaluations} evaluations "
        f"({search_s:.0f} s, band [250, 350])"
    )


def test_criterion_4_interference_tables():
    """Margin table: wall/canopy counts exact; jammer radii within 15%;
    jammer powers within a factor of 1.3."""
    margins = (0.0, 5.0, 10.0, 20.0, 30.0)
    expected_counts = {
        0.0: (0, 0, 0, 0, 0),
        5.0: (0, 0, 0, 0, 0),
        10.0: (1, 0, 0, 0, 0),
        20.0: (2, 1, 1, 1, 0),
        30.0: (3, 2, 2, 1, 1),
    }
    for margin in margins:
        got = tuple(count for _, count in penetration_report(margin).wall_counts)
        assert got == expected_counts[margin], f"margin {margin}: {got}"

    radius_table_m = {0.0: 750.0, 5.0: 430.0, 10.0: 240.0, 20.0: 80.0, 30.0: 20.0}
    worst_radius = 0.0
    for margin, published in radius_table_m.items():
        got = jammer_effective_radius_m(0.5, margin)
        rel = abs(got - published) / published
        worst_radius = max(worst_radius, rel)
        assert rel <= 0.15, f"radius at {margin} dB: {got:.1f} vs {published}"

    power_table_mw = {0.0: 10.0, 5.0: 32.0, 10.0: 100.0, 20.0: 1000.0, 30.0: 10000.0}
    worst_power = 1.0
    for margin, published in power_table_mw.items():
        got = jammer_power_for_radius_w(100.0, margin) * 1000.0
        ratio = max(got / published, published / got)
        worst_power = max(worst_power, ratio)
        assert ratio <= 1.3, f"power at {margin} dB: {got:.1f} mW vs {published}"
    print(
        f"\nCRITERION 4 PASS: all 25 penetration counts exact; worst radius "
        f"deviation {100 * worst_radius:.1f}% (limit 15%); worst power ratio "
        f"{worst_power:.3f} (limit 1.3)"
    )


def test_criterion_5_power_pipeline():
    """Heritage-to-LEO power budget lands on the published operating points."""
    rows = {r["quantity"]: r for r in power_report(Scenario())}
    generation = rows["signal_generation_w"]["high_w"]
    assert generation == pytest.approx(535.0, abs=5.0)
    per_signal = rows["per_signal_bus_w"]["high_w"]
    assert per_signal == pytest.approx(53.0, abs=1.0)
    leo_low = rows["leo_payload_w"]["low_w"]
    leo_high = rows["leo_payload_w"]["high_w"]
    assert leo_low <= 200.0 and leo_high >= 100.0  # overlaps [100, 200] W
    gnss_low = rows["gnss_equivalent_w"]["low_w"]
    gnss_high = rows["gnss_equivalent_w"]["high_w"]
    assert gnss_low <= 50.0 and gnss_high >= 20.0  # overlaps [20, 50] W
    print(
        f"\nCRITERION 5 PASS: signal generation {generation:.1f} W (535 +/- 5); "
        f"per signal {per_signal:.2f} W (53 +/- 1); LEO payload "
        f"[{leo_low:.1f}, {leo_high:.1f}] W overlaps [100, 200]; GNSS-equivalent "
        f"[{gnss_low:.1f}, {gnss_high:.1f}] W overlaps [20, 50]"
    )


def test_criterion_6_property_suites(desk, tmp_path, monkeypatch):
    """Engine-vs-oracle agreement, invariances, refinement stability, and
    thread-count determinism."""
    # (a) vectorless oracle agreement: 1000 random geometries, 4-20 satellites
    rng = np.random.default_rng(101)
    worst_oracle = 0.0
    for _ in range(1000):
        obs = random_observations(rng, int(rng.integers(4, 21)))
        got = dop(los_rows(obs))
        want = dop_oracle(obs)
        for a, b in zip((got.gdop, got.pdop, got.hdop, got.vdop, got.tdop), want):
            worst_oracle = max(worst_oracle, abs(a - b) / abs(b))
    assert worst_oracle <= 1e-9

    # (b) DOP invariance under rigid rotation of the whole geometry
    rng = np.random.default_rng(202)
    worst_rotation = 0.0
    for _ in range(200):
        site = site_to_ecef(
            float(rng.uniform(-80.0, 80.0)), float(rng.uniform(-180.0, 180.0))
        )
        sats = [
            satellite_above(
                site.as_array(),
                float(rng.uniform(0.0, 360.0)),
                float(rng.uniform(10.0, 80.0)),
                float(rng.uniform(800.0, 4000.0)),
            )
            for _ in range(int(rng.integers(4, 12)))
        ]
        base = dop(los_rows(visible_sats(site, [EcefPosition(*s) for s in sats], 5.0)))
        q = random_rotation(rng)
        rot = dop(los_rows(
            visible_sats(
                EcefPosition(*(q @ site.as_array())),
                [EcefPosition(*(q @ s)) for s in sats],
                5.0,
            )
        ))
        for name in ("gdop", "pdop", "hdop", "vdop", "tdop"):
            worst_rotation = max(
                worst_rotation,
                abs(getattr(rot, name) - getattr(base, name)) / getattr(base, name),
            )
    assert worst_rotation <= 1e-9

    # (c) adding a satellite never worsens any DOP: 1000 trials
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(1000):
        obs = random_observations(rng, int(rng.integers(4, 15)))
        before = dop(los_rows(obs))
        after = dop(los_rows(obs + random_observations(rng, 1)))
        for name in ("gdop", "pdop", "hdop", "vdop", "tdop"):
            if getattr(after, name) > getattr(before, name) * (1.0 + 1e-9):
                violations += 1
    assert violations == 0

    # (d) grid refinement: doubling the site count moves the 300/900
    # 95th-percentile PDOP by less than 5%
    refined = percentile_pdop(
        desk["spec300"], GroundGrid.fibonacci(1000), TimeWindow(),
        mask_deg=5.0, percentile=95.0,
    )
    drift = abs(refined.value - desk["p300"].value) / desk["p300"].value
    assert drift < 0.05

    # (e) output bytes are independent of the worker count
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps(
            {
                "grid": {"resolution": 128},
                "window": {"duration_s": 3600.0, "step_s": 300.0},
                "sweep": {"sizes": [60, 80], "altitudes_km": [700.0, 900.0]},
            }
        ),
        encoding="utf-8",
    )
    see_cpus(monkeypatch, 8)  # so the worker count is min(threads, cells)
    pairs = {}
    for fmt in ("json", "csv", "svg"):
        outputs = []
        for threads in ("1", "2", "3", "8"):
            path = tmp_path / f"sweep_t{threads}.{fmt}"
            code = main([
                "dop-sweep", "--config", str(config), "--threads", threads,
                "--format", fmt, "--out", str(path), "--quiet",
            ])
            assert code == 0
            outputs.append(path.read_bytes())
        assert len(set(outputs)) == 1, f"{fmt} output differs across threads"
        pairs[fmt] = len(outputs[0])
    print(
        f"\nCRITERION 6 PASS: oracle max rel dev {worst_oracle:.2e} (limit 1e-9); "
        f"rotation max rel dev {worst_rotation:.2e} (limit 1e-9); "
        f"monotonicity violations {violations}/1000; refinement drift "
        f"{100 * drift:.2f}% (limit 5%); outputs byte-identical across "
        f"--threads 1/2/3/8 ({pairs['json']} json bytes, {pairs['csv']} csv bytes, "
        f"{pairs['svg']} svg bytes)"
    )
