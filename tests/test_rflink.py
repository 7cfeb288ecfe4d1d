"""Path loss, footprint, jammer, and material-penetration model tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from leonav.payload import (
    gnss_equivalent_power_w,
    leo_payload_power_w,
    per_signal_bus_power_w,
    signal_generation_w,
)
from leonav.rflink import (
    BAND_HZ,
    CANOPY_CLASSES,
    GALILEO_ALTITUDE_KM,
    GPS_ALTITUDE_KM,
    SPEED_OF_LIGHT_M_S,
    JammerCalibration,
    MaterialLossTable,
    PenetrationReport,
    coverage_half_angle_rad,
    footprint_area_km2,
    footprint_gain_db,
    fspl_db,
    jammer_effective_radius_m,
    jammer_power_for_radius_w,
    penetration_report,
    slant_range_km,
)
from leonav.scenario import LinkConfig
from leonav.schema import ScenarioError

R_EARTH_KM = 6378.137
NAN, INF = math.nan, math.inf

#: (function, arguments, name of the argument at fault)
NON_FINITE_CALLS = [
    (fspl_db, (NAN, 1.5e9), "distance_km"),
    (fspl_db, (INF, 1e9), "distance_km"),
    (fspl_db, (1000.0, NAN), "frequency_hz"),
    (slant_range_km, (NAN, 90.0, R_EARTH_KM), "altitude_km"),
    (coverage_half_angle_rad, (NAN, 5.0, R_EARTH_KM), "altitude_km"),
    (footprint_gain_db, (INF, GALILEO_ALTITUDE_KM, 0.0, R_EARTH_KM), "altitude_km"),
    (jammer_effective_radius_m, (NAN, 0.0, JammerCalibration()), "power_w"),
    (jammer_effective_radius_m, (1.0, INF, JammerCalibration()), "margin_db"),
    (jammer_power_for_radius_w, (NAN, 0.0, JammerCalibration()), "radius_m"),
    (jammer_power_for_radius_w, (100.0, NAN, JammerCalibration()), "margin_db"),
    (penetration_report, (INF, MaterialLossTable()), "margin_db"),
    (signal_generation_w, (NAN, 0.5), "rf_output_w"),
    (per_signal_bus_power_w, (273.0, INF, 0.5), "n_signals"),
    (leo_payload_power_w, (2, NAN, 0.9), "per_signal_w"),
    (leo_payload_power_w, (2, 27.0, INF), "overhead"),
    (gnss_equivalent_power_w, (INF, 1.0), "power_w"),
    (gnss_equivalent_power_w, (2.0, NAN), "footprint_gain_db"),
]


@pytest.mark.parametrize(
    "function, args, argument",
    NON_FINITE_CALLS,
    ids=[f"{f.__name__}{args}" for f, args, _ in NON_FINITE_CALLS],
)
def test_model_functions_reject_non_finite_inputs(function, args, argument):
    """NaN and inf are refused by name, never returned as a NaN, inf or 0."""
    with pytest.raises(ValueError, match=argument):
        function(*args)


#: (function, arguments) whose earth_radius_km is not finite or not > 0
BAD_RADIUS_CALLS = [
    (slant_range_km, (500.0, 90.0, NAN)),
    (slant_range_km, (500.0, 0.0, -7000.0)),
    (coverage_half_angle_rad, (500.0, 5.0, INF)),
    (coverage_half_angle_rad, (500.0, 5.0, 0.0)),
    (footprint_area_km2, (500.0, 0.0, NAN)),
    (footprint_gain_db, (500.0, GPS_ALTITUDE_KM, 5.0, NAN)),
]


@pytest.mark.parametrize(
    "function, args", BAD_RADIUS_CALLS, ids=[f"{f.__name__}{args}" for f, args in BAD_RADIUS_CALLS]
)
def test_earth_radius_must_be_finite_and_positive(function, args):
    """A bad radius is refused by name, never returned as NaN or left to
    a math domain error."""
    with pytest.raises(ValueError, match="earth_radius_km"):
        function(*args)


class TestLinkConfig:
    def test_default_band(self):
        assert LinkConfig().carrier_hz == pytest.approx(1.57542e9)

    def test_named_bands(self):
        assert BAND_HZ == {"L1": 1.57542e9, "L2": 1.2276e9, "L5": 1.17645e9}
        assert LinkConfig(reference="L5").carrier_hz == pytest.approx(1.17645e9)

    def test_explicit_frequency_wins(self):
        assert LinkConfig(reference="L1", frequency_hz=2.0e9).carrier_hz == 2.0e9

    def test_validation(self):
        with pytest.raises(ValueError, match="reference"):
            LinkConfig(reference="S")
        with pytest.raises(ValueError, match="frequency_hz"):
            LinkConfig(frequency_hz=-1.0)


class TestFspl:
    def test_matches_definition(self):
        d_km, f_hz = 12345.6, 1.57542e9
        want = 20.0 * math.log10(4.0 * math.pi * d_km * 1e3 * f_hz / SPEED_OF_LIGHT_M_S)
        assert fspl_db(d_km, f_hz) == pytest.approx(want, rel=1e-15)

    def test_gps_zenith_value(self):
        assert fspl_db(GPS_ALTITUDE_KM, BAND_HZ["L1"]) == pytest.approx(
            182.494994349, abs=1e-6
        )

    def test_leo_zenith_value(self):
        assert fspl_db(1000.0, BAND_HZ["L1"]) == pytest.approx(156.395710313, abs=1e-6)

    def test_distance_decade_adds_twenty_db(self):
        f = BAND_HZ["L1"]
        assert fspl_db(5000.0, f) - fspl_db(500.0, f) == pytest.approx(20.0, abs=1e-12)

    def test_frequency_octave_adds_six_db(self):
        got = fspl_db(1000.0, 2.0e9) - fspl_db(1000.0, 1.0e9)
        assert got == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="distance_km"):
            fspl_db(0.0, 1e9)
        with pytest.raises(ValueError, match="frequency_hz"):
            fspl_db(100.0, 0.0)


class TestSlantRange:
    def test_zenith_is_altitude(self):
        assert slant_range_km(1000.0, 90.0, R_EARTH_KM) == pytest.approx(1000.0, rel=1e-12)

    def test_horizon_matches_tangent_geometry(self):
        # at zero elevation the slant range is the tangent-line length
        want = math.sqrt((R_EARTH_KM + 1000.0) ** 2 - R_EARTH_KM**2)
        got = slant_range_km(1000.0, 0.0, R_EARTH_KM)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(3708.945133053, abs=1e-6)

    def test_decreases_with_elevation(self):
        ranges = [slant_range_km(800.0, e, R_EARTH_KM) for e in np.linspace(0.0, 90.0, 19)]
        assert all(a > b for a, b in zip(ranges, ranges[1:]))

    def test_law_of_cosines_consistency(self):
        # d solves d^2 + 2 d R sin(e) - (h^2 + 2 R h) = 0
        for h, e in [(500.0, 5.0), (1200.0, 37.0), (20182.0, 55.0)]:
            d = slant_range_km(h, e, R_EARTH_KM)
            sin_e = math.sin(math.radians(e))
            assert d * d + 2.0 * d * R_EARTH_KM * sin_e == pytest.approx(
                h * h + 2.0 * R_EARTH_KM * h, rel=1e-12
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="altitude_km"):
            slant_range_km(0.0, 10.0, R_EARTH_KM)
        with pytest.raises(ValueError, match="elevation_deg"):
            slant_range_km(1000.0, 91.0, R_EARTH_KM)


class TestFootprint:
    def test_half_angle_zero_mask(self):
        want = math.acos(R_EARTH_KM / (R_EARTH_KM + 1000.0))
        got = coverage_half_angle_rad(1000.0, 0.0, R_EARTH_KM)
        assert got == pytest.approx(want, rel=1e-12)
        assert math.degrees(got) == pytest.approx(30.178393625, abs=1e-6)

    def test_cap_area_value(self):
        lam = coverage_half_angle_rad(1000.0, 0.0, R_EARTH_KM)
        want = 2.0 * math.pi * R_EARTH_KM**2 * (1.0 - math.cos(lam))
        got = footprint_area_km2(1000.0, 0.0, R_EARTH_KM)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(3.464342648e7, rel=1e-9)

    def test_hemisphere_limit(self):
        hemisphere = 2.0 * math.pi * R_EARTH_KM**2
        assert footprint_area_km2(1.0e9, 0.0, R_EARTH_KM) < hemisphere
        assert footprint_area_km2(1.0e9, 0.0, R_EARTH_KM) == pytest.approx(hemisphere, rel=1e-3)

    def test_area_monotonic_in_altitude_and_mask(self):
        areas = [
            footprint_area_km2(h, 0.0, R_EARTH_KM) for h in (400.0, 900.0, 1400.0, 20182.0)
        ]
        assert all(a < b for a, b in zip(areas, areas[1:]))
        masked = [footprint_area_km2(900.0, m, R_EARTH_KM) for m in (0.0, 5.0, 30.0, 60.0)]
        assert all(a > b for a, b in zip(masked, masked[1:]))

    def test_gain_values(self):
        assert footprint_gain_db(
            1000.0, GALILEO_ALTITUDE_KM, 0.0, R_EARTH_KM
        ) == pytest.approx(7.625526147, abs=1e-6)
        assert footprint_gain_db(
            600.0, GALILEO_ALTITUDE_KM, mask_deg=30.0, earth_radius_km=R_EARTH_KM
        ) == pytest.approx(15.890778457, abs=1e-6)

    def test_gain_zero_against_itself(self):
        assert footprint_gain_db(
            GALILEO_ALTITUDE_KM, GALILEO_ALTITUDE_KM, 0.0, R_EARTH_KM
        ) == pytest.approx(0.0, abs=1e-12)

    def test_gain_decreases_with_leo_altitude(self):
        gains = [
            footprint_gain_db(h, GALILEO_ALTITUDE_KM, 0.0, R_EARTH_KM)
            for h in np.arange(500.0, 1401.0, 100.0)
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_gain_is_area_ratio(self):
        want = 10.0 * math.log10(
            footprint_area_km2(GALILEO_ALTITUDE_KM, 0.0, R_EARTH_KM)
            / footprint_area_km2(800.0, 0.0, R_EARTH_KM)
        )
        got = footprint_gain_db(800.0, GALILEO_ALTITUDE_KM, 0.0, R_EARTH_KM)
        assert got == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="altitude_km"):
            footprint_area_km2(-100.0, 0.0, R_EARTH_KM)
        with pytest.raises(ValueError, match="mask_deg"):
            coverage_half_angle_rad(1000.0, 90.0, R_EARTH_KM)


class TestJammerModel:
    def test_anchor_point(self):
        cal = JammerCalibration()
        assert cal.ref_power_w == 0.01
        assert cal.ref_radius_m == 100.0
        assert jammer_effective_radius_m(0.01, 0.0, cal) == pytest.approx(100.0, rel=1e-12)

    def test_half_watt_radius(self):
        assert jammer_effective_radius_m(0.5, 0.0, JammerCalibration()) == pytest.approx(
            707.106781187, abs=1e-6
        )
        assert jammer_effective_radius_m(0.5, 20.0, JammerCalibration()) == pytest.approx(
            70.7106781187, abs=1e-7
        )

    def test_quadrupled_power_doubles_radius(self):
        base = jammer_effective_radius_m(0.2, 7.0, JammerCalibration())
        quadrupled = jammer_effective_radius_m(0.8, 7.0, JammerCalibration())
        assert quadrupled == pytest.approx(2.0 * base, rel=1e-12)

    def test_six_db_margin_halves_radius(self):
        base = jammer_effective_radius_m(1.0, 0.0, JammerCalibration())
        halved = jammer_effective_radius_m(1.0, 20.0 * math.log10(2.0), JammerCalibration())
        assert halved == pytest.approx(base / 2.0, rel=1e-12)

    def test_power_for_radius_values(self):
        cal = JammerCalibration()
        assert jammer_power_for_radius_w(100.0, 0.0, cal) == pytest.approx(0.01, rel=1e-12)
        assert jammer_power_for_radius_w(100.0, 30.0, cal) == pytest.approx(10.0, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = float(rng.uniform(1e-3, 50.0))
            m = float(rng.uniform(0.0, 40.0))
            r = jammer_effective_radius_m(p, m, JammerCalibration())
            back = jammer_power_for_radius_w(r, m, JammerCalibration())
            assert back == pytest.approx(p, rel=1e-12)

    def test_custom_calibration(self):
        cal = JammerCalibration(ref_power_w=0.5, ref_radius_m=750.0)
        assert jammer_effective_radius_m(0.5, 0.0, calibration=cal) == pytest.approx(750.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="power_w"):
            jammer_effective_radius_m(0.0, 0.0, JammerCalibration())
        with pytest.raises(ValueError, match="margin_db"):
            jammer_effective_radius_m(1.0, -1.0, JammerCalibration())
        with pytest.raises(ValueError, match="radius_m"):
            jammer_power_for_radius_w(0.0, 0.0, JammerCalibration())
        with pytest.raises(ValueError, match="ref_power_w"):
            JammerCalibration(ref_power_w=0.0)
        with pytest.raises(ValueError, match="ref_radius_m"):
            JammerCalibration(ref_radius_m=-1.0)


class TestMaterials:
    def test_default_losses(self):
        walls = dict(MaterialLossTable().walls)
        assert walls == {
            "wood": 10.0,
            "brick": 12.0,
            "concrete": 15.0,
            "glass": 17.0,
            "container": 25.0,
        }

    def test_canopy_classes(self):
        assert CANOPY_CLASSES == (
            (0.0, "Limited"),
            (5.0, "Deciduous"),
            (10.0, "Redwoods"),
            (20.0, "Most"),
        )

    @pytest.mark.parametrize(
        "margin, counts, canopy",
        [
            (0.0, (0, 0, 0, 0, 0), "Limited"),
            (5.0, (0, 0, 0, 0, 0), "Deciduous"),
            (10.0, (1, 0, 0, 0, 0), "Redwoods"),
            (20.0, (2, 1, 1, 1, 0), "Most"),
            (30.0, (3, 2, 2, 1, 1), "Most"),
        ],
    )
    def test_penetration_counts(self, margin, counts, canopy):
        report = penetration_report(margin, MaterialLossTable())
        assert isinstance(report, PenetrationReport)
        assert report.margin_db == margin
        assert tuple(c for _, c in report.wall_counts) == counts
        assert report.canopy == canopy

    def test_counts_are_floors(self):
        report = penetration_report(24.9, MaterialLossTable())
        assert dict(report.wall_counts)["wood"] == 2
        assert dict(report.wall_counts)["container"] == 0

    def test_canopy_threshold_inclusive(self):
        assert penetration_report(5.0, MaterialLossTable()).canopy == "Deciduous"
        assert penetration_report(4.999, MaterialLossTable()).canopy == "Limited"

    def test_validation(self):
        with pytest.raises(ValueError, match="margin_db"):
            penetration_report(-1.0, MaterialLossTable())
        with pytest.raises(ValueError, match="margin_db"):
            penetration_report(math.nan, MaterialLossTable())
        with pytest.raises(ScenarioError, match=r"materials.wood_db: must be in \[0.001, 1000\]"):
            MaterialLossTable(wood_db=0)
