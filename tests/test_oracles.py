"""Tests of the scalar visibility path in tests/oracles.py.

The engine tests use it as a reference, so it is checked on its own:
known sites, angles and ranges, the inclusive elevation mask and the input
order of the observations it keeps.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import (
    EARTH,
    EcefPosition,
    az_el_range,
    observation_from_angles,
    satellite_above,
    site_to_ecef,
    visible_sats,
)


class TestEcefPosition:
    def test_norm_matches_array(self):
        p = EcefPosition(3.0, 4.0, 12.0)
        assert np.linalg.norm(p.as_array()) == pytest.approx(13.0)
        assert np.allclose(p.as_array(), [3.0, 4.0, 12.0])


class TestSiteToEcef:
    def test_known_site(self):
        p = site_to_ecef(45.0, 45.0)
        assert p.x_km == pytest.approx(EARTH.radius_km / 2.0, rel=1e-12)
        assert p.y_km == pytest.approx(EARTH.radius_km / 2.0, rel=1e-12)
        assert p.z_km == pytest.approx(EARTH.radius_km * math.sqrt(0.5), rel=1e-12)

    def test_poles_and_equator(self):
        assert site_to_ecef(90.0, 0.0).as_array() == pytest.approx(
            [0.0, 0.0, EARTH.radius_km], abs=1e-9
        )
        assert site_to_ecef(0.0, 180.0).as_array() == pytest.approx(
            [-EARTH.radius_km, 0.0, 0.0], abs=1e-9
        )

    def test_altitude_adds_radially(self):
        p = site_to_ecef(0.0, 0.0, alt_km=100.0)
        assert np.linalg.norm(p.as_array()) == pytest.approx(EARTH.radius_km + 100.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="lat_deg"):
            site_to_ecef(91.0, 0.0)
        with pytest.raises(ValueError, match="alt_km"):
            site_to_ecef(0.0, 0.0, alt_km=-1.0)


class TestAzElRange:
    def test_zenith(self):
        site = site_to_ecef(10.0, 20.0)
        sat = EcefPosition(*(site.as_array() * (EARTH.radius_km + 500.0) / EARTH.radius_km))
        az, el, rng, enu = az_el_range(site, sat)
        assert el == pytest.approx(90.0)
        assert rng == pytest.approx(500.0, rel=1e-12)
        assert enu[2] == pytest.approx(1.0)

    def test_low_elevation_case(self):
        # satellite 30 deg of longitude away on the equator at 1000 km altitude
        site = site_to_ecef(0.0, 0.0)
        sat = site_to_ecef(0.0, 30.0, alt_km=1000.0)
        az, el, rng, _ = az_el_range(site, sat)
        assert az == pytest.approx(90.0, abs=1e-9)
        assert el == pytest.approx(0.17887377889262335, abs=1e-9)
        assert rng == pytest.approx(3689.086477801738, rel=1e-12)
        # independent derivation from the central angle
        psi = math.radians(30.0)
        r_sat = EARTH.radius_km + 1000.0
        el_ref = math.degrees(math.atan2(math.cos(psi) - EARTH.radius_km / r_sat, math.sin(psi)))
        assert el == pytest.approx(el_ref, abs=1e-12)

    @pytest.mark.parametrize(
        "sat_lat, sat_lon, az_expected",
        [(5.0, 0.0, 0.0), (0.0, 5.0, 90.0), (-5.0, 0.0, 180.0), (0.0, -5.0, 270.0)],
    )
    def test_azimuth_quadrants(self, sat_lat, sat_lon, az_expected):
        site = site_to_ecef(0.0, 0.0)
        sat = site_to_ecef(sat_lat, sat_lon, alt_km=800.0)
        az, _, _, _ = az_el_range(site, sat)
        assert az == pytest.approx(az_expected, abs=1e-9)

    def test_unit_los_consistency(self):
        rng_gen = np.random.default_rng(3)
        for _ in range(20):
            site = site_to_ecef(
                float(rng_gen.uniform(-89.0, 89.0)), float(rng_gen.uniform(-180.0, 180.0))
            )
            sat_arr = satellite_above(
                site.as_array(),
                float(rng_gen.uniform(0.0, 360.0)),
                float(rng_gen.uniform(1.0, 89.0)),
                float(rng_gen.uniform(500.0, 5000.0)),
            )
            az, el, dist, enu = az_el_range(site, EcefPosition(*sat_arr))
            assert math.hypot(*enu) == pytest.approx(1.0, abs=1e-12)
            rebuilt = observation_from_angles(az, el)
            assert enu[0] == pytest.approx(rebuilt.los_east, abs=1e-9)
            assert enu[1] == pytest.approx(rebuilt.los_north, abs=1e-9)
            assert enu[2] == pytest.approx(rebuilt.los_up, abs=1e-9)

    def test_rejects_degenerate_positions(self):
        site = site_to_ecef(0.0, 0.0)
        with pytest.raises(ValueError, match="coincide"):
            az_el_range(site, site)
        with pytest.raises(ValueError, match="center"):
            az_el_range(EcefPosition(0.0, 0.0, 0.0), site)


class TestVisibleSats:
    def test_mask_is_inclusive(self):
        site = site_to_ecef(0.0, 0.0)
        on_horizon = EcefPosition(site.x_km, 3000.0, 0.0)  # up component exactly 0
        below = EcefPosition(site.x_km - 500.0, 3000.0, 0.0)
        obs = visible_sats(site, [on_horizon, below], mask_deg=0.0)
        assert len(obs) == 1
        assert obs[0].elevation_deg == 0.0

    def test_preserves_input_order(self):
        site = site_to_ecef(45.0, 45.0)
        sats = [
            EcefPosition(*satellite_above(site.as_array(), az, 40.0, 2000.0))
            for az in (10.0, 120.0, 250.0)
        ]
        obs = visible_sats(site, sats, mask_deg=5.0)
        assert [round(o.azimuth_deg) for o in obs] == [10, 120, 250]

    def test_mask_validation(self):
        site = site_to_ecef(0.0, 0.0)
        for bad in (-0.1, 90.0):
            with pytest.raises(ValueError, match="mask_deg"):
                visible_sats(site, [], mask_deg=bad)
