"""Constellation generation, propagation, and frame rotation tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from leonav.orbits import (
    EARTH,
    CircularElements,
    EarthModel,
    EcefPosition,
    WalkerSpec,
    default_planes,
    propagate_arrays,
    rotate_eci_to_ecef,
    site_to_ecef,
    walker_constellation,
)


class TestEarthModel:
    def test_defaults(self):
        assert EARTH.radius_km == pytest.approx(6378.137)
        assert EARTH.mu_km3_s2 == pytest.approx(398600.4418)
        assert EARTH.rotation_rate_rad_s == pytest.approx(7.2921159e-5)

    @pytest.mark.parametrize("field", ["radius_km", "mu_km3_s2", "rotation_rate_rad_s"])
    def test_rejects_nonpositive_constants(self, field):
        kwargs = {field: 0.0}
        with pytest.raises(ValueError, match=field):
            EarthModel(**kwargs)


class TestEcefPosition:
    def test_norm_matches_array(self):
        p = EcefPosition(3.0, 4.0, 12.0)
        assert np.linalg.norm(p.as_array()) == pytest.approx(13.0)
        assert np.allclose(p.as_array(), [3.0, 4.0, 12.0])


class TestCircularElements:
    def test_angles_normalized(self):
        el = CircularElements(7000.0, 1.0, -0.5, 3.0 * math.pi)
        assert el.raan_rad == pytest.approx(2.0 * math.pi - 0.5)
        assert el.initial_anomaly_rad == pytest.approx(math.pi)

    def test_rejects_subsurface_orbit(self):
        # The elements know no body, so only a non-positive radius is rejected
        # here; walker_constellation checks the orbit against its Earth model.
        with pytest.raises(ValueError, match="semimajor_km"):
            CircularElements(0.0, 0.0, 0.0, 0.0)
        assert CircularElements(6000.0, 0.0, 0.0, 0.0).semimajor_km == 6000.0


class TestWalkerSpec:
    def test_sats_per_plane(self):
        assert WalkerSpec(24, 6).sats_per_plane == 4

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(total_sats=0, planes=1), "total_sats"),
            (dict(total_sats=6, planes=0), "planes"),
            (dict(total_sats=10, planes=4), "does not divide"),
            (dict(total_sats=6, planes=3, phasing=3), "phasing"),
            (dict(total_sats=6, planes=3, phasing=-1), "phasing"),
            (dict(total_sats=6, planes=3, altitude_km=0.0), "altitude_km"),
            (dict(total_sats=6, planes=3, inclination_deg=190.0), "inclination_deg"),
            (dict(total_sats=6, planes=3, raan_spread_deg=90.0), "raan_spread_deg"),
        ],
    )
    def test_rejects_bad_specs(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            WalkerSpec(**kwargs)


class TestDefaultPlanes:
    @pytest.mark.parametrize(
        "total, planes",
        [(1, 1), (4, 2), (16, 4), (24, 4), (36, 6), (300, 15), (360, 18), (7, 1)],
    )
    def test_divisor_nearest_square_root(self, total, planes):
        got = default_planes(total)
        assert got == planes
        assert total % got == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_planes(0)


class TestWalkerConstellation:
    def test_star_pattern_geometry(self):
        spec = WalkerSpec(6, 3, phasing=1, altitude_km=1000.0, raan_spread_deg=180.0)
        elements = walker_constellation(spec)
        assert len(elements) == 6
        assert all(e.semimajor_km == pytest.approx(EARTH.radius_km + 1000.0) for e in elements)
        raans = [math.degrees(e.raan_rad) for e in elements]
        assert raans == pytest.approx([0, 0, 60, 60, 120, 120])
        anomalies = [math.degrees(e.initial_anomaly_rad) for e in elements]
        # in-plane step 360 P / T = 180 deg, inter-plane phase F * 360 / T = 60 deg
        assert anomalies == pytest.approx([0, 180, 60, 240, 120, 300])

    def test_delta_pattern_spreads_full_circle(self):
        spec = WalkerSpec(6, 3, phasing=1, raan_spread_deg=360.0)
        raans = sorted({math.degrees(e.raan_rad) for e in walker_constellation(spec)})
        assert raans == pytest.approx([0, 120, 240])

    def test_zero_phasing_aligns_planes(self):
        spec = WalkerSpec(8, 4, phasing=0)
        anomalies = {
            round(math.degrees(e.initial_anomaly_rad), 9)
            for e in walker_constellation(spec)
        }
        assert anomalies == {0.0, 180.0}

    def test_small_body_uses_its_own_radius(self):
        moon = EarthModel(radius_km=1737.4, mu_km3_s2=4902.8, rotation_rate_rad_s=2.6617e-6)
        elements = walker_constellation(WalkerSpec(6, 3, altitude_km=100.0), moon)
        assert all(e.semimajor_km == pytest.approx(1837.4) for e in elements)


class TestPropagation:
    def test_full_period_returns_to_start(self):
        a = EARTH.radius_km + 1000.0
        period = 2.0 * math.pi * math.sqrt(a**3 / EARTH.mu_km3_s2)
        assert period == pytest.approx(6307.119406698, abs=1e-6)
        start = propagate_arrays(a, 1.0, 0.4, 0.3, 0.0)
        assert propagate_arrays(a, 1.0, 0.4, 0.3, period) == pytest.approx(start, abs=1e-6)

    def test_radius_conserved_along_orbit(self):
        for t in np.linspace(0.0, 7200.0, 13):
            pos = propagate_arrays(7378.137, math.radians(53.0), 1.1, 0.7, float(t))
            assert np.linalg.norm(pos) == pytest.approx(7378.137, rel=1e-12)

    def test_quarter_period_advances_ninety_degrees(self):
        a = 7378.137
        quarter = 0.5 * math.pi * math.sqrt(a**3 / EARTH.mu_km3_s2)
        pos = propagate_arrays(a, 0.0, 0.0, 0.0, quarter)
        assert pos == pytest.approx([0.0, a, 0.0], abs=1e-6)

    def test_equatorial_orbit_stays_in_plane(self):
        assert propagate_arrays(7000.0, 0.0, 0.3, 0.0, 1234.5)[2] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_polar_orbit_passes_over_pole(self):
        a = 7278.137
        quarter = 0.5 * math.pi * math.sqrt(a**3 / EARTH.mu_km3_s2)
        pos = propagate_arrays(a, math.radians(90.0), 0.0, 0.0, quarter)
        assert pos == pytest.approx([0.0, 0.0, a], abs=1e-6)

    def test_array_propagation_matches_scalar(self):
        rng = np.random.default_rng(7)
        a = 6800.0 + 1000.0 * rng.random(5)
        inc = rng.uniform(0.0, math.pi, 5)
        raan = rng.uniform(0.0, 2 * math.pi, 5)
        m0 = rng.uniform(0.0, 2 * math.pi, 5)
        batch = propagate_arrays(a, inc, raan, m0, 512.0)
        assert batch.shape == (5, 3)
        for idx in range(5):
            single = propagate_arrays(a[idx], inc[idx], raan[idx], m0[idx], 512.0)
            assert np.allclose(batch[idx], single, rtol=1e-14, atol=0.0)


class TestFrames:
    def test_identity_at_epoch(self):
        pos = np.array([1234.0, -567.0, 89.0])
        assert np.allclose(rotate_eci_to_ecef(pos, 0.0), pos)

    def test_rotation_direction(self):
        # A fixed inertial point drifts westward in the rotating frame.
        t = 600.0
        theta = EARTH.rotation_rate_rad_s * t
        out = rotate_eci_to_ecef(np.array([1.0, 0.0, 0.0]), t)
        assert out == pytest.approx([math.cos(theta), -math.sin(theta), 0.0])

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(size=(20, 3)) * 7000.0
        out = rotate_eci_to_ecef(pos, 4321.0)
        assert np.allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(pos, axis=1), rtol=1e-14
        )

    def test_full_sidereal_turn_restores_position(self):
        day = 2.0 * math.pi / EARTH.rotation_rate_rad_s
        pos = np.array([100.0, 200.0, 300.0])
        assert np.allclose(rotate_eci_to_ecef(pos, day), pos, atol=1e-9)


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
