"""Constellation generation, propagation, and frame rotation tests."""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest

from leonav.geometry import TimeWindow
from leonav.schema import ALTITUDE_KM, MAX_SATS, MU_KM3_S2, WINDOW_S, ScenarioError
from leonav.orbits import (
    EarthModel,
    WalkerConfig,
    WalkerSpec,
    default_planes,
    is_plane_friendly,
    propagate_arrays,
    rotate_eci_to_ecef,
    walker_constellation,
)

EARTH = EarthModel()


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

    def test_phase_resolves_a_millimetre_at_the_corner_of_the_bounds(self):
        """The smallest orbit radius the radius and altitude bounds allow,
        the largest mu and the longest window: propagate_arrays takes n t
        unreduced, and its float spacing must still resolve 1 mm."""
        earth = EarthModel(radius_km=1.0, mu_km3_s2=MU_KM3_S2[1])
        a = earth.radius_km + ALTITUDE_KM[0]
        t = TimeWindow(duration_s=WINDOW_S[1], step_s=WINDOW_S[1]).duration_s
        assert a * np.spacing(math.sqrt(earth.mu_km3_s2 / a**3) * t) < 1e-6
        for mu in (MU_KM3_S2[0] / 2.0, MU_KM3_S2[1] * 2.0):
            with pytest.raises(ScenarioError, match=r"earth.mu_km3_s2: must be in \[1, 1e\+07\]"):
                EarthModel(mu_km3_s2=mu)
        with pytest.raises(ScenarioError, match=r"window.duration_s: must be in \[1, 1e\+06\]"):
            TimeWindow(duration_s=WINDOW_S[1] * 2.0, step_s=WINDOW_S[1])


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


def nearest_divisor_oracle(total: int) -> int:
    """Every divisor of total, nearest to sqrt(total), ties to the larger."""
    root = math.sqrt(total)
    divisors = [d for d in range(1, total + 1) if total % d == 0]
    return min(divisors, key=lambda d: (abs(d - root), -d))


def walker_oracle(spec: WalkerSpec) -> list[tuple[float, float, float, float]]:
    """Per-satellite elements by the scalar formulas, plane-major."""
    semimajor = EARTH.radius_km + spec.altitude_km
    inc = math.radians(spec.inclination_deg)
    in_plane_step = 360.0 * spec.planes / spec.total_sats
    phase_step = spec.phasing * 360.0 / spec.total_sats
    return [
        (
            semimajor,
            inc,
            math.radians(j * spec.raan_spread_deg / spec.planes) % (2.0 * math.pi),
            math.radians(k * in_plane_step + j * phase_step) % (2.0 * math.pi),
        )
        for j in range(spec.planes)
        for k in range(spec.sats_per_plane)
    ]


class TestDefaultPlanes:
    @pytest.mark.parametrize(
        "total, planes",
        [(1, 1), (4, 2), (16, 4), (24, 4), (36, 6), (300, 15), (360, 18), (7, 1)],
    )
    def test_divisor_nearest_square_root(self, total, planes):
        got = default_planes(total)
        assert got == planes
        assert total % got == 0

    def test_matches_all_divisor_oracle(self):
        mismatches = [
            t for t in range(1, 3001) if default_planes(t) != nearest_divisor_oracle(t)
        ]
        assert mismatches == []

    def test_plane_friendly_ladder_is_unchanged(self):
        assert sum(is_plane_friendly(t) for t in range(1, 1001)) == 336

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_planes(0)


def _request(planes: int | None, phasing: int = 1) -> WalkerConfig:
    return WalkerConfig(total_sats=planes or 1, planes=planes, phasing=phasing)


class TestWalkerDesign:
    #: SHA-256 of "T,P,F;" for every design on the grid of ``test_design_digest``.
    DIGEST = "7c421d4138153d303dfcfc561d024fddcd00055923bd557daf1f7544ee86f6a5"

    def test_design_digest(self):
        """Unpinned T in 1..3000 and pinned P in 1..40 with T in 1..400,
        each at phasing 0..3: the snapped size, planes and folded phasing."""
        digest = hashlib.sha256()
        for phasing in range(4):
            cases = [(None, 3000)] + [(planes, 400) for planes in range(1, 41)]
            for planes, ceiling in cases:
                config = _request(planes, phasing)
                for total in range(1, ceiling + 1):
                    spec = config.design(total, 900.0)
                    digest.update(f"{spec.total_sats},{spec.planes},{spec.phasing};".encode())
        assert digest.hexdigest() == self.DIGEST

    @pytest.mark.parametrize(
        "total, planes, snapped",
        # round() takes halves to even: 10/4 = 2.5 and 6/4 = 1.5 both give 2 x 4
        [(10, 4, 8), (6, 4, 8), (14, 4, 16), (2, 4, 4), (100, 24, 96), (36, 5, 35)],
    )
    def test_pinned_planes_round_half_to_even(self, total, planes, snapped):
        spec = _request(planes).design(total, 900.0)
        assert (spec.total_sats, spec.planes) == (snapped, planes)

    @pytest.mark.parametrize(
        "total, snapped, planes",
        [
            (300, 300, 15),
            (24, 24, 4),
            # 26 maps 2 x 13 and 27 maps 3 x 9 (unbalanced); 25 = 5 x 5
            (26, 25, 5),
            # 17 is prime; 16 and 18 are both friendly: ties go to the larger
            (17, 18, 3),
        ],
    )
    def test_unpinned_snaps_to_nearest_friendly(self, total, snapped, planes):
        spec = WalkerConfig().design(total, 900.0)
        assert (spec.total_sats, spec.planes) == (snapped, planes)

    def test_defaults_from_request(self):
        spec = WalkerConfig().design(300, 700.0)
        assert spec == WalkerSpec(300, 15, 1, 700.0, 90.0, 180.0)

    def test_phasing_folds_into_plane_count(self):
        spec = WalkerConfig(phasing=3).design(1, 900.0)  # one plane forces F = 0
        assert (spec.planes, spec.phasing) == (1, 0)
        assert _request(6, 8).design(24, 900.0).phasing == 2

    def test_pinned_planes_respected(self):
        config = WalkerConfig(total_sats=24, planes=6, phasing=2, raan_spread_deg=360.0)
        assert config.design(24, 1200.0) == WalkerSpec(24, 6, 2, 1200.0, 90.0, 360.0)

    @pytest.mark.parametrize("planes", [None, 1, 4, 7])
    def test_ladder_is_exactly_the_sizes_design_keeps(self, planes):
        config = _request(planes)
        kept = [t for t in range(1, 201) if config.design(t, 900.0).total_sats == t]
        assert config.ladder(200) == kept

    @pytest.mark.parametrize("planes", [None, 1, 4, 7, 12])
    def test_ladder_matches_the_per_size_filter_at_every_ceiling(self, planes):
        """The factor-pair ladder against the filter it replaces: every
        size that is plane-friendly, or a multiple of the pinned count."""
        config = _request(planes)
        if planes is None:
            kept = [t for t in range(1, 3001) if is_plane_friendly(t)]
        else:
            kept = [t for t in range(1, 3001) if t % planes == 0]
        for ceiling in range(-1, 3001):
            assert config.ladder(ceiling) == kept[:bisect_right(kept, ceiling)], ceiling

    def test_ladder_below_the_pinned_plane_count_is_empty(self):
        assert _request(12).ladder(11) == []
        assert _request(12).ladder(12) == [12]

    def test_ladder_length_at_the_size_bound(self):
        assert len(WalkerConfig().ladder(MAX_SATS)) == 26_870
        assert len(_request(7).ladder(MAX_SATS)) == MAX_SATS // 7

    def test_design_is_a_request(self):
        """A resolved design is a WalkerConfig that designs itself."""
        spec = WalkerSpec(24, 6, 5, 1100.0, 55.0, 360.0)
        assert isinstance(spec, WalkerConfig)
        assert spec.design(24, 1100.0) == spec

    def test_rejects_nonpositive_size(self):
        for config in (WalkerConfig(), _request(5)):
            with pytest.raises(ValueError, match="total_sats"):
                config.design(0, 900.0)

    def test_size_bound(self):
        """Sizes up to MAX_SATS design; above it design refuses at once
        rather than factoring the size."""
        assert WalkerConfig().design(MAX_SATS, 900.0).total_sats == MAX_SATS
        for config in (WalkerConfig(), _request(5)):
            with pytest.raises(ValueError, match=f"total_sats .* <= {MAX_SATS}"):
                config.design(10**29, 900.0)


    def test_pinned_seven_planes_at_the_bound(self):
        assert _request(7).design(MAX_SATS, 900.0).total_sats == 99_995

    @pytest.mark.parametrize("planes", [7, 13, 24, 40, 999, 50_000, MAX_SATS])
    def test_pinned_planes_never_snap_past_the_bound(self, planes):
        """The nearest multiple of P may exceed MAX_SATS (100,002 for
        P = 7); the largest multiple of P within it is taken instead."""
        largest = MAX_SATS // planes * planes
        for total in (MAX_SATS - planes // 2, MAX_SATS - 1, MAX_SATS):
            spec = _request(planes).design(total, 900.0)
            assert (spec.total_sats, spec.planes) == (largest, planes)

    def test_unpinned_never_snaps_past_the_bound(self, monkeypatch):
        """Under a bound of 99,998 the nearest friendly size to 99,998 is
        99,999 (one above) and 99,997 (one below); the bound keeps the lower."""
        assert not is_plane_friendly(99_998)
        assert is_plane_friendly(99_997) and is_plane_friendly(99_999)
        monkeypatch.setattr("leonav.orbits.MAX_SATS", 99_998)
        assert WalkerConfig().design(99_998, 900.0).total_sats == 99_997


class TestPlaneFriendly:
    @pytest.mark.parametrize("total", [1, 2, 4, 18, 24, 25, 96, 300])
    def test_friendly_sizes(self, total):
        assert is_plane_friendly(total)
        p = default_planes(total)
        s = total // p
        assert max(p, s) <= 2 * min(p, s)

    @pytest.mark.parametrize("total", [0, 7, 13, 26, 27])
    def test_unfriendly_sizes(self, total):
        assert not is_plane_friendly(total)


class TestWalkerConstellation:
    def test_star_pattern_geometry(self):
        spec = WalkerSpec(6, 3, phasing=1, altitude_km=1000.0, raan_spread_deg=180.0)
        elements = walker_constellation(spec, EARTH)
        assert all(len(field) == 6 for field in elements)
        assert elements.semimajor_km == pytest.approx([EARTH.radius_km + 1000.0] * 6)
        assert np.degrees(elements.raan_rad) == pytest.approx([0, 0, 60, 60, 120, 120])
        # in-plane step 360 P / T = 180 deg, inter-plane phase F * 360 / T = 60 deg
        assert np.degrees(elements.initial_anomaly_rad) == pytest.approx(
            [0, 180, 60, 240, 120, 300]
        )

    def test_delta_pattern_spreads_full_circle(self):
        spec = WalkerSpec(6, 3, phasing=1, raan_spread_deg=360.0)
        raans = np.unique(np.degrees(walker_constellation(spec, EARTH).raan_rad))
        assert raans == pytest.approx([0, 120, 240])

    def test_zero_phasing_aligns_planes(self):
        spec = WalkerSpec(8, 4, phasing=0)
        anomalies = np.degrees(walker_constellation(spec, EARTH).initial_anomaly_rad)
        assert set(np.round(anomalies, 9)) == {0.0, 180.0}

    def test_angles_normalized(self):
        # 10/5/4: plane 4's second slot starts at 180 + 4 * 144 = 756 deg,
        # which wraps to 36 deg.
        spec = WalkerSpec(10, 5, phasing=4, raan_spread_deg=360.0)
        elements = walker_constellation(spec, EARTH)
        for angles in (elements.raan_rad, elements.initial_anomaly_rad):
            assert np.all((angles >= 0.0) & (angles < 2.0 * math.pi))
        assert math.degrees(elements.initial_anomaly_rad[9]) == pytest.approx(36.0)

    @pytest.mark.parametrize("spread", [180.0, 360.0])
    @pytest.mark.parametrize(
        "total, planes, phasing",
        [(1, 1, 0), (24, 6, 1), (24, 6, 5), (40, 5, 2), (97, 97, 48), (300, 15, 7)],
    )
    def test_matches_per_satellite_formula(self, total, planes, phasing, spread):
        spec = WalkerSpec(total, planes, phasing, 600.0, 53.0, spread)
        assert np.array_equal(
            np.column_stack(walker_constellation(spec, EARTH)), np.array(walker_oracle(spec))
        )

    def test_small_body_uses_its_own_radius(self):
        moon = EarthModel(radius_km=1737.4, mu_km3_s2=4902.8, rotation_rate_rad_s=2.6617e-6)
        elements = walker_constellation(WalkerSpec(6, 3, altitude_km=100.0), moon)
        assert elements.semimajor_km == pytest.approx([1837.4] * 6)


class TestPropagation:
    def test_full_period_returns_to_start(self):
        a = EARTH.radius_km + 1000.0
        period = 2.0 * math.pi * math.sqrt(a**3 / EARTH.mu_km3_s2)
        assert period == pytest.approx(6307.119406698, abs=1e-6)
        start = propagate_arrays(a, 1.0, 0.4, 0.3, 0.0, EARTH)
        assert propagate_arrays(a, 1.0, 0.4, 0.3, period, EARTH) == pytest.approx(start, abs=1e-6)

    def test_radius_conserved_along_orbit(self):
        for t in np.linspace(0.0, 7200.0, 13):
            pos = propagate_arrays(7378.137, math.radians(53.0), 1.1, 0.7, float(t), EARTH)
            assert np.linalg.norm(pos) == pytest.approx(7378.137, rel=1e-12)

    def test_quarter_period_advances_ninety_degrees(self):
        a = 7378.137
        quarter = 0.5 * math.pi * math.sqrt(a**3 / EARTH.mu_km3_s2)
        pos = propagate_arrays(a, 0.0, 0.0, 0.0, quarter, EARTH)
        assert pos == pytest.approx([0.0, a, 0.0], abs=1e-6)

    def test_equatorial_orbit_stays_in_plane(self):
        assert propagate_arrays(7000.0, 0.0, 0.3, 0.0, 1234.5, EARTH)[2] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_polar_orbit_passes_over_pole(self):
        a = 7278.137
        quarter = 0.5 * math.pi * math.sqrt(a**3 / EARTH.mu_km3_s2)
        pos = propagate_arrays(a, math.radians(90.0), 0.0, 0.0, quarter, EARTH)
        assert pos == pytest.approx([0.0, 0.0, a], abs=1e-6)

    def test_array_propagation_matches_scalar(self):
        rng = np.random.default_rng(7)
        a = 6800.0 + 1000.0 * rng.random(5)
        inc = rng.uniform(0.0, math.pi, 5)
        raan = rng.uniform(0.0, 2 * math.pi, 5)
        m0 = rng.uniform(0.0, 2 * math.pi, 5)
        batch = propagate_arrays(a, inc, raan, m0, 512.0, EARTH)
        assert batch.shape == (5, 3)
        for idx in range(5):
            single = propagate_arrays(a[idx], inc[idx], raan[idx], m0[idx], 512.0, EARTH)
            assert np.allclose(batch[idx], single, rtol=1e-14, atol=0.0)


class TestFrames:
    def test_identity_at_epoch(self):
        pos = np.array([1234.0, -567.0, 89.0])
        assert np.allclose(rotate_eci_to_ecef(pos, 0.0, EARTH), pos)

    def test_rotation_direction(self):
        # A fixed inertial point drifts westward in the rotating frame.
        t = 600.0
        theta = EARTH.rotation_rate_rad_s * t
        out = rotate_eci_to_ecef(np.array([1.0, 0.0, 0.0]), t, EARTH)
        assert out == pytest.approx([math.cos(theta), -math.sin(theta), 0.0])

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(size=(20, 3)) * 7000.0
        out = rotate_eci_to_ecef(pos, 4321.0, EARTH)
        assert np.allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(pos, axis=1), rtol=1e-14
        )

    def test_full_sidereal_turn_restores_position(self):
        day = 2.0 * math.pi / EARTH.rotation_rate_rad_s
        pos = np.array([100.0, 200.0, 300.0])
        assert np.allclose(rotate_eci_to_ecef(pos, day, EARTH), pos, atol=1e-9)
