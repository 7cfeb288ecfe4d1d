"""Visibility, DOP, and global-statistics engine tests.

DOP numbers are checked against a loop-and-Gauss-Jordan oracle
(tests/oracles.py) and against closed-form canonical geometries; the
vectorized engine is cross-checked sample by sample against the scalar
visible_sats + dop path.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    dop_oracle,
    observation_from_angles,
    random_observations,
    random_rotation,
    satellite_above,
)

from leonav import geometry
from leonav.geometry import (
    CONDITION_LIMIT,
    DopValues,
    GroundGrid,
    InsufficientGeometryError,
    NoCoverageError,
    SingularGeometryError,
    TimeWindow,
    az_el_range,
    dop,
    pdop_field,
    pdop_samples,
    percentile_pdop,
    visible_sats,
    weighted_percentile,
)
from leonav.orbits import (
    EARTH,
    EcefPosition,
    WalkerSpec,
    propagate_arrays,
    rotate_eci_to_ecef,
    site_to_ecef,
    walker_constellation,
)
from leonav.tradestudy import GPS_LIKE


class TestTimeWindow:
    def test_defaults_give_desk_scale_window(self):
        w = TimeWindow()
        assert w.duration_s == 21600.0
        assert w.step_s == 120.0
        assert w.n_epochs == 180

    def test_epochs_are_half_open(self):
        w = TimeWindow(duration_s=600.0, step_s=120.0)
        assert w.n_epochs == 5
        assert w.epochs().tolist() == [0.0, 120.0, 240.0, 360.0, 480.0]

    def test_single_epoch_window(self):
        w = TimeWindow(duration_s=60.0, step_s=60.0)
        assert w.epochs().tolist() == [0.0]

    @pytest.mark.parametrize(
        "duration, step, message",
        [
            (600.0, 0.0, "step_s"),
            (30.0, 60.0, "duration_s"),
            (1000.0, 300.0, "must divide"),
        ],
    )
    def test_rejects_bad_windows(self, duration, step, message):
        with pytest.raises(ValueError, match=message):
            TimeWindow(duration_s=duration, step_s=step)


class TestGroundGrid:
    def test_fibonacci_layout(self):
        grid = GroundGrid.fibonacci(500)
        assert len(grid) == 500
        assert grid.scheme == "fibonacci"
        assert grid.resolution == 500
        assert np.allclose(grid.weight, 1.0 / 500)
        assert grid.weight.sum() == pytest.approx(1.0, abs=1e-12)
        # strictly descending latitude, never touching the poles
        assert np.all(np.diff(grid.lat_deg) < 0.0)
        assert np.all(np.abs(grid.lat_deg) < 90.0)
        assert np.all((grid.lon_deg >= -180.0) & (grid.lon_deg < 180.0))

    def test_fibonacci_is_deterministic(self):
        a = GroundGrid.fibonacci(97)
        b = GroundGrid.fibonacci(97)
        assert np.array_equal(a.lat_deg, b.lat_deg)
        assert np.array_equal(a.lon_deg, b.lon_deg)

    def test_latlon_layout(self):
        grid = GroundGrid.latlon(500)
        # nearest n_lat x 2 n_lat product: 16 x 32
        assert len(grid) == 512
        assert grid.scheme == "latlon"
        assert grid.weight.sum() == pytest.approx(1.0, abs=1e-12)
        # area weights follow cos(latitude)
        w = grid.weight.reshape(16, 32)
        assert np.allclose(w, w[:, :1])
        lat = grid.lat_deg.reshape(16, 32)[:, 0]
        ratio = grid.weight.reshape(16, 32)[:, 0] / np.cos(np.radians(lat))
        assert np.allclose(ratio, ratio[0])

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="at least one"):
            GroundGrid(np.array([]), np.array([]), np.array([]), "x", 0)
        with pytest.raises(ValueError, match="matching shapes"):
            GroundGrid(np.zeros(3), np.zeros(3), np.ones(2) / 2, "x", 3)
        with pytest.raises(ValueError, match="strictly positive"):
            GroundGrid(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), "x", 2)
        with pytest.raises(ValueError, match="sum to 1"):
            GroundGrid(np.zeros(2), np.zeros(2), np.array([0.7, 0.7]), "x", 2)
        with pytest.raises(ValueError):
            GroundGrid.fibonacci(0)
        with pytest.raises(ValueError):
            GroundGrid.latlon(0)


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


class TestDop:
    def test_canonical_zenith_plus_horizon_triangle(self):
        # one satellite overhead, three on the horizon 120 deg apart:
        # the normal matrix is closed-form and so are all five DOPs
        obs = [
            observation_from_angles(0.0, 90.0),
            observation_from_angles(0.0, 0.0),
            observation_from_angles(120.0, 0.0),
            observation_from_angles(240.0, 0.0),
        ]
        # N = diag(3/2, 3/2) ++ [[1, -1], [-1, 4]], so the covariance
        # diagonal is (2/3, 2/3, 4/3, 1/3)
        d = dop(obs)
        assert d.pdop == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-12)
        assert d.hdop == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
        assert d.vdop == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
        assert d.tdop == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
        assert d.gdop == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            obs = random_observations(rng, int(rng.integers(4, 21)))
            got = dop(obs)
            want = dop_oracle(obs)
            for a, b in zip((got.gdop, got.pdop, got.hdop, got.vdop, got.tdop), want):
                assert a == pytest.approx(b, rel=1e-9)

    def test_dop_identities(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = dop(random_observations(rng, int(rng.integers(4, 21))))
            assert d.gdop**2 == pytest.approx(d.pdop**2 + d.tdop**2, rel=1e-12)
            assert d.pdop**2 == pytest.approx(d.hdop**2 + d.vdop**2, rel=1e-12)

    def test_adding_a_satellite_never_hurts(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            obs = random_observations(rng, int(rng.integers(4, 15)))
            before = dop(obs)
            after = dop(obs + random_observations(rng, 1))
            for name in ("gdop", "pdop", "hdop", "vdop", "tdop"):
                assert getattr(after, name) <= getattr(before, name) * (1.0 + 1e-9)

    def test_insufficient_observations(self):
        obs = random_observations(np.random.default_rng(1), 3)
        with pytest.raises(InsufficientGeometryError, match="need at least 4"):
            dop(obs)

    def test_singular_geometry(self):
        # four copies of the same line of sight: rank-deficient normal matrix
        obs = [observation_from_angles(45.0, 30.0)] * 4
        with pytest.raises(SingularGeometryError, match="condition number"):
            dop(obs)

    def test_condition_limit_is_strict(self):
        assert CONDITION_LIMIT == 1.0e12

    def test_returns_dataclass(self):
        d = dop(random_observations(np.random.default_rng(2), 6))
        assert isinstance(d, DopValues)
        assert d.gdop > d.pdop > 0.0


class TestRotationInvariance:
    def test_dop_invariant_under_earth_fixed_rotation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
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
            base = dop(visible_sats(site, [EcefPosition(*s) for s in sats], 5.0))
            q = random_rotation(rng)
            site_r = EcefPosition(*(q @ site.as_array()))
            sats_r = [EcefPosition(*(q @ s)) for s in sats]
            rot = dop(visible_sats(site_r, sats_r, 5.0))
            for name in ("gdop", "pdop", "hdop", "vdop", "tdop"):
                assert getattr(rot, name) == pytest.approx(
                    getattr(base, name), rel=1e-9
                )


class TestWeightedPercentile:
    def test_matches_numpy_for_equal_weights(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            values = rng.normal(size=n) * 10.0
            p = float(rng.uniform(0.5, 100.0))
            got = weighted_percentile(values, np.ones(n), p)
            want = float(np.percentile(values, p, method="linear"))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_hand_computed_weighted_case(self):
        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 1.0, 2.0])
        assert weighted_percentile(values, weights, 50.0) == pytest.approx(2.0)
        assert weighted_percentile(values, weights, 75.0) == pytest.approx(2.5)
        assert weighted_percentile(values, weights, 100.0) == pytest.approx(3.0)

    def test_single_sample(self):
        assert weighted_percentile(np.array([7.5]), np.array([0.3]), 95.0) == 7.5

    def test_unsorted_input(self):
        values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        weights = np.ones(5)
        assert weighted_percentile(values, weights, 50.0) == pytest.approx(3.0)

    def test_scale_invariance_in_weights(self):
        rng = np.random.default_rng(41)
        values = rng.normal(size=20)
        weights = rng.uniform(0.1, 2.0, size=20)
        a = weighted_percentile(values, weights, 95.0)
        b = weighted_percentile(values, weights * 123.0, 95.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_validation(self):
        v, w = np.array([1.0, 2.0]), np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="percentile"):
            weighted_percentile(v, w, 0.0)
        with pytest.raises(ValueError, match="percentile"):
            weighted_percentile(v, w, 101.0)
        with pytest.raises(ValueError, match="zero samples"):
            weighted_percentile(np.array([]), np.array([]), 50.0)
        with pytest.raises(ValueError, match="matching shapes"):
            weighted_percentile(v, np.ones(3), 50.0)
        with pytest.raises(ValueError, match="strictly positive"):
            weighted_percentile(v, np.array([1.0, 0.0]), 50.0)


class TestPdopSamplesEngine:
    def test_matches_scalar_path(self):
        """Every (site, epoch) sample agrees with visible_sats + dop."""
        spec = WalkerSpec(40, 5, phasing=1, altitude_km=900.0)
        grid = GroundGrid.fibonacci(12)
        window = TimeWindow(duration_s=1200.0, step_s=600.0)
        samples = pdop_samples(spec, grid, window, mask_deg=5.0)
        assert samples.pdop.shape == (12, 2)
        assert samples.visible_count.shape == (12, 2)

        elements = walker_constellation(spec)
        checked_defined = 0
        for j, t in enumerate(window.epochs()):
            sats = [
                EcefPosition(*rotate_eci_to_ecef(propagate_arrays(
                    e.semimajor_km, e.inclination_rad, e.raan_rad,
                    e.initial_anomaly_rad, float(t),
                ), float(t)).tolist())
                for e in elements
            ]
            for i in range(len(grid)):
                site = site_to_ecef(float(grid.lat_deg[i]), float(grid.lon_deg[i]))
                obs = visible_sats(site, sats, mask_deg=5.0)
                assert samples.visible_count[i, j] == len(obs)
                if len(obs) < 4:
                    assert math.isnan(samples.pdop[i, j])
                    continue
                try:
                    expected = dop(obs).pdop
                except SingularGeometryError:
                    assert math.isnan(samples.pdop[i, j])
                    continue
                assert samples.pdop[i, j] == pytest.approx(expected, rel=1e-9)
                checked_defined += 1
        assert checked_defined > 0  # the case must actually exercise solutions

    def test_pinned_ill_conditioned_case(self):
        """200 @ 600 km, F=0: samples with exactly four visible satellites
        reach PDOP ~4e5, so rounding differences in how the engine builds
        its rows show up in the pooled p99 well above 1e-10."""
        spec = WalkerSpec(200, 10, phasing=0, altitude_km=600.0)
        grid = GroundGrid.fibonacci(200)
        samples = pdop_samples(spec, grid, TimeWindow(3600.0, 240.0))
        enough = samples.visible_count >= 4
        defined = samples.defined
        assert int(samples.visible_count.sum()) == 17032
        assert int((~enough).sum()) == 333
        assert int((enough & ~defined).sum()) == 1
        w = np.broadcast_to(grid.weight[:, None], defined.shape)
        p99 = weighted_percentile(samples.pdop[defined], w[defined], 99.0)
        assert p99 == pytest.approx(4000.268018480448, rel=1e-10)

    @pytest.mark.parametrize(
        "spec",
        [WalkerSpec(200, 10, phasing=0, altitude_km=600.0), GPS_LIKE],
        ids=["200-600km-F0", "gps-like"],
    )
    def test_closed_form_agrees_with_lapack(self, monkeypatch, spec):
        """With _SURE_CONDITION = 0 every sample takes eigvalsh + inv."""
        grid = GroundGrid.fibonacci(100)
        window = TimeWindow(21600.0, 2160.0)
        eigvalsh = np.linalg.eigvalsh
        fallback = []

        def counting_eigvalsh(matrices):
            fallback.append(len(matrices))
            return eigvalsh(matrices)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        shipped = pdop_samples(spec, grid, window)
        solvable = int((shipped.visible_count >= 4).sum())
        assert 0 < sum(fallback) < solvable  # both paths ran
        fallback.clear()
        monkeypatch.setattr(geometry, "_SURE_CONDITION", 0.0)
        lapack = pdop_samples(spec, grid, window)
        assert sum(fallback) == solvable
        assert np.array_equal(shipped.visible_count, lapack.visible_count)
        assert np.array_equal(shipped.defined, lapack.defined)
        defined = lapack.defined
        np.testing.assert_allclose(
            shipped.pdop[defined], lapack.pdop[defined], rtol=1e-12, atol=0.0
        )

    def test_closed_form_bound_holds_on_random_rows(self):
        """Wherever the bound clears, the eigenvalue condition number is
        within _SURE_CONDITION and the closed form matches the inverse."""
        rng = np.random.default_rng(5)
        normal = np.empty((2000, 4, 4))
        for t in range(len(normal)):
            k = int(rng.integers(4, 13))
            # Azimuth and elevation spans from narrow to full sky, so some
            # row sets clear the bound and others do not.
            az = np.radians(rng.uniform(0.0, rng.uniform(30.0, 360.0), k))
            el = np.radians(5.0 + rng.uniform(0.0, rng.uniform(10.0, 85.0), k))
            g = np.column_stack([
                -np.cos(el) * np.sin(az), -np.cos(el) * np.cos(az), -np.sin(el),
                np.ones(k),
            ])
            normal[t] = g.T @ g
        sure, value = geometry._closed_form_pdop(
            normal[:, 3, 3], normal[:, :3, 3].T, normal[:, :3, :3].transpose(1, 2, 0)
        )
        assert 0 < sure.sum() < len(normal)
        eig = np.linalg.eigvalsh(normal)
        assert np.all(eig[sure, -1] / eig[sure, 0] <= geometry._SURE_CONDITION)
        q = np.linalg.inv(normal[sure])
        expected = np.sqrt(q[:, 0, 0] + q[:, 1, 1] + q[:, 2, 2])
        np.testing.assert_allclose(value, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mask_deg", [0.0, 5.0, 30.0])
    def test_cull_keeps_every_pair_at_the_mask(self, mask_deg):
        """Satellites a hair above and below the mask, counted against
        the elevation test applied to every site x satellite pair."""
        rng = np.random.default_rng(47)
        grid = GroundGrid.fibonacci(20)
        basis = geometry._enu_basis(np.radians(grid.lat_deg), np.radians(grid.lon_deg))
        sites = EARTH.radius_km * basis[:, 2, :]
        ecef = np.array([
            satellite_above(site, float(rng.uniform(0.0, 360.0)),
                            mask_deg + offset, float(rng.uniform(400.0, 4000.0)))
            for site in sites for offset in (-1e-10, 1e-10, -1e-10, 1e-10)
        ])
        count, _ = geometry._block_pdop(basis, ecef, EARTH.radius_km, math.radians(mask_deg))
        los = ecef[None, :, :] - sites[:, None, :]
        unit = los / np.linalg.norm(los, axis=-1)[..., None]
        up = np.einsum("nab,nsb->nsa", basis, unit)[..., 2]
        assert np.array_equal(count, (up >= math.sin(math.radians(mask_deg))).sum(axis=1))
        assert count.min() >= 2  # each site sees its own two just above the mask

    @pytest.mark.parametrize("budget", [1, 7 * 60, 50 * 60 - 1])
    def test_site_blocks_do_not_change_samples(self, monkeypatch, budget):
        spec = WalkerSpec(60, 6, phasing=0, altitude_km=600.0)
        grid = GroundGrid.fibonacci(50)
        window = TimeWindow(1200.0, 240.0)
        monkeypatch.setattr(geometry, "_PAIR_BUDGET", 10**9)
        whole = pdop_samples(spec, grid, window)
        monkeypatch.setattr(geometry, "_PAIR_BUDGET", budget)
        blocked = pdop_samples(spec, grid, window)
        assert np.array_equal(blocked.pdop, whole.pdop, equal_nan=True)
        assert np.array_equal(blocked.visible_count, whole.visible_count)
        assert np.isnan(whole.pdop).any() and np.isfinite(whole.pdop).any()

    def test_memory_stays_bounded_on_a_wide_grid(self):
        """One epoch of 1,000 satellites over ~20,000 sites: a dense
        (sites, satellites, 3) array alone would take 480 MB."""
        spec = WalkerSpec(1000, 25, phasing=1, altitude_km=600.0)
        grid = GroundGrid.latlon(20000)
        tracemalloc.start()
        try:
            samples = pdop_samples(spec, grid, TimeWindow(60.0, 60.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.pdop.shape == (len(grid), 1)
        assert samples.defined.any()
        assert peak < 128 * 2**20

    def test_defined_mask(self):
        spec = WalkerSpec(40, 5, altitude_km=900.0)
        samples = pdop_samples(
            spec, GroundGrid.fibonacci(8), TimeWindow(600.0, 600.0)
        )
        assert np.array_equal(samples.defined, np.isfinite(samples.pdop))

    def test_mask_validation(self):
        with pytest.raises(ValueError, match="mask_deg"):
            pdop_samples(
                WalkerSpec(8, 2), GroundGrid.fibonacci(4), TimeWindow(600.0, 600.0),
                mask_deg=90.0,
            )


class TestPercentilePdop:
    def test_pooled_statistic(self):
        spec = WalkerSpec(60, 6, altitude_km=900.0)
        grid = GroundGrid.fibonacci(32)
        window = TimeWindow(1800.0, 600.0)
        out = percentile_pdop(spec, grid, window, percentile=95.0)
        assert out.value > 0.0
        assert 0.0 <= out.coverage <= 1.0
        # pooled percentile reproducible from the raw samples
        samples = pdop_samples(spec, grid, window)
        defined = samples.defined
        w = np.broadcast_to(grid.weight[:, None], defined.shape)
        ref = weighted_percentile(samples.pdop[defined], w[defined], 95.0)
        assert out.value == pytest.approx(ref, rel=1e-12)
        assert out.coverage == pytest.approx(defined.sum() / defined.size)

    def test_worst_site_not_below_any_site_percentile(self):
        spec = WalkerSpec(60, 6, altitude_km=900.0)
        grid = GroundGrid.fibonacci(16)
        window = TimeWindow(1800.0, 600.0)
        worst = percentile_pdop(spec, grid, window, aggregation="worst_site")
        values, _ = pdop_field(spec, grid, window, percentile=95.0)
        finite = values[np.isfinite(values)]
        assert worst.value == pytest.approx(float(finite.max()), rel=1e-12)

    def test_no_coverage_raises(self):
        lonely = WalkerSpec(1, 1, phasing=0, altitude_km=900.0)
        with pytest.raises(NoCoverageError):
            percentile_pdop(lonely, GroundGrid.fibonacci(6), TimeWindow(600.0, 600.0))

    def test_aggregation_validation(self):
        with pytest.raises(ValueError, match="aggregation"):
            percentile_pdop(
                WalkerSpec(8, 2), GroundGrid.fibonacci(4), TimeWindow(600.0, 600.0),
                aggregation="median",
            )


class TestSitePercentiles:
    @pytest.mark.parametrize("percentile", [0.5, 50.0, 95.0, 97.5, 100.0])
    def test_matches_weighted_percentile_row_by_row(self, percentile):
        rng = np.random.default_rng(43)
        pdop = rng.uniform(1.0, 50.0, size=(300, 9))
        pdop[rng.uniform(size=pdop.shape) < 0.4] = np.nan
        pdop[0] = np.nan  # a site with no defined sample
        pdop[1, 1:] = np.nan  # a site with a single one
        got = geometry._site_percentiles(pdop, percentile)
        assert math.isnan(got[0])
        for i in range(1, pdop.shape[0]):
            row = pdop[i, np.isfinite(pdop[i])]
            if row.size == 0:
                assert math.isnan(got[i])
                continue
            want = weighted_percentile(row, np.ones_like(row), percentile)
            assert got[i] == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="percentile"):
            geometry._site_percentiles(np.ones((2, 3)), 0.0)


class TestPdopField:
    def test_shapes_and_nan_for_uncovered_sites(self):
        spec = WalkerSpec(40, 5, altitude_km=900.0)
        grid = GroundGrid.fibonacci(16)
        window = TimeWindow(1200.0, 600.0)
        values, coverage = pdop_field(spec, grid, window)
        assert values.shape == (16,)
        assert coverage.shape == (16,)
        assert np.all((coverage >= 0.0) & (coverage <= 1.0))
        assert np.array_equal(np.isnan(values), coverage == 0.0)
