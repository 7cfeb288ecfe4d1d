"""DOP solver, PDOP engine and global-statistics tests.

DOP numbers are checked against a loop-and-Gauss-Jordan oracle
(tests/oracles.py) and against closed-form canonical geometries.  The
vectorized engine is cross-checked sample by sample against the oracle on
observations from the scalar visibility path in tests/oracles.py.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    EARTH,
    EcefPosition,
    dop_oracle,
    los_rows,
    observation_from_angles,
    percentile_positions,
    random_observations,
    random_rotation,
    satellite_above,
    site_to_ecef,
    visible_sats,
    weighted_percentile_oracle,
)

from leonav import geometry, rflink
from leonav.geometry import (
    CONDITION_LIMIT,
    DopValues,
    GroundGrid,
    InsufficientGeometryError,
    SingularGeometryError,
    TimeWindow,
    dop,
    pdop_field,
    pdop_samples,
    percentile_pdop,
    weighted_percentile,
)
from leonav.orbits import (
    WalkerConfig,
    WalkerSpec,
    propagate_arrays,
    rotate_eci_to_ecef,
    walker_constellation,
)
from leonav.schema import SAMPLE_BYTES
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
        assert grid.weight.sum() == pytest.approx(1.0, abs=1e-12)
        # area weights follow cos(latitude)
        w = grid.weight.reshape(16, 32)
        assert np.allclose(w, w[:, :1])
        lat = grid.lat_deg.reshape(16, 32)[:, 0]
        ratio = grid.weight.reshape(16, 32)[:, 0] / np.cos(np.radians(lat))
        assert np.allclose(ratio, ratio[0])

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="at least one"):
            GroundGrid(np.array([]), np.array([]), np.array([]))
        with pytest.raises(ValueError, match="matching shapes"):
            GroundGrid(np.zeros(3), np.zeros(3), np.ones(2) / 2)
        with pytest.raises(ValueError, match="strictly positive"):
            GroundGrid(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="sum to 1"):
            GroundGrid(np.zeros(2), np.zeros(2), np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            GroundGrid.fibonacci(0)
        with pytest.raises(ValueError):
            GroundGrid.latlon(0)

    @pytest.mark.parametrize(
        "lat, lon, weight, message",
        [
            ([math.nan, 0.0], [0.0, 0.0], [0.5, 0.5], "lat_deg must be finite"),
            ([0.0, 0.0], [0.0, math.inf], [0.5, 0.5], "lon_deg must be finite"),
            ([0.0, 0.0], [0.0, 0.0], [math.nan, 1.0], "weight must be finite"),
            ([0.0, 0.0], [0.0, 0.0], [math.inf, 1.0], "weight must be finite"),
            ([200.0, 0.0], [0.0, 0.0], [0.5, 0.5], r"lat_deg must lie in \[-90, 90\]"),
            ([0.0, -90.5], [0.0, 0.0], [0.5, 0.5], r"lat_deg must lie in \[-90, 90\]"),
        ],
    )
    def test_rejects_non_finite_and_off_globe_sites(self, lat, lon, weight, message):
        with pytest.raises(ValueError, match=message):
            GroundGrid(np.array(lat), np.array(lon), np.array(weight))

    def test_poles_are_on_the_globe(self):
        grid = GroundGrid(np.array([90.0, -90.0]), np.zeros(2), np.full(2, 0.5))
        assert len(grid) == 2


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
        d = dop(los_rows(obs))
        assert d.pdop == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-12)
        assert d.hdop == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
        assert d.vdop == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
        assert d.tdop == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
        assert d.gdop == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            obs = random_observations(rng, int(rng.integers(4, 21)))
            got = dop(los_rows(obs))
            want = dop_oracle(obs)
            for a, b in zip((got.gdop, got.pdop, got.hdop, got.vdop, got.tdop), want):
                assert a == pytest.approx(b, rel=1e-9)

    def test_dop_identities(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = dop(los_rows(random_observations(rng, int(rng.integers(4, 21)))))
            assert d.gdop**2 == pytest.approx(d.pdop**2 + d.tdop**2, rel=1e-12)
            assert d.pdop**2 == pytest.approx(d.hdop**2 + d.vdop**2, rel=1e-12)

    def test_adding_a_satellite_never_hurts(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            obs = random_observations(rng, int(rng.integers(4, 15)))
            before = dop(los_rows(obs))
            after = dop(los_rows(obs + random_observations(rng, 1)))
            for name in ("gdop", "pdop", "hdop", "vdop", "tdop"):
                assert getattr(after, name) <= getattr(before, name) * (1.0 + 1e-9)

    def test_insufficient_observations(self):
        obs = random_observations(np.random.default_rng(1), 3)
        with pytest.raises(InsufficientGeometryError, match="need at least 4"):
            dop(los_rows(obs))

    def test_singular_geometry(self):
        # four copies of the same line of sight: rank-deficient normal matrix
        obs = [observation_from_angles(45.0, 30.0)] * 4
        with pytest.raises(SingularGeometryError, match="condition number"):
            dop(los_rows(obs))

    def test_condition_limit_is_strict(self):
        assert CONDITION_LIMIT == 1.0e12

    def test_returns_dataclass(self):
        d = dop(los_rows(random_observations(np.random.default_rng(2), 6)))
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
            base = dop(los_rows(visible_sats(site, [EcefPosition(*s) for s in sats], 5.0)))
            q = random_rotation(rng)
            site_r = EcefPosition(*(q @ site.as_array()))
            sats_r = [EcefPosition(*(q @ s)) for s in sats]
            rot = dop(los_rows(visible_sats(site_r, sats_r, 5.0)))
            for name in ("gdop", "pdop", "hdop", "vdop", "tdop"):
                assert getattr(rot, name) == pytest.approx(
                    getattr(base, name), rel=1e-9
                )


def column(values) -> np.ndarray:
    """One sample per row: the matrix form of a flat sample."""
    return np.asarray(values, dtype=float)[:, None]


class TestWeightedPercentile:
    def test_matches_numpy_for_equal_weights(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            values = rng.normal(size=n) * 10.0
            p = float(rng.uniform(0.5, 100.0))
            got = weighted_percentile(column(values), np.ones(n), p)
            want = float(np.percentile(values, p, method="linear"))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_hand_computed_weighted_case(self):
        values = column([1.0, 2.0, 3.0])
        weights = np.array([1.0, 1.0, 2.0])
        assert weighted_percentile(values, weights, 50.0) == pytest.approx(2.0)
        assert weighted_percentile(values, weights, 75.0) == pytest.approx(2.5)
        assert weighted_percentile(values, weights, 100.0) == pytest.approx(3.0)

    def test_single_sample(self):
        assert weighted_percentile(column([7.5]), np.array([0.3]), 95.0) == 7.5

    @pytest.mark.parametrize(
        "values, want", [([2.0, 2.0, 3.0], 2.88), ([-0.0, 0.0, 1.0], 0.88)]
    )
    def test_ties_break_by_index(self, values, want):
        """The last of the tied values bounds the segment 90 falls in, so
        its weight sets the result: 5, not 1, which would give 2.4 (0.4).
        Signed zeros are equal values too."""
        got = weighted_percentile(column(values), np.array([1.0, 5.0, 1.0]), 90.0)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("distinct", [False, True], ids=["ties", "distinct"])
    def test_matches_an_index_ordered_oracle(self, distinct):
        """Seeded samples of 50 to 5,000 values, past the sort's
        insertion-sort cutoff.  Tied samples draw from a few integers and
        are read between each tie's last value and the next, where the
        tie order shows; distinct ones take the unstable sort alone."""
        rng = np.random.default_rng(59 + distinct)
        for _ in range(12):
            n = int(rng.integers(50, 5001))
            if distinct:
                values = rng.normal(size=n) * 10.0
            else:
                values = rng.integers(0, int(rng.integers(2, 6)), n).astype(float)
            weights = rng.uniform(0.1, 3.0, n)
            v, pos = percentile_positions(values, weights)
            edges = [i for i in range(n - 1) if v[i] < v[i + 1]]
            percentiles = [float(rng.uniform(0.5, 100.0)), 100.0]
            percentiles += [50.0 * (pos[i] + pos[i + 1]) for i in edges[:8]]
            for p in percentiles:
                want = weighted_percentile_oracle(values, weights, p)
                got = weighted_percentile(column(values), weights, p)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("holes", ["nan-holes", "one-defined"])
    @pytest.mark.parametrize("values", ["distinct", "integer-ties"])
    def test_matrix_equals_its_compressed_form(self, values, holes):
        """A (sites, epochs) matrix with NaN holes gives, bit for bit, what
        its defined samples give one per row, each with its site's weight,
        in row-major order; and what the index-ordered oracle gives to
        1e-12 (a single defined sample gives itself).  Integer values tie
        under unequal weights, so the stable sort runs, and reads between
        each tie's last value and the next show its order."""
        rng = np.random.default_rng(
            [("distinct", "integer-ties").index(values), ("nan-holes", "one-defined").index(holes)]
        )
        for _ in range(40):
            sites, epochs = int(rng.integers(1, 40)), int(rng.integers(1, 60))
            if values == "distinct":
                m = rng.uniform(1.0, 50.0, (sites, epochs))
            else:
                m = rng.integers(0, int(rng.integers(2, 6)), (sites, epochs)).astype(float)
            if holes == "nan-holes":
                m[rng.uniform(size=m.shape) < rng.uniform(0.0, 0.9)] = np.nan
                m.flat[rng.integers(m.size)] = 1.0  # at least one defined
            else:
                m[...] = np.nan
                m.flat[rng.integers(m.size)] = 2.5
            weight = rng.uniform(0.1, 3.0, sites)
            defined = np.isfinite(m)
            flat, flat_weight = m[defined], np.broadcast_to(weight[:, None], m.shape)[defined]
            percentiles = [float(rng.uniform(0.5, 100.0)), 100.0]
            if flat.size > 1:
                v, pos = percentile_positions(flat, flat_weight)
                edges = [i for i in range(flat.size - 1) if v[i] < v[i + 1]]
                percentiles += [50.0 * (pos[i] + pos[i + 1]) for i in edges[:8]]
            for p in percentiles:
                got = weighted_percentile(m, weight, p)
                want = weighted_percentile(column(flat), flat_weight, p)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                if flat.size == 1:
                    assert got == flat[0]
                    continue
                oracle = weighted_percentile_oracle(flat, flat_weight, p)
                assert got == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_nan_samples_are_skipped(self):
        """NaN marks an undefined sample: the rest give the percentile,
        wherever the NaN sits in the sort."""
        weights = np.array([1.0, 5.0, 2.0, 1.0])
        want = weighted_percentile(column([2.0, 3.0, 1.0]), weights[[0, 1, 3]], 90.0)
        got = weighted_percentile(column([2.0, 3.0, math.nan, 1.0]), weights, 90.0)
        assert got == want
        rows = np.array([[1.0, math.nan, 4.0], [math.nan, 2.0, 3.0]])
        assert weighted_percentile(rows, np.array([1.0, 1.0]), 50.0) == 2.5

    def test_unsorted_input(self):
        values = column([5.0, 1.0, 3.0, 2.0, 4.0])
        weights = np.ones(5)
        assert weighted_percentile(values, weights, 50.0) == pytest.approx(3.0)

    def test_scale_invariance_in_weights(self):
        rng = np.random.default_rng(41)
        values = rng.normal(size=(4, 5))
        weights = rng.uniform(0.1, 2.0, size=4)
        a = weighted_percentile(values, weights, 95.0)
        b = weighted_percentile(values, weights * 123.0, 95.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_validation(self):
        v, w = column([1.0, 2.0]), np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="percentile"):
            weighted_percentile(v, w, 0.0)
        with pytest.raises(ValueError, match="percentile"):
            weighted_percentile(v, w, 101.0)
        with pytest.raises(ValueError, match="zero defined samples"):
            weighted_percentile(np.empty((0, 3)), np.array([]), 50.0)
        with pytest.raises(ValueError, match="zero defined samples"):
            weighted_percentile(np.full((2, 3), math.nan), w, 50.0)
        with pytest.raises(ValueError, match="one row per site weight"):
            weighted_percentile(v, np.ones(3), 50.0)
        with pytest.raises(ValueError, match="one row per site weight"):
            weighted_percentile(np.array([1.0, 2.0]), w, 50.0)
        with pytest.raises(ValueError, match="strictly positive"):
            weighted_percentile(v, np.array([1.0, 0.0]), 50.0)

    @pytest.mark.parametrize(
        "values, weights, message",
        [
            ([1.0, 2.0, 3.0], [1.0, math.nan, 1.0], "weights must be finite"),
            ([1.0, 2.0, 3.0], [1.0, math.inf, 1.0], "weights must be finite"),
            ([1.0, -math.inf, 3.0], [1.0, 1.0, 1.0], "values must be finite"),
            ([1.0, math.inf, math.nan], [1.0, 1.0, 1.0], "values must be finite"),
            ([math.nan, math.inf, math.nan], [1.0, 1.0, 1.0], "values must be finite"),
        ],
    )
    def test_rejects_non_finite_input(self, values, weights, message):
        with pytest.raises(ValueError, match=message):
            weighted_percentile(column(values), np.array(weights), 50.0)


class TestPdopSamplesEngine:
    def test_matches_scalar_path(self):
        """Every (site, epoch) sample agrees with the oracle on the scalar
        visibility path's observations."""
        spec = WalkerSpec(40, 5, phasing=1, altitude_km=900.0)
        grid = GroundGrid.fibonacci(12)
        window = TimeWindow(duration_s=1200.0, step_s=600.0)
        samples = pdop_samples(spec, grid, window, mask_deg=5.0, earth=EARTH)
        assert samples.pdop.shape == (12, 2)
        assert samples.visible_count.shape == (12, 2)

        elements = walker_constellation(spec, EARTH)
        checked_defined = 0
        for j, t in enumerate(window.epochs()):
            sats = [
                EcefPosition(*rotate_eci_to_ecef(propagate_arrays(
                    *(field[i] for field in elements), float(t), EARTH
                ), float(t), EARTH).tolist())
                for i in range(spec.total_sats)
            ]
            for i in range(len(grid)):
                site = site_to_ecef(float(grid.lat_deg[i]), float(grid.lon_deg[i]))
                obs = visible_sats(site, sats, mask_deg=5.0)
                assert samples.visible_count[i, j] == len(obs)
                if len(obs) < 4:
                    assert math.isnan(samples.pdop[i, j])
                    continue
                assert samples.pdop[i, j] == pytest.approx(dop_oracle(obs)[1], rel=1e-9)
                checked_defined += 1
        assert checked_defined > 0  # the case must actually exercise solutions

    def test_pinned_ill_conditioned_case(self):
        """200 @ 600 km, F=0: samples with exactly four visible satellites
        reach PDOP ~4e5, so rounding differences in how the engine builds
        its rows show up in the pooled p99 well above 1e-10."""
        spec = WalkerSpec(200, 10, phasing=0, altitude_km=600.0)
        grid = GroundGrid.fibonacci(200)
        samples = pdop_samples(spec, grid, TimeWindow(3600.0, 240.0), 5.0, EARTH)
        enough = samples.visible_count >= 4
        defined = samples.defined
        assert int(samples.visible_count.sum()) == 17032
        assert int((~enough).sum()) == 333
        assert int((enough & ~defined).sum()) == 1
        p99 = weighted_percentile(samples.pdop, grid.weight, 99.0)
        assert p99 == pytest.approx(4000.268018480448, rel=1e-10)

    @pytest.mark.parametrize(
        "spec",
        [WalkerSpec(200, 10, phasing=0, altitude_km=600.0), GPS_LIKE],
        ids=["200-600km-F0", "gps-like"],
    )
    def test_closed_form_agrees_with_lapack(self, monkeypatch, spec):
        """With _SURE_CONDITION = 0 every defined sample takes LAPACK's inv."""
        grid = GroundGrid.fibonacci(100)
        window = TimeWindow(21600.0, 2160.0)
        inverted = _count_rows(monkeypatch, "inv")
        shipped = pdop_samples(spec, grid, window, 5.0, EARTH)
        solvable = int((shipped.visible_count >= 4).sum())
        assert 0 < sum(inverted) < solvable  # both paths ran
        inverted.clear()
        monkeypatch.setattr(geometry, "_SURE_CONDITION", 0.0)
        lapack = pdop_samples(spec, grid, window, 5.0, EARTH)
        assert sum(inverted) == int(lapack.defined.sum()) > 0
        assert np.array_equal(shipped.visible_count, lapack.visible_count)
        assert np.array_equal(shipped.defined, lapack.defined)
        defined = lapack.defined
        np.testing.assert_allclose(
            shipped.pdop[defined], lapack.pdop[defined], rtol=1e-12, atol=0.0
        )

    def test_closed_form_bound_holds_on_random_rows(self, monkeypatch):
        """Wherever the bound clears, the eigenvalue condition number is
        within _SURE_CONDITION, and the report's PDOP and all five figures
        of dop, from S's minors and det A, match the inverse.  Criterion
        6(a)'s draws reach both the closed form and the fallback."""
        rng = np.random.default_rng(5)
        normal = np.empty((2000, 4, 4))
        rows = []
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
            rows.append(-g[:, :3])
        sure, proven, minor, det = geometry._schur(
            normal[:, 3, 3], normal[:, :3, 3].T, normal[:, :3, :3].transpose(1, 2, 0)
        )
        assert 0 < sure.sum() < proven.sum() < len(normal)
        assert np.all(proven[sure])
        eig = np.linalg.eigvalsh(normal)
        assert np.all(eig[sure, -1] / eig[sure, 0] <= geometry._SURE_CONDITION)
        assert np.all(eig[proven, -1] / eig[proven, 0] <= geometry._PROVEN_CONDITION)
        q = np.linalg.inv(normal[sure]).diagonal(axis1=1, axis2=2)
        value = np.sqrt((minor[0] + minor[1] + minor[2])[sure] / det[sure])
        np.testing.assert_allclose(value, np.sqrt(q[:, :3].sum(axis=1)), rtol=1e-12, atol=0.0)
        fallback = geometry._fallback
        calls = []
        monkeypatch.setattr(geometry, "_fallback", lambda *a: calls.append(1) or fallback(*a))
        got = [dop(rows[t]) for t in np.flatnonzero(sure)]
        assert not calls
        for name, figure in (("gdop", [0, 1, 2, 3]), ("pdop", [0, 1, 2]), ("hdop", [0, 1]),
                             ("vdop", [2]), ("tdop", [3])):
            np.testing.assert_allclose(
                [getattr(d, name) for d in got], np.sqrt(q[:, figure].sum(axis=1)),
                rtol=1e-12, atol=0.0,
            )

        rng = np.random.default_rng(101)
        for _ in range(1000):
            dop(los_rows(random_observations(rng, int(rng.integers(4, 21)))))
        assert 0 < len(calls) < 1000

    @pytest.mark.parametrize("mask_deg", [0.0, 5.0, 30.0])
    def test_cull_keeps_every_pair_at_the_mask(self, mask_deg):
        """Satellites a hair above and below the mask, counted against
        the elevation test applied to every site x satellite pair."""
        rng = np.random.default_rng(47)
        grid = GroundGrid.fibonacci(20)
        basis = geometry._enu_basis(np.radians(grid.lat_deg), np.radians(grid.lon_deg))
        sites = EARTH.radius_km * basis[2].T
        ecef = np.array([
            satellite_above(site, float(rng.uniform(0.0, 360.0)),
                            mask_deg + offset, float(rng.uniform(400.0, 4000.0)))
            for site in sites for offset in (-1e-10, 1e-10, -1e-10, 1e-10)
        ])
        mask_rad = math.radians(mask_deg)
        count = geometry._block_pdop(basis, ecef[None], EARTH.radius_km, mask_rad)[0][0]
        los = ecef[None, :, :] - sites[:, None, :]
        unit = los / np.linalg.norm(los, axis=-1)[..., None]
        up = np.einsum("nab,nsb->nsa", basis.transpose(2, 0, 1), unit)[..., 2]
        assert np.array_equal(count, (up >= math.sin(math.radians(mask_deg))).sum(axis=1))
        assert count.min() >= 2  # each site sees its own two just above the mask

    @pytest.mark.parametrize("budget", [1, 7 * 60, 50 * 60 - 1])
    def test_site_blocks_do_not_change_samples(self, monkeypatch, budget):
        spec = WalkerSpec(60, 6, phasing=0, altitude_km=600.0)
        grid = GroundGrid.fibonacci(50)
        window = TimeWindow(1200.0, 240.0)
        monkeypatch.setattr(geometry, "_PAIR_BUDGET", 10**9)
        whole = pdop_samples(spec, grid, window, 5.0, EARTH)
        monkeypatch.setattr(geometry, "_PAIR_BUDGET", budget)
        blocked = pdop_samples(spec, grid, window, 5.0, EARTH)
        assert np.array_equal(blocked.pdop, whole.pdop, equal_nan=True)
        assert np.array_equal(blocked.visible_count, whole.visible_count)
        assert np.isnan(whole.pdop).any() and np.isfinite(whole.pdop).any()

    @pytest.mark.parametrize("epochs_per_chunk", [1, 3, 7])
    def test_epoch_chunks_do_not_change_samples(self, monkeypatch, epochs_per_chunk):
        spec = WalkerSpec(60, 6, phasing=0, altitude_km=600.0)
        grid = GroundGrid.fibonacci(50)
        window = TimeWindow(4800.0, 240.0)
        monkeypatch.setattr(geometry, "_PAIR_BUDGET", 10**9)
        whole = pdop_samples(spec, grid, window, 5.0, EARTH)
        monkeypatch.setattr(geometry, "_PAIR_BUDGET", epochs_per_chunk * spec.total_sats)
        chunked = pdop_samples(spec, grid, window, 5.0, EARTH)
        assert np.array_equal(chunked.pdop, whole.pdop, equal_nan=True)
        assert np.array_equal(chunked.visible_count, whole.visible_count)
        assert np.isnan(whole.pdop).any() and np.isfinite(whole.pdop).any()

    def test_wrapped_orbit_calls_follow_the_chunks(self, monkeypatch):
        """One walker call per pdop_samples call and one propagate and one
        rotate call per epoch chunk, looked up as geometry's attributes."""
        calls = {"walker_constellation": 0, "propagate_arrays": 0, "rotate_eci_to_ecef": 0}

        def counting(name):
            fn = getattr(geometry, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(geometry, name, counting(name))
        spec = WalkerSpec(60, 6, phasing=1, altitude_km=900.0)
        monkeypatch.setattr(geometry, "_PAIR_BUDGET", 7 * spec.total_sats)
        pdop_samples(spec, GroundGrid.fibonacci(10), TimeWindow(4800.0, 240.0), 5.0, EARTH)
        # 20 epochs in chunks of 7, 7 and 6.
        assert calls == {"walker_constellation": 1, "propagate_arrays": 3,
                         "rotate_eci_to_ecef": 3}

    @pytest.mark.parametrize("n_epochs", [1000, 2000])
    def test_memory_stays_bounded_over_a_long_window(self, n_epochs):
        """1,000 satellites over up to 2,000 epochs: propagating every epoch
        at once would peak near 170 MB; chunks keep it near 24 MB."""
        spec = WalkerSpec(1000, 25, phasing=1, altitude_km=600.0)
        grid = GroundGrid.fibonacci(4)
        tracemalloc.start()
        try:
            samples = pdop_samples(spec, grid, TimeWindow(60.0 * n_epochs, 60.0), 5.0, EARTH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.pdop.shape == (len(grid), n_epochs)
        assert samples.defined.any()
        assert peak < 48 * 2**20

    @pytest.mark.parametrize("n_epochs", [1000, 4000])
    def test_kernel_memory_stays_bounded_over_a_long_window(self, monkeypatch, n_epochs):
        """GPS-like on 4 sites: a site block holds 2,730 epochs' worth of
        samples, and tiles that filled it would peak near 13 MB in one
        kernel call; tiles sized by expected culled pairs stay near 1 MB
        whatever the window.  The closed form clears every sample of these
        sites, so a second run with _SURE_CONDITION = 0 sends every defined
        sample through LAPACK's inverse, within the same bound."""
        inverted = _count_rows(monkeypatch, "inv")
        block_pdop = geometry._block_pdop
        peaks = []

        def measured(*args):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = block_pdop(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out

        monkeypatch.setattr(geometry, "_block_pdop", measured)
        window = TimeWindow(60.0 * n_epochs, 60.0)
        for sure_condition in (geometry._SURE_CONDITION, 0.0):
            monkeypatch.setattr(geometry, "_SURE_CONDITION", sure_condition)
            peaks.clear()
            inverted.clear()
            tracemalloc.start()
            try:
                samples = pdop_samples(GPS_LIKE, GroundGrid.fibonacci(4), window, 5.0, EARTH)
            finally:
                tracemalloc.stop()
            assert samples.defined.any()
            assert len(peaks) < n_epochs / 100  # tiles of ~250 epochs
            assert max(peaks) < 2 * 2**20
        assert sum(inverted) == samples.defined.sum() > 0

    def test_memory_stays_bounded_on_a_wide_grid(self):
        """One epoch of 1,000 satellites over ~20,000 sites: a dense
        (sites, satellites, 3) array alone would take 480 MB."""
        spec = WalkerSpec(1000, 25, phasing=1, altitude_km=600.0)
        grid = GroundGrid.latlon(20000)
        tracemalloc.start()
        try:
            samples = pdop_samples(spec, grid, TimeWindow(60.0, 60.0), 5.0, EARTH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.pdop.shape == (len(grid), 1)
        assert samples.defined.any()
        assert peak < 128 * 2**20

    @pytest.mark.parametrize("coverage", ["full", "partial"])
    @pytest.mark.parametrize("kind", ["pooled", "worst_site", "pdop_field"])
    def test_pooled_peak_per_sample_is_what_the_sample_bound_assumes(self, kind, coverage):
        """``schema.MAX_SAMPLES`` rests on the peak bytes per sample of a
        pooled percentile over a fully covered grid, and no evaluation
        holds more: not ``worst_site`` or ``pdop_field``, and not a grid
        the constellation covers in part (60/6 at 900 km over a 10° mask
        defines about 8% of samples).  Two window lengths cancel the
        engine's fixed working memory, and both hold arrays past the size
        at which numpy reuses temporaries in place."""
        spec, mask_deg = {
            "full": (GPS_LIKE, 0.0), "partial": (WalkerSpec(60, 6, altitude_km=900.0), 10.0),
        }[coverage]
        grid = GroundGrid.fibonacci(200)
        peaks = []
        for epochs in (200, 600):
            window = TimeWindow(60.0 * epochs, 60.0)
            tracemalloc.start()
            try:
                if kind == "pdop_field":
                    share = float(pdop_field(spec, grid, window, mask_deg, 95.0, EARTH)[1].mean())
                else:
                    share = percentile_pdop(
                        spec, grid, window, mask_deg, 95.0, EARTH, kind
                    ).coverage
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert (share == 1.0) == (coverage == "full")
            assert share > 0.05
        assert (peaks[1] - peaks[0]) / (200 * 400) <= SAMPLE_BYTES

    def test_defined_mask(self):
        spec = WalkerSpec(40, 5, altitude_km=900.0)
        samples = pdop_samples(
            spec, GroundGrid.fibonacci(8), TimeWindow(600.0, 600.0), 5.0, EARTH
        )
        assert np.array_equal(samples.defined, np.isfinite(samples.pdop))

    def test_mask_validation(self):
        with pytest.raises(ValueError, match="mask_deg"):
            pdop_samples(
                WalkerSpec(8, 2), GroundGrid.fibonacci(4), TimeWindow(600.0, 600.0),
                mask_deg=90.0, earth=EARTH,
            )


def _count_rows(monkeypatch, name: str) -> list[int]:
    """The number of matrices handed to each ``np.linalg.<name>`` call."""
    fn = getattr(np.linalg, name)
    rows = []

    def counting(matrices):
        rows.append(len(matrices))
        return fn(matrices)

    monkeypatch.setattr(np.linalg, name, counting)
    return rows


def _record_tiles(monkeypatch) -> list[tuple[int, int]]:
    """The (epochs, sites) shape of each kernel call, recorded as it runs."""
    block_pdop = geometry._block_pdop
    shapes = []

    def recording(basis, ecef, *args):
        shapes.append((ecef.shape[0], basis.shape[-1]))
        return block_pdop(basis, ecef, *args)

    monkeypatch.setattr(geometry, "_block_pdop", recording)
    return shapes


class TestSampleDigest:
    """The bytes of every sample, pinned: a change to the order of the
    engine's floating-point operations shows here even where the pinned
    reports (one 60-site scenario) would not."""

    CASES = {
        "gps-like": (GPS_LIKE, GroundGrid.fibonacci(100)),
        # F=0 polar shell: the ill-conditioned case, with singular samples
        "200@600-F0": (WalkerConfig(phasing=0).design(200, 600.0), GroundGrid.fibonacci(200)),
        "300@900": (WalkerConfig().design(300, 900.0), GroundGrid.latlon(400)),
    }
    #: SHA-256 of the pdop bytes followed by the visible_count bytes.
    DIGEST = {
        ("gps-like", 0.0): "f3461148bb5431848a660548e8fe53f5a60128233ffed497683cffc3d1accd10",
        ("gps-like", 5.0): "17c7a4c58b6348e628f9995c649b0b2cf657a72906f18908c21dcc7cef18ca62",
        ("gps-like", 30.0): "faea4cdf16237ef81880871eac9b97c3912f2bfd1adc1c01d31f5540ad830c5e",
        ("200@600-F0", 0.0): "beae9f692cb29f0e534e4a22d8f1c243ad068f51f130e81de4c6c267f58b4a6c",
        ("200@600-F0", 5.0): "5ce1d8c1ad93ff6daebda6dd36c8ff2740a2c6525b6fa5e93c35985f04bb448f",
        ("200@600-F0", 30.0): "5cfdc33b88cfee3d5d5f73b8c08b2f70b57318c6af62208e819a5efcf79f5aaf",
        ("300@900", 0.0): "273a84e139748cd7c8ea7db4198daa68c4d6ede5579a665a8494460cd65ee98b",
        ("300@900", 5.0): "b7589e3b5d6e2c57f6b3b70c4ad710b5d869c28d60bedaf706e4860c3b0dd8aa",
        ("300@900", 30.0): "450d644f4993ed5971e182becd42af9ef5fba044ab0105379e9c87ee62e47c20",
    }

    @pytest.mark.parametrize(
        "case, mask_deg, epochs_per_block",
        [(case, mask, None) for case in CASES for mask in (0.0, 5.0, 30.0)]
        # blocks of 7 sites and chunks of 7, 7 and 1 epochs: same bytes
        + [("300@900", 5.0, 7)],
    )
    def test_sample_bytes(self, monkeypatch, case, mask_deg, epochs_per_block):
        spec, grid = self.CASES[case]
        if epochs_per_block is not None:
            monkeypatch.setattr(geometry, "_PAIR_BUDGET", epochs_per_block * spec.total_sats + 5)
        samples = pdop_samples(spec, grid, TimeWindow(3600.0, 240.0), mask_deg, EARTH)
        digest = hashlib.sha256(samples.pdop.tobytes() + samples.visible_count.tobytes())
        assert digest.hexdigest() == self.DIGEST[case, mask_deg]

    @pytest.mark.parametrize(
        "case, tile, sites_per_block",
        # 15 epochs: tiles of 2 and 4 leave a ragged last tile
        [("200@600-F0", tile, None) for tile in (1, 2, 3, 4)]
        # tiles across 7-site blocks and 7-epoch propagation chunks
        + [("200@600-F0", 3, 7), ("300@900", 3, 7), ("gps-like", 2, 7)],
    )
    def test_epoch_tiles_keep_the_bytes(self, monkeypatch, case, tile, sites_per_block):
        spec, grid = self.CASES[case]
        shapes = _record_tiles(monkeypatch)
        monkeypatch.setattr(geometry, "_tile_epochs", lambda *args: tile)
        if sites_per_block is not None:
            monkeypatch.setattr(geometry, "_PAIR_BUDGET", sites_per_block * spec.total_sats + 5)
        samples = pdop_samples(spec, grid, TimeWindow(3600.0, 240.0), 5.0, EARTH)
        digest = hashlib.sha256(samples.pdop.tobytes() + samples.visible_count.tobytes())
        assert digest.hexdigest() == self.DIGEST[case, 5.0]
        assert max(k for k, _ in shapes) == tile
        assert sum(k * m for k, m in shapes) == samples.pdop.size

    def test_one_kernel_call_per_tile(self, monkeypatch):
        """300 @ 900 km on 200 sites expects ~2,600 culled pairs an epoch,
        so tiles of 3 epochs stay near _PAIR_BUDGET // 32: 5 kernel calls
        over 15 epochs rather than one per epoch."""
        spec = WalkerConfig().design(300, 900.0)
        shapes = _record_tiles(monkeypatch)
        pdop_samples(spec, GroundGrid.fibonacci(200), TimeWindow(3600.0, 240.0), 5.0, EARTH)
        assert shapes == [(3, 200)] * 5

    @pytest.mark.parametrize(
        "sats, altitude_km, sites, tile",
        [(24, rflink.GPS_ALTITUDE_KM, 500, 2), (195, 1200.0, 200, 3), (216, 1200.0, 200, 3),
         (300, 900.0, 873, 1), (200, 600.0, 200, 6), (24, 1200.0, 200, 29)],
    )
    def test_tile_sizes(self, sats, altitude_km, sites, tile):
        """Expected culled pairs per epoch, sites * T (1 - cos reach) / 2,
        into _PAIR_BUDGET // 32, capped at one site block's samples."""
        radius = EARTH.radius_km
        got = geometry._tile_epochs(sites, sats, radius + altitude_km, radius, math.radians(5.0))
        assert got == tile
        assert got * sites <= max(1, geometry._PAIR_BUDGET // sats)

    @pytest.mark.parametrize("case", CASES)
    def test_each_kernel_call_finishes_its_samples(self, monkeypatch, case):
        """Every kernel call returns the bytes pdop_samples reports for its
        (epochs, sites) slice, undefined samples included, and inverts no
        more matrices than it has samples."""
        spec, grid = self.CASES[case]
        inverted = _count_rows(monkeypatch, "inv")
        block_pdop = geometry._block_pdop
        calls = []  # (count, pdop, rows of each inv call) of each kernel call

        def recording(*args):
            first = len(inverted)
            count, pdop = block_pdop(*args)
            calls.append((count, pdop, inverted[first:]))
            return count, pdop

        monkeypatch.setattr(geometry, "_block_pdop", recording)
        samples = pdop_samples(spec, grid, TimeWindow(3600.0, 240.0), 5.0, EARTH)
        digest = hashlib.sha256(samples.pdop.tobytes() + samples.visible_count.tobytes())
        assert digest.hexdigest() == self.DIGEST[case, 5.0]

        # Calls run tile after tile, each over the site blocks in order.
        site = epoch = 0
        for count, pdop, rows in calls:
            k, m = pdop.shape
            cell = (slice(site, site + m), slice(epoch, epoch + k))
            assert pdop.tobytes() == samples.pdop[cell].T.copy().tobytes()
            assert np.array_equal(count, samples.visible_count[cell].T)
            assert len(rows) <= 1 and sum(rows) <= k * m
            site += m
            if site == len(grid):
                site, epoch = 0, epoch + k
        assert (site, epoch) == (0, samples.pdop.shape[1])
        assert inverted
        if case == "200@600-F0":
            assert ((samples.visible_count >= 4) & ~samples.defined).any()


    @pytest.mark.parametrize("case, mask_deg", DIGEST)
    def test_compressed_pairs_keep_the_bytes(self, monkeypatch, case, mask_deg):
        """The kernel compresses its pair arrays only when a culled pair
        fails the exact elevation test.  At the shipped cull none does; a
        cull widened by 0.05 rad of reach keeps such pairs in every kernel
        call, and the samples keep their bytes."""
        spec, grid = self.CASES[case]
        block_pdop = geometry._block_pdop
        pairs = []  # (culled, visible) of each kernel call

        def recording(basis, ecef, radius_km, mask_rad):
            out = block_pdop(basis, ecef, radius_km, mask_rad)
            r = np.linalg.norm(ecef, axis=-1)
            bound = r * np.cos(geometry._reach(r, radius_km, mask_rad)) - 1e-6
            culled = sum(int((s @ basis[2] >= b[:, None]).sum()) for s, b in zip(ecef, bound))
            pairs.append((culled, int(out[0].sum())))
            return out

        monkeypatch.setattr(geometry, "_block_pdop", recording)
        window = TimeWindow(3600.0, 240.0)
        pdop_samples(spec, grid, window, mask_deg, EARTH)
        assert all(culled == visible for culled, visible in pairs)
        pairs.clear()
        reach = geometry._reach
        monkeypatch.setattr(geometry, "_reach", lambda *args: reach(*args) + 0.05)
        samples = pdop_samples(spec, grid, window, mask_deg, EARTH)
        assert pairs and all(culled > visible for culled, visible in pairs)
        digest = hashlib.sha256(samples.pdop.tobytes() + samples.visible_count.tobytes())
        assert digest.hexdigest() == self.DIGEST[case, mask_deg]

    @pytest.mark.parametrize("case, mask_deg", DIGEST)
    def test_eigenvalue_test_keeps_the_bytes(self, monkeypatch, case, mask_deg):
        """Fallback samples whose bound proves them defined skip eigvalsh;
        GPS-like at masks up to 5 degrees calls it not at all.  With
        _PROVEN_CONDITION = 0 every fallback sample takes the test, the
        singular ones still fail it, and the samples keep their bytes."""
        spec, grid = self.CASES[case]
        tested = _count_rows(monkeypatch, "eigvalsh")
        inverted = _count_rows(monkeypatch, "inv")
        window = TimeWindow(3600.0, 240.0)
        shipped = pdop_samples(spec, grid, window, mask_deg, EARTH)
        singular = int(((shipped.visible_count >= 4) & ~shipped.defined).sum())
        fallback = sum(inverted) + singular
        assert singular <= sum(tested) <= fallback
        if case == "gps-like" and mask_deg <= 5.0:
            assert fallback > 0 and not tested
        tested.clear()
        inverted.clear()
        monkeypatch.setattr(geometry, "_PROVEN_CONDITION", 0.0)
        samples = pdop_samples(spec, grid, window, mask_deg, EARTH)
        assert sum(tested) == fallback
        assert sum(inverted) == fallback - singular
        digest = hashlib.sha256(samples.pdop.tobytes() + samples.visible_count.tobytes())
        assert digest.hexdigest() == self.DIGEST[case, mask_deg]


class TestPercentilePdop:
    def test_pooled_statistic(self):
        spec = WalkerSpec(60, 6, altitude_km=900.0)
        grid = GroundGrid.fibonacci(32)
        window = TimeWindow(1800.0, 600.0)
        out = percentile_pdop(spec, grid, window, 5.0, 95.0, EARTH, "pooled")
        assert out.value > 0.0
        assert 0.0 <= out.coverage <= 1.0
        # pooled percentile reproducible from the raw samples
        samples = pdop_samples(spec, grid, window, 5.0, EARTH)
        defined = samples.defined
        ref = weighted_percentile(samples.pdop, grid.weight, 95.0)
        assert out.value == pytest.approx(ref, rel=1e-12)
        assert out.coverage == pytest.approx(defined.sum() / defined.size)

    def test_worst_site_not_below_any_site_percentile(self):
        spec = WalkerSpec(60, 6, altitude_km=900.0)
        grid = GroundGrid.fibonacci(16)
        window = TimeWindow(1800.0, 600.0)
        worst = percentile_pdop(spec, grid, window, 5.0, 95.0, EARTH, "worst_site")
        values, _ = pdop_field(spec, grid, window, 5.0, 95.0, EARTH)
        finite = values[np.isfinite(values)]
        assert worst.value == pytest.approx(float(finite.max()), rel=1e-12)

    @pytest.mark.parametrize("aggregation", ["pooled", "worst_site"])
    def test_no_coverage_is_a_none_value(self, aggregation):
        # Warnings fail the suite, so this also checks that no all-NaN
        # reduction runs on the empty sample set.
        lonely = WalkerSpec(1, 1, phasing=0, altitude_km=900.0)
        out = percentile_pdop(
            lonely, GroundGrid.fibonacci(6), TimeWindow(600.0, 600.0),
            aggregation=aggregation, mask_deg=5.0, percentile=95.0, earth=EARTH,
        )
        assert out.value is None
        assert out.coverage == 0.0

    def test_aggregation_validation(self):
        with pytest.raises(ValueError, match="aggregation"):
            percentile_pdop(
                WalkerSpec(8, 2), GroundGrid.fibonacci(4), TimeWindow(600.0, 600.0),
                aggregation="median", mask_deg=5.0, percentile=95.0, earth=EARTH,
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
            if np.isnan(pdop[i]).all():
                assert math.isnan(got[i])
                continue
            want = weighted_percentile(pdop[i : i + 1], np.ones(1), percentile)
            assert got[i] == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="percentile"):
            geometry._site_percentiles(np.ones((2, 3)), 0.0)


class TestPdopField:
    def test_shapes_and_nan_for_uncovered_sites(self):
        spec = WalkerSpec(40, 5, altitude_km=900.0)
        grid = GroundGrid.fibonacci(16)
        window = TimeWindow(1200.0, 600.0)
        values, coverage = pdop_field(spec, grid, window, 5.0, 95.0, EARTH)
        assert values.shape == (16,)
        assert coverage.shape == (16,)
        assert np.all((coverage >= 0.0) & (coverage <= 1.0))
        assert np.array_equal(np.isnan(values), coverage == 0.0)
