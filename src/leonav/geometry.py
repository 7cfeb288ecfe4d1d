"""Topocentric visibility, dilution of precision, and global PDOP statistics.

The single observable is geometry: unit lines of sight from ground sites
to satellites expressed in the local east/north/up frame.  DOP values
come from the covariance of the four-parameter (position + clock)
least-squares solution, Q = inv(G' G) with one geometry-matrix row
``[-e, -n, -u, 1]`` per visible satellite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .orbits import (
    EARTH,
    EarthModel,
    EcefPosition,
    WalkerSpec,
    propagate_arrays,
    rotate_eci_to_ecef,
    walker_constellation,
)

#: Condition-number ceiling for the normal matrix; above it the solution
#: is treated as singular rather than inverted.
CONDITION_LIMIT = 1.0e12

#: Condition-number bound under which the PDOP engine takes the closed form
#: instead of LAPACK; far enough below ``CONDITION_LIMIT`` that no sample
#: it clears could be singular, and low enough that the two agree to ~1e-12.
_SURE_CONDITION = 1.0e4

#: Site x satellite pairs the PDOP engine tests for visibility at once; the
#: site axis is processed in blocks of this many pairs, which bounds its
#: working memory whatever the grid and constellation sizes.
_PAIR_BUDGET = 1 << 18

_GOLDEN_ANGLE_RAD = math.pi * (3.0 - math.sqrt(5.0))


class GeometryError(Exception):
    """Base class for observation-geometry failures."""


class InsufficientGeometryError(GeometryError):
    """Fewer visible satellites than the four the solution needs."""


class SingularGeometryError(GeometryError):
    """Normal matrix numerically singular (condition number too large)."""


class NoCoverageError(GeometryError):
    """No (site, epoch) sample in the run produced a defined PDOP."""


@dataclass(frozen=True)
class TimeWindow:
    """Sampling window: epochs k*step_s for k in [0, duration_s/step_s).

    The step must divide the duration; the end point is excluded.
    """

    duration_s: float = 21600.0
    step_s: float = 120.0

    def __post_init__(self) -> None:
        if self.step_s <= 0.0:
            raise ValueError(f"step_s ({self.step_s}) must be strictly positive")
        if self.duration_s < self.step_s:
            raise ValueError(
                f"duration_s ({self.duration_s}) must be >= step_s ({self.step_s})"
            )
        ratio = self.duration_s / self.step_s
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"step_s ({self.step_s}) must divide duration_s ({self.duration_s})"
            )

    @property
    def n_epochs(self) -> int:
        return round(self.duration_s / self.step_s)

    def epochs(self) -> np.ndarray:
        return np.arange(self.n_epochs, dtype=float) * self.step_s


@dataclass(frozen=True, eq=False)
class GroundGrid:
    """Weighted set of ground sites used for global statistics.

    Weights are strictly positive and sum to one.
    """

    lat_deg: np.ndarray
    lon_deg: np.ndarray
    weight: np.ndarray
    scheme: str
    resolution: int

    def __post_init__(self) -> None:
        lat = np.asarray(self.lat_deg, dtype=float)
        lon = np.asarray(self.lon_deg, dtype=float)
        w = np.asarray(self.weight, dtype=float)
        if lat.size < 1:
            raise ValueError("GroundGrid needs at least one site")
        if not (lat.shape == lon.shape == w.shape):
            raise ValueError("lat_deg, lon_deg, weight must have matching shapes")
        if np.any(w <= 0.0):
            raise ValueError("site weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError(f"site weights must sum to 1 (got {w.sum()!r})")
        object.__setattr__(self, "lat_deg", lat)
        object.__setattr__(self, "lon_deg", lon)
        object.__setattr__(self, "weight", w)

    def __len__(self) -> int:
        return int(self.lat_deg.size)

    @classmethod
    def fibonacci(cls, n_sites: int = 500) -> "GroundGrid":
        """Equal-area Fibonacci-sphere lattice; every site weighs 1/n."""
        if n_sites < 1:
            raise ValueError(f"n_sites ({n_sites}) must be >= 1")
        i = np.arange(n_sites, dtype=float)
        z = 1.0 - (2.0 * i + 1.0) / n_sites
        lat = np.degrees(np.arcsin(z))
        lon = np.degrees((i * _GOLDEN_ANGLE_RAD) % (2.0 * math.pi))
        lon = np.where(lon >= 180.0, lon - 360.0, lon)
        weight = np.full(n_sites, 1.0 / n_sites)
        return cls(lat, lon, weight, scheme="fibonacci", resolution=n_sites)

    @classmethod
    def latlon(cls, n_sites: int = 500) -> "GroundGrid":
        """Regular latitude/longitude grid with cos(latitude) area weights.

        The actual site count is the nearest n_lat x (2 n_lat) product to
        the request.
        """
        if n_sites < 1:
            raise ValueError(f"n_sites ({n_sites}) must be >= 1")
        n_lat = max(1, round(math.sqrt(n_sites / 2.0)))
        n_lon = 2 * n_lat
        lat_centers = -90.0 + (np.arange(n_lat) + 0.5) * 180.0 / n_lat
        lon_centers = -180.0 + (np.arange(n_lon) + 0.5) * 360.0 / n_lon
        lat = np.repeat(lat_centers, n_lon)
        lon = np.tile(lon_centers, n_lat)
        weight = np.cos(np.radians(lat))
        weight = weight / weight.sum()
        return cls(lat, lon, weight, scheme="latlon", resolution=n_sites)


@dataclass(frozen=True)
class SiteObservation:
    """One satellite as seen from a site: topocentric angles and unit LOS."""

    elevation_deg: float
    azimuth_deg: float
    range_km: float
    los_east: float
    los_north: float
    los_up: float


@dataclass(frozen=True)
class DopValues:
    """The five dilution-of-precision figures of one solution geometry."""

    gdop: float
    pdop: float
    hdop: float
    vdop: float
    tdop: float


@dataclass(frozen=True)
class PercentilePdop:
    """Global percentile PDOP plus the defined-sample coverage fraction."""

    value: float
    coverage: float


@dataclass(frozen=True, eq=False)
class PdopSamples:
    """Raw per-(site, epoch) engine output.

    ``pdop`` is NaN where the sample is undefined (fewer than four
    visible satellites, or a singular normal matrix).
    """

    pdop: np.ndarray
    visible_count: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return np.isfinite(self.pdop)


def _enu_basis(lat_rad: np.ndarray, lon_rad: np.ndarray) -> np.ndarray:
    """Rows of the east/north/up basis for each site, shape (n, 3, 3)."""
    sin_lat, cos_lat = np.sin(lat_rad), np.cos(lat_rad)
    sin_lon, cos_lon = np.sin(lon_rad), np.cos(lon_rad)
    zeros = np.zeros_like(lat_rad)
    east = np.stack([-sin_lon, cos_lon, zeros], axis=-1)
    north = np.stack([-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat], axis=-1)
    up = np.stack([cos_lat * cos_lon, cos_lat * sin_lon, sin_lat], axis=-1)
    return np.stack([east, north, up], axis=-2)


def az_el_range(
    site: EcefPosition, sat: EcefPosition
) -> tuple[float, float, float, tuple[float, float, float]]:
    """Topocentric azimuth, elevation, range, and ENU unit line of sight.

    Azimuth is measured clockwise from north in [0, 360); elevation is
    positive above the local horizon.

    Returns:
        (azimuth_deg, elevation_deg, range_km, (east, north, up)).
    """
    site_v = site.as_array()
    los = sat.as_array() - site_v
    rng = float(np.linalg.norm(los))
    if rng == 0.0:
        raise ValueError("site and satellite positions coincide")
    r_site = float(np.linalg.norm(site_v))
    if r_site == 0.0:
        raise ValueError("site position is at the Earth's center")
    lat = math.asin(site_v[2] / r_site)
    lon = math.atan2(site_v[1], site_v[0])
    basis = _enu_basis(np.array([lat]), np.array([lon]))[0]
    enu = basis @ (los / rng)
    elevation = math.degrees(math.asin(min(1.0, max(-1.0, enu[2]))))
    azimuth = math.degrees(math.atan2(enu[0], enu[1])) % 360.0
    return azimuth, elevation, rng, (float(enu[0]), float(enu[1]), float(enu[2]))


def visible_sats(
    site: EcefPosition,
    sats: Iterable[EcefPosition],
    mask_deg: float = 5.0,
) -> list[SiteObservation]:
    """Observations of exactly the satellites at or above the elevation mask.

    Order follows the input satellite order (deterministic).
    """
    if not 0.0 <= mask_deg < 90.0:
        raise ValueError(f"mask_deg ({mask_deg}) must lie in [0, 90)")
    out = []
    for sat in sats:
        az, el, rng, enu = az_el_range(site, sat)
        if el >= mask_deg:
            out.append(SiteObservation(el, az, rng, *enu))
    return out


def dop(observations: Sequence[SiteObservation]) -> DopValues:
    """DOP figures for a set of observations from one site.

    Builds one geometry-matrix row [-e, -n, -u, 1] per observation and
    inverts the normal matrix.

    Raises:
        InsufficientGeometryError: fewer than four observations.
        SingularGeometryError: normal-matrix condition number above
            ``CONDITION_LIMIT``.
    """
    k = len(observations)
    if k < 4:
        raise InsufficientGeometryError(
            f"insufficient geometry: {k} observations, need at least 4"
        )
    g = np.empty((k, 4), dtype=float)
    for i, obs in enumerate(observations):
        g[i, 0] = -obs.los_east
        g[i, 1] = -obs.los_north
        g[i, 2] = -obs.los_up
        g[i, 3] = 1.0
    normal = g.T @ g
    svals = np.linalg.svd(normal, compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = svals[0] / svals[-1] if svals[-1] > 0.0 else math.inf
    if not cond <= CONDITION_LIMIT:
        raise SingularGeometryError(
            f"singular geometry: condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    q = np.linalg.inv(normal)
    d = np.diag(q)
    return DopValues(
        gdop=math.sqrt(d.sum()),
        pdop=math.sqrt(d[0] + d[1] + d[2]),
        hdop=math.sqrt(d[0] + d[1]),
        vdop=math.sqrt(d[2]),
        tdop=math.sqrt(d[3]),
    )


def pdop_samples(
    spec: WalkerSpec,
    grid: GroundGrid,
    window: TimeWindow,
    mask_deg: float = 5.0,
    earth: EarthModel = EARTH,
) -> PdopSamples:
    """PDOP of every (site, epoch) sample for one constellation.

    Vectorized equivalent of visible_sats + dop over the whole grid and
    window; undefined samples (insufficient or singular geometry) are NaN.
    Sites are taken in blocks of about ``_PAIR_BUDGET`` site x satellite
    pairs, so memory does not grow with grid size times constellation size.
    """
    if not 0.0 <= mask_deg < 90.0:
        raise ValueError(f"mask_deg ({mask_deg}) must lie in [0, 90)")
    elements = walker_constellation(spec, earth)
    a = np.array([e.semimajor_km for e in elements])
    inc = np.array([e.inclination_rad for e in elements])
    raan = np.array([e.raan_rad for e in elements])
    m0 = np.array([e.initial_anomaly_rad for e in elements])

    lat = np.radians(grid.lat_deg)
    lon = np.radians(grid.lon_deg)
    basis = _enu_basis(lat, lon)  # (n, 3, 3)
    mask_rad = math.radians(mask_deg)

    n_sites = len(grid)
    epochs = window.epochs()
    values = np.full((n_sites, epochs.size), np.nan)
    counts = np.zeros((n_sites, epochs.size), dtype=np.int32)
    block = max(1, _PAIR_BUDGET // spec.total_sats)

    for j, t in enumerate(epochs):
        eci = propagate_arrays(a, inc, raan, m0, float(t), earth)
        ecef = rotate_eci_to_ecef(eci, float(t), earth)  # (s, 3)
        for lo in range(0, n_sites, block):
            rows = slice(lo, lo + block)
            counts[rows, j], values[rows, j] = _block_pdop(
                basis[rows], ecef, earth.radius_km, mask_rad
            )

    return PdopSamples(pdop=values, visible_count=counts)


def _block_pdop(
    basis: np.ndarray, ecef: np.ndarray, radius_km: float, mask_rad: float
) -> tuple[np.ndarray, np.ndarray]:
    """Visible counts and PDOP of one block of sites at one epoch.

    A satellite at radius r is seen at elevation e or higher exactly when
    its central angle from the site is at most acos(R cos(e) / r) - e,
    i.e. when up . sat clears a per-satellite bound; one matmul of the
    site up-vectors with the satellite positions culls the rest.  Rows
    are built only for the surviving pairs, and the elevation test runs on
    their ENU up component, so the cull saves work without changing any
    sample.  Rows stay in ENU rather than ECEF: PDOP is rotation-invariant
    only in exact arithmetic, and a sample whose four satellites are
    barely independent (PDOP ~1e5) magnifies the rounding of a change of
    frame far past 1e-10.  Well-conditioned samples, nearly all of them,
    take PDOP in closed form from the per-site sums.
    """
    m = basis.shape[0]
    up = basis[:, 2, :]
    r = np.linalg.norm(ecef, axis=1)
    reach = np.arccos(np.minimum(1.0, radius_km * math.cos(mask_rad) / r)) - mask_rad
    # A millimetre of slack, so rounding never culls a pair the exact test keeps.
    site, sat = np.nonzero(up @ ecef.T >= r * np.cos(reach) - 1e-6)

    los = ecef[sat] - radius_km * up[site]
    unit = los / np.linalg.norm(los, axis=-1)[:, None]
    enu = np.einsum("pab,pb->pa", basis[site], unit)
    vis = enu[:, 2] >= math.sin(mask_rad)
    site = site[vis]
    e = enu[vis].T  # (3, visible pairs), site-major, satellites in input order

    # Per-site sums of the geometry rows [-e, -n, -u, 1], for the sites with
    # the four satellites a solution needs: the count k, b = -sum e and
    # A = sum e e^T, so that the normal matrix is N = [[A, b], [b^T, k]].
    count = np.bincount(site, minlength=m)
    pdop = np.full(m, np.nan)
    enough = np.flatnonzero(count >= 4)
    k = count[enough].astype(float)
    b = np.stack([-np.bincount(site, e[i], minlength=m)[enough] for i in range(3)])
    a = np.empty((3, 3, enough.size))
    for i in range(3):
        for j in range(i, 3):
            a[i, j] = a[j, i] = np.bincount(site, e[i] * e[j], minlength=m)[enough]

    sure, value = _closed_form_pdop(k, b, a)
    pdop[enough[sure]] = value

    # The rest keep the eigenvalue test and LAPACK's inverse, so undefined
    # masks and the values of nearly singular samples do not depend on the
    # closed form.
    rest = ~sure
    enough = enough[rest]
    if enough.size:
        sub = np.empty((enough.size, 4, 4))
        sub[:, :3, :3] = a[:, :, rest].transpose(2, 0, 1)
        sub[:, :3, 3] = sub[:, 3, :3] = b[:, rest].T
        sub[:, 3, 3] = k[rest]
        eig = np.linalg.eigvalsh(sub)  # ascending; the matrices are symmetric PSD
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(eig[:, 0] > 0.0, eig[:, -1] / eig[:, 0], np.inf)
        good = cond <= CONDITION_LIMIT
        if good.any():
            q = np.linalg.inv(sub[good])
            pdop[enough[good]] = np.sqrt(q[:, 0, 0] + q[:, 1, 1] + q[:, 2, 2])
    return count, pdop


def _closed_form_pdop(
    k: np.ndarray, b: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """PDOP of the samples that are provably well-conditioned.

    Takes the blocks of normal matrices N = [[A, b], [b^T, k]] with the
    sample axis last (k: (n,), b: (3, n), A: (3, 3, n)).  For symmetric
    PSD N, cond(N) <= tr(N)^4 / det(N), and det(N) = k det S with
    S = A - b b^T / k the Schur complement of k; the position block of
    inv(N) is inv(S), so PDOP^2 = (sum of S's principal 2x2 minors) / det S.

    Returns:
        (sure, pdop): the mask of samples whose bound is within
        ``_SURE_CONDITION``, and the PDOP of those samples.
    """
    s = a - b[:, None] * b[None, :] / k
    minor = [s[i, i] * s[j, j] - s[i, j] ** 2 for i, j in ((1, 2), (0, 2), (0, 1))]
    det = (
        s[0, 0] * minor[0]
        - s[0, 1] * (s[0, 1] * s[2, 2] - s[1, 2] * s[0, 2])
        + s[0, 2] * (s[0, 1] * s[1, 2] - s[1, 1] * s[0, 2])
    )
    trace = a[0, 0] + a[1, 1] + a[2, 2] + k
    sure = trace**4 <= _SURE_CONDITION * k * det
    return sure, np.sqrt((minor[0] + minor[1] + minor[2])[sure] / det[sure])


def weighted_percentile(
    values: np.ndarray, weights: np.ndarray, percentile: float
) -> float:
    """Weighted percentile with linear interpolation between order statistics.

    Reduces exactly to numpy's linear method for equal weights; ties in
    value break by sample index, so the result is permutation-stable for
    (value, weight) pairs and deterministic for a fixed input order.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile ({percentile}) must lie in (0, 100]")
    v = np.asarray(values, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot take a percentile of zero samples")
    if v.shape != w.shape:
        raise ValueError("values and weights must have matching shapes")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    if v.size == 1:
        return float(v[0])
    order = np.argsort(v, kind="stable")
    v = v[order]
    w = w[order]
    cum = np.cumsum(w)
    # Position of each order statistic on [0, 1]; equal weights give i/(n-1).
    pos = (cum - w) / (cum[-1] - w[-1])
    return float(np.interp(percentile / 100.0, pos, v))


def percentile_pdop(
    spec: WalkerSpec,
    grid: GroundGrid,
    window: TimeWindow,
    mask_deg: float = 5.0,
    percentile: float = 95.0,
    earth: EarthModel = EARTH,
    aggregation: str = "pooled",
) -> PercentilePdop:
    """Global percentile PDOP of one constellation over a grid and window.

    Pooled aggregation (default) takes the site-weighted percentile over
    every defined (site, epoch) sample; "worst_site" takes the per-site
    percentile over time and returns the worst site's value.  Coverage is
    the plain fraction of samples with a defined PDOP.

    Raises:
        NoCoverageError: no sample produced a defined PDOP.
    """
    if aggregation not in ("pooled", "worst_site"):
        raise ValueError(
            f"aggregation ({aggregation!r}) must be 'pooled' or 'worst_site'"
        )
    samples = pdop_samples(spec, grid, window, mask_deg, earth)
    defined = samples.defined
    coverage = float(defined.sum()) / defined.size
    if not defined.any():
        raise NoCoverageError(
            "no coverage: every (site, epoch) sample has undefined PDOP"
        )
    if aggregation == "pooled":
        w = np.broadcast_to(grid.weight[:, None], defined.shape)
        value = weighted_percentile(
            samples.pdop[defined], w[defined], percentile
        )
        return PercentilePdop(value=value, coverage=coverage)
    worst = float(np.nanmax(_site_percentiles(samples.pdop, percentile)))
    return PercentilePdop(value=worst, coverage=coverage)


def _site_percentiles(pdop: np.ndarray, percentile: float) -> np.ndarray:
    """Each row's percentile over its defined samples; NaN for empty rows.

    Same linear method as ``weighted_percentile`` with equal weights: rows
    sorted with NaN last, interpolated at (n_i - 1) * percentile / 100.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile ({percentile}) must lie in (0, 100]")
    ordered = np.sort(pdop, axis=1)
    n = np.isfinite(pdop).sum(axis=1)
    last = np.maximum(n - 1, 0)
    pos = last * (percentile / 100.0)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, last)
    v_lo = np.take_along_axis(ordered, lo[:, None], axis=1)[:, 0]
    v_hi = np.take_along_axis(ordered, hi[:, None], axis=1)[:, 0]
    return np.where(n > 0, v_lo + (pos - lo) * (v_hi - v_lo), np.nan)


def pdop_field(
    spec: WalkerSpec,
    grid: GroundGrid,
    window: TimeWindow,
    mask_deg: float = 5.0,
    percentile: float = 95.0,
    earth: EarthModel = EARTH,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-site percentile PDOP over the window.

    Returns:
        (values, coverage): arrays over sites; values are NaN for sites
        with no defined sample, coverage is each site's defined fraction.
    """
    samples = pdop_samples(spec, grid, window, mask_deg, earth)
    coverage = samples.defined.mean(axis=1)
    return _site_percentiles(samples.pdop, percentile), coverage
