"""Independent reference implementations used to check the engine.

The DOP oracle is deliberately written with plain Python loops and
hand-rolled linear algebra so that agreement with the numpy-based
package code is meaningful.  The scalar visibility path (``site_to_ecef``,
``az_el_range``, ``visible_sats``) builds one site's observations one
satellite at a time, for comparison with the engine's vectorized cull.
Nothing here imports a private name from leonav.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from leonav.orbits import EarthModel

#: The scenario's default Earth (WGS-84 radius, no flattening).
EARTH = EarthModel()


@dataclass(frozen=True)
class EcefPosition:
    """Earth-fixed Cartesian position in kilometres."""

    x_km: float
    y_km: float
    z_km: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x_km, self.y_km, self.z_km], dtype=float)


@dataclass(frozen=True)
class SiteObservation:
    """One satellite as seen from a site: topocentric angles and unit LOS."""

    elevation_deg: float
    azimuth_deg: float
    range_km: float
    los_east: float
    los_north: float
    los_up: float


def site_to_ecef(
    lat_deg: float, lon_deg: float, alt_km: float = 0.0, earth: EarthModel = EARTH
) -> EcefPosition:
    """Earth-fixed position of a ground site on the spherical Earth.

    Args:
        lat_deg: geocentric latitude, -90..90.
        lon_deg: longitude, degrees east.
        alt_km: height above the sphere (>= 0).
    """
    if not -90.0 <= lat_deg <= 90.0:
        raise ValueError(f"lat_deg ({lat_deg}) must lie in [-90, 90]")
    if alt_km < 0.0:
        raise ValueError(f"alt_km ({alt_km}) must be >= 0")
    r = earth.radius_km + alt_km
    lat = math.radians(lat_deg)
    lon = math.radians(lon_deg)
    return EcefPosition(
        r * math.cos(lat) * math.cos(lon),
        r * math.cos(lat) * math.sin(lon),
        r * math.sin(lat),
    )


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
    basis = np.array([
        [-math.sin(lon), math.cos(lon), 0.0],
        [-math.sin(lat) * math.cos(lon), -math.sin(lat) * math.sin(lon), math.cos(lat)],
        [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)],
    ])
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


def los_rows(observations) -> np.ndarray:
    """The (k, 3) east/north/up lines of sight ``leonav.geometry.dop`` takes."""
    return np.array([(o.los_east, o.los_north, o.los_up) for o in observations])


def gauss_jordan_inverse(matrix: list[list[float]]) -> list[list[float]]:
    """Inverts a small dense matrix by Gauss-Jordan with partial pivoting."""
    n = len(matrix)
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for row in range(n):
            if row == col:
                continue
            factor = aug[row][col]
            if factor != 0.0:
                aug[row] = [a - factor * b for a, b in zip(aug[row], aug[col])]
    return [row[n:] for row in aug]


def dop_oracle(observations) -> tuple[float, float, float, float, float]:
    """(gdop, pdop, hdop, vdop, tdop) from first principles, no numpy."""
    rows = [[-o.los_east, -o.los_north, -o.los_up, 1.0] for o in observations]
    normal = [[sum(r[i] * r[j] for r in rows) for j in range(4)] for i in range(4)]
    q = gauss_jordan_inverse(normal)
    d = [q[i][i] for i in range(4)]
    return (
        math.sqrt(d[0] + d[1] + d[2] + d[3]),
        math.sqrt(d[0] + d[1] + d[2]),
        math.sqrt(d[0] + d[1]),
        math.sqrt(d[2]),
        math.sqrt(d[3]),
    )


def percentile_positions(values, weights) -> tuple[list[float], list[float]]:
    """The order statistics of a weighted sample, sorted by (value, index),
    and their positions on [0, 1]: the weight before each over the weight
    before the last, summed one term at a time."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    v = [float(values[i]) for i in order]
    w = [float(weights[i]) for i in order]
    cum, total = [], 0.0
    for x in w:
        total += x
        cum.append(total)
    return v, [(c - x) / (cum[-1] - w[-1]) for c, x in zip(cum, w)]


def weighted_percentile_oracle(values, weights, percentile: float) -> float:
    """Weighted percentile, linearly interpolated between the order
    statistics of ``percentile_positions``, without numpy."""
    v, pos = percentile_positions(values, weights)
    p = percentile / 100.0
    i = next(i for i in range(len(v) - 1) if p <= pos[i + 1]) if len(v) > 1 else 0
    if len(v) == 1 or v[i] == v[i + 1]:
        return v[i]
    return v[i] + (p - pos[i]) * (v[i + 1] - v[i]) / (pos[i + 1] - pos[i])


def observation_from_angles(az_deg: float, el_deg: float,
                            range_km: float = 2000.0) -> SiteObservation:
    """Builds a unit-LOS observation straight from pointing angles."""
    az = math.radians(az_deg)
    el = math.radians(el_deg)
    return SiteObservation(
        elevation_deg=el_deg,
        azimuth_deg=az_deg,
        range_km=range_km,
        los_east=math.cos(el) * math.sin(az),
        los_north=math.cos(el) * math.cos(az),
        los_up=math.sin(el),
    )


def random_observations(rng: np.random.Generator, n_sats: int,
                        min_elevation_deg: float = 5.0) -> list[SiteObservation]:
    """n_sats observations with uniform azimuth and elevation above the mask."""
    out = []
    for _ in range(n_sats):
        az = float(rng.uniform(0.0, 360.0))
        el = float(rng.uniform(min_elevation_deg, 85.0))
        out.append(observation_from_angles(az, el, float(rng.uniform(500.0, 25000.0))))
    return out


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish proper rotation matrix from the QR of a Gaussian sample."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def satellite_above(site_ecef: np.ndarray, az_deg: float, el_deg: float,
                    range_km: float) -> np.ndarray:
    """ECEF point at the given topocentric angles and range from a site."""
    r = np.linalg.norm(site_ecef)
    lat = math.asin(site_ecef[2] / r)
    lon = math.atan2(site_ecef[1], site_ecef[0])
    east = np.array([-math.sin(lon), math.cos(lon), 0.0])
    north = np.array(
        [-math.sin(lat) * math.cos(lon), -math.sin(lat) * math.sin(lon), math.cos(lat)]
    )
    up = site_ecef / r
    az = math.radians(az_deg)
    el = math.radians(el_deg)
    los = (
        math.cos(el) * math.sin(az) * east
        + math.cos(el) * math.cos(az) * north
        + math.sin(el) * up
    )
    return site_ecef + range_km * los
