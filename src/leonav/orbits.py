"""Walker constellation generation and circular two-body propagation.

Spherical Earth, circular orbits, abstract epoch (t = 0 s).  Public
interfaces use kilometres and degrees; element state is stored in
radians.  Frames: propagation happens in a non-rotating Earth-centered
inertial frame; ``rotate_eci_to_ecef`` rotates into the Earth-fixed frame by
the sidereal angle accumulated since epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EarthModel:
    """Spherical Earth constants.

    Defaults are the WGS-84 equatorial radius, the standard gravitational
    parameter, and the sidereal rotation rate; no flattening.
    """

    radius_km: float = 6378.137
    mu_km3_s2: float = 398600.4418
    rotation_rate_rad_s: float = 7.2921159e-5

    def __post_init__(self) -> None:
        for name in ("radius_km", "mu_km3_s2", "rotation_rate_rad_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"EarthModel.{name} must be strictly positive")


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
class CircularElements:
    """Circular orbit state: size, orientation, and epoch anomaly.

    Angles are radians and are normalized to [0, 2*pi) on construction.
    """

    semimajor_km: float
    inclination_rad: float
    raan_rad: float
    initial_anomaly_rad: float

    def __post_init__(self) -> None:
        if self.semimajor_km <= 0.0:
            raise ValueError(f"semimajor_km ({self.semimajor_km}) must be strictly positive")
        object.__setattr__(self, "raan_rad", self.raan_rad % _TWO_PI)
        object.__setattr__(
            self, "initial_anomaly_rad", self.initial_anomaly_rad % _TWO_PI
        )


@dataclass(frozen=True)
class WalkerSpec:
    """Symmetric circular constellation: T satellites, P planes, phasing F.

    ``raan_spread_deg`` selects the pattern family: 180 spreads the
    ascending nodes over a half circle (star, counter-rotating seam),
    360 over the full circle (delta).

    Args:
        total_sats: total satellite count T (P must divide T).
        planes: orbital plane count P.
        phasing: Walker phasing index F in [0, P).
        altitude_km: circular orbit altitude above the spherical Earth.
        inclination_deg: orbital inclination, 0..180.
        raan_spread_deg: 180 (star) or 360 (delta).
    """

    total_sats: int
    planes: int
    phasing: int = 1
    altitude_km: float = 900.0
    inclination_deg: float = 90.0
    raan_spread_deg: float = 180.0

    def __post_init__(self) -> None:
        if self.total_sats < 1:
            raise ValueError(f"total_sats ({self.total_sats}) must be >= 1")
        if self.planes < 1:
            raise ValueError(f"planes ({self.planes}) must be >= 1")
        if self.total_sats % self.planes != 0:
            raise ValueError(
                f"planes ({self.planes}) does not divide total_sats ({self.total_sats})"
            )
        if not 0 <= self.phasing < self.planes:
            raise ValueError(
                f"phasing ({self.phasing}) must lie in [0, planes) = [0, {self.planes})"
            )
        if self.altitude_km <= 0.0:
            raise ValueError(f"altitude_km ({self.altitude_km}) must be strictly positive")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError(
                f"inclination_deg ({self.inclination_deg}) must lie in [0, 180]"
            )
        if self.raan_spread_deg not in (180.0, 360.0):
            raise ValueError(
                f"raan_spread_deg ({self.raan_spread_deg}) must be 180 (star) or 360 (delta)"
            )

    @property
    def sats_per_plane(self) -> int:
        return self.total_sats // self.planes


def default_planes(total_sats: int) -> int:
    """Plane count used when none is configured.

    Returns the divisor of ``total_sats`` nearest to sqrt(total_sats);
    exact ties break toward the larger divisor (more planes).
    """
    if total_sats < 1:
        raise ValueError(f"total_sats ({total_sats}) must be >= 1")
    root = math.sqrt(total_sats)
    divisors = [d for d in range(1, total_sats + 1) if total_sats % d == 0]
    return min(divisors, key=lambda d: (abs(d - root), -d))


def walker_constellation(
    spec: WalkerSpec, earth: EarthModel = EARTH
) -> list[CircularElements]:
    """Enumerates the constellation's orbital elements, plane-major order.

    Plane j in [0, P) is placed at raan = j * raan_spread / P.  Slot k in
    [0, T/P) of plane j starts at anomaly k * (360 P / T) + j * F * (360 / T)
    degrees.  All satellites share altitude and inclination.
    """
    semimajor = earth.radius_km + spec.altitude_km
    if semimajor <= earth.radius_km:
        raise ValueError(
            f"semimajor_km ({semimajor}) must exceed the Earth radius "
            f"({earth.radius_km} km)"
        )
    inc = math.radians(spec.inclination_deg)
    per_plane = spec.sats_per_plane
    in_plane_step = 360.0 * spec.planes / spec.total_sats
    phase_step = spec.phasing * 360.0 / spec.total_sats
    elements = []
    for j in range(spec.planes):
        raan = math.radians(j * spec.raan_spread_deg / spec.planes)
        for k in range(per_plane):
            anomaly = math.radians(k * in_plane_step + j * phase_step)
            elements.append(CircularElements(semimajor, inc, raan, anomaly))
    return elements


def propagate_arrays(
    semimajor_km: np.ndarray,
    inclination_rad: np.ndarray,
    raan_rad: np.ndarray,
    initial_anomaly_rad: np.ndarray,
    t_s: float,
    earth: EarthModel = EARTH,
) -> np.ndarray:
    """Vectorized circular propagation; returns inertial positions, shape (..., 3).

    Position is the in-plane point at anomaly M0 + n*t rotated by
    inclination about the node line and by raan about the polar axis.
    """
    a = np.asarray(semimajor_km, dtype=float)
    n = np.sqrt(earth.mu_km3_s2 / a**3)
    u = np.asarray(initial_anomaly_rad, dtype=float) + n * t_s
    cos_u, sin_u = np.cos(u), np.sin(u)
    cos_i, sin_i = np.cos(inclination_rad), np.sin(inclination_rad)
    cos_o, sin_o = np.cos(raan_rad), np.sin(raan_rad)
    x = a * (cos_u * cos_o - sin_u * cos_i * sin_o)
    y = a * (cos_u * sin_o + sin_u * cos_i * cos_o)
    z = a * (sin_u * sin_i)
    return np.stack([x, y, z], axis=-1)


def rotate_eci_to_ecef(
    pos_eci_km: np.ndarray, t_s: float, earth: EarthModel = EARTH
) -> np.ndarray:
    """Rotates inertial positions into the Earth-fixed frame at time t_s.

    The Earth-fixed frame has rotated by theta = rotation_rate * t since
    epoch, so Earth-fixed coordinates are the inertial ones rotated by
    -theta about the polar axis.
    """
    pos = np.asarray(pos_eci_km, dtype=float)
    theta = earth.rotation_rate_rad_s * t_s
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    x = pos[..., 0] * cos_t + pos[..., 1] * sin_t
    y = -pos[..., 0] * sin_t + pos[..., 1] * cos_t
    return np.stack([x, y, pos[..., 2]], axis=-1)


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
