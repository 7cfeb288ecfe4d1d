"""Walker constellation generation and circular two-body propagation.

Spherical Earth, circular orbits, abstract epoch (t = 0 s).  Public
interfaces use kilometres and degrees; element state is stored in
radians.  Frames: propagation happens in a non-rotating Earth-centered
inertial frame; ``rotate_eci_to_ecef`` rotates into the Earth-fixed frame by
the sidereal angle accumulated since epoch.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass
from typing import NamedTuple

import numpy as np

from .schema import (
    ALTITUDE_KM, MAX_SATS, MU_KM3_S2, _non_negative, _Record, _rule, _size, _within,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EarthModel(_Record, key="earth"):
    """Spherical Earth constants.

    Defaults are the WGS-84 equatorial radius, the standard gravitational
    parameter, and the sidereal rotation rate; no flattening.  The radius
    is bounded so that footprint areas and orbit radii stay finite, the
    rotation rate to at most 1 rad/s so that no rotation angle overflows,
    and the gravitational parameter to ``MU_KM3_S2`` so that orbit phases
    keep sub-millimetre resolution over any window.
    """

    radius_km: float = _within(6378.137, 1.0, 1e6)
    mu_km3_s2: float = _within(398600.4418, *MU_KM3_S2)
    rotation_rate_rad_s: float = _rule(7.2921159e-5, "in (0, 1]", lambda v: 0.0 < v <= 1.0)


class WalkerElements(NamedTuple):
    """Circular elements of every satellite, plane-major; angles in radians.

    RAAN and initial anomaly are normalized to [0, 2*pi).
    """

    semimajor_km: np.ndarray
    inclination_rad: np.ndarray
    raan_rad: np.ndarray
    initial_anomaly_rad: np.ndarray


@dataclass(frozen=True)
class WalkerConfig(_Record, key="walker"):
    """A Walker design request; ``design`` resolves it into the WalkerSpec
    that runs.

    Size T, plane count P (None: ``default_planes`` per size) and phasing
    F, with the circular altitude and inclination every satellite shares.
    ``raan_spread_deg`` selects the pattern family: 180 spreads the
    ascending nodes over a half circle (star, counter-rotating seam), 360
    over the full circle (delta).
    """

    total_sats: int = _size(300)
    planes: int | None = None
    phasing: int = _non_negative(1)
    altitude_km: float = _within(900.0, *ALTITUDE_KM)
    inclination_deg: float = _within(90.0, 0.0, 180.0)
    raan_spread_deg: float = _rule(180.0, "180 or 360", lambda v: v in (180.0, 360.0))

    def _check_across_fields(self) -> None:
        if self.planes and self.total_sats % self.planes != 0:
            raise ValueError(
                f"planes ({self.planes}) does not divide total_sats ({self.total_sats})"
            )

    def ladder(self, ceiling: int) -> list[int]:
        """The sizes up to ``ceiling``, ascending, that ``design`` runs
        unchanged: the multiples of the pinned plane count, or with none
        pinned the plane-friendly sizes.  Those are exactly the products
        p * s with p <= s <= ``_BALANCE_LIMIT`` * p, because the divisor
        pair nearest sqrt(T) that ``default_planes`` picks is the most
        balanced pair of T."""
        if self.planes is not None:
            return list(range(self.planes, ceiling + 1, self.planes))
        return sorted({
            p * s
            for p in range(1, math.isqrt(max(ceiling, 0)) + 1)
            for s in range(p, min(int(_BALANCE_LIMIT * p), ceiling // p) + 1)
        })

    def design(self, total_sats: int, altitude_km: float) -> WalkerSpec:
        """The design that runs for a requested size at an altitude.

        Pinned planes snap the size to their nearest positive multiple
        (``round``: halves go to the even one); otherwise it snaps to the
        nearest plane-friendly size, ties toward the larger.  Neither snaps
        past ``MAX_SATS``: the largest multiple of P, or the nearest smaller
        friendly size, is taken instead.  Phasing folds into [0, P).  Never
        silent: callers record the design.
        """
        if not 1 <= total_sats <= MAX_SATS:
            raise ValueError(f"total_sats ({total_sats}) must be >= 1 and <= {MAX_SATS}")
        if self.planes is None:
            total_sats = next(
                candidate
                for delta in range(total_sats)
                for candidate in (total_sats + delta, total_sats - delta)
                if candidate <= MAX_SATS and is_plane_friendly(candidate)
            )
            planes = default_planes(total_sats)
        else:
            planes = self.planes
            nearest = max(planes, round(total_sats / planes) * planes)
            total_sats = min(nearest, MAX_SATS // planes * planes)
        return WalkerSpec(
            total_sats, planes, self.phasing % planes,
            altitude_km, self.inclination_deg, self.raan_spread_deg,
        )


@dataclass(frozen=True)
class WalkerSpec(WalkerConfig, key="walker"):
    """A resolved symmetric design T/P/F: P divides T and F lies in [0, P)."""

    # No default, unlike the request; both sizes keep the MAX_SATS bound.
    total_sats: int = _size(MISSING)
    planes: int = _size(MISSING)

    def _check_across_fields(self) -> None:
        super()._check_across_fields()
        if self.phasing >= self.planes:
            raise ValueError(
                f"phasing ({self.phasing}) must lie in [0, planes) = [0, {self.planes})"
            )

    @property
    def sats_per_plane(self) -> int:
        return self.total_sats // self.planes


def default_planes(total_sats: int) -> int:
    """Plane count used when none is configured.

    Returns the divisor of ``total_sats`` nearest to sqrt(total_sats);
    exact ties break toward the larger divisor (more planes).  Divisors
    pair up as (d, T/d) around the root, so the answer is the largest
    divisor d <= sqrt(T) or its partner T/d.
    """
    if total_sats < 1:
        raise ValueError(f"total_sats ({total_sats}) must be >= 1")
    root = math.sqrt(total_sats)
    low = next(d for d in range(math.isqrt(total_sats), 0, -1) if total_sats % d == 0)
    high = total_sats // low
    return low if root - low < high - root else high


#: Largest balance ratio max(P, T/P) / min(P, T/P) a size may have and
#: still count as plane-friendly for snapping and sizing searches.
_BALANCE_LIMIT = 2.0


def is_plane_friendly(total_sats: int) -> bool:
    """Whether the default plane rule yields a balanced constellation."""
    if total_sats < 1:
        return False
    p = default_planes(total_sats)
    s = total_sats // p
    return max(p, s) <= _BALANCE_LIMIT * min(p, s)


def walker_constellation(spec: WalkerSpec, earth: EarthModel) -> WalkerElements:
    """The constellation's orbital elements, plane-major order.

    Plane j in [0, P) is placed at raan = j * raan_spread / P.  Slot k in
    [0, T/P) of plane j starts at anomaly k * (360 P / T) + j * F * (360 / T)
    degrees.  All satellites share altitude and inclination.
    """
    semimajor = earth.radius_km + spec.altitude_km
    in_plane_step = 360.0 * spec.planes / spec.total_sats
    phase_step = spec.phasing * 360.0 / spec.total_sats
    j = np.arange(spec.planes)[:, None]
    k = np.arange(spec.sats_per_plane)
    raan = np.radians(j * spec.raan_spread_deg / spec.planes) % _TWO_PI
    anomaly = np.radians(k * in_plane_step + j * phase_step) % _TWO_PI
    return WalkerElements(
        np.full(spec.total_sats, semimajor),
        np.full(spec.total_sats, math.radians(spec.inclination_deg)),
        np.repeat(raan.ravel(), spec.sats_per_plane),
        anomaly.ravel(),
    )


def propagate_arrays(
    semimajor_km: np.ndarray,
    inclination_rad: np.ndarray,
    raan_rad: np.ndarray,
    initial_anomaly_rad: np.ndarray,
    t_s: float | np.ndarray,
    earth: EarthModel,
) -> np.ndarray:
    """Vectorized circular propagation; returns inertial positions, shape (..., 3).

    Position is the in-plane point at anomaly M0 + n*t rotated by
    inclination about the node line and by raan about the polar axis.
    An epoch column ``t_s`` of shape (c, 1) gives positions (c, sats, 3).
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
    pos_eci_km: np.ndarray, t_s: float | np.ndarray, earth: EarthModel
) -> np.ndarray:
    """Rotates inertial positions into the Earth-fixed frame at time t_s.

    The Earth-fixed frame has rotated by theta = rotation_rate * t since
    epoch, so Earth-fixed coordinates are the inertial ones rotated by
    -theta about the polar axis.  ``t_s`` may be an array that broadcasts
    against ``pos_eci_km[..., 0]``, such as an epoch column.
    """
    pos = np.asarray(pos_eci_km, dtype=float)
    theta = earth.rotation_rate_rad_s * t_s
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    x = pos[..., 0] * cos_t + pos[..., 1] * sin_t
    y = -pos[..., 0] * sin_t + pos[..., 1] * cos_t
    return np.stack([x, y, pos[..., 2]], axis=-1)

