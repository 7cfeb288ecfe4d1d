"""Free-space link budgets, beam footprints, and jamming margins.

Covers the radio-side trades: path loss versus altitude, spherical-cap
footprint areas and the LEO-over-MEO gain they imply, an inverse-square
jammer range model, and one-pass material penetration counts.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .schema import (
    ELEVATION_DEG, MASK_DEG, NON_NEGATIVE, POSITIVE, _check, _Record, _rule, _within,
)

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: Carrier frequencies selectable by name as ``link.reference``.
BAND_HZ = {
    "L1": 1.57542e9,
    "L2": 1.2276e9,
    "L5": 1.17645e9,
}

#: Bounds of a raw carrier frequency (Hz) a scenario may state: 1 MHz to
#: 1 THz, so that every path loss at the link altitudes stays finite.
FREQUENCY_HZ = (1e6, 1e12)

#: Constellation altitudes used as MEO comparison points (km).
GPS_ALTITUDE_KM = 20182.0
GALILEO_ALTITUDE_KM = 23222.0

#: Bounds of the jammer powers (W) and radii (m) a record may state; at
#: every corner, with margins up to ``JAMMER_MARGIN_DB``, both jammer
#: figures stay finite and non-zero.
JAMMER_POWER_W = (1e-9, 1e9)
JAMMER_RADIUS_M = (1e-3, 1e7)
JAMMER_MARGIN_DB = (0.0, 200.0)

#: Bounds of the one-pass material losses (dB) a record may state; with
#: margins up to ``JAMMER_MARGIN_DB`` every penetration count stays a
#: finite integer.
MATERIAL_LOSS_DB = (1e-3, 1e3)

#: Bounds of the footprint masks (deg) a scenario may state; at every
#: corner of the Earth-radius and altitude bounds, 1 - cos of each coverage
#: half angle stays non-zero, so every footprint gain is finite.
FOOTPRINT_MASK_DEG = (0.0, 89.0)


def fspl_db(distance_km: float, frequency_hz: float) -> float:
    """Free-space path loss 20*log10(4*pi*d*f/c) in dB.

    Args:
        distance_km: propagation distance, > 0.
        frequency_hz: carrier frequency, > 0.
    """
    _check(POSITIVE, distance_km=distance_km, frequency_hz=frequency_hz)
    return 20.0 * math.log10(
        4.0 * math.pi * distance_km * 1000.0 * frequency_hz / SPEED_OF_LIGHT_M_S
    )


def slant_range_km(altitude_km: float, elevation_deg: float, earth_radius_km: float) -> float:
    """Distance from a ground site to a satellite seen at a given elevation.

    Spherical-Earth geometry: d = -R sin(e) + sqrt(R^2 sin^2(e) + h^2 + 2 R h).
    At zenith this is the altitude; at the horizon sqrt(h^2 + 2 R h).
    """
    _check(POSITIVE, altitude_km=altitude_km, earth_radius_km=earth_radius_km)
    _check(ELEVATION_DEG, elevation_deg=elevation_deg)
    r = earth_radius_km
    h = altitude_km
    sin_e = math.sin(math.radians(elevation_deg))
    return -r * sin_e + math.sqrt(r * r * sin_e * sin_e + h * h + 2.0 * r * h)


def coverage_half_angle_rad(altitude_km: float, mask_deg: float, earth_radius_km: float) -> float:
    """Earth-central half angle of the cap a satellite covers above a mask."""
    _check(POSITIVE, altitude_km=altitude_km, earth_radius_km=earth_radius_km)
    _check(MASK_DEG, mask_deg=mask_deg)
    mask = math.radians(mask_deg)
    r = earth_radius_km
    return math.acos(r * math.cos(mask) / (r + altitude_km)) - mask


def footprint_area_km2(altitude_km: float, mask_deg: float, earth_radius_km: float) -> float:
    """Spherical-cap area (km^2) visible above the elevation mask.

    2*pi*R^2*(1 - cos(lambda)) with lambda the coverage half angle; grows
    with altitude, shrinks with mask, and approaches the 2*pi*R^2
    hemisphere limit as altitude -> infinity at zero mask.
    """
    lam = coverage_half_angle_rad(altitude_km, mask_deg, earth_radius_km)
    return 2.0 * math.pi * earth_radius_km**2 * (1.0 - math.cos(lam))


def footprint_gain_db(
    leo_altitude_km: float, meo_altitude_km: float, mask_deg: float, earth_radius_km: float
) -> float:
    """Power-density advantage of serving a smaller footprint from LEO.

    10*log10(area_meo / area_leo) for the same transmit power spread over
    each constellation's visible cap.  Positive when the LEO footprint is
    smaller; zero at equal altitudes.
    """
    area_leo = footprint_area_km2(leo_altitude_km, mask_deg, earth_radius_km)
    area_meo = footprint_area_km2(meo_altitude_km, mask_deg, earth_radius_km)
    return 10.0 * math.log10(area_meo / area_leo)


@dataclass(frozen=True)
class JammerCalibration(_Record, key="jammer"):
    """Anchor of the inverse-square jammer range model.

    A jammer of ``ref_power_w`` denies up to ``ref_radius_m`` at zero
    link margin.  The default anchor is the 10 mW-per-100 m operating
    point; the same table's 0.5 W row implies ~750 m, which disagrees
    with this one by ~6% — the 100 m anchor reproduces the full table
    within tolerance, the 750 m one does not.
    """

    ref_power_w: float = _rule(0.01, _within(*JAMMER_POWER_W))
    ref_radius_m: float = _rule(100.0, _within(*JAMMER_RADIUS_M))


def jammer_effective_radius_m(
    power_w: float, margin_db: float, calibration: JammerCalibration
) -> float:
    """Denial radius of a jammer against a receiver with some link margin.

    Free-space inverse-square propagation scaled from the calibration
    anchor: r = ref_radius * sqrt(power / ref_power) * 10^(-margin/20).
    Each 6.02 dB of extra receiver margin halves the radius; quadrupling
    jammer power doubles it.
    """
    _check(POSITIVE, power_w=power_w)
    _check(NON_NEGATIVE, margin_db=margin_db)
    return (
        calibration.ref_radius_m
        * math.sqrt(power_w / calibration.ref_power_w)
        * 10.0 ** (-margin_db / 20.0)
    )


def jammer_power_for_radius_w(
    radius_m: float, margin_db: float, calibration: JammerCalibration
) -> float:
    """Jammer power needed to deny a given radius; inverse of the radius model."""
    _check(POSITIVE, radius_m=radius_m)
    _check(NON_NEGATIVE, margin_db=margin_db)
    return (
        calibration.ref_power_w
        * (radius_m / calibration.ref_radius_m) ** 2
        * 10.0 ** (margin_db / 10.0)
    )


@dataclass(frozen=True)
class MaterialLossTable(_Record, key="materials"):
    """One-pass attenuation (dB) of common structures."""

    wood_db: float = _rule(10.0, _within(*MATERIAL_LOSS_DB))
    brick_db: float = _rule(12.0, _within(*MATERIAL_LOSS_DB))
    concrete_db: float = _rule(15.0, _within(*MATERIAL_LOSS_DB))
    glass_db: float = _rule(17.0, _within(*MATERIAL_LOSS_DB))
    container_db: float = _rule(25.0, _within(*MATERIAL_LOSS_DB))

    @property
    def walls(self) -> tuple[tuple[str, float], ...]:
        """(material, loss per pass) pairs in field order."""
        return tuple(
            (f.name.removesuffix("_db"), getattr(self, f.name)) for f in dataclasses.fields(self)
        )


#: Minimum margin (dB), ascending from 0, and the densest foliage class
#: penetrable at that margin.
CANOPY_CLASSES = (
    (0.0, "Limited"),
    (5.0, "Deciduous"),
    (10.0, "Redwoods"),
    (20.0, "Most"),
)


@dataclass(frozen=True)
class PenetrationReport:
    """How far a given link margin reaches into structures and foliage."""

    margin_db: float
    canopy: str
    wall_counts: tuple[tuple[str, int], ...]


def penetration_report(margin_db: float, materials: MaterialLossTable) -> PenetrationReport:
    """Number of one-pass traversals of each material a margin affords.

    Counts are floor(margin / loss); the canopy class is the densest one
    whose threshold the margin meets.
    """
    _check(NON_NEGATIVE, margin_db=margin_db)
    counts = tuple(
        (name, int(margin_db // loss)) for name, loss in materials.walls
    )
    canopy = [label for threshold, label in CANOPY_CLASSES if margin_db >= threshold][-1]
    return PenetrationReport(margin_db=margin_db, canopy=canopy, wall_counts=counts)
