"""The PDOP engine against the scalar oracle at the corners of the bounds.

Seeded random scenarios span the Earth radius, gravitational parameter,
rotation rate and altitude over the decades their bounds allow, with any
inclination, both RAAN spreads and masks from 0 to 80 degrees.  Every
(site, epoch) sample of ``pdop_samples`` is compared with the scalar
visibility path and the loop-and-Gauss-Jordan DOP of tests/oracles.py,
under the shipped pair budget and tile size and under small ones that
split the sites into blocks and the epochs into tiles.

Exclusions, each stated once here:
- a sample with a satellite within ``NEAR_MASK_DEG`` of the mask is
  skipped, since the oracle tests the elevation in degrees and the engine
  its sine, and the two roundings may put that satellite on either side;
- PDOP values are compared only where the oracle's PDOP is below
  ``WELL_CONDITIONED_PDOP``; above it a sample is nearly singular, and
  the rounding of either path moves its value by more than ``RTOL``.
"""

from __future__ import annotations

import functools
import math
import random

import pytest

from oracles import EcefPosition, SiteObservation, az_el_range, dop_oracle, site_to_ecef

from leonav import geometry
from leonav.geometry import GroundGrid, TimeWindow, pdop_samples
from leonav.orbits import (
    EarthModel,
    WalkerSpec,
    propagate_arrays,
    rotate_eci_to_ecef,
    walker_constellation,
)

SEEDS = (1201, 1202, 1203)
CASES_PER_SEED = 40
NEAR_MASK_DEG = 1e-7
WELL_CONDITIONED_PDOP = 1e4
RTOL = 1e-6


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _case(rng: random.Random):
    earth = EarthModel(
        radius_km=_log_uniform(rng, 1.0, 1e6),
        mu_km3_s2=_log_uniform(rng, 1.0, 1e7),
        rotation_rate_rad_s=_log_uniform(rng, 1e-9, 1.0),
    )
    total = rng.randint(4, 56)
    planes = rng.choice([p for p in range(1, total + 1) if total % p == 0])
    spec = WalkerSpec(
        total, planes, phasing=rng.randrange(planes),
        altitude_km=_log_uniform(rng, 1.0, 1e6),
        inclination_deg=rng.uniform(0.0, 180.0),
        raan_spread_deg=rng.choice([180.0, 360.0]),
    )
    mask_deg = rng.choice([0.0, rng.uniform(0.0, 80.0)])
    step = _log_uniform(rng, 1.0, 3e5)
    grid = GroundGrid.fibonacci(rng.randint(1, 14))
    return earth, spec, grid, TimeWindow(3 * step, step), mask_deg


def _expected(earth, spec, grid, window, mask_deg):
    """The oracle's (count, pdop) of each sample, None where excluded;
    pdop is None where too few satellites are seen and NaN where the
    sample is too ill-conditioned to compare."""
    t = window.epochs()[:, None]
    eci = propagate_arrays(*walker_constellation(spec, earth), t, earth)
    ecef = rotate_eci_to_ecef(eci, t, earth)
    expected = {}
    for j in range(len(t)):
        sats = [EcefPosition(*position) for position in ecef[j].tolist()]
        for i in range(len(grid)):
            site = site_to_ecef(float(grid.lat_deg[i]), float(grid.lon_deg[i]), earth=earth)
            seen = [az_el_range(site, sat) for sat in sats]
            if any(abs(elevation - mask_deg) < NEAR_MASK_DEG for _, elevation, _, _ in seen):
                expected[i, j] = None
                continue
            obs = [
                SiteObservation(elevation, azimuth, distance, *enu)
                for azimuth, elevation, distance, enu in seen if elevation >= mask_deg
            ]
            pdop = None
            if len(obs) >= 4:
                try:
                    pdop = dop_oracle(obs)[1]
                except (ZeroDivisionError, ValueError):
                    pdop = math.nan
                if not pdop < WELL_CONDITIONED_PDOP:
                    pdop = math.nan
            expected[i, j] = (len(obs), pdop)
    return expected


@functools.cache
def _cases():
    cases = []
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(CASES_PER_SEED):
            case = _case(rng)
            cases.append((case, _expected(*case)))
    return cases


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("tile", [None, 1, 2])
def test_engine_matches_the_scalar_oracle_at_the_corners(monkeypatch, budget, tile):
    """``budget`` is site x satellite pairs per block, in satellites (None:
    the shipped ``_PAIR_BUDGET``); ``tile`` is epochs per kernel call (None:
    ``_tile_epochs``)."""
    if tile is not None:
        monkeypatch.setattr(geometry, "_tile_epochs", lambda *args: tile)
    compared = excluded = 0
    for (earth, spec, grid, window, mask_deg), expected in _cases():
        if budget is not None:
            monkeypatch.setattr(geometry, "_PAIR_BUDGET", budget * spec.total_sats)
        samples = pdop_samples(spec, grid, window, mask_deg, earth)
        for (i, j), want in expected.items():
            where = f"{spec} {earth} mask {mask_deg} sample ({i}, {j})"
            if want is None:
                excluded += 1
                continue
            count, pdop = want
            assert samples.visible_count[i, j] == count, where
            if pdop is None:
                assert math.isnan(samples.pdop[i, j]), where
            elif not math.isnan(pdop):
                assert samples.pdop[i, j] == pytest.approx(pdop, rel=RTOL), where
                compared += 1
    assert compared > 500 and excluded < compared / 10
