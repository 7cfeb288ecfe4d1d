"""Scenario files: parsing, validation, canonical serialization, hashing.

A scenario is a JSON object with optional sections (earth, walker, grid,
window, link, jammer, materials, payload, sweep); an empty object is a
complete, valid scenario at the documented desk-scale defaults.  Unknown
keys are errors unless lenient parsing is requested, in which case they
are reported and ignored.

The scenario is the root record of ``schema`` (see there for the field
rules), with an empty key, and each section one of its fields: the
domain's own parameter record, or a record here holding the knobs of the
reports.  The jammer section alone extends a domain record, the
calibration its functions take.  One reader reads the whole tree, from
the root object down to each list entry, and the root's cross-field rule
bounds the samples one evaluation holds by ``MAX_SAMPLES``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

from .geometry import TimeWindow, _latlon_shape
from .orbits import EarthModel, WalkerConfig
from .payload import MAX_UNITS, OVERHEAD, PA_EFFICIENCY, POWER_W, ClockUnit
from .rflink import (
    BAND_HZ,
    FOOTPRINT_MASK_DEG,
    FREQUENCY_HZ,
    GALILEO_ALTITUDE_KM,
    GPS_ALTITUDE_KM,
    JAMMER_MARGIN_DB,
    JAMMER_POWER_W,
    JAMMER_RADIUS_M,
    JammerCalibration,
    MaterialLossTable,
)
from .schema import (
    ALTITUDE_KM,
    MAX_SAMPLES,
    MAX_SITES,
    ScenarioError,
    _build,
    _count,
    _one_of,
    _Record,
    _rule,
    _size,
    _within,
)


@dataclass(frozen=True)
class GridConfig(_Record, key="grid"):
    scheme: str = _one_of("fibonacci", "latlon")
    resolution: int = _count(500, MAX_SITES)

    @property
    def n_sites(self) -> int:
        """Sites of the grid this section builds: ``resolution`` for the
        Fibonacci lattice, the nearest n_lat x (2 n_lat) for latlon."""
        if self.scheme == "latlon":
            return math.prod(_latlon_shape(self.resolution))
        return self.resolution


@dataclass(frozen=True)
class SweepConfig(_Record, key="sweep"):
    """DOP map/sweep controls shared by dop-map, dop-sweep, and optimize."""

    sizes: tuple[int, ...] = _size((200, 250, 300, 350, 400))
    altitudes_km: tuple[float, ...] = _within((600.0, 800.0, 1000.0, 1200.0, 1400.0), *ALTITUDE_KM)
    mask_deg: float = _rule(5.0, "in [0, 90)", lambda v: 0.0 <= v < 90.0)
    percentile: float = _rule(95.0, "in (0, 100]", lambda v: 0.0 < v <= 100.0)
    aggregation: str = _one_of("pooled", "worst_site")


@dataclass(frozen=True)
class LinkConfig(_Record, key="link"):
    """Carrier (a named band, or a raw frequency that overrides it) plus the
    altitude/mask samplings of the RF curve reports."""

    reference: str = _one_of(*BAND_HZ)
    frequency_hz: float | None = _within(None, *FREQUENCY_HZ)
    meo_altitude_km: float = _within(GALILEO_ALTITUDE_KM, *ALTITUDE_KM)
    elevation_deg: float = _within(90.0, 0.0, 90.0)
    pathloss_altitudes_km: tuple[float, ...] = _within((
        500.0, 700.0, 1000.0, 1400.0, 2000.0, 3000.0, 5000.0, 8000.0,
        12000.0, GPS_ALTITUDE_KM, GALILEO_ALTITUDE_KM,
    ), *ALTITUDE_KM)
    footprint_altitudes_km: tuple[float, ...] = _within((
        500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0,
    ), *ALTITUDE_KM)
    footprint_masks_deg: tuple[float, ...] = _within((0.0, 30.0), *FOOTPRINT_MASK_DEG)

    @property
    def carrier_hz(self) -> float:
        return self.frequency_hz if self.frequency_hz is not None else BAND_HZ[self.reference]

    def _check_across_fields(self) -> None:
        highest = max(self.footprint_altitudes_km)
        if not self.meo_altitude_km > highest:
            raise ValueError(
                f"meo_altitude_km ({self.meo_altitude_km}) must exceed every "
                f"footprint_altitudes_km entry (up to {highest})"
            )

    def __post_init__(self) -> None:
        super().__post_init__()
        masks = self.footprint_masks_deg
        if len({f"{mask:g}" for mask in masks}) < len(masks):
            raise ScenarioError(
                "link.footprint_masks_deg: must differ at 6 significant digits, "
                f"since each mask names one footprint column (got {list(masks)!r})"
            )


@dataclass(frozen=True)
class JammerConfig(JammerCalibration, key="jammer"):
    """Inverse-square model anchor plus the margins/columns of the report."""

    margins_db: tuple[float, ...] = _within((0.0, 5.0, 10.0, 20.0, 30.0), *JAMMER_MARGIN_DB)
    report_power_w: float = _within(0.5, *JAMMER_POWER_W)
    report_radius_m: float = _within(100.0, *JAMMER_RADIUS_M)


@dataclass(frozen=True)
class PayloadConfig(_Record, key="payload"):
    """Heritage MEO payload figures plus the LEO scaling knobs.

    Defaults describe a ~900 W navigation payload broadcasting ten
    signals, with 254-273 W of RF output at 51% power-amplifier
    efficiency and a two-rubidium, two-hydrogen-maser clock suite.
    """

    total_payload_w: float = _within(900.0, *POWER_W)
    rf_output_w_low: float = _within(254.0, *POWER_W)
    rf_output_w_high: float = _within(273.0, *POWER_W)
    pa_efficiency: float = _within(0.51, *PA_EFFICIENCY)
    n_signals: int = _count(10, MAX_UNITS)
    clocks: tuple[ClockUnit, ...] = (
        ClockUnit("rubidium", 35.0, 2),
        ClockUnit("hydrogen_maser", 70.0, 2),
    )
    leo_signals: int = _count(2, MAX_UNITS)
    overhead_low: float = _within(0.0, *OVERHEAD)
    overhead_high: float = _within(0.9, *OVERHEAD)

    def _check_across_fields(self) -> None:
        if self.rf_output_w_high < self.rf_output_w_low:
            raise ValueError(
                f"rf_output_w_high ({self.rf_output_w_high}) must be >= "
                f"rf_output_w_low ({self.rf_output_w_low})"
            )
        if self.overhead_high < self.overhead_low:
            raise ValueError(
                f"overhead_high ({self.overhead_high}) must be >= "
                f"overhead_low ({self.overhead_low})"
            )


@dataclass(frozen=True)
class Scenario(_Record, key=""):
    """Fully-defaulted run configuration; hashable via its canonical JSON."""

    earth: EarthModel = EarthModel()
    walker: WalkerConfig = WalkerConfig()
    grid: GridConfig = GridConfig()
    window: TimeWindow = TimeWindow()
    sweep: SweepConfig = SweepConfig()
    link: LinkConfig = LinkConfig()
    jammer: JammerConfig = JammerConfig()
    materials: MaterialLossTable = MaterialLossTable()
    payload: PayloadConfig = PayloadConfig()

    def _check_across_fields(self) -> None:
        sites, epochs = self.grid.n_sites, self.window.n_epochs
        if sites * epochs > MAX_SAMPLES:
            raise ValueError(
                f"grid.resolution x window.duration_s / window.step_s ({sites} sites x "
                f"{epochs} epochs) must be <= {MAX_SAMPLES} samples"
            )


def parse_scenario(text: str, strict: bool = True) -> Scenario:
    """Parses and validates scenario JSON text into a Scenario.

    Args:
        text: JSON source; an empty object yields the default scenario.
        strict: reject unknown keys (default); when False they are
            reported to stderr and ignored.

    Raises:
        ScenarioError: syntax errors (with line/column where json gives
            one) or any violated constraint, naming the offending key.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (RecursionError, ValueError) as exc:  # too deep; too many digits
        raise ScenarioError(f"scenario syntax error: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a JSON object")
    return _build(Scenario, raw, "", strict)


def _plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-JSON mirror of a scenario with every default made explicit."""
    return _plain(scenario)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text: sorted keys, explicit defaults, 2-space indent."""
    return json.dumps(scenario_to_dict(scenario), sort_keys=True, indent=2) + "\n"


def scenario_hash(scenario: Scenario) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_scenario(scenario).encode("utf-8")).hexdigest()
