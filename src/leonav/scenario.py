"""Scenario files: parsing, validation, canonical serialization, hashing.

A scenario is a JSON object with optional sections (earth, walker, grid,
window, link, jammer, materials, payload, sweep); an empty object is a
complete, valid scenario at the documented desk-scale defaults.  Unknown
keys are errors unless lenient parsing is requested, in which case they
are reported and ignored.

Each section is a frozen dataclass whose field names are the JSON keys,
whose defaults are the defaults and whose annotations are the accepted
types.  The parser, the known keys and the canonical form behind the
hash are all derived from those fields.  Numbers must be finite and
integers integral; a number is strictly positive and an integer at least
1 unless the field's metadata states another rule; lists must not be
empty, and a rule on a list field applies to each entry.  Cross-field
rules live in each section's ``_check_across_fields``.  A section checks
itself on construction, so one built in Python meets the same rules, with
the same messages, as one read from a file.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from typing import Any, Callable

from .geometry import TimeWindow
from .orbits import EarthModel
from .payload import DEFAULT_HERITAGE, ClockUnit, PayloadHeritage
from .rflink import (
    DEFAULT_JAMMER_CALIBRATION,
    DEFAULT_MATERIALS,
    GALILEO_ALTITUDE_KM,
    GPS_ALTITUDE_KM,
    JammerCalibration,
    LinkParams,
    MaterialLossTable,
)


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the key at fault."""


def _rule(default: Any, text: str, ok: Callable[[Any], bool]) -> Any:
    """A field whose parsed value (each entry, for a list) must satisfy ``ok``."""
    return field(default=default, metadata={"rule": (text, ok)})


def _one_of(*allowed: str) -> Any:
    """A string field that defaults to the first allowed value."""
    return _rule(allowed[0], f"one of {sorted(allowed)}", allowed.__contains__)


def _non_negative(default: Any) -> Any:
    return _rule(default, ">= 0", lambda v: v >= 0)


_Reader = Callable[[Any, str], Any]


def _expect(value: Any, kinds: type | tuple[type, ...], key: str, constraint: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ScenarioError(f"{key}: must be {constraint} (got {value!r})")
    return value


def _number(value: Any, key: str) -> float:
    try:
        number = float(_expect(value, (int, float), key, "a number"))
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{key}: must be finite (got {value!r})")
    return number


def _integer(value: Any, key: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return _expect(value, int, key, "an integer")


def _string(value: Any, key: str) -> str:
    return _expect(value, str, key, "a string")


#: Scalar kinds: reader, rule when the field states none, plural noun.
_SCALARS: dict[type, tuple[_Reader, tuple | None, str]] = {
    float: (_number, ("> 0", lambda v: v > 0.0), "numbers"),
    int: (_integer, (">= 1", lambda v: v >= 1), "numbers"),
    str: (_string, None, "strings"),
}


def _reader(hint: Any, rule: tuple | None) -> _Reader:
    """Builds the reader of one annotated value kind."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        item = _reader(args[0], rule)
        noun = _SCALARS[args[0]][2] if args[0] in _SCALARS else "objects"

        def read_list(value: Any, key: str) -> tuple:
            if not _expect(value, (list, tuple), key, f"a list of {noun}"):
                raise ScenarioError(f"{key}: must not be empty")
            return tuple(item(v, f"{key}[{i}]") for i, v in enumerate(value))

        return read_list
    if type(None) in args:
        inner = _reader(args[0], rule)
        return lambda value, key: None if value is None else inner(value, key)
    if dataclasses.is_dataclass(hint):
        return lambda value, key: value if isinstance(value, hint) else _build(
            hint, _expect(value, dict, key, "an object"), key, strict=True
        )
    read, default_rule, _ = _SCALARS[hint]
    rule = rule or default_rule
    if rule is None:
        return read
    text, ok = rule

    def read_checked(value: Any, key: str) -> Any:
        value = read(value, key)
        if not ok(value):
            raise ScenarioError(f"{key}: must be {text} (got {value!r})")
        return value

    return read_checked


@functools.cache
def _readers(cls: type) -> dict[str, _Reader]:
    """Field name -> reader, for a section or a clock entry."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: _reader(hints[f.name], f.metadata.get("rule"))
        for f in dataclasses.fields(cls)
    }


class _Section:
    """Base of the scenario sections.

    Construction, whether by the parser or directly, reads every field
    through its reader (types, finiteness, the field's rule) and then the
    section's cross-field rules, raising ``ScenarioError`` naming
    ``section.key``.
    """

    _key: typing.ClassVar[str]

    def __init_subclass__(cls, key: str, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = key

    def __post_init__(self) -> None:
        for name, read in _readers(type(self)).items():
            object.__setattr__(self, name, read(getattr(self, name), f"{self._key}.{name}"))
        try:
            self._check_across_fields()
        except ValueError as exc:
            raise ScenarioError(f"{self._key}: {exc}") from None

    def _check_across_fields(self) -> None:
        """Rules that involve more than one field; none by default."""


@dataclass(frozen=True)
class WalkerConfig(_Section, key="walker"):
    """Constellation defaults: the single-run design and sweep conventions."""

    total_sats: int = 300
    planes: int | None = None
    phasing: int = _non_negative(1)
    altitude_km: float = 900.0
    inclination_deg: float = _rule(90.0, "in [0, 180]", lambda v: 0.0 <= v <= 180.0)
    raan_spread_deg: float = _rule(180.0, "180 or 360", lambda v: v in (180.0, 360.0))

    def _check_across_fields(self) -> None:
        if self.planes and self.total_sats % self.planes != 0:
            raise ValueError(
                f"planes ({self.planes}) does not divide total_sats ({self.total_sats})"
            )


@dataclass(frozen=True)
class GridConfig(_Section, key="grid"):
    scheme: str = _one_of("fibonacci", "latlon")
    resolution: int = 500


@dataclass(frozen=True)
class SweepConfig(_Section, key="sweep"):
    """DOP map/sweep controls shared by dop-map, dop-sweep, and optimize."""

    sizes: tuple[int, ...] = (200, 250, 300, 350, 400)
    altitudes_km: tuple[float, ...] = (600.0, 800.0, 1000.0, 1200.0, 1400.0)
    mask_deg: float = _rule(5.0, "in [0, 90)", lambda v: 0.0 <= v < 90.0)
    percentile: float = _rule(95.0, "in (0, 100]", lambda v: 0.0 < v <= 100.0)
    aggregation: str = _one_of("pooled", "worst_site")


@dataclass(frozen=True)
class LinkConfig(_Section, key="link"):
    """Carrier plus the altitude/mask samplings of the RF curve reports."""

    reference: str = _one_of("L1", "L2", "L5")
    frequency_hz: float | None = None
    meo_altitude_km: float = GALILEO_ALTITUDE_KM
    elevation_deg: float = _rule(90.0, "in [0, 90]", lambda v: 0.0 <= v <= 90.0)
    pathloss_altitudes_km: tuple[float, ...] = (
        500.0, 700.0, 1000.0, 1400.0, 2000.0, 3000.0, 5000.0, 8000.0,
        12000.0, GPS_ALTITUDE_KM, GALILEO_ALTITUDE_KM,
    )
    footprint_altitudes_km: tuple[float, ...] = (
        500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0,
    )
    footprint_masks_deg: tuple[float, ...] = _rule(
        (0.0, 30.0), "in [0, 90)", lambda v: 0.0 <= v < 90.0
    )

    @property
    def params(self) -> LinkParams:
        return LinkParams(reference=self.reference, frequency_hz=self.frequency_hz)


@dataclass(frozen=True)
class JammerConfig(_Section, key="jammer"):
    """Inverse-square model anchor plus the margins/columns of the report."""

    ref_power_w: float = DEFAULT_JAMMER_CALIBRATION.ref_power_w
    ref_radius_m: float = DEFAULT_JAMMER_CALIBRATION.ref_radius_m
    margins_db: tuple[float, ...] = _non_negative((0.0, 5.0, 10.0, 20.0, 30.0))
    report_power_w: float = 0.5
    report_radius_m: float = 100.0

    @property
    def calibration(self) -> JammerCalibration:
        return JammerCalibration(
            ref_power_w=self.ref_power_w, ref_radius_m=self.ref_radius_m
        )


_WALLS = dict(DEFAULT_MATERIALS.walls)


@dataclass(frozen=True)
class MaterialsConfig(_Section, key="materials"):
    """One-pass wall losses (dB); ``table`` is the domain loss table."""

    wood_db: float = _WALLS["wood"]
    brick_db: float = _WALLS["brick"]
    concrete_db: float = _WALLS["concrete"]
    glass_db: float = _WALLS["glass"]
    container_db: float = _WALLS["container"]

    @property
    def table(self) -> MaterialLossTable:
        return MaterialLossTable(walls=tuple(
            (f.name.removesuffix("_db"), getattr(self, f.name))
            for f in dataclasses.fields(self)
        ))


@dataclass(frozen=True)
class PayloadConfig(_Section, key="payload"):
    """Heritage payload figures plus the LEO scaling knobs."""

    total_payload_w: float = DEFAULT_HERITAGE.total_payload_w
    rf_output_w_low: float = DEFAULT_HERITAGE.rf_output_w_low
    rf_output_w_high: float = DEFAULT_HERITAGE.rf_output_w_high
    pa_efficiency: float = _rule(
        DEFAULT_HERITAGE.pa_efficiency, "in (0, 1]", lambda v: 0.0 < v <= 1.0
    )
    n_signals: int = DEFAULT_HERITAGE.n_signals
    clocks: tuple[ClockUnit, ...] = DEFAULT_HERITAGE.clocks
    leo_signals: int = 2
    overhead_low: float = _non_negative(0.0)
    overhead_high: float = _non_negative(0.9)

    def _check_across_fields(self) -> None:
        if self.overhead_high < self.overhead_low:
            raise ValueError(
                f"overhead range ({self.overhead_low}, {self.overhead_high}) "
                f"must satisfy low <= high"
            )
        self.heritage  # PayloadHeritage checks the heritage figures

    @property
    def heritage(self) -> PayloadHeritage:
        return PayloadHeritage(
            total_payload_w=self.total_payload_w,
            rf_output_w_low=self.rf_output_w_low,
            rf_output_w_high=self.rf_output_w_high,
            pa_efficiency=self.pa_efficiency,
            n_signals=self.n_signals,
            clocks=self.clocks,
        )

    @property
    def overhead_range(self) -> tuple[float, float]:
        return (self.overhead_low, self.overhead_high)


@dataclass(frozen=True)
class Scenario:
    """Fully-defaulted run configuration; hashable via its canonical JSON."""

    earth: EarthModel = EarthModel()
    walker: WalkerConfig = WalkerConfig()
    grid: GridConfig = GridConfig()
    window: TimeWindow = TimeWindow()
    sweep: SweepConfig = SweepConfig()
    link: LinkConfig = LinkConfig()
    jammer: JammerConfig = JammerConfig()
    materials: MaterialsConfig = MaterialsConfig()
    payload: PayloadConfig = PayloadConfig()


_SECTIONS: dict[str, type] = typing.get_type_hints(Scenario)


def _check_keys(section: dict, known: typing.Iterable[str], where: str, strict: bool) -> None:
    for key in section:
        if key not in known:
            message = f"unknown key {where}.{key!r} (known keys: {', '.join(known)})"
            if strict:
                raise ScenarioError(message)
            print(f"warning: ignoring {message}", file=sys.stderr)


def _build(cls: type, raw: dict, where: str, strict: bool) -> Any:
    """One section (or clock entry) from its JSON object."""
    readers = _readers(cls)
    _check_keys(raw, readers, where, strict)
    missing = [
        f.name for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.name not in raw
    ]
    if missing:
        raise ScenarioError(f"{where}: requires {' and '.join(map(repr, missing))}")
    if issubclass(cls, _Section):  # reads its own fields
        return cls(**{name: raw[name] for name in readers if name in raw})
    values = {
        name: read(raw[name], f"{where}.{name}")
        for name, read in readers.items() if name in raw
    }
    try:
        return cls(**values)
    except ValueError as exc:
        # Rules of the domain classes reuse their own message.
        raise ScenarioError(f"{where}: {exc}") from None


def parse_scenario(text: str, strict: bool = True) -> Scenario:
    """Parses and validates scenario JSON text into a Scenario.

    Args:
        text: JSON source; an empty object yields the default scenario.
        strict: reject unknown keys (default); when False they are
            reported to stderr and ignored.

    Raises:
        ScenarioError: syntax errors (with line/column) or any violated
            constraint, naming the offending key.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a JSON object")
    _check_keys(raw, _SECTIONS, "scenario", strict)
    return Scenario(**{  # absent sections keep the default instances
        name: _build(cls, _expect(raw[name], dict, name, "an object"), name, strict)
        for name, cls in _SECTIONS.items() if name in raw
    })


def _plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-JSON mirror of a scenario with every default made explicit."""
    return {name: _plain(getattr(scenario, name)) for name in _SECTIONS}


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text: sorted keys, explicit defaults, 2-space indent."""
    return json.dumps(scenario_to_dict(scenario), sort_keys=True, indent=2) + "\n"


def scenario_hash(scenario: Scenario) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(serialize_scenario(scenario).encode("utf-8")).hexdigest()
