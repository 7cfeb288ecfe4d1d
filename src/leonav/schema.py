"""Declared field rules: how records and scenario sections check themselves.

A record is a frozen dataclass whose field names are its JSON keys, whose
defaults are the defaults and whose annotations are the accepted types.
The reader of every field, the known keys and the canonical form behind
the scenario hash are all derived from those fields.  Numbers must be
finite and integers integral; a number is strictly positive and an
integer at least 1 unless the field's metadata states another rule;
lists must not be empty, and a rule on a list field applies to each
entry.  Cross-field rules live in each record's ``_check_across_fields``.
A record checks itself on construction, so one built in Python meets the
same rules, with the same messages, as one read from a file.  The
scenario is the root record, with an empty key, so one reader reads every
level from its object down, and lenient reading warns of unknown keys at
each.  A message quotes the rejected value clipped by ``_shown``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import reprlib
import sys
import typing
from dataclasses import field
from typing import Any, Callable


class ScenarioError(ValueError):
    """A scenario file or record failed validation; the message names the key at fault."""


def _rule(default: Any, text: str, ok: Callable[[Any], bool]) -> Any:
    """A field whose parsed value (each entry, for a list) must satisfy ``ok``."""
    return field(default=default, metadata={"rule": (text, ok)})


def _one_of(*allowed: str) -> Any:
    """A string field that defaults to the first allowed value."""
    return _rule(allowed[0], f"one of {sorted(allowed)}", allowed.__contains__)


def _non_negative(default: Any) -> Any:
    return _rule(default, ">= 0", lambda v: v >= 0)


def _within(default: Any, lo: float, hi: float) -> Any:
    """A number field (each entry, for a list) in the closed range [lo, hi]."""
    return _rule(default, f"in [{lo:g}, {hi:g}]", lambda v: lo <= v <= hi)


def _count(default: Any, most: int) -> Any:
    """A count field (each entry, for a list): 1 to ``most``."""
    return _rule(default, f">= 1 and <= {most}", lambda v: 1 <= v <= most)


#: Largest constellation size a scenario or sizing search may request.  The
#: Walker design rule factors every size it snaps, so an unbounded size
#: would hang it; the optimize ladder up to this bound lists in about 3 ms.
MAX_SATS = 100_000

#: Largest ground grid (``grid.resolution``) a scenario may request.  A PDOP
#: report holds one sample per site and epoch, so an unbounded grid would
#: fail deep in numpy instead of naming its key.
MAX_SITES = 1_000_000

#: Largest epoch count (``window.duration_s / window.step_s``) a scenario
#: may request, bounded for the same reason as ``MAX_SITES``.
MAX_EPOCHS = 1_000_000

#: Bytes per (site, epoch) sample that pooled aggregation, the evaluation
#: that holds the most per sample, holds at its peak on a fully covered grid,
#: as tracemalloc measures it: the PDOP values and visible counts, the
#: defined mask, the compressed values and weights, and the percentile's
#: argsort, sorted copies and cumulative weights.
SAMPLE_BYTES = 69

#: Largest number of samples one evaluation may hold, the grid's site count
#: times ``window.n_epochs``: it keeps the samples under 2 GiB.  The engine's
#: working memory, bounded by its pair budget, comes on top.
MAX_SAMPLES = 2**31 // SAMPLE_BYTES

#: Bounds of every altitude (km) a scenario may state, orbit or link: at
#: every Earth radius and elevation it accepts, each slant range and orbit
#: radius stays finite and non-zero.
ALTITUDE_KM = (1.0, 1e6)

#: Bounds of the gravitational parameter ``earth.mu_km3_s2`` (km^3/s^2) and
#: of the window span ``window.duration_s`` (s).  Propagation takes the
#: phase n t unreduced, so at the corner of these bounds with the smallest
#: orbit radius the Earth-radius and altitude bounds allow (2 km), n t
#: reaches 1.1e9 rad, whose float spacing still resolves position to 0.5 mm.
MU_KM3_S2 = (1.0, 1e7)
WINDOW_S = (1.0, 1e6)


def _size(default: Any) -> Any:
    """A constellation-size field (each entry, for a list): 1 to ``MAX_SATS``."""
    return _count(default, MAX_SATS)


_Reader = Callable[[Any, str], Any]


def _check_positive(**values: float) -> None:
    """Reject, by argument name, any value that is not finite and > 0."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} ({value}) must be finite and strictly positive")


def _shown(value: Any) -> str:
    """``reprlib.repr(value)``: a huge integer or a long list shows only its
    first and last characters.  An integer past the interpreter's digit
    limit cannot be printed at all, so a value holding one is named only."""
    try:
        return reprlib.repr(value)
    except ValueError:
        return "a value with too many digits to print"


def _expect(value: Any, kinds: type | tuple[type, ...], key: str, constraint: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ScenarioError(f"{key}: must be {constraint} (got {_shown(value)})")
    return value


def _number(value: Any, key: str) -> float:
    try:
        number = float(_expect(value, numbers.Real, key, "a number"))
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{key}: must be finite (got {_shown(value)})")
    return number


def _integer(value: Any, key: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return int(_expect(value, numbers.Integral, key, "an integer"))


def _string(value: Any, key: str) -> str:
    return _expect(value, str, key, "a string")


#: Scalar kinds: reader, rule when the field states none, plural noun.
_SCALARS: dict[type, tuple[_Reader, tuple | None, str]] = {
    float: (_number, ("> 0", lambda v: v > 0.0), "numbers"),
    int: (_integer, (">= 1", lambda v: v >= 1), "numbers"),
    str: (_string, None, "strings"),
}


def _child(where: str, name: str) -> str:
    """``where.name``, or the bare name under the root's empty key."""
    return f"{where}.{name}" if where else name


def _reader(hint: Any, rule: tuple | None, strict: bool) -> _Reader:
    """Builds the reader of one annotated value kind; a nested record read
    from its JSON object rejects unknown keys if ``strict``, else warns."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        item = _reader(args[0], rule, strict)
        noun = _SCALARS[args[0]][2] if args[0] in _SCALARS else "objects"

        def read_list(value: Any, key: str) -> tuple:
            if not _expect(value, (list, tuple), key, f"a list of {noun}"):
                raise ScenarioError(f"{key}: must not be empty")
            return tuple(item(v, f"{key}[{i}]") for i, v in enumerate(value))

        return read_list
    if type(None) in args:
        inner = _reader(args[0], rule, strict)
        return lambda value, key: None if value is None else inner(value, key)
    if dataclasses.is_dataclass(hint):
        return lambda value, key: value if isinstance(value, hint) else _build(
            hint, _expect(value, dict, key, "an object"), key, strict
        )
    read, default_rule, _ = _SCALARS[hint]
    rule = rule or default_rule
    if rule is None:
        return read
    text, ok = rule

    def read_checked(value: Any, key: str) -> Any:
        value = read(value, key)
        if not ok(value):
            raise ScenarioError(f"{key}: must be {text} (got {_shown(value)})")
        return value

    return read_checked


@functools.cache
def _readers(cls: type, strict: bool) -> dict[str, _Reader]:
    """Field name -> reader, for one record class."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: _reader(hints[f.name], f.metadata.get("rule"), strict)
        for f in dataclasses.fields(cls)
    }


class _Record:
    """Base of the parameter records, the scenario sections and the scenario.

    Construction, whether by the parser or directly, reads every field
    through its reader (types, finiteness, the field's rule) and then the
    record's cross-field rules, raising ``ScenarioError`` naming
    ``key.field``.  A scenario section is a record or extends one, and the
    scenario is the root record, whose key is empty.
    """

    def __init_subclass__(cls, key: str, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = key

    def __post_init__(self) -> None:
        for name, read in _readers(type(self), True).items():
            object.__setattr__(self, name, read(getattr(self, name), _child(self._key, name)))
        try:
            self._check_across_fields()
        except ValueError as exc:
            raise ScenarioError(f"{self._key}: {exc}" if self._key else str(exc)) from None

    def _check_across_fields(self) -> None:
        """Rules that involve more than one field; none by default."""


def _check_keys(section: dict, known: typing.Iterable[str], where: str, strict: bool) -> None:
    for key in section:
        if key not in known:
            message = f"unknown key {where or 'scenario'}.{key!r} (known keys: {', '.join(known)})"
            if strict:
                raise ScenarioError(message)
            print(f"warning: ignoring {message}", file=sys.stderr)


def _build(cls: type, raw: dict, where: str, strict: bool) -> Any:
    """One record from its JSON object; messages name each key from ``where``."""
    readers = _readers(cls, strict)
    _check_keys(raw, readers, where, strict)
    missing = [
        f.name for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.name not in raw
    ]
    if missing:
        raise ScenarioError(f"{where}: requires {' and '.join(map(repr, missing))}")
    return cls(**{
        name: read(raw[name], _child(where, name))
        for name, read in readers.items() if name in raw
    })
