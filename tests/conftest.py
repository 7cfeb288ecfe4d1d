"""Shared fixtures: small scenarios that keep engine tests fast."""

from __future__ import annotations

import json
import os

import pytest

from leonav.scenario import Scenario, parse_scenario

#: Scenario overrides small enough for sub-second engine runs.
TINY = {
    "grid": {"resolution": 64},
    "window": {"duration_s": 3600.0, "step_s": 600.0},
    "sweep": {"sizes": [24, 36], "altitudes_km": [800.0, 1000.0]},
}


def see_cpus(monkeypatch, n: int) -> None:
    """Makes ``pdop_sweep`` see n CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _reject_constant(name: str):
    raise AssertionError(f"report holds {name}")


def finite_json(text: str):
    """The JSON document, failing on NaN and Infinity, which json.loads accepts."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def tiny_scenario() -> Scenario:
    return parse_scenario(json.dumps(TINY))


@pytest.fixture
def default_scenario() -> Scenario:
    return Scenario()
