"""Seeded fuzz of the command line: every scenario key at extreme values.

Each case sets one section key of a small scenario (20 sites, 2 epochs) to
one awkward value and runs a report that reads that section, picked by a
fixed-seed ``random.Random``.  Bad input must exit 1 naming its key; no
run may crash, hang, warn about floating-point trouble or write a
non-finite number.
"""

from __future__ import annotations

import json
import math
import random
import signal
import warnings

from leonav.cli import main
from leonav.scenario import Scenario, scenario_to_dict

from conftest import finite_json

SMALL = {
    "grid": {"resolution": 20},
    "window": {"duration_s": 240.0, "step_s": 120.0},
    "sweep": {"sizes": [24, 48], "altitudes_km": [800.0, 1200.0]},
}

#: Values every key is set to: zero, signs, extremes of magnitude, huge
#: integers, non-finite numbers and values of the wrong kind.
VALUES = [
    0, -1, 1, 0.5, 2, 24, 89.9999999, 90, 1e308, -1e308, 1e-300, 1e-310,
    10**400, 10**29, math.nan, math.inf, "nan", "L5", True, None, [], {},
    [0], [1e308], [1e-300], [10**400], [5, 5.0000001],
    [{"name": "x", "unit_power_w": 1e308, "count": 10}],
]

#: The reports that read each section.
READERS = {
    "earth": ["baseline", "dop-map", "pathloss", "footprint", "power"],
    "walker": ["dop-map", "dop-sweep", "optimize"],
    "grid": ["baseline", "dop-map"],
    "window": ["baseline", "dop-map"],
    "sweep": ["dop-sweep", "dop-map", "baseline"],
    "link": ["pathloss", "footprint", "power"],
    "jammer": ["jammer"],
    "materials": ["jammer"],
    "payload": ["power"],
}

#: Seconds one run may take before it counts as a hang.
LIMIT_S = 10.0


class _Hang(Exception):
    """A run outlived ``LIMIT_S``."""


def _cases():
    rng = random.Random(20201)
    for section, fields in scenario_to_dict(Scenario()).items():
        for key in fields:
            for value in VALUES:
                yield section, key, value, rng.choice(READERS[section])


def _raise_hang(signum, frame):
    raise _Hang()


def test_every_key_at_extreme_values(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    failures = []
    try:
        for section, key, value, command in _cases():
            scenario = {**SMALL, section: {**SMALL.get(section, {}), key: value}}
            path.write_text(json.dumps(scenario), encoding="utf-8")
            case = f"{command} {section}.{key}={value!r:.40}"
            signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main([command, "--config", str(path), "--format", "json", "--quiet"])
            except _Hang:
                failures.append(f"{case}: still running after {LIMIT_S} s")
                continue
            except Exception as exc:  # a crash: record it and go on
                failures.append(f"{case}: {type(exc).__name__}: {exc}"[:300])
                capsys.readouterr()
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            out, err = capsys.readouterr()
            runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
            if runtime:
                failures.append(f"{case}: RuntimeWarning {runtime[0]}")
            if code == 1 and f"{section}.{key}" not in err and not (
                f"{section}: " in err and key in err
            ):
                failures.append(f"{case}: exit 1 does not name the key: {err.strip()[:200]}")
            elif code == 0:
                finite_json(out)
            elif code not in (1, 2):
                failures.append(f"{case}: exit {code}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, "\n".join(failures)
