"""Seeded fuzz of the command line: scenario keys at extreme values.

Each case sets one section key of a small scenario (20 sites, 2 epochs),
or a pair of keys, to awkward values and runs a report that reads them,
picked by a fixed-seed ``random.Random``.  Pairs are drawn within one
section, and across the earth, window and walker sections, whose keys
meet in orbit propagation.  Bad input must exit 1 naming a key it set; no
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


#: Within-section pairs drawn per section, and earth x window x walker triples.
PAIRS_PER_SECTION = 30
ACROSS_CASES = 150

#: Combinations whose keys each passed their single-key rules, yet that ran
#: to exit 0 with a degenerate orbit phase (the satellites of a plane
#: coincided) or overflowed in propagation; the bounds on mu and on the
#: window span must reject each with exit 1 naming the key.
FIXED = [
    ("baseline", {"window": {"duration_s": 1e300, "step_s": 1e298}}, "window.duration_s"),
    ("baseline", {"earth": {"mu_km3_s2": 1e308},
                  "window": {"duration_s": 1e300, "step_s": 1e299}}, "earth.mu_km3_s2"),
]


#: Grid and window keys each within their bounds whose product of sites and
#: epochs is not: the first once died allocating 7.28 TiB of samples.  Each
#: must exit 1 naming both keys, before any sample is allocated.
PRODUCT = [
    {"grid": {"resolution": 1000000}, "window": {"duration_s": 1000000, "step_s": 1}},
    {"grid": {"scheme": "latlon", "resolution": 1000000},
     "window": {"duration_s": 1000000, "step_s": 10}},
    {"grid": {"resolution": 40000}, "window": {"duration_s": 864000, "step_s": 1}},
]


def _single_cases():
    rng = random.Random(20201)
    for section, fields in scenario_to_dict(Scenario()).items():
        for key in fields:
            for value in VALUES:
                yield rng.choice(READERS[section]), {section: {key: value}}


def _pair_cases():
    rng = random.Random(20202)
    sections = scenario_to_dict(Scenario())
    for section, fields in sections.items():
        for _ in range(PAIRS_PER_SECTION):
            keys = rng.sample(sorted(fields), 2)
            yield rng.choice(READERS[section]), {section: {k: rng.choice(VALUES) for k in keys}}
    for _ in range(ACROSS_CASES):
        yield rng.choice(["dop-map", "dop-sweep", "optimize"]), {
            section: {rng.choice(sorted(sections[section])): rng.choice(VALUES)}
            for section in ("earth", "window", "walker")
        }


def _raise_hang(signum, frame):
    raise _Hang()


def _failures(cases, tmp_path, capsys) -> list[str]:
    """Runs each (command, sections) case; returns what went wrong."""
    path = tmp_path / "scenario.json"
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    failures = []
    try:
        for command, sections in cases:
            scenario = {**SMALL, **{
                section: {**SMALL.get(section, {}), **fields}
                for section, fields in sections.items()
            }}
            path.write_text(json.dumps(scenario), encoding="utf-8")
            case = f"{command} {json.dumps(sections):.120}"
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
            if code == 1 and not any(
                f"{section}.{key}" in err or (f"{section}: " in err and key in err)
                for section, fields in sections.items() for key in fields
            ):
                failures.append(f"{case}: exit 1 does not name a key: {err.strip()[:200]}")
            elif code == 0:
                finite_json(out)
            elif code not in (1, 2):
                failures.append(f"{case}: exit {code}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return failures


def test_every_key_at_extreme_values(tmp_path, capsys):
    failures = _failures(_single_cases(), tmp_path, capsys)
    assert not failures, "\n".join(failures)


def test_pairs_of_keys_at_extreme_values(tmp_path, capsys):
    failures = _failures(_pair_cases(), tmp_path, capsys)
    assert not failures, "\n".join(failures)


def test_sites_times_epochs_past_the_sample_bound_exit_1(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    for sections in PRODUCT:
        path.write_text(json.dumps({**SMALL, **sections}), encoding="utf-8")
        for command in ("baseline", "dop-map", "dop-sweep", "optimize"):
            argv = [command, "--config", str(path), "--quiet"]
            if command == "optimize":
                argv += ["--target-pdop", "3"]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "grid.resolution x window.duration_s / window.step_s" in err, err
            assert "Traceback" not in err


def test_in_bound_keys_that_once_ran_together_exit_1(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    for command, sections, key in FIXED:
        path.write_text(json.dumps({**SMALL, **sections}), encoding="utf-8")
        assert main([command, "--config", str(path), "--quiet"]) == 1
        assert f"{key}: must be in" in capsys.readouterr().err
