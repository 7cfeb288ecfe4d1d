"""Span recording around leonav's public functions, and the per-layer
metrics derived from the spans.

The recorder wraps each function at the module attribute its caller looks
it up under, so the program itself is unchanged.  Spans stay in memory
(name, start, end, parent, thread, process CPU at both ends, and counts
read from the returned value) until the traced invocation ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time

# (module, attribute) pairs wrapped by the traced run.  Each is named
# "<module>.<attribute>" in the span list.
WRAP_POINTS = (
    ("leonav.cli", "parse_scenario"),
    ("leonav.cli", "scenario_hash"),
    ("leonav.cli", "emit"),
    ("leonav.tradestudy", "gps_baseline"),
    ("leonav.tradestudy", "pdop_sweep"),
    ("leonav.tradestudy", "min_constellation_size"),
    ("leonav.tradestudy", "dop_map"),
    ("leonav.tradestudy", "percentile_pdop"),
    ("leonav.tradestudy", "pdop_field"),
    ("leonav.tradestudy", "scenario_hash"),
    ("leonav.geometry", "pdop_samples"),
    ("leonav.geometry", "weighted_percentile"),
    ("leonav.geometry", "walker_constellation"),
    ("leonav.geometry", "propagate_arrays"),
    ("leonav.geometry", "rotate_eci_to_ecef"),
)

MAIN = "leonav.cli.main"
PARSE = "leonav.cli.parse_scenario"
EMIT = "leonav.cli.emit"
HASHES = ("leonav.cli.scenario_hash", "leonav.tradestudy.scenario_hash")
ENTRIES = tuple(
    f"leonav.tradestudy.{n}"
    for n in ("gps_baseline", "pdop_sweep", "min_constellation_size", "dop_map")
)
EVALS = ("leonav.tradestudy.percentile_pdop", "leonav.tradestudy.pdop_field")
SAMPLES = "leonav.geometry.pdop_samples"
PERCENTILE = "leonav.geometry.weighted_percentile"
WALKER = "leonav.geometry.walker_constellation"
PROPAGATE = "leonav.geometry.propagate_arrays"
ROTATE = "leonav.geometry.rotate_eci_to_ecef"


def _sample_counts(args, kwargs, result) -> dict:
    """Counts of one pdop_samples call, read from its arguments and result."""
    import numpy as np

    spec = kwargs["spec"] if "spec" in kwargs else args[0]
    pdop = np.asarray(result.pdop)
    visible = np.asarray(result.visible_count)
    enough = visible >= 4
    return {
        "samples": int(pdop.size),
        "site_sat_pairs": int(pdop.size) * int(spec.total_sats),
        "visible_pairs": int(visible.sum()),
        "undefined_insufficient": int((~enough).sum()),
        "undefined_singular": int((enough & ~np.isfinite(pdop)).sum()),
    }


def _emit_counts(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


OBSERVERS = {SAMPLES: _sample_counts, EMIT: _emit_counts}


class Recorder:
    """Collects spans from every thread of one process.

    A span's parent is the innermost open span on its own thread; on a
    worker thread with no open span, it is the innermost open span of the
    main thread, which is the call that handed the work to the pool.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.observer_errors: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu1 = time.process_time()
                stack.pop()
            span = {
                "id": span_id, "name": name, "parent": parent,
                "thread": threading.get_ident(), "start": start, "end": end,
                "cpu": cpu1 - cpu0,
            }
            if observe is not None:
                try:
                    span["counts"] = observe(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError) as exc:
                    self.observer_errors.append(f"{name}: {exc!r}")
            self.spans.append(span)
            return result

        return traced

    def install(self) -> None:
        """Replaces every wrap point that exists; records the ones that do not."""
        for module_name, attr in WRAP_POINTS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            setattr(module, attr, self.wrap(name, fn))


# ---------------------------------------------------------------------------
# Per-layer metrics.


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _Spans:
    def __init__(self, spans: list[dict]) -> None:
        self.by_name: dict[str, list[dict]] = {}
        self.children: dict[int, list[dict]] = {}
        for span in spans:
            self.by_name.setdefault(span["name"], []).append(span)
            self.children.setdefault(span["parent"], []).append(span)

    def named(self, *names: str) -> list[dict]:
        return [s for n in names for s in self.by_name.get(n, [])]

    def total(self, *names: str) -> float:
        return sum(_dur(s) for s in self.named(*names))

    def count_sum(self, name: str, key: str) -> int:
        return sum(s["counts"][key] for s in self.named(name))

    def self_time(self, span: dict, only: tuple[str, ...] | None = None) -> float:
        """Span duration minus the union of its children's intervals (all
        threads), optionally counting only children with the given names."""
        kids = [
            (max(k["start"], span["start"]), min(k["end"], span["end"]))
            for k in self.children.get(span["id"], [])
            if only is None or k["name"] in only
        ]
        return _dur(span) - _union(kids)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


# name -> (unit, wrap points it needs, derivation).  A derivation that
# returns None leaves the metric absent.
LAYER_METRICS = {
    "scenario.parse_s": ("s", (PARSE,), lambda t: t.total(PARSE)),
    "scenario.hash_s": ("s", HASHES, lambda t: t.total(*HASHES)),
    "scenario.hash_calls": ("count", HASHES, lambda t: len(t.named(*HASHES))),
    "orbits.walker_s": ("s", (WALKER,), lambda t: t.total(WALKER)),
    "orbits.propagate_s": ("s", (PROPAGATE,), lambda t: t.total(PROPAGATE)),
    "orbits.propagate_calls": ("count", (PROPAGATE,), lambda t: len(t.named(PROPAGATE))),
    "orbits.rotate_s": ("s", (ROTATE,), lambda t: t.total(ROTATE)),
    "geometry.samples_s": ("s", (SAMPLES,), lambda t: t.total(SAMPLES)),
    "geometry.kernel_self_s": (
        "s", (SAMPLES, WALKER, PROPAGATE, ROTATE),
        lambda t: sum(t.self_time(s) for s in t.named(SAMPLES)),
    ),
    "geometry.aggregate_self_s": (
        "s", EVALS + (SAMPLES, PERCENTILE),
        lambda t: sum(t.self_time(s) for s in t.named(*EVALS)),
    ),
    "geometry.percentile_s": ("s", (PERCENTILE,), lambda t: t.total(PERCENTILE)),
    "geometry.percentile_calls": ("count", (PERCENTILE,), lambda t: len(t.named(PERCENTILE))),
    "geometry.samples": ("count", (SAMPLES,), lambda t: t.count_sum(SAMPLES, "samples")),
    "geometry.site_sat_pairs": (
        "count", (SAMPLES,), lambda t: t.count_sum(SAMPLES, "site_sat_pairs")
    ),
    "geometry.visible_pairs": (
        "count", (SAMPLES,), lambda t: t.count_sum(SAMPLES, "visible_pairs")
    ),
    "geometry.undefined_insufficient": (
        "count", (SAMPLES,), lambda t: t.count_sum(SAMPLES, "undefined_insufficient")
    ),
    "geometry.undefined_singular": (
        "count", (SAMPLES,), lambda t: t.count_sum(SAMPLES, "undefined_singular")
    ),
    "geometry.visible_frac": (
        "ratio", (SAMPLES,),
        lambda t: _ratio(t.count_sum(SAMPLES, "visible_pairs"),
                         t.count_sum(SAMPLES, "site_sat_pairs")),
    ),
    "geometry.pair_rate": (
        "1/s", (SAMPLES, WALKER, PROPAGATE, ROTATE),
        lambda t: _ratio(t.count_sum(SAMPLES, "site_sat_pairs"),
                         sum(t.self_time(s) for s in t.named(SAMPLES))),
    ),
    "geometry.sample_rate": (
        "1/s", (SAMPLES,),
        lambda t: _ratio(t.count_sum(SAMPLES, "samples"), t.total(SAMPLES)),
    ),
    "tradestudy.evaluations": ("count", EVALS, lambda t: len(t.named(*EVALS))),
    "tradestudy.eval_s_p50": (
        "s", EVALS,
        lambda t: statistics.median([_dur(s) for s in t.named(*EVALS)])
        if t.named(*EVALS) else None,
    ),
    "tradestudy.eval_s_max": (
        "s", EVALS,
        lambda t: max((_dur(s) for s in t.named(*EVALS)), default=None),
    ),
    "tradestudy.self_s": (
        "s", ENTRIES + EVALS,
        lambda t: sum(t.self_time(s, EVALS) for s in t.named(*ENTRIES)),
    ),
    "tradestudy.concurrency": (
        "ratio", ENTRIES + EVALS,
        lambda t: _ratio(t.total(*EVALS), t.total(*ENTRIES)),
    ),
    "tradestudy.cpu_util": (
        "ratio", ENTRIES,
        lambda t: _ratio(sum(s["cpu"] for s in t.named(*ENTRIES)), t.total(*ENTRIES)),
    ),
    "output.emit_s": ("s", (EMIT,), lambda t: t.total(EMIT)),
    "output.bytes": ("B", (EMIT,), lambda t: t.count_sum(EMIT, "bytes")),
    "cli.self_s": (
        "s", (PARSE, EMIT) + HASHES + ENTRIES,
        lambda t: sum(t.self_time(s) for s in t.named(MAIN)),
    ),
}

#: Counts that must repeat exactly between runs of the same inputs.
EXACT_COUNTS = (
    "tradestudy.evaluations",
    "geometry.samples",
    "geometry.visible_pairs",
    "geometry.undefined_insufficient",
    "geometry.undefined_singular",
)


def layer_metrics(spans: list[dict], missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    A metric is left out when a wrap point it needs was missing, or when
    its base is zero; it is never filled with a made-up value.
    """
    table = _Spans(spans)
    out: dict[str, float] = {}
    for name, (_unit, needs, derive) in LAYER_METRICS.items():
        if any(n in missing for n in needs):
            continue
        try:
            value = derive(table)
        except KeyError:  # a span lacks the counts its observer could not read
            value = None
        if value is not None:
            out[name] = value
    return out

