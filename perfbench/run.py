"""Runs one leonav benchmark workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --list

Each report invocation runs in a fresh interpreter (perfbench/worker.py)
on the checkout's own ``src/``, between two timings of a speed probe
(perfbench/calibrate.py) that scale its wall time to a reference speed.
Every output is checked against the workload's invariants and the
reference recorded for its variant.  The
last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine, the variant and every sample.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced invocations and reports the per-layer metrics.  README.md
explains every workload and metric.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REFERENCE_S
from tracing import EXACT_COUNTS, LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, Workload, compare, parse_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
WORK = ROOT / ".perfbench_work"

#: Pins created_utc in JSON reports, so outputs compare across runs.
SOURCE_DATE_EPOCH = "1700000000"
#: Fresh interpreters timed per run for setup_s, after one untimed warm-up
#: that also leaves the bytecode caches in place.
SETUP_SAMPLES = 7
#: Untraced invocations made even when they outlast --seconds; a traced
#: run makes at least one untraced and one traced invocation.
MIN_INVOCATIONS = 2
#: Limit on one invocation, so a hung report cannot outlive the run.
INVOCATION_TIMEOUT_S = 150

THREAD_VARS = (
    "LEO_NAV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "report_s": ("s", "median seconds of one leonav.cli.main(argv) call "
                      "(parse, compute, emit to a file) in an interpreter that "
                      "has already imported leonav, wall time scaled to the "
                      "reference machine speed (calibrate.py)"),
    "setup_s": ("s", f"median over {SETUP_SAMPLES} fresh interpreters of the "
                     "seconds until `import leonav.cli` (numpy included) is done, "
                     "scaled like report_s by a probe timed right after it"),
    "peak_rss_mb": ("MB", "median peak resident memory (ru_maxrss) of the "
                          "process that ran one invocation"),
    "ok_frac": ("ratio", "share of invocations that exited 0 with an output "
                         "matching the invariants and the reference"),
}
#: Per-layer metrics of the benchmark itself, from the invocations of a
#: traced run.
BENCH_METRICS = {
    "bench.trace_overhead": ("ratio", "median traced report_s / median untraced "
                                      "report_s - 1"),
    "bench.report_wall_s": ("s", "median unscaled wall seconds of one untraced call"),
    "bench.probe_s": ("s", f"median calibration probe seconds (reference {REFERENCE_S} s)"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no leonav source, import failure)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LEO_NAV_THREADS", None)
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


#: Run by measure_setup in a fresh interpreter: import leonav.cli, say so,
#: then time the speed probe and print its seconds.
SETUP_CHILD = (
    "import leonav.cli; print('ready', flush=True); "
    f"import sys; sys.path.insert(0, {str(HERE)!r}); "
    "from calibrate import probe_seconds; print(probe_seconds())"
)


def measure_setup(env: dict) -> tuple[float, float]:
    """Seconds from starting an interpreter until leonav.cli is imported,
    and the seconds of the speed probe timed right after, in that process."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        probe = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError("`import leonav.cli` failed in a fresh interpreter")
    return elapsed, float(probe)


def variant_key(workload: Workload, seed: int) -> str:
    """Names the variant a seed selects, e.g. ``leo-sweep.v2``."""
    return f"{workload.name}.v{workload.variants.index(workload.variant(seed))}"


def reference_path(workload: Workload, seed: int) -> Path:
    return REFERENCE / f"{variant_key(workload, seed)}.{workload.fmt}.gz"


def expected_counts(workload: Workload, seed: int) -> dict:
    with open(REFERENCE / "counts.json", encoding="utf-8") as fh:
        return json.load(fh)[variant_key(workload, seed)]


class Runner:
    """Invokes one workload variant and checks each output."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.config = work / "scenario.json"
        self.config.write_text(json.dumps(workload.config(seed), indent=2) + "\n")
        self.calls = 0
        self.problems: list[str] = []

    def invoke(self, trace: bool = False, check_reference: bool = True) -> dict:
        """One report in a fresh worker; the record carries ``ok``, ``data``
        and, when traced, ``trace``.  Its ``report_s`` is the call's wall
        time ``wall_s`` scaled to the reference speed by ``probe_s``, the
        mean of the probes timed right before and after the call."""
        self.calls += 1
        out = self.work / f"report{self.calls}.{self.workload.fmt}"
        spans = self.work / f"spans{self.calls}.json"
        cmd = [sys.executable, str(HERE / "worker.py")]
        if trace:
            cmd += ["--trace", str(spans)]
        cmd += ["--", *self.workload.argv(self.seed, str(self.config), str(out))]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
            timeout=INVOCATION_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self.fail({}, f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        record = json.loads(lines[-1])
        record["wall_s"] = record.pop("report_s")
        record["probe_s"] = statistics.fmean(record.pop("probes_s"))
        record["report_s"] = record["wall_s"] * REFERENCE_S / record["probe_s"]
        if record["exit"] != 0:
            return self.fail(record, f"leonav exited {record['exit']}: {proc.stderr.strip()[-500:]}")
        record["data"] = out.read_bytes()
        out.unlink()
        if trace:
            record["trace"] = json.loads(spans.read_text())
            spans.unlink()
        problems = self.check(record["data"], check_reference)
        if problems:
            return self.fail(record, "; ".join(problems))
        record["ok"] = True
        return record

    def check(self, data: bytes, check_reference: bool = True) -> list[str]:
        try:
            table = parse_report(data, self.workload.fmt)
            problems = self.workload.check(table, self.seed)
        except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
            return [f"malformed report: {exc!r}"]
        if check_reference:
            ref = reference_path(self.workload, self.seed)
            reference = parse_report(gzip.decompress(ref.read_bytes()), self.workload.fmt)
            problems += compare(table, reference)
        return problems

    def fail(self, record: dict, problem: str) -> dict:
        self.problems.append(problem)
        record["ok"] = False
        return record


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def run_plain(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    records = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records.append(runner.invoke())
        last = time.perf_counter() - t0
        if len(records) >= MIN_INVOCATIONS and time.perf_counter() - start + last > seconds:
            break
    done = [r for r in records if "report_s" in r]
    samples = {
        name: [r[name] for r in done]
        for name in ("report_s", "wall_s", "probe_s", "peak_rss_mb")
    }
    return records, samples


def run_traced(runner: Runner, seconds: float):
    """Alternates untraced and traced invocations of the same inputs.

    Returns the records, the per-layer metric values, the samples and the
    wrap points that no longer exist.
    """
    records, plain, traced_s, layers = [], [], [], []
    missing: set[str] = set()
    expected = expected_counts(runner.workload, runner.seed)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced = runner.invoke()
        traced = runner.invoke(trace=True)
        records += [untraced, traced]
        last = time.perf_counter() - t0
        if untraced["ok"] and traced["ok"]:
            plain.append(untraced)
            traced_s.append(traced["report_s"])
            if untraced["data"] != traced["data"]:
                runner.fail(traced, "traced report bytes differ from the untraced report")
            trace = traced["trace"]
            missing.update(trace["missing"])
            runner.problems += trace["observer_errors"]
            layer = layer_metrics(trace["spans"], trace["missing"])
            for name in EXACT_COUNTS:
                if name in layer and layer[name] != expected[name]:
                    runner.fail(traced, f"{name} = {layer[name]}, expected {expected[name]}")
            layers.append(layer)
        if time.perf_counter() - start + last > seconds:
            break
    values = {
        n: _median([layer[n] for layer in layers if n in layer])
        for n in LAYER_METRICS if any(n in layer for layer in layers)
    }
    samples = {
        name: [r[name] for r in plain] for name in ("report_s", "wall_s", "probe_s")
    }
    samples["traced_report_s"] = traced_s
    if plain:
        values["bench.trace_overhead"] = _median(traced_s) / _median(samples["report_s"]) - 1.0
        values["bench.report_wall_s"] = _median(samples["wall_s"])
        values["bench.probe_s"] = _median(samples["probe_s"])
    return records, values, samples, sorted(missing)


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "leonav" / "cli.py").is_file():
        raise BenchError(f"no leonav source at {ROOT / 'src' / 'leonav'}")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(workload, seed, work)
        context = {
            "workload": workload.name, "seed": seed,
            "variant": variant_key(workload, seed),
            "scenario": workload.config(seed),
            "argv": workload.argv(seed, "SCENARIO", "OUT"),
            "machine": machine(),
        }
        if trace:
            records, values, samples, missing = run_traced(runner, seconds)
            units = {n: u for n, (u, _, _) in LAYER_METRICS.items()}
            units.update((n, u) for n, (u, _) in BENCH_METRICS.items())
            context["missing_functions"] = missing
            context["absent_metrics"] = [n for n in units if n not in values]
        else:
            measure_setup(runner.env)  # warm-up: bytecode caches, file cache
            setup = [measure_setup(runner.env) for _ in range(SETUP_SAMPLES)]
            records, samples = run_plain(runner, seconds)
            samples["setup_wall_s"] = [wall for wall, _ in setup]
            samples["setup_probe_s"] = [probe for _, probe in setup]
            samples["setup_s"] = [wall * REFERENCE_S / probe for wall, probe in setup]
            values = {
                "report_s": _median(samples["report_s"]),
                "setup_s": _median(samples["setup_s"]),
                "peak_rss_mb": _median(samples["peak_rss_mb"]),
                "ok_frac": sum(r["ok"] for r in records) / len(records),
            }
            units = {n: u for n, (u, _) in END_TO_END.items()}
        context["samples"] = samples
        context["problems"] = runner.problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    failed = sum(not r["ok"] for r in records)
    print(json.dumps(context))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {
            n: {"value": v, "unit": units[n]} for n, v in values.items() if v is not None
        },
    }))
    return 0


def print_catalog() -> None:
    print("workloads:")
    for w in WORKLOADS.values():
        print(f"  {w.name}: {w.why}")
    print("end-to-end metrics (--trace 0):")
    for name, (unit, text) in END_TO_END.items():
        print(f"  {name} [{unit}]: {text}")
    print("per-layer metrics (--trace 1):")
    for name, (unit, _, _) in LAYER_METRICS.items():
        print(f"  {name} [{unit}]")
    for name, (unit, text) in BENCH_METRICS.items():
        print(f"  {name} [{unit}]: {text}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print workloads and metrics")
    args = parser.parse_args(argv)
    if args.list:
        print_catalog()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
