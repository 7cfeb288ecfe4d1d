"""Records the reference output and the exact counts of every workload
variant, which run.py checks each invocation against.

Usage, from the root of a checkout: python3 perfbench/record.py

Rewrites perfbench/reference/.  Record again only when a report is meant
to change; a run that differs from the reference counts as failed.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, WORK, Runner, reference_path, variant_key
from tracing import EXACT_COUNTS, layer_metrics
from workloads import WORKLOADS


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    counts = {}
    for workload in WORKLOADS.values():
        for seed in range(len(workload.variants)):
            work = tempfile.mkdtemp(prefix="record-", dir=WORK)
            try:
                runner = Runner(workload, seed, Path(work))
                plain = runner.invoke(check_reference=False)
                traced = runner.invoke(trace=True, check_reference=False)
            finally:
                shutil.rmtree(work)
            if not (plain["ok"] and traced["ok"]) or plain["data"] != traced["data"]:
                print(f"{variant_key(workload, seed)}: {runner.problems}", file=sys.stderr)
                return 1
            trace = traced["trace"]
            layer = layer_metrics(trace["spans"], trace["missing"])
            key = variant_key(workload, seed)
            counts[key] = {name: layer[name] for name in EXACT_COUNTS}
            reference_path(workload, seed).write_bytes(gzip.compress(plain["data"], mtime=0))
            print(f"{key}: {plain['report_s']:.2f} s, {counts[key]}")
    with open(REFERENCE / "counts.json", "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=2, sort_keys=True)
        fh.write("\n")
    WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
