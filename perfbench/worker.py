"""One report invocation in a fresh interpreter.

Usage: worker.py [--trace SPANS_JSON] -- LEONAV_ARGS...

Imports leonav, times one ``leonav.cli.main(LEONAV_ARGS)`` call and prints
one JSON line: exit code, report seconds, the process's peak resident
memory, and the seconds of the speed probe (calibrate.py) timed right
before and right after the call.  The peak is read before the second
probe.  With --trace the public functions are wrapped first and the
spans are written to SPANS_JSON after the call returns.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from calibrate import probe_seconds


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, leonav_args = argv[:split], argv[split + 1:]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    import leonav.cli

    call = leonav.cli.main
    recorder = None
    if trace_path is not None:
        from tracing import MAIN, Recorder

        recorder = Recorder()
        recorder.install()
        call = recorder.wrap(MAIN, call)

    before = probe_seconds()
    start = time.perf_counter()
    code = call(leonav_args)
    report_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    after = probe_seconds()

    if recorder is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": recorder.spans,
                    "missing": recorder.missing,
                    "observer_errors": recorder.observer_errors,
                },
                fh,
            )
    print(json.dumps({"exit": code, "report_s": report_s, "peak_rss_mb": peak_kib / 1024.0,
                      "probes_s": [before, after]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
