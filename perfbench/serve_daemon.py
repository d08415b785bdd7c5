"""Launch ``repro serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/serve_daemon.py --report OUT.json [--trace-dir DIR] \\
        serve --model emba_dual_sb --shards 0 --port 0

Everything after the launcher's own flags is passed to
``repro.cli.main``.  With ``--trace-dir`` the launcher installs the
benchmark's layer wrappers before the CLI runs.  The client sends
:data:`BEGIN_SIGNAL` once its warm-up is over; the launcher then drops
the spans recorded so far, turns on the daemon's own tracing (one
JSON-lines file in DIR) and creates DIR/:data:`MEASURING`, so both
traces cover only the measured phases.  When the daemon exits, the
launcher restores every patched attribute, writes its spans to the
benchmark's spans file and writes the report: peak RSS, the wrapper
summary and any attribute left patched.
"""

import argparse
import json
import signal
import sys
from pathlib import Path

from common import require_program, rss_peak_mb, spans_path

BEGIN_SIGNAL = signal.SIGUSR1
MEASURING = "measuring"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace-dir", default="")
    args, rest = parser.parse_known_args()
    require_program()
    from repro import cli, obs

    tracer = None
    if args.trace_dir:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        trace_dir = Path(args.trace_dir)

        def begin_measurement(signum, frame):
            # The daemon is idle here: the warm-up's replies are all in.
            tracer.reset()
            obs.enable(str(trace_dir / "serve.jsonl"))
            (trace_dir / MEASURING).touch()

        signal.signal(BEGIN_SIGNAL, begin_measurement)
    report = {}
    try:
        code = cli.main(rest)
    finally:
        if tracer is not None:
            obs.disable()
            tracer.uninstall()
            tracer.dump(spans_path("serve-open"))
            report["summary"] = tracer.summary()
            report["leftover_patches"] = tracer.leftover_patches()
        report["rss_peak_mb"] = rss_peak_mb()
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
