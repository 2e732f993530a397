"""One process of the benchmark: set up, run a workload's faquad calls, report.

``run.py`` starts it from the root of a checkout:

    python3 bench/worker.py --workload NAME --seed N --out DIR --spawned T
                            [--setup-only] [--trace FILE]

``T`` is the parent's ``time.monotonic()`` just before the start, so the
set-up time covers the interpreter, the imports of faquad, numpy and
scipy, and drawing the inputs. With ``--setup-only`` the process stops
there. Otherwise it runs the workload's command lines through
``faquad.cli.main``, timing the first call to the last return, and with
``--trace`` it records spans (see ``tracing.py``) and writes them to FILE.
The last line of its output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import faquad
    from faquad import cli

    if not os.path.abspath(faquad.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported faquad from {faquad.__file__}, not from {src}")
    import workloads

    calls = workloads.calls(args.workload, args.seed, args.out)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    started = time.monotonic()
    report = {"setup_s": started - args.spawned}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    codes = []
    for call in calls:
        with tracer.span("cli") if tracer else nullcontext():
            codes.append(cli.main(list(call.argv)))
    report["wall_s"] = time.monotonic() - started
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["codes"] = codes
    report["bytes_written"] = sum(_tree_bytes(os.path.join(args.out, c.tag)) for c in calls)
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace)
    for argv in workloads.support_calls(args.workload, args.out):
        if cli.main(argv) != 0:
            sys.exit(f"error: support call {argv} failed")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
