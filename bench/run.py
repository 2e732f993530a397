"""The faquad benchmark: run one workload, check its outputs, print metrics.

Run from the root of a checkout (nothing to build; faquad is imported
from ``src``):

    python3 bench/run.py --workload few-level-sweeps --seed 1 --seconds 55 --trace 0

Workloads are defined in ``workloads.py``. Each round of a workload runs
in a fresh process (``worker.py``), so every round pays and reports its
own set-up and peak memory. Rounds repeat while another one is expected to
end within ``--seconds``; at least one runs. Set-up is also timed in
``SETUP_PROBES`` processes that stop after set-up. Every process runs
BLAS and OpenMP on one thread (``THREAD_VARS``). Outputs go under
``.bench_out/`` in the checkout.

With ``--trace 0`` the end-to-end metrics are reported as medians over
the rounds: ``wall_s``, ``points_per_s``, ``setup_s``, ``peak_rss_mb``
and ``ref_dev``. With ``--trace 1`` each round is an untraced run
followed by a traced one, and the per-layer metrics of ``tracing.py``
are reported as medians over the traced runs, with ``trace.overhead_s``,
the median traced wall time minus the median untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
whenever that line is printed; it is not 0 when the benchmark cannot run,
for instance in a directory without faquad's sources.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

SETUP_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0
OUT_ROOT = ".bench_out"


class BenchError(Exception):
    """The benchmark itself could not run."""


class Runner:
    def __init__(self, workload, seed, out_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        # Sweeps run at faquad's default of one worker thread, and BLAS and
        # OpenMP on one thread too: on a box of a few shared cores, a second
        # spinning BLAS thread measures the scheduler, not faquad.
        self.env.pop("FAQUAD_WORKERS", None)
        self.env.update({name: "1" for name in THREAD_VARS})

    def spawn(self, out, *extra):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed), "--out", out]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a worker could start")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned), *extra], env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker ran past the deadline: {' '.join(cmd)}") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        sys.stderr.write(proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def round_dir(self, i, kind):
        return os.path.join(self.out_dir, f"{kind}{i}")


def failed_points(calls, out, codes):
    """Points that got no finite population or fidelity. A call that
    returned non-zero fails all its points. The figure presets write a
    failed point as NaN without listing it in the manifest, so the CSV
    files are counted, not ``point_failures``."""
    failed = 0
    for call, code in zip(calls, codes):
        finite = 0
        if code == 0:
            for name in os.listdir(os.path.join(out, call.tag)):
                if name.endswith(".csv"):
                    with open(os.path.join(out, call.tag, name), newline="") as handle:
                        for row in csv.DictReader(handle):
                            value = row.get("population", row.get("fidelity"))
                            finite += value is not None and math.isfinite(float(value))
        failed += call.points - finite
    return failed


def same_outputs(calls, first, other):
    """True when every CSV a round wrote is byte-identical to the first round's."""
    for call in calls:
        names = sorted(n for n in os.listdir(os.path.join(first, call.tag)) if n.endswith(".csv"))
        match, mismatch, errors = filecmp.cmpfiles(
            os.path.join(first, call.tag), os.path.join(other, call.tag), names, shallow=False)
        if mismatch or errors:
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one faquad benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "faquad", "cli.py")):
        print("error: no src/faquad/cli.py here; run from the root of a faquad checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_ROOT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    runner = Runner(args.workload, args.seed, out_dir, deadline)

    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [runner.spawn(os.path.join(out_dir, "probe"), "--setup-only")["setup_s"]
                  for _ in range(probes)]
        rounds, traced = [], []
        measure_start = time.monotonic()
        while True:
            i = len(rounds)
            round_start = time.monotonic()
            out = runner.round_dir(i, "round")
            rounds.append(runner.spawn(out))
            rounds[-1]["out"] = out
            print(f"round {i}: wall_s {rounds[-1]['wall_s']:.4f} setup_s {rounds[-1]['setup_s']:.4f}",
                  file=sys.stderr)
            if args.trace:
                out = runner.round_dir(i, "traced")
                trace_file = os.path.join(out_dir, f"trace{i}.json")
                traced.append(runner.spawn(out, "--trace", trace_file))
                traced[-1].update(out=out, trace_file=trace_file)
            last = time.monotonic() - round_start
            if time.monotonic() - measure_start + last > args.seconds:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # These import numpy and scipy, which the parent needs only from here on.
    import checks
    from tracing import layer_metrics

    calls = workloads.calls(args.workload, args.seed, "")
    points = sum(c.points for c in calls)
    runs = rounds + traced
    first = runs[0]["out"]
    problems, ref_dev = checks.check(args.workload, calls, first, BENCH_DIR)
    for run in runs[1:]:
        if not same_outputs(calls, first, run["out"]):
            problems.append(f"{run['out']} differs from {first}")
    attempted = points * len(runs)
    failed = sum(failed_points(calls, run["out"], run["codes"]) for run in runs)
    setups += [run["setup_s"] for run in runs]

    wall = statistics.median(r["wall_s"] for r in rounds)
    if args.trace:
        per_round = []
        for run in traced:
            with open(run["trace_file"]) as handle:
                per_round.append(layer_metrics(json.load(handle), points, run["bytes_written"]))
        metrics = {name: {"value": statistics.median(m[name][0] for m in per_round),
                          "unit": unit} for name, (_, unit) in per_round[0].items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced) - wall, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "points_per_s": {"value": statistics.median(points / r["wall_s"] for r in rounds),
                             "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
            "ref_dev": {"value": ref_dev, "unit": "1"},
        }

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} round(s), "
          f"{points} points per round")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'points attempted':34s} {attempted}")
    print(f"{'points failed':34s} {failed}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
