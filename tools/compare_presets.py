"""Run faquad's figure presets at two revisions and compare their CSVs.

    python tools/compare_presets.py OLD NEW [--presets fig1b fig3b ...]
                                    [--out DIR]

OLD and NEW are git revisions of the repository this script lives in,
each checked out with ``git worktree add --detach`` into a temporary
directory and removed afterwards, or paths to checkouts of faquad (a
directory holding ``src/faquad``), such as ``.`` for the working tree
with its uncommitted changes. Every preset (all that NEW defines, by
default) runs once per side as ``python -m faquad.cli figure PRESET`` in
a fresh process, with BLAS on one thread and ``FAQUAD_WORKERS`` unset,
OLD first for the first preset and then alternating, so that a box that
slows down or speeds up during the run favours neither side. The script
prints each run's wall time and peak resident memory, then one line per
CSV file: ``identical`` when the two files are byte for byte the same,
else the largest absolute change of a number, its column and row, and
the row's first field (the duration or the control, for every preset
CSV). Outputs go to a temporary directory, or
under ``--out`` where they are kept. The exit code is 1 if a preset run
failed, else 0.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git(repo, *args):
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _environment(checkout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    env.pop("FAQUAD_WORKERS", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def presets(checkout):
    """The figure presets that the faquad of ``checkout`` defines."""
    code = "import json; from faquad import cli; print(json.dumps(sorted(cli.builtin_figures())))"
    done = subprocess.run([sys.executable, "-c", code], env=_environment(checkout),
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def run_preset(checkout, preset, out):
    """(exit code, wall seconds, peak resident MB) of one preset run of the
    faquad of ``checkout`` writing into ``out``."""
    started = time.monotonic()
    child = subprocess.Popen([sys.executable, "-m", "faquad.cli", "figure", preset,
                              "--out", out], env=_environment(checkout),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - started
    errors = child.stderr.read().decode(errors="replace")
    child.stderr.close()
    if child.returncode != 0:
        print(errors, file=sys.stderr, end="")
    return child.returncode, wall, usage.ru_maxrss / 1024.0


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(old_path, new_path):
    """``identical`` if the two files are byte for byte the same; else the
    largest absolute change between numbers at the same place, with its
    column, its 0-based data row and that row's first field; or why the
    files cannot be compared so."""
    if filecmp.cmp(old_path, new_path, shallow=False):
        return "identical"
    with open(old_path, newline="") as handle:
        old = list(csv.reader(handle))
    with open(new_path, newline="") as handle:
        new = list(csv.reader(handle))
    if not old or not new or old[0] != new[0]:
        return "headers differ"
    if len(old) != len(new) or any(len(a) != len(b) for a, b in zip(old, new)):
        return f"shapes differ ({len(old) - 1} against {len(new) - 1} rows)"
    largest, where, texts = -1.0, None, []
    for row, (a_row, b_row) in enumerate(zip(old[1:], new[1:])):
        for column, (a, b) in enumerate(zip(a_row, b_row)):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                texts.append((row, old[0][column]))
                continue
            change = abs(y - x)
            if math.isnan(change):  # a point failed on one side only
                change = math.inf
            if change > largest:
                largest, where = change, (row, column)
    parts = []
    if where is not None:
        row, column = where
        parts.append(f"largest change {largest:.3g} in {old[0][column]} at row {row} "
                     f"({old[0][0]} = {old[row + 1][0]})")
    if texts:
        row, name = texts[0]
        parts.append(f"{len(texts)} text fields differ, first in {name} at row {row}")
    return "; ".join(parts) or "differs"


def _checkout(repo, revision, scratch, label, worktrees):
    if os.path.isdir(os.path.join(revision, "src", "faquad")):
        return os.path.abspath(revision), revision
    path = os.path.join(scratch, f"worktree-{label}")
    _git(repo, "worktree", "add", "--detach", path, revision)
    worktrees.append(path)
    return path, f"{revision} ({_git(path, 'rev-parse', '--short', 'HEAD')})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="git revision, or path to a checkout")
    parser.add_argument("new", help="git revision, or path to a checkout")
    parser.add_argument("--presets", nargs="+", help="presets to run (default: all of NEW)")
    parser.add_argument("--out", help="directory for the outputs, kept (default: temporary)")
    args = parser.parse_args(argv)

    repo = _git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    with tempfile.TemporaryDirectory(prefix="compare-presets-") as scratch:
        out_root = os.path.abspath(args.out) if args.out else scratch
        worktrees = []
        try:
            sides = [_checkout(repo, rev, scratch, label, worktrees)
                     for rev, label in ((args.old, "old"), (args.new, "new"))]
            for label, (_, name) in zip(("old", "new"), sides):
                print(f"{label}: {name}")
            failed = False
            for i, preset in enumerate(args.presets or presets(sides[1][0])):
                outs = [os.path.join(out_root, label, preset) for label in ("old", "new")]
                for j in ((0, 1) if i % 2 == 0 else (1, 0)):
                    label = ("old", "new")[j]
                    code, wall, peak = run_preset(sides[j][0], preset, outs[j])
                    print(f"{preset} {label}: exit {code}, {wall:.2f} s, {peak:.1f} MB")
                    failed |= code != 0
                names = sorted({name for out in outs if os.path.isdir(out)
                                for name in os.listdir(out) if name.endswith(".csv")})
                for name in names:
                    paths = [os.path.join(out, name) for out in outs]
                    missing = [label for label, path in zip(("old", "new"), paths)
                               if not os.path.exists(path)]
                    result = (f"missing in {', '.join(missing)}" if missing
                              else compare_csv(*paths))
                    print(f"  {preset}/{name}: {result}")
        finally:
            for path in worktrees:
                _git(repo, "worktree", "remove", "--force", path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
