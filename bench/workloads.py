"""The benchmark's workloads: faquad command lines drawn from a seed.

Each workload is a fixed list of ``faquad`` command lines, run in order
through ``faquad.cli.main``. The seed draws only values that leave the
amount of work unchanged (the lower end of each duration range, the
nonzero calibration errors), so every seed asks for the same number of
points, steps and diagonalisations. The top of each duration range is
fixed: the default step rule reads the longest duration, and the fixed
point there is where the accuracy metric is taken.

Standard library only: the worker process imports this before faquad, as
part of the set-up it times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TWO_LEVEL = ["--model", "two-level", "--U", "22.3", "--J", "1",
             "--lambda-start", "66.7", "--lambda-end", "0"]
COTUNNELING = ["--model", "bose-hubbard-3", "--U", "22.3", "--J", "1",
               "--lambda-start", "66.7", "--lambda-end", "-66.7"]

# Top of the duration ranges. fig1b runs to 10; fig4b runs to 80, which
# makes the default step rule pick 113k steps, so its range is cut to 20.
TWO_LEVEL_TF_MAX = 10.0
COTUNNELING_TF_MAX = 20.0
TWO_LEVEL_POINTS = 60
COTUNNELING_POINTS = 30
# The ring reference and the filling check sit at t_f = 90.
RING_TF = 90.0
RING_DURATIONS = 3
RING_NS = (3, 9)


@dataclass(frozen=True)
class Call:
    """One faquad command line, the output directory it writes and the
    number of curve points it asks for."""

    tag: str
    argv: tuple
    points: int


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _sweep(tag, model, protocol, tf_min, tf_max, count, out):
    argv = ["sweep-tf", *model, "--protocol", protocol, "--tf-min", _fmt(tf_min),
            "--tf-max", _fmt(tf_max), "--tf-count", str(count), "--out", f"{out}/{tag}"]
    return Call(tag, tuple(argv), count)


def few_level_sweeps(rng: random.Random, out: str) -> list:
    """fig1b shape (two-level FAQUAD and its prediction) and fig4b shape
    (cotunneling, FAQUAD and linear), at the default step rule."""
    return [
        _sweep("two_level_faquad", TWO_LEVEL, "faquad", rng.uniform(0.05, 0.5),
               TWO_LEVEL_TF_MAX, TWO_LEVEL_POINTS, out),
        _sweep("cotunneling_faquad", COTUNNELING, "faquad", rng.uniform(0.05, 0.5),
               COTUNNELING_TF_MAX, COTUNNELING_POINTS, out),
        _sweep("cotunneling_linear", COTUNNELING, "linear", rng.uniform(0.05, 0.5),
               COTUNNELING_TF_MAX, COTUNNELING_POINTS, out),
    ]


def ring_duration(rng: random.Random, out: str) -> list:
    """fig6a shape: FAQUAD and linear, N = 3 and 9, preset K and n_steps."""
    tf_min = round(rng.uniform(20.0, 40.0), 3)
    argv = ["figure", "fig6a", "--tf-min", _fmt(tf_min), "--tf-max", _fmt(RING_TF),
            "--tf-count", str(RING_DURATIONS), "--out", f"{out}/fig6a"]
    return [Call("fig6a", tuple(argv), RING_DURATIONS * len(RING_NS) * 2)]


def ring_calibration(rng: random.Random, out: str) -> list:
    """fig6b shape: an epsilon sweep at t_f = 90, FAQUAD, N = 3 and 9."""
    epsilons = (-round(rng.uniform(0.02, 0.1), 4), 0.0, round(rng.uniform(0.02, 0.1), 4))
    argv = ["figure", "fig6b"]
    for eps in epsilons:
        argv += ["--eps", _fmt(eps)]
    argv += ["--out", f"{out}/fig6b"]
    return [Call("fig6b", tuple(argv), len(epsilons) * len(RING_NS))]


WORKLOADS = {
    "few-level-sweeps": few_level_sweeps,
    "ring-duration": ring_duration,
    "ring-calibration": ring_calibration,
}


def calls(name: str, seed: int, out: str) -> list:
    """The command lines of workload ``name`` for ``seed``, writing under ``out``."""
    return WORKLOADS[name](random.Random(seed), out)


def support_calls(name: str, out: str) -> list:
    """Untimed command lines whose outputs the checks need: the designed
    FAQUAD schedule of each few-level model, which the reference
    integrator follows."""
    if name != "few-level-sweeps":
        return []
    return [
        ["design", *TWO_LEVEL, "--protocol", "faquad", "--out", f"{out}/two_level_design"],
        ["design", *COTUNNELING, "--protocol", "faquad", "--out", f"{out}/cotunneling_design"],
    ]
