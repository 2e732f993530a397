"""Recompute bench/ring_reference.json, the continuum-limit ring fidelities.

Run from the repository root:

    python3 bench/make_ring_reference.py

It evolves the Tonks-Girardeau orbital stack along the FAQUAD drive of the
u0 = 0.5 ring (Omega from 0 to pi) with faquad's own pipeline at refined
settings, and extrapolates to the continuum:

* steps: at K = 40 the run is repeated at 4000, 8000, 16000 and 32000
  steps. The midpoint rule is second order, so successive differences
  should fall by 4; for N = 9 they fall by only 1.9 and 2.2 over this
  range. The step limit is therefore taken geometrically from the last
  three runs, with the ratio they show (Aitken's delta-squared), and the
  distance to the ratio-4 (Richardson) limit of the last two is recorded
  as the step part of the uncertainty;
* plane waves: the downfolded ring converges like K^-3, so at 4000 steps
  the pair (K = 60, 80) is extrapolated in K^-3 and the pair (40, 80)
  gives a second estimate. The K correction, limit minus the K = 40
  value, is added to the step limit. The FAQUAD design is redone at each
  K, so the correction covers the design too.

The refinement costs about five minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "faquad", "tg.py")):
    sys.exit("error: run from the repository root, where src/faquad is")
sys.path.insert(0, SRC)

from faquad import model, protocol, tg  # noqa: E402

U0 = 0.5
TF = 90.0
NS = (3, 9)
K_BASE = 40
STEPS = (4000, 8000, 16000, 32000)
K_REFINE = (60, 80)
K_STEPS = 4000
OUT = os.path.join(ROOT, "bench", "ring_reference.json")


def fidelity(K: int, N: int, n_steps: int, traj_cache: dict) -> float:
    spec = model.ring(U0, K=K, omega_start=0.0, omega_end=math.pi)
    key = (K, N)
    if key not in traj_cache:
        traj_cache[key] = protocol.design_faquad(spec, pair=(N, N + 1))
    curve = tg.duration_sweep(spec, N, traj_cache[key], [TF], n_steps=n_steps)
    if curve.failures:
        raise RuntimeError(f"reference point failed: {curve.failures}")
    return float(curve.fidelity[0])


def k3_limit(k_lo: int, f_lo: float, k_hi: int, f_hi: float) -> float:
    w_lo, w_hi = k_lo ** -3.0, k_hi ** -3.0
    return f_hi + (f_hi - f_lo) * w_hi / (w_lo - w_hi)


def main() -> int:
    started = time.monotonic()
    trajs: dict = {}
    entries = []
    for N in NS:
        by_steps = {n: fidelity(K_BASE, N, n, trajs) for n in STEPS}
        by_k = {K_BASE: by_steps[K_STEPS]}
        by_k.update({K: fidelity(K, N, K_STEPS, trajs) for K in K_REFINE})
        f8, f16, f32 = by_steps[8000], by_steps[16000], by_steps[32000]
        step_fine = f32 - (f16 - f32) ** 2 / ((f8 - f16) - (f16 - f32))
        step_coarse = f32 + (f32 - f16) / 3.0
        k_fine = k3_limit(60, by_k[60], 80, by_k[80])
        k_coarse = k3_limit(40, by_k[40], 80, by_k[80])
        fid = step_fine + (k_fine - by_k[K_BASE])
        entries.append({
            "N": N,
            "tf": TF,
            "fidelity": fid,
            "uncertainty": abs(step_fine - step_coarse) + abs(k_fine - k_coarse),
            "c_tilde_K40": trajs[(K_BASE, N)].c_tilde,
            "K40_by_steps": {str(n): f for n, f in by_steps.items()},
            "steps4000_by_K": {str(K): f for K, f in by_k.items()},
            "step_limit_K40": step_fine,
            "K_limit_steps4000": k_fine,
        })
        print(f"N = {N}: F = {fid:.10f}", flush=True)
    reference = {
        "inputs": {
            "model": {"kind": "ring", "u0": U0, "lambda_start": 0.0, "lambda_end": math.pi},
            "protocol": "faquad",
            "pair": "(N, N + 1)",
            "grid_points": protocol.DEFAULT_GRID_POINTS,
            "tf": TF,
            "N": list(NS),
            "steps_at_K40": list(STEPS),
            "K_at_4000_steps": [K_BASE, *K_REFINE],
        },
        "method": "Aitken limit in steps at K = 40 (8000/16000/32000), plus the K^-3 limit "
                  "at 4000 steps (pair 60/80) minus the K = 40 value",
        "cost_s": round(time.monotonic() - started, 1),
        "entries": entries,
    }
    with open(OUT, "w") as handle:
        json.dump(reference, handle, indent=2)
        handle.write("\n")
    print(f"wrote {OUT} in {reference['cost_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
