"""Correctness checks of the workloads' outputs, and the accuracy metric.

Each ``check_<workload>`` reads what the faquad calls wrote, compares it
with references computed apart from the program or with properties the
method must have, and returns the list of problems found and ``ref_dev``,
the largest absolute difference between a written population or fidelity
and its reference at the fixed points of the workload (the top of each
duration range, t_f = 90 on the ring). Seed-drawn points are checked
against the same tolerance but left out of ``ref_dev``, whose value would
otherwise move with the seed.

References:

* few-level populations: scipy ``solve_ivp`` DOP853 at rtol = atol = 1e-12
  on 2x2 and 3x3 Hamiltonians written here from the model formulas,
  along the designed schedule (the knots faquad's ``design`` wrote,
  joined by scipy's PCHIP, as faquad's trajectories are) or the closed
  form linear ramp;
* two-level c~: the closed form |F(g_end) - F(g_start)| with
  F(g) = g / (4 sqrt(2) sqrt(g^2 + 8)), g = U - Delta, J = 1;
* ring fidelities: ``ring_reference.json``, the continuum limit made by
  ``make_ring_reference.py``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

import workloads

POPULATION_TOL = 1e-5
FIDELITY_TOL = 1e-5
C_TILDE_RTOL = 1e-7
PREDICTION_RTOL = 1e-11
RING_C_TILDE = {3: 9.9321906, 9: 9.8766406}  # K -> infinity, CHANGES.md table
RING_C_TILDE_RTOL = 1e-6
FILLING_SPREAD = 0.02
UNIT_SLACK = 1e-12
SQRT2 = math.sqrt(2.0)
U = 22.3


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _manifest(out, tag):
    with open(os.path.join(out, tag, "manifest.json")) as handle:
        return json.load(handle)


def _in_unit_interval(values, what, problems):
    """NaN marks a failed point, which run.py counts as failed; every other
    value must lie in [0, 1]."""
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    if np.any(values < -UNIT_SLACK) or np.any(values > 1.0 + UNIT_SLACK):
        problems.append(f"{what}: values outside [0, 1]: {values.min()}..{values.max()}")


def _two_level_h(lam):
    return np.array([[0.0, -SQRT2], [-SQRT2, U - lam]])


def _cotunneling_h(lam):
    return np.array([[U + lam, -SQRT2, 0.0], [-SQRT2, 0.0, -SQRT2], [0.0, -SQRT2, U - lam]])


def _schedule(out, design_tag):
    rows = _rows(os.path.join(out, design_tag, "trajectory.csv"))
    s = np.array([float(r["s"]) for r in rows])
    lam = np.array([float(r["lambda"]) for r in rows])
    return PchipInterpolator(s, lam)


def reference_population(hamiltonian, lam_of_s, tf):
    """|<1|psi(t_f)>|^2 from the ground state of H(lambda(0))."""
    _, vectors = np.linalg.eigh(hamiltonian(float(lam_of_s(0.0))))
    psi0 = vectors[:, 0].astype(complex)

    def rhs(t, psi):
        return -1j * (hamiltonian(float(lam_of_s(min(t / tf, 1.0)))) @ psi)

    sol = solve_ivp(rhs, (0.0, tf), psi0, method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return float(abs(sol.y[0, -1]) ** 2)


def _two_level_c_tilde(lam_start, lam_end):
    def F(g):
        return g / (4.0 * SQRT2 * math.sqrt(g * g + 8.0))

    return abs(F(U - lam_end) - F(U - lam_start))


def check_few_level_sweeps(calls, out):
    problems = []
    ref_dev = 0.0
    models = {
        "two_level_faquad": (_two_level_h, "two_level_design"),
        "cotunneling_faquad": (_cotunneling_h, "cotunneling_design"),
        "cotunneling_linear": (_cotunneling_h, None),
    }
    for call in calls:
        hamiltonian, design_tag = models[call.tag]
        argv = list(call.argv)
        tf_min = float(argv[argv.index("--tf-min") + 1])
        tf_max = float(argv[argv.index("--tf-max") + 1])
        lam_start = float(argv[argv.index("--lambda-start") + 1])
        lam_end = float(argv[argv.index("--lambda-end") + 1])
        rows = _rows(os.path.join(out, call.tag, "sweep.csv"))
        tf = np.array([float(r["tf"]) for r in rows])
        pop = np.array([float(r["population"]) for r in rows])
        if len(tf) != call.points or not np.allclose(tf, np.linspace(tf_min, tf_max, call.points),
                                                     rtol=1e-10, atol=0.0):
            problems.append(f"{call.tag}: durations differ from the requested grid")
            continue
        _in_unit_interval(pop, f"{call.tag} populations", problems)

        if design_tag is None:
            def lam_of_s(s, a=lam_start, b=lam_end):
                return a + (b - a) * s
        else:
            lam_of_s = _schedule(out, design_tag)
        fixed = len(tf) - 1
        for i in (len(tf) // 2, fixed):
            dev = abs(pop[i] - reference_population(hamiltonian, lam_of_s, tf[i]))
            if not dev <= POPULATION_TOL:
                problems.append(f"{call.tag}: population at t_f = {tf[i]:.6g} is {dev:.3e} "
                                f"off the reference (tolerance {POPULATION_TOL:g})")
            if i == fixed:
                ref_dev = max(ref_dev, dev)

        derived = _manifest(out, call.tag)["derived"]
        if call.tag == "two_level_faquad":
            exact = _two_level_c_tilde(lam_start, lam_end)
            if not abs(derived["c_tilde"] / exact - 1.0) <= C_TILDE_RTOL:
                problems.append(f"two-level c~ {derived['c_tilde']!r} differs from the closed "
                                f"form {exact!r} by more than {C_TILDE_RTOL:g} relative")
        if design_tag is not None:
            pred = _rows(os.path.join(out, call.tag, "prediction.csv"))
            t = np.array([float(r["tf"]) for r in pred])
            c, phi = derived["c_tilde"], derived["phi"]
            envelope = 4.0 * c * c / t**2
            got_envelope = np.array([float(r["envelope"]) for r in pred])
            got = np.array([float(r["predicted_infidelity"]) for r in pred])
            # t and both columns are written to 12 significant digits; a
            # rounding of t by 5e-12 t moves sin^2(t Phi/2) by up to 2.5e-12 t Phi.
            slack = PREDICTION_RTOL * (1.0 + t * phi) * envelope
            if (not np.allclose(t, tf, rtol=1e-11, atol=0.0)
                    or np.any(np.abs(got_envelope - envelope) > slack)
                    or np.any(np.abs(got - envelope * np.sin(t * phi / 2.0) ** 2) > slack)):
                problems.append(f"{call.tag}: prediction.csv differs from "
                                f"4 c~^2/t^2 sin^2(t Phi/2)")
    return problems, ref_dev


def _load_reference(bench_dir):
    with open(os.path.join(bench_dir, "ring_reference.json")) as handle:
        ref = json.load(handle)
    return {(e["N"], e["tf"]): e["fidelity"] for e in ref["entries"]}


def _ring_reference_devs(fidelities, reference, problems):
    ref_dev = 0.0
    for (N, tf), value in fidelities.items():
        dev = abs(value - reference[(N, tf)])
        if not dev <= FIDELITY_TOL:
            problems.append(f"FAQUAD fidelity N = {N}, t_f = {tf:g} is {dev:.3e} off the "
                            f"ring reference (tolerance {FIDELITY_TOL:g})")
        ref_dev = max(ref_dev, dev)
    return ref_dev


def check_ring_duration(calls, out, bench_dir):
    problems = []
    (call,) = calls
    rows = _rows(os.path.join(out, call.tag, "tg_sweep.csv"))
    if len(rows) != call.points:
        return [f"tg_sweep.csv has {len(rows)} rows, {call.points} asked for"], 1.0
    _in_unit_interval([r["fidelity"] for r in rows], "ring fidelities", problems)
    top = {(int(r["N"]), r["protocol"]): float(r["fidelity"]) for r in rows
           if float(r["tf"]) == workloads.RING_TF}
    if len(top) != 2 * len(workloads.RING_NS):
        return problems + ["tg_sweep.csv lacks the t_f = 90 points"], 1.0
    if not abs(top[(3, "faquad")] - top[(9, "faquad")]) < FILLING_SPREAD:
        problems.append("FAQUAD fidelities for N = 3 and 9 differ by 0.02 or more at t_f = 90")
    if not top[(9, "linear")] < top[(3, "linear")]:
        problems.append("linear fidelity for N = 9 is not below the one for N = 3 at t_f = 90")
    derived = _manifest(out, call.tag)["derived"]
    for N, limit in RING_C_TILDE.items():
        value = derived[f"c_tilde_N{N}"]
        if not abs(value / limit - 1.0) <= RING_C_TILDE_RTOL:
            problems.append(f"ring c~ for N = {N} is {value!r}, not within "
                            f"{RING_C_TILDE_RTOL:g} of {limit}")
    faquad = {(N, workloads.RING_TF): top[(N, "faquad")] for N in workloads.RING_NS}
    ref_dev = _ring_reference_devs(faquad, _load_reference(bench_dir), problems)
    return problems, ref_dev


def check_ring_calibration(calls, out, bench_dir):
    problems = []
    (call,) = calls
    rows = _rows(os.path.join(out, call.tag, "epsilon.csv"))
    if len(rows) != call.points:
        return [f"epsilon.csv has {len(rows)} rows, {call.points} asked for"], 1.0
    _in_unit_interval([r["fidelity"] for r in rows], "ring fidelities", problems)
    at_zero = {}
    for N in workloads.RING_NS:
        curve = {float(r["epsilon"]): float(r["fidelity"]) for r in rows if int(r["N"]) == N}
        if 0.0 not in curve:
            return problems + [f"no epsilon = 0 point for N = {N}"], 1.0
        peak = curve.pop(0.0)
        if not all(f < peak for f in curve.values()):
            problems.append(f"fidelity for N = {N} does not peak strictly at epsilon = 0")
        at_zero[(N, workloads.RING_TF)] = peak
    ref_dev = _ring_reference_devs(at_zero, _load_reference(bench_dir), problems)
    return problems, ref_dev


def check(name, calls, out, bench_dir):
    """(problems, ref_dev) for one round of workload ``name`` written under ``out``."""
    if name == "few-level-sweeps":
        return check_few_level_sweeps(calls, out)
    if name == "ring-duration":
        return check_ring_duration(calls, out, bench_dir)
    return check_ring_calibration(calls, out, bench_dir)
