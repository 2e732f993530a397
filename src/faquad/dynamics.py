"""Time evolution under a timed control and adiabatic-frame analysis.

The integrator freezes the Hamiltonian at each step midpoint and applies
its exact exponential through an eigendecomposition,

    psi <- V exp(-i E dt / hbar) V^T psi,

which is unitary by construction (second order in the step for a
time-dependent generator). Midpoint control values depend only on the
normalized clock s = (k + 1/2)/n_steps, so the eigendecompositions can
be tabulated once per (trajectory, n_steps) and reused across all
durations of a sweep; small systems additionally collapse the whole
product of step propagators with a pairwise tree reduction instead of a
Python loop over steps.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import model as _model
from . import protocol as _protocol
from . import spectral as _spectral
from .errors import FaquadError, StepSizeTooCoarse

NORM_DRIFT_LIMIT = 1e-9
MIN_STEPS = 2000
# Largest eigenvector table kept in memory, in float64 entries.
TABLE_ENTRY_BUDGET = 60_000_000
# Dimension at or below which sweeps collapse step propagators by tree
# product instead of streaming matrix-vector products.
TREE_PRODUCT_MAX_DIM = 8
_CHUNK = 512

GROUND = "ground"


@dataclass
class EvolutionResult:
    """States sampled along one evolution, in the bare basis.

    ``states`` has shape (n_save, dim) for a single state or
    (n_save, dim, m) for a stack of m states evolved together.
    """

    times: np.ndarray
    states: np.ndarray
    norm_drift: float
    control: _protocol.TimedControl
    n_steps: int

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class AdiabaticProjection:
    """Instantaneous-basis coefficients g_n(t) and dynamical-gap phases.

    g_n(t) = exp(-i beta_n(t)) <phi_n(t)|psi(t)> with beta_n the
    accumulated dynamical phase of level n (the geometric part vanishes
    in the real sign-fixed gauge). W maps a 1-based level pair (n, m) to
    the signed phase integral of (E_n - E_m)/hbar over time.
    """

    times: np.ndarray
    g: np.ndarray
    W: dict

    def g_level(self, n: int) -> np.ndarray:
        return self.g[:, n - 1]

    @property
    def sum_rule_error(self) -> float:
        totals = np.sum(np.abs(self.g) ** 2, axis=1)
        return float(np.max(np.abs(totals - 1.0)))


@dataclass
class SweepCurve:
    """Population-versus-duration curve; failed points carry NaN."""

    tf: np.ndarray
    population: np.ndarray
    failures: list = field(default_factory=list)
    n_steps: int | None = None


def bare_state(spec: _model.ModelSpec, index: int) -> np.ndarray:
    """Basis vector of the 1-based bare state ``index``."""
    if not 1 <= index <= spec.dim:
        raise ValueError(f"bare index must lie in 1..{spec.dim}")
    psi = np.zeros(spec.dim)
    psi[index - 1] = 1.0
    return psi


def default_n_steps(spec: _model.ModelSpec, traj: _protocol.NormalizedTrajectory,
                    t_f: float, pair=None) -> int:
    """Step count resolving the fastest pair phase: max(2000,
    ceil(200 * t_f * max_gap / 2 pi)) with the gap probed along the
    trajectory for the designed (or given) level pair."""
    if pair is None:
        pair = traj.pair if traj.pair is not None else (1, 2)
    lams = np.unique(traj.evaluate(np.linspace(0.0, 1.0, 129)))
    energies = np.linalg.eigvalsh(_model.hamiltonian(spec, lams))
    gap_max = float(np.max(energies[:, pair[1] - 1] - energies[:, pair[0] - 1]))
    return int(max(MIN_STEPS, math.ceil(200.0 * t_f * gap_max / (2.0 * math.pi))))


def _midpoint_controls(traj, n_steps):
    """Control values at the step midpoints s = (k + 1/2)/n_steps."""
    return np.asarray(traj.evaluate((np.arange(n_steps) + 0.5) / n_steps), dtype=float)


def _midpoint_eigh(spec, lams):
    """Yield (lo, eigvals, eigvecs) of H at lams, _CHUNK values at a time."""
    for lo in range(0, len(lams), _CHUNK):
        yield (lo, *np.linalg.eigh(_model.hamiltonian(spec, lams[lo : lo + _CHUNK])))


class MidpointTable:
    """Eigendecompositions of H at the step-midpoint control values.

    Valid for every duration at a fixed (trajectory, n_steps), because
    midpoints sit at s = (k + 1/2)/n_steps regardless of t_f.
    """

    def __init__(self, spec, traj, n_steps):
        self.n_steps = int(n_steps)
        self.lams = _midpoint_controls(traj, self.n_steps)
        self.eigvals = np.empty((self.n_steps, spec.dim))
        self.eigvecs = np.empty((self.n_steps, spec.dim, spec.dim))
        for lo, w, v in _midpoint_eigh(spec, self.lams):
            self.eigvals[lo : lo + len(w)], self.eigvecs[lo : lo + len(w)] = w, v

    @classmethod
    def fits(cls, spec, n_steps) -> bool:
        return n_steps * spec.dim * spec.dim <= TABLE_ENTRY_BUDGET


def _tree_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[n-1] @ ... @ mats[0] by pairwise reduction."""
    while mats.shape[0] > 1:
        m = mats.shape[0] // 2
        head = np.matmul(mats[1 : 2 * m : 2], mats[0 : 2 * m : 2])
        if mats.shape[0] % 2:
            head[-1] = mats[-1] @ head[-1]
        mats = head
    return mats[0]


def _total_propagator(table: MidpointTable, dt: float) -> np.ndarray:
    phases = np.exp(-1j * table.eigvals * dt)
    steps = np.einsum("kij,kj,klj->kil", table.eigvecs, phases, table.eigvecs)
    return _tree_product(steps)


def evolve(spec: _model.ModelSpec, control: _protocol.TimedControl, psi0,
           n_steps: int | None = None, n_save: int = 401,
           table: MidpointTable | None = None) -> EvolutionResult:
    """Propagate psi0 (a vector, or a (dim, m) stack of column states)
    from t = 0 to t = control.t_f.

    Norm drift beyond 1e-9 raises StepSizeTooCoarse; the stepping is
    exactly unitary, so drift signals numerical breakdown rather than
    ordinary discretization error.
    """
    traj = control.trajectory
    if n_steps is None:
        n_steps = table.n_steps if table is not None else default_n_steps(spec, traj, control.t_f)
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_save < 2:
        raise ValueError("n_save must be >= 2 to keep both endpoints")
    if table is not None and table.n_steps != n_steps:
        raise ValueError("table was built for a different n_steps")

    psi0 = np.asarray(psi0)
    single = psi0.ndim == 1
    psi = np.array(psi0[:, None] if single else psi0, dtype=complex, order="C")
    if psi.shape[0] != spec.dim:
        raise ValueError(f"state dimension {psi.shape[0]} does not match model dim {spec.dim}")
    norms = np.linalg.norm(psi, axis=0)
    if np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ValueError("initial state columns must be normalized")

    dt = control.t_f / n_steps
    save_idx = np.unique(np.round(np.linspace(0, n_steps, min(n_save, n_steps + 1))).astype(int))
    saved = np.empty((len(save_idx),) + psi.shape, dtype=complex)
    saved[0] = psi
    pos = 1

    if table is not None:
        chunks = ((lo, table.eigvals[lo : lo + _CHUNK], table.eigvecs[lo : lo + _CHUNK])
                  for lo in range(0, n_steps, _CHUNK))
    else:
        chunks = _midpoint_eigh(spec, _midpoint_controls(traj, n_steps))
    # psi and work are C-contiguous (dim, m) complex arrays, so their
    # float64 views are (dim, 2m) with each real part beside its imaginary
    # part, and a step is two real matrix products with the eigenvectors.
    work = np.empty_like(psi)
    psi_re, work_re = psi.view(np.float64), work.view(np.float64)
    for lo, w, v in chunks:
        phases = np.exp(-1j * w * dt)[:, :, None]
        for i in range(len(w)):
            np.matmul(v[i].T, psi_re, out=work_re)
            work *= phases[i]
            np.matmul(v[i], work_re, out=psi_re)
            if lo + i + 1 == save_idx[pos]:
                saved[pos] = psi
                pos += 1

    drift = float(np.max(np.abs(np.linalg.norm(saved, axis=1) - 1.0)))
    if drift > NORM_DRIFT_LIMIT:
        raise StepSizeTooCoarse(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")

    times = save_idx * dt
    times[-1] = control.t_f
    states = saved[:, :, 0] if single else saved
    return EvolutionResult(times=times, states=states, norm_drift=drift,
                           control=control, n_steps=n_steps)


def final_population(result: EvolutionResult, target_index: int) -> float:
    """Squared modulus of the 1-based bare amplitude at t_f."""
    psi = result.final_state
    if psi.ndim != 1:
        raise ValueError("final_population is defined for single-state evolutions")
    if not 1 <= target_index <= len(psi):
        raise ValueError(f"target index must lie in 1..{len(psi)}")
    return float(np.abs(psi[target_index - 1]) ** 2)


def _start_vector(spec, traj, start):
    if start == GROUND:
        return _spectral.eigenstate(spec, float(traj.evaluate(0.0)), 1)
    return bare_state(spec, int(start))


def _population_of(spec, traj, target, psi):
    if target == GROUND:
        phi = _spectral.eigenstate(spec, float(traj.evaluate(1.0)), 1)
        return float(np.abs(np.vdot(phi, psi)) ** 2)
    return float(np.abs(psi[int(target) - 1]) ** 2)


def _final_states(spec, traj, psi0, tf_arr, n_steps=None, pairs=(None,)):
    """(n_steps, final): final(t_f) is psi0, a vector or a (dim, m) stack,
    evolved along ``traj`` played over t_f. All durations share the step
    count (by default the largest rule of ``pairs`` at the longest one) and
    one midpoint table if it fits; small models take the tree product."""
    if np.any(tf_arr <= 0):
        raise ValueError("all durations must be positive")
    if n_steps is None:
        n_steps = max(default_n_steps(spec, traj, float(np.max(tf_arr)), pair=pair)
                      for pair in pairs)
    n_steps = int(n_steps)
    table = MidpointTable(spec, traj, n_steps) if MidpointTable.fits(spec, n_steps) else None

    def final(t_f):
        if table is not None and spec.dim <= TREE_PRODUCT_MAX_DIM:
            return _total_propagator(table, t_f / n_steps) @ psi0
        control = _protocol.rescale(traj, t_f)
        return evolve(spec, control, psi0, n_steps=n_steps, n_save=2, table=table).final_state

    return n_steps, final


def _sweep(points, run_point, workers=1, shape=()):
    """(values, failures) of run_point at each point, on the calling thread
    or on ``workers`` > 1 threads. values[i] is run_point(points[i]) (of
    ``shape``), or NaN where that raised FaquadError; failures lists those
    points' (point, message) in point order."""
    values = np.full((len(points),) + tuple(shape), np.nan)

    def attempt(i):
        try:
            values[i] = run_point(points[i])
        except FaquadError as exc:
            return float(points[i]), str(exc)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, range(len(points))))
    else:
        outcomes = [attempt(i) for i in range(len(points))]
    return values, [failure for failure in outcomes if failure is not None]


def fidelity_sweep(spec: _model.ModelSpec, traj: _protocol.NormalizedTrajectory,
                   tf_list, start=GROUND, target: int | str = 1,
                   n_steps: int | None = None, workers: int = 1) -> SweepCurve:
    """Final population versus duration for one normalized trajectory.

    ``start`` and ``target`` are 1-based bare indices, or "ground" for
    the instantaneous ground state at the respective boundary. The step
    count defaults to the resolution rule at the largest duration and is
    shared across points, so the midpoint tables are built once.
    Per-point numerical failures are collected, not fatal.
    """
    tf_arr = np.asarray(list(tf_list), dtype=float)
    psi0 = _start_vector(spec, traj, start).astype(complex)
    n_steps, final = _final_states(spec, traj, psi0, tf_arr, n_steps)
    population, failures = _sweep(
        tf_arr, lambda t_f: _population_of(spec, traj, target, final(t_f)), workers)
    return SweepCurve(tf=tf_arr, population=population, failures=failures, n_steps=n_steps)


def adiabatic_projection(spec: _model.ModelSpec, control: _protocol.TimedControl,
                         result: EvolutionResult, pairs=((1, 2),)) -> AdiabaticProjection:
    """Project sampled states onto the instantaneous eigenbasis.

    Frames along the control are sign-fixed for continuity, starting
    from the deterministic gauge of ``eigenstate``; the dynamical phase
    beta_n is accumulated by trapezoid quadrature of E_n(t) over the
    saved time grid, and W(n, m) by the same rule on E_n - E_m.
    """
    if result.states.ndim != 2:
        raise ValueError("projection is defined for single-state evolutions")
    times = result.times
    lams = control.value(times)
    energies, vectors = np.linalg.eigh(_model.hamiltonian(spec, lams))
    vectors[0] = _spectral.gauge_fix_columns(vectors[0])
    for k in range(1, len(times)):
        vectors[k] = _spectral.sign_fix(vectors[k], vectors[k - 1])

    dt_cells = np.diff(times)
    beta = np.zeros_like(energies)
    beta[1:] = np.cumsum(0.5 * (energies[1:] + energies[:-1]) * dt_cells[:, None], axis=0)

    overlaps = np.einsum("kdn,kd->kn", vectors, result.states)
    g = np.exp(-1j * beta) * overlaps

    W = {}
    for (n, m) in pairs:
        wn = beta[:, n - 1] - beta[:, m - 1]
        W[(int(n), int(m))] = wn
    return AdiabaticProjection(times=times, g=g, W=W)
