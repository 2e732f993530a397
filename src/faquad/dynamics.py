"""Time evolution under a timed control and adiabatic-frame analysis.

The integrator freezes the Hamiltonian at each step midpoint and applies
its exact exponential through an eigendecomposition,

    psi <- V exp(-i E dt / hbar) V^T psi,

which is unitary by construction (second order in the step for a
time-dependent generator). Midpoint control values depend only on the
normalized clock s = (k + 1/2)/n_steps, so the eigendecompositions can
be tabulated once per (trajectory, n_steps) and reused across all
durations of a sweep. They come from ``spectral.eigh``: a ring table is
solved by the ring's secular equation, O(dim^2) per matrix with the GIL
released, straight into the table's arrays; a schedule that is played
once (a miscalibrated drive) streams them in chunks instead.

Every function here reads the model from the trajectory, timed control
or evolution result it is given (``traj.spec``), so a model and a schedule
made for another model cannot be combined.

Small systems collapse the whole product of step propagators with a
pairwise tree reduction instead of a Python loop over steps. The product
is regrouped as

    V_{n-1} P_{n-1} O_{n-1} ... O_1 P_0 V_0^T,   O_k = V_k^T V_{k-1},

so only the diagonal phases P_k = exp(-i E_k dt) depend on the duration:
the real overlaps O_k are formed once per table (``StepOverlaps``), and a
duration costs the phases, one scaling of the overlap rows and the tree
product. The factors are stored structure-of-arrays, as one (d, d, n)
array with the step index last, so each level of the tree is a few
elementwise multiply-adds on the component vectors of the factors.
"""

from __future__ import annotations

import math
import threading
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
# product instead of streaming matrix-vector products. The elementwise tree
# does d^3 vector multiply-adds per level, so its lead shrinks as d grows:
# with one BLAS thread at 20000 steps per duration it took a quarter or less
# of the streaming time at d = 5 and at most about half at d = 7 (ring
# models with K = 2 and 3).
TREE_PRODUCT_MAX_DIM = 8
_CHUNK = 512
# Factor pairs per vector operation of the tree product; bounds its scratch.
_TREE_CHUNK = 4096

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


def default_n_steps(traj: _protocol.NormalizedTrajectory, t_f: float, pair=None) -> int:
    """Step count resolving the fastest pair phase: max(2000,
    ceil(200 * t_f * max_gap / 2 pi)) with the gap probed along the
    trajectory for the designed (or given) level pair, in either order."""
    if pair is None:
        pair = traj.pair if traj.pair is not None else (1, 2)
    lower, upper = _spectral._canonical_pair(pair, traj.spec.dim)
    lams = np.unique(traj.evaluate(np.linspace(0.0, 1.0, 129)))
    energies = _spectral.eigh(traj.spec, lams)[0]
    gap_max = float(np.max(energies[:, upper - 1] - energies[:, lower - 1]))
    return int(max(MIN_STEPS, math.ceil(200.0 * t_f * gap_max / (2.0 * math.pi))))


def _midpoint_controls(traj, n_steps):
    """Control values at the step midpoints s = (k + 1/2)/n_steps."""
    return np.asarray(traj.evaluate((np.arange(n_steps) + 0.5) / n_steps), dtype=float)


def _midpoint_eigh(spec, lams):
    """Yield (lo, eigvals, eigvecs) of H at lams, _CHUNK values at a time."""
    for lo in range(0, len(lams), _CHUNK):
        yield (lo, *_spectral.eigh(spec, lams[lo : lo + _CHUNK]))


class MidpointTable:
    """Eigendecompositions of H at the step-midpoint control values, from
    ``spectral.eigh``.

    Valid for every duration at a fixed (trajectory, n_steps), because
    midpoints sit at s = (k + 1/2)/n_steps regardless of t_f. ``trajectory``
    is the one it was built from; ``evolve`` takes the table only with a
    control that plays that same trajectory.
    """

    def __init__(self, traj, n_steps):
        self.trajectory = traj
        self.n_steps = int(n_steps)
        self.lams = _midpoint_controls(traj, self.n_steps)
        self.eigvals, self.eigvecs = _spectral.eigh(traj.spec, self.lams)


class StepOverlaps:
    """The parts of a ``MidpointTable`` that the tree product needs.

    ``energies`` is the (d, n) eigenvalue table, level first; ``overlaps``
    holds O_k = V_k^T V_{k-1} as a (d, d, n) array with O_0 the identity;
    ``first`` is V_0^T and ``last`` V_{n-1}. None depends on the duration.
    Each thread that forms a product gets its own scratch arrays, made on
    first use and kept for the next duration.
    """

    def __init__(self, table: MidpointTable):
        v = table.eigvecs
        n, d = table.eigvals.shape
        self.energies = np.ascontiguousarray(table.eigvals.T)
        self.first = v[0].T.copy()
        self.last = v[-1].copy()
        self.overlaps = np.empty((d, d, n))
        self.overlaps[:, :, 0] = np.eye(d)
        np.matmul(v[1:].transpose(0, 2, 1), v[:-1],
                  out=self.overlaps[:, :, 1:].transpose(2, 0, 1))
        self._local = threading.local()

    def scratch(self):
        """(phases, stack, spare, term) of this thread."""
        if not hasattr(self._local, "arrays"):
            d, n = self.energies.shape
            self._local.arrays = (np.empty((d, n), dtype=complex),
                                  np.empty((d, d, n), dtype=complex),
                                  np.empty((d, d, n // 2), dtype=complex),
                                  np.empty((d, d, min(n // 2, _TREE_CHUNK)), dtype=complex))
        return self._local.arrays


def _pair_products(later, earlier, out=None, term=None):
    """later[:, :, k] @ earlier[:, :, k] for every k of two (d, d, m) stacks,
    each entry accumulated over the inner index in order."""
    out = np.multiply(later[:, 0, None], earlier[None, 0], out=out)
    for i in range(1, later.shape[1]):
        out += np.multiply(later[:, i, None], earlier[None, i], out=term)
    return out


def _tree_product(stack: np.ndarray, spare: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Ordered product stack[:, :, n-1] @ ... @ stack[:, :, 0] of a (d, d, n)
    stack, by pairwise reduction of neighbours; at a level of odd length
    the last factor multiplies the last pair product. The levels alternate
    between ``stack`` and ``spare`` (at least n // 2 long), which are
    overwritten, and run in chunks of the length of ``term``."""
    n = stack.shape[2]
    chunk = term.shape[2]
    while n > 1:
        m = n // 2
        for lo in range(0, m, chunk):
            hi = min(lo + chunk, m)
            _pair_products(stack[:, :, 2 * lo + 1 : 2 * hi : 2], stack[:, :, 2 * lo : 2 * hi : 2],
                           out=spare[:, :, lo:hi], term=term[:, :, : hi - lo])
        if n % 2:
            spare[:, :, m - 1 : m] = _pair_products(stack[:, :, n - 1 : n],
                                                    spare[:, :, m - 1 : m])
        stack, spare, n = spare, stack, m
    return stack[:, :, 0].copy()


def _total_propagator(steps: StepOverlaps, dt: float) -> np.ndarray:
    """Product of all step propagators V_k exp(-i E_k dt) V_k^T at step dt."""
    phases, stack, spare, term = steps.scratch()
    angles = np.multiply(steps.energies, -dt, out=phases.imag)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=angles)
    np.multiply(steps.overlaps, phases[:, None, :], out=stack)
    return steps.last @ _tree_product(stack, spare, term) @ steps.first


def _check_norm(states: np.ndarray, axis: int) -> float:
    """Largest deviation from 1 of the norms along ``axis``; past
    NORM_DRIFT_LIMIT it raises StepSizeTooCoarse."""
    drift = float(np.max(np.abs(np.linalg.norm(states, axis=axis) - 1.0)))
    if drift > NORM_DRIFT_LIMIT:
        raise StepSizeTooCoarse(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")
    return drift


def evolve(control: _protocol.TimedControl, psi0, n_steps: int | None = None,
           n_save: int = 401, table: MidpointTable | None = None) -> EvolutionResult:
    """Propagate psi0 (a vector, or a (dim, m) stack of column states)
    from t = 0 to t = control.t_f under the model of its trajectory.

    Norm drift beyond 1e-9 raises StepSizeTooCoarse; the stepping is
    exactly unitary, so drift signals numerical breakdown rather than
    ordinary discretization error.
    """
    traj = control.trajectory
    spec = traj.spec
    if n_steps is None:
        n_steps = table.n_steps if table is not None else default_n_steps(traj, control.t_f)
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_save < 2:
        raise ValueError("n_save must be >= 2 to keep both endpoints")
    if table is not None and table.trajectory is not traj:
        raise ValueError("table was built for a different trajectory")
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

    drift = _check_norm(saved, axis=1)
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


def _start_vector(traj, start):
    if start == GROUND:
        return _spectral.eigenstate(traj.spec, float(traj.evaluate(0.0)), 1)
    return bare_state(traj.spec, int(start))


def _population_of(traj, target, psi):
    if target == GROUND:
        phi = _spectral.eigenstate(traj.spec, float(traj.evaluate(1.0)), 1)
        return float(np.abs(np.vdot(phi, psi)) ** 2)
    return float(np.abs(psi[int(target) - 1]) ** 2)


def _final_states(traj, psi0, tf_arr, n_steps=None, pairs=(None,)):
    """(n_steps, final): final(t_f) is psi0, a vector or a (dim, m) stack,
    evolved along ``traj`` played over t_f. All durations share the step
    count (by default the largest rule of ``pairs`` at the longest one) and
    one midpoint table if it fits. Small models take the tree product and
    keep only the table's ``StepOverlaps``; their final states get the
    same norm check as ``evolve``."""
    if np.any(tf_arr <= 0):
        raise ValueError("all durations must be positive")
    if n_steps is None:
        n_steps = max(default_n_steps(traj, float(np.max(tf_arr)), pair=pair)
                      for pair in pairs)
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dim = traj.spec.dim
    fits = n_steps * dim * dim <= TABLE_ENTRY_BUDGET
    if fits and dim <= TREE_PRODUCT_MAX_DIM:
        steps = StepOverlaps(MidpointTable(traj, n_steps))

        def final(t_f):
            state = _total_propagator(steps, t_f / n_steps) @ psi0
            _check_norm(state, axis=0)
            return state
    else:
        table = MidpointTable(traj, n_steps) if fits else None

        def final(t_f):
            control = _protocol.rescale(traj, t_f)
            return evolve(control, psi0, n_steps=n_steps, n_save=2, table=table).final_state

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


def fidelity_sweep(traj: _protocol.NormalizedTrajectory, tf_list, start=GROUND,
                   target: int | str = 1, n_steps: int | None = None,
                   workers: int = 1) -> SweepCurve:
    """Final population versus duration for one normalized trajectory.

    ``start`` and ``target`` are 1-based bare indices, or "ground" for
    the instantaneous ground state at the respective boundary. The step
    count defaults to the resolution rule at the largest duration and is
    shared across points, so the midpoint tables are built once.
    Per-point numerical failures are collected, not fatal.
    """
    tf_arr = np.asarray(list(tf_list), dtype=float)
    psi0 = _start_vector(traj, start).astype(complex)
    n_steps, final = _final_states(traj, psi0, tf_arr, n_steps)
    population, failures = _sweep(
        tf_arr, lambda t_f: _population_of(traj, target, final(t_f)), workers)
    return SweepCurve(tf=tf_arr, population=population, failures=failures, n_steps=n_steps)


def adiabatic_projection(result: EvolutionResult, pairs=((1, 2),)) -> AdiabaticProjection:
    """Project the states sampled along ``result.control`` onto the
    instantaneous eigenbasis of its model.

    Frames along the control are sign-fixed for continuity, starting
    from the deterministic gauge of ``spectral.frames``; the dynamical phase
    beta_n is accumulated by trapezoid quadrature of E_n(t) over the
    saved time grid, and W(n, m) by the same rule on E_n - E_m.
    """
    if result.states.ndim != 2:
        raise ValueError("projection is defined for single-state evolutions")
    times = result.times
    control = result.control
    lams = control.value(times)
    energies, vectors = _spectral.frames(control.trajectory.spec, lams)

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
