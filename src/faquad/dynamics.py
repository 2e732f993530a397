"""Time evolution under a timed control and adiabatic-frame analysis.

The integrator is the fourth-order commutator-free scheme CF4 (Blanes &
Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput.
Phys. 230, 5930 (2011)). A step k of length h = t_f/n_steps is

    U_k = exp(-i h (a1 H1 + a2 H2)) exp(-i h (a2 H1 + a1 H2)),

the right-hand factor acting first, with H1 and H2 the Hamiltonian at the
Gauss nodes s = (k + 1/2 -/+ sqrt(3)/6)/n_steps of the normalized clock
and a1, a2 = (3 -/+ 2 sqrt(3))/12 (the other order is only second order).
Every model here is affine in the control, apart from a multiple of the
identity on the ring, whose diagonal (k - Omega/2pi)^2 has an Omega^2 term
that is the same on every row. Since a1 + a2 = 1/2, each exponent is

    a H1 + b H2 = (H(lam_bar) + 2c I) / 2,   lam_bar = 2 (a lam1 + b lam2),

for (a, b) = (a2, a1) in the first factor and (a1, a2) in the second, with
c = 0 for the few-level models and, on the ring with x = Omega/2pi,
c = a x1^2 + b x2^2 - 2 (a x1 + b x2)^2 = -(x1 - x2)^2 / 24 for both
factors (``_cf4_exponents``). So a CF4 step is two sub-steps of dt =
t_f/(2 n_steps), each the exact exponential of one Hamiltonian through its
eigendecomposition,

    psi <- V exp(-i (E + 2c) dt) V^T psi,

which is unitary by construction. The 2 n_steps controls lam_bar and
shifts 2c depend only on the normalized clock (``_step_controls``), so one
set of eigendecompositions serves every duration of a sweep. They come
from ``spectral.eigh``, which solves the ring by its secular equation,
O(dim^2) per matrix. A run at n_steps takes 2 n_steps eigendecompositions.

Every function here reads the model from the trajectory, timed control
or evolution result it is given (``traj.spec``), so a model and a schedule
made for another model cannot be combined.

A state is stepped along one of two paths, both over the 2 n_steps
sub-steps. Small systems (dim <= TREE_PRODUCT_MAX_DIM) collapse the whole
product of sub-step propagators of a sweep with a pairwise tree reduction
instead of a Python loop over steps. The product is regrouped as

    V_{n-1} P_{n-1} O_{n-1} ... O_1 P_0 V_0^T,   O_k = V_k^T V_{k-1},

so only the diagonal phases P_k = exp(-i (E_k + 2c_k) dt) depend on the
duration: the real overlaps O_k are formed once from a full
``MidpointTable`` (``StepOverlaps``), and a duration costs the phases, one
scaling of the overlap rows and the tree product. The factors are stored
structure-of-arrays, with the step index last, so each level of the tree
is a few elementwise multiply-adds on the component vectors of the
factors. They are formed _TREE_CHUNK pairs at a time straight into the
first level, a (d, d, n/2) array, and the later levels run in place in
it, so a duration holds no (d, d, n) stack. A sweep forms every
duration's final state before it scores any: on the main thread of a
process allowed more than one core, one thread of ``spectral``'s solver
pool takes half of the durations, with scratch made on the calling
thread.

Everything else, ``evolve`` included, is one frame pass: the state is
stepped in the frame of the lowest M adiabatic levels of the sub-step
Hamiltonians. With psi = V_k[:, :M] c, a sub-step is

    c <- P_k O_k c,   O_k = V_k[:, :M]^T V_{k-1}[:, :M],

one real (M, M) product shared by all durations of a sweep, then the
phases P_k of each duration; a state is V_k[:, :M] c after the steps asked
for and after the last. The eigenvectors come from the chunk stream of
``spectral`` one chunk of sub-steps at a time, and only their lowest M
columns are kept; for a ring pass on the main thread, its two solver
threads solve the next chunks while that thread steps this one. The pass
steps each chunk where the stream yields it and then keeps only the
chunk's last frame, the boundary frame, which gives O_k for the first
sub-step of the next chunk; so no eigenvector table and no copy of a chunk
is held. The leakage, 1 minus the smallest squared column
norm of c in its lowest M - FRAME_GUARD levels, is measured at the end:
M starts at FRAME_LEVELS and doubles while the leakage exceeds LEAKAGE_LIMIT, up to
M = dim, the exact untruncated case; an M that the start's projection on
the first sub-step's frame already rules out is skipped. Truncation moves ring fidelities at
the 1e-10 level against stepping in the bare basis. A small-model sweep
whose full table does not fit in TABLE_ENTRY_BUDGET takes the frame pass
at M = dim.
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
# The default step rule: STEPS_PER_PERIOD CF4 steps per period of the
# fastest gap, and never fewer than MIN_STEPS.
STEPS_PER_PERIOD = 25
MIN_STEPS = 250
# Largest step table of the tree product kept in memory, in float64
# eigenvector entries (2 n_steps x dim^2); a sweep whose table does not fit
# takes the frame pass at M = dim instead.
TABLE_ENTRY_BUDGET = 60_000_000
# Dimension at or below which sweeps collapse step propagators by tree
# product instead of stepping the state. The elementwise tree does d^3
# vector multiply-adds per level, so its lead shrinks as d grows: with one
# BLAS thread at 20000 steps per duration it took a quarter or less of the
# time of stepping in the bare basis at d = 5 and at most about half at
# d = 7 (ring models with K = 2 and 3).
TREE_PRODUCT_MAX_DIM = 8
# Adiabatic levels a large-model sweep steps first, and the largest leakage
# out of them it accepts; past the limit the level count doubles. The
# leakage counts the top FRAME_GUARD levels of the frame as lost: the norm
# that left the frame alone missed a stack that reaches the cut (at K = 40
# and 4000 steps, N = 31 in 32 levels leaked 5.4e-11 of it, yet its
# fidelity was off by 1.4e-7).
FRAME_LEVELS = 32
FRAME_GUARD = 4
LEAKAGE_LIMIT = 1e-9
_CHUNK = 512
# Float64 entries of the per-chunk scratch of a frame pass (2 MB).
_FRAME_CHUNK_ENTRIES = 2 ** 18
# Factor pairs per vector operation of the tree product; bounds its scratch.
_TREE_CHUNK = 4096
# CF4: the weights a1, a2 = (3 -/+ 2 sqrt 3)/12 of the two exponents, and
# the offset of the Gauss nodes from the middle of a step, in steps.
_A1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_A2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_NODE = math.sqrt(3.0) / 6.0

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
    # Adiabatic levels stepped and their leakage (``_frame_states``).
    frame_levels: int
    frame_leakage: float

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
    # Adiabatic levels stepped and their leakage, for a frame pass.
    frame_levels: int | None = None
    frame_leakage: float | None = None


def bare_state(spec: _model.ModelSpec, index: int) -> np.ndarray:
    """Basis vector of the 1-based bare state ``index``."""
    if not 1 <= index <= spec.dim:
        raise ValueError(f"bare index must lie in 1..{spec.dim}")
    psi = np.zeros(spec.dim)
    psi[index - 1] = 1.0
    return psi


def default_n_steps(traj: _protocol.NormalizedTrajectory, t_f: float, pair=None) -> int:
    """CF4 step count resolving the fastest pair phase: max(MIN_STEPS,
    ceil(STEPS_PER_PERIOD * t_f * max_gap / 2 pi)) with the gap probed
    along the trajectory for the designed (or given) level pair, in either
    order."""
    if pair is None:
        pair = traj.pair if traj.pair is not None else (1, 2)
    lower, upper = _spectral._canonical_pair(pair, traj.spec.dim)
    lams = np.unique(traj.evaluate(np.linspace(0.0, 1.0, 129)))
    energies = _spectral.eigh(traj.spec, lams)[0]
    gap_max = float(np.max(energies[:, upper - 1] - energies[:, lower - 1]))
    return int(max(MIN_STEPS, math.ceil(STEPS_PER_PERIOD * t_f * gap_max / (2.0 * math.pi))))


def _cf4_exponents(spec: _model.ModelSpec, lam1, lam2):
    """(controls, shifts), each of shape (2, n): the CF4 exponents of the n
    steps whose Gauss-node controls are ``lam1`` and ``lam2`` (arrays of n),
    as a H(lam1) + b H(lam2) = (H(controls) + shifts I) / 2, with row 0 the
    factor that acts first, (a, b) = (a2, a1), and row 1 the second,
    (a, b) = (a1, a2). The shift is zero but on the ring, where it is
    2c = 2 (a x1^2 + b x2^2 - 2 (a x1 + b x2)^2) with x = Omega/2pi, which
    a + b = 1/2 reduces to -(x1 - x2)^2 / 12, the same for both factors."""
    lam1, lam2 = np.asarray(lam1, dtype=float), np.asarray(lam2, dtype=float)
    controls = np.stack([2.0 * (_A2 * lam1 + _A1 * lam2), 2.0 * (_A1 * lam1 + _A2 * lam2)])
    shifts = np.zeros_like(controls)
    if spec.kind == _model.RING:
        shifts[:] = -(((lam1 - lam2) / (2.0 * math.pi)) ** 2) / 12.0
    return controls, shifts


def _step_controls(traj, n_steps):
    """(controls, shifts): the 2 n_steps sub-step controls lam_bar and
    energy shifts 2c of CF4 steps along ``traj`` (``_cf4_exponents``), in
    the order they act; sub-steps 2k and 2k + 1 make up step k."""
    middle = np.arange(n_steps) + 0.5
    lam1 = traj.evaluate((middle - _NODE) / n_steps)
    lam2 = traj.evaluate((middle + _NODE) / n_steps)
    controls, shifts = _cf4_exponents(traj.spec, lam1, lam2)
    return controls.T.reshape(-1), shifts.T.reshape(-1)


class MidpointTable:
    """Eigendecompositions of the 2 n_steps CF4 sub-step Hamiltonians, from
    one ``spectral.eigh`` call at their controls (``_step_controls``):
    ``eigvals`` (2 n_steps, dim), the energies with each sub-step's shift
    added, and ``eigvecs`` (2 n_steps, dim, dim).

    Valid for every duration at a fixed (trajectory, n_steps), because the
    controls depend only on the normalized clock. Only the tree product of
    small models reads it (``StepOverlaps``).
    """

    def __init__(self, traj, n_steps):
        self.trajectory = traj
        self.n_steps = int(n_steps)
        self.lams, shifts = _step_controls(traj, self.n_steps)
        self.eigvals, self.eigvecs = _spectral.eigh(traj.spec, self.lams)
        self.eigvals += shifts[:, None]


class StepOverlaps:
    """The parts of a ``MidpointTable`` that the tree product needs.

    ``energies`` is the (d, n) eigenvalue table, level first; ``overlaps``
    holds O_k = V_k^T V_{k-1} as a (d, d, n) array with O_0 the identity;
    ``first`` is V_0^T and ``last`` V_{n-1}. None depends on the duration.
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


def _tree_scratch(steps: StepOverlaps):
    """(level, spare, term): the scratch of one thread's ``_total_propagator``
    calls on ``steps``, as ``_tree_product`` takes it, with ``spare`` two
    chunks of factors long."""
    d, n = steps.energies.shape
    chunk = max(1, min(n // 2, _TREE_CHUNK))
    return (np.empty((d, d, max(1, n // 2)), dtype=complex),
            np.empty((d, d, 2 * chunk), dtype=complex),
            np.empty((d, d, chunk), dtype=complex))


def _pair_products(later, earlier, out=None, term=None):
    """later[:, :, k] @ earlier[:, :, k] for every k of two (d, d, m) stacks,
    each entry accumulated over the inner index in order."""
    out = np.multiply(later[:, 0, None], earlier[None, 0], out=out)
    for i in range(1, later.shape[1]):
        out += np.multiply(later[:, i, None], earlier[None, i], out=term)
    return out


def _tree_product(factors, n: int, level: np.ndarray, spare: np.ndarray,
                  term: np.ndarray) -> np.ndarray:
    """Ordered product F_{n-1} @ ... @ F_0 of n (d, d) factors, by pairwise
    reduction of neighbours; at a level of odd length the last factor
    multiplies the last pair product. factors(lo, hi) returns F_lo .. F_{hi-1}
    as a (d, d, hi - lo) array, at most twice the length of ``term`` at a
    time, and may write them into ``spare`` (d, d, at least that long).
    The levels run in chunks of the length of ``term``: the first goes into
    ``level`` (at least n // 2 long), and each later one in place at its
    start, through ``spare``. A chunk writes [lo, hi) and later chunks read
    from 2 hi on, so no pair is overwritten before it is read."""
    chunk = term.shape[2]
    if n == 1:
        return factors(0, 1)[:, :, 0].copy()
    m = n // 2
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        pairs = factors(2 * lo, 2 * hi)
        _pair_products(pairs[:, :, 1::2], pairs[:, :, ::2], out=level[:, :, lo:hi],
                       term=term[:, :, : hi - lo])
    if n % 2:
        level[:, :, m - 1 : m] = _pair_products(factors(n - 1, n), level[:, :, m - 1 : m])
    n = m
    while n > 1:
        m = n // 2
        for lo in range(0, m, chunk):
            hi = min(lo + chunk, m)
            # Through ``spare``: writing in place costs more, since numpy
            # copies a ufunc's inputs whenever its output lies within their
            # memory bounds.
            level[:, :, lo:hi] = _pair_products(
                level[:, :, 2 * lo + 1 : 2 * hi : 2], level[:, :, 2 * lo : 2 * hi : 2],
                out=spare[:, :, : hi - lo], term=term[:, :, : hi - lo])
        if n % 2:
            level[:, :, m - 1 : m] = _pair_products(level[:, :, n - 1 : n],
                                                    level[:, :, m - 1 : m])
        n = m
    return level[:, :, 0].copy()


def _total_propagator(steps: StepOverlaps, dt: float, scratch) -> np.ndarray:
    """Product of all sub-step propagators V_k exp(-i E_k dt) V_k^T at dt,
    in the scratch of ``_tree_scratch``. The factors P_k O_k are formed one
    chunk at a time, their phases in ``term`` (d >= 2 makes room for them)."""
    level, spare, term = scratch
    d, n = steps.energies.shape

    def factors(lo, hi):
        phases = term.reshape(-1)[: d * (hi - lo)].reshape(d, hi - lo)
        angles = np.multiply(steps.energies[:, lo:hi], -dt, out=phases.imag)
        np.cos(angles, out=phases.real)
        np.sin(angles, out=angles)
        return np.multiply(steps.overlaps[:, :, lo:hi], phases[:, None, :],
                           out=spare[:, :, : hi - lo])

    return steps.last @ _tree_product(factors, n, level, spare, term) @ steps.first


def _check_norm(states: np.ndarray, axis: int) -> float:
    """Largest deviation from 1 of the norms along ``axis``; past
    NORM_DRIFT_LIMIT, or NaN, it raises StepSizeTooCoarse."""
    drift = float(np.max(np.abs(np.linalg.norm(states, axis=axis) - 1.0)))
    if not drift <= NORM_DRIFT_LIMIT:
        raise StepSizeTooCoarse(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")
    return drift


def evolve(control: _protocol.TimedControl, psi0, n_steps: int | None = None,
           n_save: int = 401) -> EvolutionResult:
    """Propagate psi0 (a vector, or a (dim, m) stack of column states)
    from t = 0 to t = control.t_f under the model of its trajectory, by
    one frame pass (``_frame_states``) of n_steps CF4 steps that keeps
    n_save states evenly spaced in steps, psi0 and the final state
    included.

    Norm drift beyond 1e-9 raises StepSizeTooCoarse; the stepping is
    exactly unitary in its frame, so drift signals numerical breakdown
    rather than ordinary discretization error.
    """
    traj = control.trajectory
    spec = traj.spec
    if n_steps is None:
        n_steps = default_n_steps(traj, control.t_f)
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_save < 2:
        raise ValueError("n_save must be >= 2 to keep both endpoints")

    psi0 = np.asarray(psi0)
    single = psi0.ndim == 1
    psi = np.asarray(psi0[:, None] if single else psi0, dtype=complex)
    if psi.shape[0] != spec.dim:
        raise ValueError(f"state dimension {psi.shape[0]} does not match model dim {spec.dim}")
    norms = np.linalg.norm(psi, axis=0)
    if not np.max(np.abs(norms - 1.0)) <= 1e-8:
        raise ValueError("initial state columns must be normalized")

    save_idx = np.unique(np.round(np.linspace(0, n_steps, min(n_save, n_steps + 1))).astype(int))
    stepped, levels, leakage = _frame_states(traj, n_steps, psi, np.array([control.t_f]),
                                             save_idx[1:])
    saved = np.concatenate([psi[None], stepped[:, 0]])
    drift = _check_norm(saved, axis=1)
    times = save_idx * (control.t_f / n_steps)
    times[-1] = control.t_f
    states = saved[:, :, 0] if single else saved
    return EvolutionResult(times=times, states=states, norm_drift=drift, control=control,
                           n_steps=n_steps, frame_levels=levels, frame_leakage=leakage)


def _level_vector(traj, level, s):
    """The 1-based bare state ``level``, or for "ground" the instantaneous
    ground state at normalized time ``s`` of ``traj``."""
    if level == GROUND:
        return _spectral.eigenstate(traj.spec, float(traj.evaluate(s)), 1)
    return bare_state(traj.spec, int(level))


def _padded(a: np.ndarray, shape) -> np.ndarray:
    """``a`` in the leading corner of a zero array of ``shape``."""
    out = np.zeros(shape)
    out[tuple(slice(0, n) for n in a.shape)] = a
    return out


def _frame_pass(traj, n_steps: int, stack: np.ndarray, tf_arr: np.ndarray, levels: int,
                saves=None):
    """(states, leakage): the (dim, m) ``stack`` stepped along ``traj`` by
    ``n_steps`` CF4 steps, 2 n_steps sub-steps, in its lowest ``levels``
    adiabatic levels, for every duration of ``tf_arr`` at once.
    states[j, i] is the (dim, m) stack after saves[j] steps (sub-step
    2 saves[j]) at tf_arr[i]; ``saves`` ascends and ends at n_steps, which
    alone it holds by default. leakage is 1 minus the
    smallest squared column norm left after the last step in the lowest
    ``levels`` - FRAME_GUARD levels (all of them when ``levels`` is dim).
    The eigenvectors come one chunk of sub-steps at a time from
    ``spectral._solved``, which keeps only their lowest ``levels`` columns
    and, for a ring pass on the main thread, solves the next chunks on its
    solver threads while this one steps. Each chunk is stepped where the
    stream yields it; a copy of its last frame, the boundary frame, gives
    the overlap across the next boundary, and the chunk is dropped before
    the next one is solved."""
    spec = traj.spec
    lams, shifts = _step_controls(traj, n_steps)
    saves = [2 * n_steps] if saves is None else [2 * k for k in saves]
    dim, m = stack.shape
    dts = tf_arr / (2 * n_steps)
    # The coefficients are real rows (duration, column, re/im), so a step
    # is one real (rows, M) @ (M, M) product with O_k^T, the same for every
    # duration, then the phases. OpenBLAS (0.3.31) gives a row the same bits
    # for any number of rows only when a product has a multiple of 8 columns, so
    # every product is padded with zeros to one: the leading columns of a
    # wide stack then evolve exactly as a narrow stack does.
    width = -(-levels // 8) * 8
    parts = np.stack([stack.T.real, stack.T.imag], axis=1).reshape(2 * m, dim)
    work = np.empty((len(dts), m, 2, width))
    coef, turn = np.empty_like(work), np.empty_like(work)
    flat, work_flat = coef.reshape(-1, width), work.reshape(-1, width)
    # Saved stacks as (duration, column, bare index), returned transposed.
    states = np.empty((len(saves), len(dts), m, dim), dtype=complex)
    pos = 0
    # Sub-steps per chunk: its overlaps and its four phase arrays stay within
    # _FRAME_CHUNK_ENTRIES, and ``_solved`` caps it at the steps whose
    # eigenvectors fit in spectral._CHUNK_ENTRIES (39 at K = 40).
    span = max(1, min(_CHUNK, _FRAME_CHUNK_ENTRIES // (width * (width + 4 * len(dts)))))
    for lo, hi, energies, vectors in _spectral._solved(spec, lams, range(levels), span):
        if lo == 0:
            work[:] = (parts @ _padded(vectors[0], (dim, width))).reshape(m, 2, width)
        # Rotation by exp(-i E dt) acting on (re, im): cos on both parts,
        # plus (-sin, sin) on the swapped (im, re).
        angles = np.zeros((hi - lo, len(dts), width))
        energies = energies[:, :levels] + shifts[lo:hi, None]
        np.multiply(energies[:, None, :], -dts[None, :, None], out=angles[:, :, :levels])
        cos = np.cos(angles)[:, :, None, None, :]
        signed = np.empty((hi - lo, len(dts), 1, 2, width))
        np.sin(angles, out=signed[:, :, 0, 1])
        del angles
        np.negative(signed[:, :, 0, 1], out=signed[:, :, 0, 0])
        # O_k^T = V_{k-1}[:, :M]^T V_k[:, :M]; step 0 has none, and the
        # chunk's first step takes V_{lo-1} from the boundary frame.
        first = max(lo, 1)
        overlaps = np.zeros((hi - first, width, width))
        if lo:
            np.matmul(boundary.T, vectors[0], out=overlaps[0, :levels, :levels])
        np.matmul(vectors[:-1].transpose(0, 2, 1), vectors[1:],
                  out=overlaps[lo + 1 - first :, :levels, :levels])
        for k in range(lo, hi):
            if k:
                np.matmul(flat, overlaps[k - first], out=work_flat)
            np.multiply(work, cos[k - lo], out=coef)
            np.multiply(work[:, :, ::-1], signed[k - lo], out=turn)
            coef += turn
            if k + 1 == saves[pos]:
                bare = flat @ _padded(vectors[k - lo].T, (width, -(-dim // 8) * 8))
                bare = bare.reshape(coef.shape[:3] + (-1,))[..., :dim]
                states[pos] = bare[:, :, 0] + 1j * bare[:, :, 1]
                pos += 1
        boundary = vectors[-1].copy()
        del vectors
    kept = coef[..., : levels if levels == dim else levels - FRAME_GUARD]
    leakage = float(1.0 - np.min(np.sum(kept * kept, axis=(2, 3))))
    return states.transpose(0, 1, 3, 2), leakage


def _frame_states(traj, n_steps, stack, tf_arr, saves=None):
    """(states, levels, leakage) of ``_frame_pass`` at the fewest levels it
    accepts: M starts at min(FRAME_LEVELS, dim) and doubles while the
    leakage exceeds LEAKAGE_LIMIT, up to M = dim, where the pass is exact.
    A level count that the start stack alone rules out is never run."""
    dim = traj.spec.dim
    levels = min(FRAME_LEVELS, dim)
    if levels < dim:
        # A truncated step is a contraction, so a pass in M levels ends with
        # at least the leakage of the stack's projection onto the lowest M
        # levels of the first sub-step's frame.
        first = _spectral.eigh(traj.spec, _step_controls(traj, n_steps)[0][:1])[1][0]
        kept = np.cumsum(np.abs(first.T @ stack) ** 2, axis=0)
        while levels < dim and 1.0 - np.min(kept[levels - 1]) > LEAKAGE_LIMIT:
            levels = min(2 * levels, dim)
    while True:
        states, leakage = _frame_pass(traj, n_steps, stack, tf_arr, levels, saves)
        if leakage <= LEAKAGE_LIMIT or levels == dim:
            return states, levels, leakage
        levels = min(2 * levels, dim)


def _durations(tf_list) -> np.ndarray:
    """The durations of a sweep as an array; none, or one that is not
    positive and finite, raises ValueError."""
    tf_arr = np.asarray(list(tf_list), dtype=float)
    if tf_arr.size == 0:
        raise ValueError("a sweep needs at least one duration")
    if not np.all(np.isfinite(tf_arr) & (tf_arr > 0)):
        raise ValueError("all durations must be positive and finite")
    return tf_arr


def _final_states(traj, psi0, tf_arr, n_steps=None, pairs=(None,)):
    """(n_steps, final, frame): final(t_f) is psi0, a vector or a (dim, m)
    stack, evolved along ``traj`` played over t_f, for t_f in ``tf_arr``
    (checked by ``_durations``). All durations share the step count, by
    default the largest rule of ``pairs`` at the longest one. Small models
    whose full step table fits in TABLE_ENTRY_BUDGET take the tree
    product (``_tree_states``) and keep only its ``StepOverlaps``, and
    ``frame`` is a pair of None; every other sweep takes one frame pass
    over all durations (``_frame_states``), and ``frame`` is its (levels,
    leakage). Every final state is formed here; final(t_f) raises the
    FaquadError that forming its state raised, and gives the states of
    both paths the same norm check as ``evolve``."""
    if n_steps is None:
        n_steps = max(default_n_steps(traj, float(np.max(tf_arr)), pair=pair)
                      for pair in pairs)
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dim = traj.spec.dim

    if dim <= TREE_PRODUCT_MAX_DIM and 2 * n_steps * dim * dim <= TABLE_ENTRY_BUDGET:
        finals, errors = _tree_states(StepOverlaps(MidpointTable(traj, n_steps)), psi0, tf_arr)
        frame = (None, None)
    else:
        (finals,), levels, leakage = _frame_states(traj, n_steps, psi0.reshape(dim, -1), tf_arr)
        finals = finals.reshape((len(tf_arr),) + psi0.shape)
        errors, frame = {}, (levels, leakage)
    index = {t_f: i for i, t_f in enumerate(tf_arr.tolist())}

    def final(t_f):
        i = index[t_f]
        if i in errors:
            raise errors[i]
        _check_norm(finals[i], axis=0)
        return finals[i]

    return n_steps, final, frame


def _tree_states(steps: StepOverlaps, psi0, tf_arr):
    """(finals, errors): finals[i] is the total propagator of ``steps`` at
    t_f = tf_arr[i], so at dt = t_f over its number of sub-steps, applied
    to psi0, and errors maps the index of a duration
    whose product raised FaquadError to that error. Where
    ``spectral._may_hand_off`` holds and there is more than one duration,
    one thread of ``spectral._solver_pool`` forms the first half of them
    and the calling thread the rest; both threads' scratch is made here,
    on the calling thread."""
    tf_list = tf_arr.tolist()
    n_sub = steps.energies.shape[1]
    finals = np.empty((len(tf_list),) + psi0.shape, dtype=complex)
    errors = {}

    def form(indices, scratch):
        for i in indices:
            try:
                finals[i] = _total_propagator(steps, tf_list[i] / n_sub, scratch) @ psi0
            except FaquadError as exc:
                errors[i] = exc

    if len(tf_list) > 1 and _spectral._may_hand_off():
        half = len(tf_list) // 2
        helper = _spectral._solver_pool().submit(form, range(half), _tree_scratch(steps))
        try:
            form(range(half, len(tf_list)), _tree_scratch(steps))
        finally:
            helper.result()
    else:
        form(range(len(tf_list)), _tree_scratch(steps))
    return finals, errors


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
    the instantaneous ground state at the respective boundary; a bare
    index outside 1..dim raises ValueError. The step
    count defaults to the resolution rule at the largest duration and is
    shared across points, so the step tables are built once.
    Per-point numerical failures are collected, not fatal.
    """
    tf_arr = _durations(tf_list)
    psi0 = _level_vector(traj, start, 0.0).astype(complex)
    phi = _level_vector(traj, target, 1.0)
    n_steps, final, (levels, leakage) = _final_states(traj, psi0, tf_arr, n_steps)
    population, failures = _sweep(
        tf_arr, lambda t_f: float(np.abs(np.vdot(phi, final(t_f))) ** 2), workers)
    return SweepCurve(tf=tf_arr, population=population, failures=failures, n_steps=n_steps,
                      frame_levels=levels, frame_leakage=leakage)


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
