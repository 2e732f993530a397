"""Eigen-decomposition along a control grid with continuous eigenvectors.

All model Hamiltonians are real symmetric, so eigenvectors can be kept
real and made continuous along a grid by fixing the sign of each column
against the previous grid point. ``eigh`` is the one-call eigensolver,
and this the one module that assembles H: the midpoint tables and step
rule of ``dynamics``, the gap integral of ``perturbation`` and the
``spectrum`` subcommand read their energies from it. A long grid is
solved as one chunk stream, ``_solved``, which the gauged stream below
and the frame pass of ``dynamics`` iterate: it yields the grid one chunk
of controls at a time with only the eigenvector columns its caller
keeps. For a ring grid of more than one chunk streamed on the main
thread of a process with more than one core, two solver threads run the
secular half of the next two chunks while the caller gauges or steps the
current one; the tie controls, which assemble H, stay on the calling
thread, and a sweep's worker threads solve their streams inline
(``_may_hand_off``). ``_gauged`` is the one routine that applies the
sign gauge: it gauges the stream's chunks in place and carries the last
gauged row of each chunk into the next. ``frames`` puts its chunks
together; single eigenstates, the orbital stacks of ``tg`` and the
adiabatic projection of ``dynamics`` read every eigenvector column from
it. ``track_frames`` iterates the same gauged stream with the columns of
its level pairs only and takes the couplings chunk by chunk, so a design
track holds nothing sized by its grid but its energies and couplings.
Level couplings are computed with the off-diagonal Hellmann-Feynman
identity

    <phi_i | d/dlambda phi_j> = <phi_i | dH/dlambda | phi_j> / (E_j - E_i)

which is exact at each grid point and needs no differencing.

The ring Hamiltonian is a diagonal plus a rank-one term,
diag(d) + rho z z^T with poles d_k = (k - Omega/2pi)^2, unit z and
rho >= 0 (``model.ring_barrier_factor``). Its eigenvalues are the roots
of the secular equation 1 + rho sum_k z_k^2 / (d_k - E) = 0, one between
each pair of neighbouring poles (Bunch, Nielsen & Sorensen, Numer. Math.
31, 31 (1978)), and its eigenvectors follow from the roots by Loewner's
formula, which keeps them orthogonal to working precision (Gu &
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)). ``eigh`` solves
it with LAPACK's compiled merge step ``dlaed9`` (``dlaed4`` per root,
then the Loewner vectors): O(dim^2) per matrix against O(dim^3) for a
dense solver. ``dlaed9`` comes from the LAPACK that ``numpy.linalg``
links when that is the scipy-openblas build with 64-bit integers of
numpy's wheels, and otherwise from the function capsules of
``scipy.linalg.cython_lapack`` (Accelerate, MKL and other builds), the
only place where faquad imports scipy at start; ``LAPACK`` names the
source. Controls where two poles tie (Omega a multiple of pi)
and a barrier too weak to move the poles (u0 = 0) go to
``numpy.linalg.eigh``, which is exact there; ``POLE_TIE_RTOL`` states
the tolerance.

Levels are indexed 1-based throughout the public interface: pair (1, 2)
means the ground state and the first excited state.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from . import model as _model
from .errors import DegenerateGap, FaquadError

DEGENERACY_RTOL = 1e-12
# Two ring poles closer than this times the largest pole count as a tie,
# and so does a barrier weight rho below it: the deflation tolerance of
# LAPACK's divide and conquer (dlaed2, dlaed8), below which LAPACK itself
# hands neither to its secular solver.
POLE_TIE_RTOL = 8.0 * np.finfo(float).eps
# Float64 eigenvector entries of one chunk of ``_solved`` (2 MB): 39
# controls at K = 40, and every few-level design grid in one.
_CHUNK_ENTRIES = 2 ** 18
# Threads that solve the secular half of ring chunks, and the chunks a
# stream keeps in flight ahead of the one its caller works on.
_SOLVER_THREADS = 2
_LOOKAHEAD = 2
_pool = None
_pool_lock = threading.Lock()

# The arguments of dlaed9(k, kstart, kstop, n, d, q, ldq, rho, dlamda, w, s,
# lds, info), all pointers, as scipy.linalg.cython_lapack declares them;
# "int" is the LAPACK integer of the source, ``_DLAED9_INT``.
_DLAED9_ARGS = ("int", "int", "int", "int", "double", "double", "int",
                "double", "double", "double", "double", "int", "int")


def _openblas_dlaed9(lib):
    """(``dlaed9``, the library's name and version) from the ctypes
    library ``lib`` if it is a scipy-openblas build with 64-bit LAPACK
    integers: it exports ``scipy_dlaed9_64_`` and its configuration string,
    ``scipy_openblas_get_config64_()``, names USE64BITINT. None otherwise,
    so that no routine is called with integers of the wrong width."""
    try:
        config, solve = lib.scipy_openblas_get_config64_, lib.scipy_dlaed9_64_
    except AttributeError:
        return None
    config.argtypes, config.restype = [], ctypes.c_char_p
    words = (config() or b"").decode(errors="replace").split()
    if "USE64BITINT" not in words:
        return None
    solve.argtypes, solve.restype = [ctypes.c_void_p] * len(_DLAED9_ARGS), None
    return solve, " ".join(words[:2])


def _capsule_dlaed9(capsules):
    """LAPACK's ``dlaed9`` from a table of ``cython_lapack`` function
    capsules, as a ctypes function of 13 raw addresses. The capsule's
    signature string must read void (...) with the pointers of
    ``_DLAED9_ARGS``, "int" being a C int and "double" cython_lapack's
    ``d`` typedef; a missing routine or another signature raises
    FaquadError."""
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    if "dlaed9" not in capsules:
        raise FaquadError("scipy.linalg.cython_lapack has no dlaed9")
    signature = get_name(capsules["dlaed9"]) or b""
    text = signature.decode()
    args = text[len("void ("):-1].split(", ") if text.startswith("void (") else []
    declared = tuple("int" if arg == "int *" else
                     "double" if arg.endswith("cython_lapack_d *") else arg for arg in args)
    if not text.endswith(")") or declared != _DLAED9_ARGS:
        expected = ", ".join(f"{arg} *" for arg in _DLAED9_ARGS)
        raise FaquadError(f"scipy.linalg.cython_lapack.dlaed9 is declared {text!r}; "
                          f"the ring eigensolver needs void ({expected})")
    address = get_pointer(capsules["dlaed9"], signature)
    return ctypes.CFUNCTYPE(None, *([ctypes.c_void_p] * len(_DLAED9_ARGS)))(address)


def _dlaed9_handle():
    """(``dlaed9``, the numpy integer type of its LAPACK integers, the
    name of its library). The first source is the library that
    ``numpy.linalg`` links: ``dlsym`` on its extension module also searches
    the libraries that module needs (``_openblas_dlaed9``). The second is
    ``scipy.linalg.cython_lapack``, which takes C ints and is the only
    place this module imports scipy."""
    try:
        from numpy.linalg import _umath_linalg
        found = _openblas_dlaed9(ctypes.CDLL(_umath_linalg.__file__))
    except (ImportError, OSError):
        found = None
    if found is not None:
        solve, name = found
        return solve, np.int64, f"numpy {name}"
    import scipy
    from scipy.linalg import cython_lapack

    return (_capsule_dlaed9(cython_lapack.__pyx_capi__), np.intc,
            f"scipy {scipy.__version__} cython_lapack")


# Resolved once; ``LAPACK`` goes into the manifest of every ring run.
# ctypes releases the GIL during each call, so the solver threads of
# ``_solved`` run it while the calling thread gauges or steps an earlier
# chunk, and the threads of a sweep solve at the same time. Every
# ``_ring_secular`` call gets its own buffers.
_DLAED9, _DLAED9_INT, LAPACK = _dlaed9_handle()


@dataclass(frozen=True)
class FrameTrack:
    """Level couplings along a strictly monotone control grid.

    ``energies`` has shape (n_grid, dim), and ``couplings`` maps a 1-based
    level pair (i, j) of ``pairs``, with i < j, to an array of
    <phi_i|d_lambda phi_j> over the grid in the gauge of ``frames``. The
    eigenvectors themselves are not kept.
    """

    spec: _model.ModelSpec
    grid: np.ndarray
    energies: np.ndarray
    pairs: tuple
    couplings: dict = field(repr=False)

    def gap(self, pair) -> np.ndarray:
        i, j = _canonical_pair(pair, self.spec.dim)
        return self.energies[:, j - 1] - self.energies[:, i - 1]

    def coupling(self, pair) -> np.ndarray:
        i, j = pair
        ci, cj = _canonical_pair(pair, self.spec.dim)
        arr = self.couplings[(ci, cj)]
        return arr if (i, j) == (ci, cj) else -arr


def _canonical_pair(pair, dim):
    if len(pair) != 2:
        raise ValueError(f"a level pair holds two levels, got {tuple(pair)}")
    i, j = int(pair[0]), int(pair[1])
    if i == j:
        raise ValueError("level pair must contain two distinct levels")
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise ValueError(f"levels must lie in 1..{dim}, got {pair}")
    return (i, j) if i < j else (j, i)


def gauge_fix_columns(vectors: np.ndarray) -> np.ndarray:
    """Deterministic overall sign: the largest-magnitude component of each
    column is made positive."""
    amax = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[amax, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _grid(lams) -> np.ndarray:
    """``lams`` as a non-empty 1-d float array of finite controls."""
    lams = _model._controls(lams)
    if lams.ndim != 1 or len(lams) == 0:
        raise ValueError("controls must be a non-empty 1-d array")
    return lams


def eigh(spec: _model.ModelSpec, lams):
    """Ascending energies (n, dim) and eigenvector columns (n, dim, dim)
    of H at each control of the 1-d array ``lams``, in no fixed sign
    gauge. The ring is solved by its secular equation (module docstring),
    the few-level models and the ring's tie controls by
    ``numpy.linalg.eigh``.

    Raises FaquadError, naming the control, if the secular solver fails
    or returns a value that is not finite.
    """
    lams = _grid(lams)
    if spec.kind != _model.RING:
        return np.linalg.eigh(_model.hamiltonian(spec, lams))
    energies, vectors = _outputs(spec, lams)
    tie = _ring_secular(spec, lams, energies, vectors)
    return _solve_ties(spec, lams, energies, vectors, tie)


def _outputs(spec, lams, columns=None):
    """Empty energies (n, dim) and eigenvector columns (n, dim, m) for the
    n controls ``lams``, m being len(columns), or dim when None."""
    m = spec.dim if columns is None else len(columns)
    return np.empty((len(lams), spec.dim)), np.empty((len(lams), spec.dim, m))


def _ring_secular(spec, lams, energies, vectors, columns=None):
    """The secular half of the ring's ``eigh``, written into ``energies``
    and ``vectors`` as ``_outputs`` makes them: every control solved but
    those where the returned mask ``tie`` is set, whose rows are zero, and
    only the 0-based eigenvector columns ``columns`` kept (all of them when
    None). The poles are sorted per control, ``dlaed9`` writes the energies
    straight into the result and the vectors into a buffer whose kept rows
    are put back into k order. It assembles no H, so it may run on a solver
    thread; its caller allocates the outputs, which keeps the large
    allocations off the solver threads' malloc arenas."""
    dim = spec.dim
    kept = slice(None) if columns is None else np.asarray(columns)
    gamma, v = _model.ring_barrier_factor(spec.params)
    norm2 = float(v @ v)
    rho = gamma * norm2
    k = np.arange(-spec.params.K, spec.params.K + 1, dtype=float)
    poles = (k - lams[:, None] / (2.0 * math.pi)) ** 2
    order = np.argsort(poles, axis=1, kind="stable")
    # C-contiguous rows, so that row n starts n * dim doubles past the first.
    poles = np.ascontiguousarray(np.take_along_axis(poles, order, axis=1))
    weights = np.ascontiguousarray((v / math.sqrt(norm2))[order])
    # A barrier below the same tolerance (u0 = 0 included) leaves the
    # poles as the eigenvalues to working precision.
    tol = POLE_TIE_RTOL * poles[:, -1]
    tie = (np.min(np.diff(poles, axis=1), axis=1) <= tol) | (rho <= tol)

    # Zero until ``_solve_ties`` fills them, so that the finite check below
    # reads no stale memory.
    energies[tie] = vectors[tie] = 0.0
    # dlaed9 reads and writes through these addresses only while it runs;
    # each array stays referenced by a local name until the loop ends.
    # k kstart kstop n ldq lds info, in the source's LAPACK integer
    ints = np.array([dim, 1, dim, dim, dim, dim, 0], dtype=_DLAED9_INT)
    scalars = np.array([rho])
    work = np.empty((dim, dim))
    solved = np.empty((dim, dim))  # Fortran S: row j holds eigenvector j, pole order
    i_k, i_start, i_stop, i_n, i_ldq, i_lds, i_info = (
        ints.ctypes.data + ints.itemsize * j for j in range(7))
    e_base, p_base, w_base, q, rho_at, s = (
        a.ctypes.data for a in (energies, poles, weights, work, scalars, solved))
    row = dim * energies.itemsize
    for n in np.flatnonzero(~tie).tolist():
        _DLAED9(i_k, i_start, i_stop, i_n, e_base + n * row, q, i_ldq, rho_at,
                p_base + n * row, w_base + n * row, s, i_lds, i_info)
        if ints[6] != 0:
            raise FaquadError(f"ring secular solver failed (LAPACK dlaed9 info {int(ints[6])}) "
                              f"at control {float(lams[n])!r}")
        vectors[n, order[n]] = solved[kept].T
    # NaN and inf survive the sums.
    bad = ~np.isfinite(energies.sum(axis=1) + vectors.sum(axis=(1, 2)))
    if np.any(bad):
        raise FaquadError("ring secular solver returned a value that is not finite "
                          f"at control {float(lams[np.argmax(bad)])!r}")
    return tie


def _solve_ties(spec, lams, energies, vectors, tie, columns=None):
    """The dense half of the ring's ``eigh``: ``numpy.linalg.eigh`` at the
    controls where ``tie`` is set, written into those rows of the secular
    half's arrays, eigenvector ``columns`` as there. (energies, vectors)."""
    if np.any(tie):
        energies[tie], full = np.linalg.eigh(_model.hamiltonian(spec, lams[tie]))
        vectors[tie] = full if columns is None else np.take(full, columns, axis=2)
    return energies, vectors


def _solver_pool():
    """The threads that solve the secular half of ring chunks, shared by
    the threaded streams and made on first use; a few-level sweep's tree
    products (``dynamics._tree_states``) take one of them."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_SOLVER_THREADS,
                                       thread_name_prefix="faquad-solver")
        return _pool


def _forget_pool():
    """A forked child has none of its parent's threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _may_hand_off():
    """Whether the calling thread may hand work to ``_solver_pool``: it is
    the main thread of a process allowed more than one core. A sweep's
    worker threads keep the cores busy already, so they work inline."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return cores > 1 and threading.current_thread() is threading.main_thread()


def _threaded(spec, chunks):
    """Whether a stream of ``chunks`` chunks solves its secular halves on
    ``_solver_pool``: a ring grid of more than one chunk, streamed where
    ``_may_hand_off`` holds."""
    return spec.kind == _model.RING and chunks > 1 and _may_hand_off()


def _solved(spec, lams, columns=None, span=None):
    """Yield (lo, hi, energies, vectors) of ``eigh`` at lams[lo:hi] for
    consecutive chunks of ``span`` controls of ``lams``, a 1-d float array
    as ``_grid`` returns it, with only the 0-based eigenvector columns
    ``columns`` (all of them when None). A chunk holds at most
    _CHUNK_ENTRIES eigenvector entries, which also caps ``span`` and is its
    default.

    Where ``_threaded`` holds, the secular half of each chunk runs on the
    _SOLVER_THREADS threads of ``_solver_pool``, at most _LOOKAHEAD chunks
    ahead of the one it yields, and keeps only ``columns`` there, so a
    chunk in flight holds no more. The tie controls, which assemble H, run
    on the calling thread, and so does every chunk of every other stream.
    A matrix's result depends on neither the thread nor the chunk, so
    neither moves a bit."""
    n, dim = len(lams), spec.dim
    most = max(1, _CHUNK_ENTRIES // (dim * dim))
    span = most if span is None else max(1, min(span, most))
    bounds = [(lo, min(lo + span, n)) for lo in range(0, n, span)]

    # Kept columns are C order (n, dim, m), as take returns them, so a
    # column stays strided as in the whole array: track_frames' einsum sums
    # a contiguous column in another order, which would move the couplings'
    # last bits. The stream drops a chunk once it has yielded it, so a
    # caller that drops it too frees it before the next chunk is solved.
    if not _threaded(spec, len(bounds)):
        for lo, hi in bounds:
            energies, vectors = eigh(spec, lams[lo:hi])
            if columns is not None:
                vectors = np.take(vectors, columns, axis=2)
            yield lo, hi, energies, vectors
            del energies, vectors
        return
    pool = _solver_pool()
    ahead = deque()
    try:
        for i, (lo, hi) in enumerate(bounds):
            for a, b in bounds[i + len(ahead) : i + _LOOKAHEAD + 1]:
                out = _outputs(spec, lams[a:b], columns)
                ahead.append((out, pool.submit(_ring_secular, spec, lams[a:b], *out, columns)))
            out, future = ahead.popleft()
            yield (lo, hi) + _solve_ties(spec, lams[lo:hi], *out, future.result(), columns)
            del out
    finally:
        # A failed chunk or a consumer that stops early leaves no solve
        # running past the stream.
        futures = [future for _, future in ahead]
        for future in futures:
            future.cancel()
        wait(futures)


def _sign_gauge(vectors: np.ndarray) -> None:
    """Sign rows 1.. of the eigenvector columns ``vectors`` (n, dim, m) in
    place, row 0 being in the gauge already: each column is flipped where
    its overlap with the column before, as gauged, is negative, and keeps
    its sign as solved where that overlap is zero; all rows at once."""
    # A column's sign is the product of the signs of the raw overlaps since
    # its last zero overlap, where the column keeps its solved sign and the
    # product starts again; flipping a column flips its next overlap
    # exactly, so these are the signs that gauging row by row finds.
    overlaps = np.einsum("kij,kij->kj", vectors[:-1], vectors[1:])
    shape = (len(vectors), vectors.shape[2])
    signs = np.ones(shape, dtype=np.int8)
    signs[1:][overlaps < 0.0] = -1
    zero = ~((overlaps < 0.0) | (overlaps > 0.0))
    restart = np.zeros(shape, dtype=np.int32)
    restart[1:][zero] = np.nonzero(zero)[0] + 1
    np.maximum.accumulate(restart, axis=0, out=restart)
    np.cumprod(signs, axis=0, out=signs)
    signs *= np.take_along_axis(signs, restart, axis=0)
    vectors *= signs[:, None, :]


def _gauged(spec, lams, columns=None):
    """Yield the chunks (lo, hi, energies, vectors) of ``_solved`` with
    their eigenvector columns in the sign gauge of ``frames``, gauged in
    place: the first row of the grid by ``gauge_fix_columns``, the first
    row of every later chunk against the last gauged row of the chunk
    before, which the stream carries, and the rest by ``_sign_gauge``."""
    last = None
    for lo, hi, energies, vectors in _solved(spec, lams, columns):
        if last is None:
            vectors[0] = gauge_fix_columns(vectors[0])
        else:
            # The overlap of two rows as ``_sign_gauge`` forms it across a
            # chunk, summed in the same order.
            flip = np.einsum("ij,ij->j", last, vectors[0]) < 0.0
            vectors[0][:, flip] *= -1.0
        _sign_gauge(vectors)
        last = vectors[-1].copy()
        yield lo, hi, energies, vectors


def frames(spec: _model.ModelSpec, lams, columns=None):
    """Energies (n, dim) and eigenvector columns (n, dim, m) of H at each
    control of the 1-d array ``lams``, from ``eigh``, in the package's sign
    gauge: the columns at the first control follow ``gauge_fix_columns``,
    and each later column is flipped where its overlap with the column
    before is negative, so that no overlap is negative; a column with zero
    overlap keeps its sign as solved. The m columns kept are the 0-based
    levels ``columns``, or all dim of them when None. The chunks of the
    gauged stream ``_gauged`` are put together, so they give the gauge of
    one solve of the whole grid."""
    lams = _grid(lams)
    for lo, hi, chunk_energies, chunk in _gauged(spec, lams, columns):
        if lo == 0:
            energies = np.empty((len(lams), spec.dim))
            vectors = np.empty((len(lams),) + chunk.shape[1:])
        energies[lo:hi], vectors[lo:hi] = chunk_energies, chunk
    return energies, vectors


def eigenstate(spec: _model.ModelSpec, lam: float, level: int = 1) -> np.ndarray:
    """Instantaneous eigenvector (1-based level) at one control value, in
    the gauge of ``frames``. A level outside 1..dim raises ValueError."""
    if not 1 <= level <= spec.dim:
        raise ValueError(f"level must lie in 1..{spec.dim}, got {level}")
    return frames(spec, [lam])[1][0, :, level - 1]


def track_frames(spec: _model.ModelSpec, grid, pairs=((1, 2),)) -> FrameTrack:
    """Diagonalize along ``grid`` with continuity sign-fixing and compute
    the requested pair couplings. The couplings are taken one chunk at a
    time from the gauged stream ``_gauged``, which keeps only the
    eigenvector columns of the levels in ``pairs``, in the gauge of
    ``frames``; no eigenvector is kept past its chunk.

    Parameters
    ----------
    spec:
        Model to track.
    grid:
        Strictly monotone control samples.
    pairs:
        1-based level pairs whose couplings are wanted; a pair given
        twice, in either order, is tracked once.

    Raises
    ------
    DegenerateGap
        If a requested pair is degenerate (relative to the local spectral
        range) at any grid point.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    steps = np.diff(grid)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("grid must be strictly monotone")

    pairs = tuple(dict.fromkeys(_canonical_pair(p, spec.dim) for p in pairs))
    levels = sorted({level for pair in pairs for level in pair})
    column = {level: n for n, level in enumerate(levels)}
    energies = np.empty((len(grid), spec.dim))
    numers = {pair: np.empty(len(grid)) for pair in pairs}
    for lo, hi, chunk_energies, vectors in _gauged(spec, grid, [level - 1 for level in levels]):
        energies[lo:hi] = chunk_energies
        # dH/dlambda is diagonal, so the coupling numerator is an O(dim)
        # contraction per grid point.
        dh = _model.d_hamiltonian_d_lambda(spec, grid[lo:hi])
        for (i, j) in pairs:
            numers[(i, j)][lo:hi] = np.einsum("nd,nd->n", vectors[:, :, column[i]] * dh,
                                              vectors[:, :, column[j]])

    couplings = {}
    spread = np.maximum(energies[:, -1] - energies[:, 0], 1.0)
    for (i, j) in pairs:
        gap = energies[:, j - 1] - energies[:, i - 1]
        bad = np.abs(gap) < DEGENERACY_RTOL * spread
        if np.any(bad):
            k = int(np.argmax(bad))
            raise DegenerateGap(grid[k], (i, j))
        couplings[(i, j)] = numers[(i, j)] / gap

    return FrameTrack(
        spec=spec,
        grid=grid,
        energies=energies,
        pairs=pairs,
        couplings=couplings,
    )
