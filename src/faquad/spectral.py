"""Eigen-decomposition along a control grid with continuous eigenvectors.

All model Hamiltonians are real symmetric, so eigenvectors can be kept
real and made continuous along a grid by fixing the sign of each column
against the previous grid point. ``eigh`` is the one eigensolver, and
this the one module that assembles H: the midpoint tables and step rule
of ``dynamics``, ``frames``, the gap integral of ``perturbation`` and the
``spectrum`` subcommand read their energies from it. ``frames`` is the one routine that applies the sign
gauge; the tracked frames, single eigenstates, the orbital stacks of
``tg`` and the adiabatic projection of ``dynamics`` all read their
eigenvectors from it. Level couplings are computed with the off-diagonal
Hellmann-Feynman identity

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
then the Loewner vectors), reached through the function capsules of
``scipy.linalg.cython_lapack``: O(dim^2) per matrix against O(dim^3) for
a dense solver. Controls where two poles tie (Omega a multiple of pi)
and a barrier too weak to move the poles (u0 = 0) go to
``numpy.linalg.eigh``, which is exact there; ``POLE_TIE_RTOL`` states
the tolerance.

Levels are indexed 1-based throughout the public interface: pair (1, 2)
means the ground state and the first excited state.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cython_lapack as _cython_lapack

from . import model as _model
from .errors import DegenerateGap, FaquadError

DEGENERACY_RTOL = 1e-12
# Two ring poles closer than this times the largest pole count as a tie,
# and so does a barrier weight rho below it: the deflation tolerance of
# LAPACK's divide and conquer (dlaed2, dlaed8), below which LAPACK itself
# hands neither to its secular solver.
POLE_TIE_RTOL = 8.0 * np.finfo(float).eps

# The arguments of dlaed9(k, kstart, kstop, n, d, q, ldq, rho, dlamda, w, s,
# lds, info), all pointers, as scipy.linalg.cython_lapack declares them.
_DLAED9_ARGS = ("int", "int", "int", "int", "double", "double", "int",
                "double", "double", "double", "double", "int", "int")


def _dlaed9_handle(capsules):
    """LAPACK's ``dlaed9`` from a table of ``cython_lapack`` function
    capsules, as a ctypes function of 13 raw addresses. The capsule's
    signature string must read void (...) with the pointers of
    ``_DLAED9_ARGS``, "double" being cython_lapack's ``d`` typedef; a
    missing routine or another signature raises FaquadError."""
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


# Resolved once; ctypes releases the GIL during each call, so the threads
# of a sweep solve their matrices concurrently. Every call gets its own
# buffers (see ``_ring_eigh``).
_DLAED9 = _dlaed9_handle(_cython_lapack.__pyx_capi__)


@dataclass(frozen=True)
class FrameTrack:
    """Sign-fixed eigendecompositions along a strictly monotone control grid.

    ``energies`` has shape (n_grid, dim), ``vectors`` (n_grid, dim, dim)
    with eigenvector columns, and ``couplings`` maps a 1-based level pair
    (i, j) with i < j to an array of <phi_i|d_lambda phi_j> over the grid.
    """

    spec: _model.ModelSpec
    grid: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
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


def sign_fix(vectors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so their overlap with ``reference`` columns
    is positive. Columns with zero overlap are left unchanged."""
    overlaps = np.einsum("ij,ij->j", reference, vectors)
    signs = np.where(overlaps < 0.0, -1.0, 1.0)
    return vectors * signs


def gauge_fix_columns(vectors: np.ndarray) -> np.ndarray:
    """Deterministic overall sign: the largest-magnitude component of each
    column is made positive."""
    amax = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[amax, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigh(spec: _model.ModelSpec, lams):
    """Ascending energies (n, dim) and eigenvector columns (n, dim, dim)
    of H at each control of the 1-d array ``lams``, in no fixed sign
    gauge. The ring is solved by its secular equation (module docstring),
    the few-level models and the ring's tie controls by
    ``numpy.linalg.eigh``.

    Raises FaquadError, naming the control, if the secular solver fails
    or returns a value that is not finite.
    """
    lams = _model._controls(lams)
    if lams.ndim != 1 or len(lams) == 0:
        raise ValueError("controls must be a non-empty 1-d array")
    if spec.kind != _model.RING:
        return np.linalg.eigh(_model.hamiltonian(spec, lams))
    return _ring_eigh(spec, lams)


def _ring_eigh(spec, lams):
    """``eigh`` of the ring: poles sorted per control, ``dlaed9`` writing
    the energies straight into the result and the vectors into a buffer
    whose rows are put back into k order."""
    dim = spec.dim
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

    energies = np.empty((len(lams), dim))
    vectors = np.empty((len(lams), dim, dim))
    if np.any(tie):
        energies[tie], vectors[tie] = np.linalg.eigh(_model.hamiltonian(spec, lams[tie]))
    # dlaed9 reads and writes through these addresses only while it runs;
    # each array stays referenced by a local name until the loop ends.
    ints = np.array([dim, 1, dim, dim, dim, dim, 0], dtype=np.intc)  # k kstart kstop n ldq lds info
    scalars = np.array([rho])
    work = np.empty((dim, dim))
    columns = np.empty((dim, dim))  # Fortran S: row j holds eigenvector j, pole order
    i_k, i_start, i_stop, i_n, i_ldq, i_lds, i_info = (
        ints.ctypes.data + ints.itemsize * j for j in range(7))
    e_base, p_base, w_base, q, rho_at, s = (
        a.ctypes.data for a in (energies, poles, weights, work, scalars, columns))
    row = dim * energies.itemsize
    for n in np.flatnonzero(~tie).tolist():
        _DLAED9(i_k, i_start, i_stop, i_n, e_base + n * row, q, i_ldq, rho_at,
                p_base + n * row, w_base + n * row, s, i_lds, i_info)
        if ints[6] != 0:
            raise FaquadError(f"ring secular solver failed (LAPACK dlaed9 info {int(ints[6])}) "
                              f"at control {float(lams[n])!r}")
        vectors[n, order[n]] = columns.T
    # NaN and inf survive the sums.
    bad = ~np.isfinite(energies.sum(axis=1) + vectors.sum(axis=(1, 2)))
    if np.any(bad):
        raise FaquadError("ring secular solver returned a value that is not finite "
                          f"at control {float(lams[np.argmax(bad)])!r}")
    return energies, vectors


def frames(spec: _model.ModelSpec, lams):
    """Energies (n, dim) and eigenvector columns (n, dim, dim) of H at each
    control of the 1-d array ``lams``, from ``eigh``, in the package's sign
    gauge: the columns at the first control follow ``gauge_fix_columns``,
    and each later column has a nonnegative overlap with the one before
    it."""
    energies, vectors = eigh(spec, lams)
    vectors[0] = gauge_fix_columns(vectors[0])
    for k in range(1, len(lams)):
        vectors[k] = sign_fix(vectors[k], vectors[k - 1])
    return energies, vectors


def eigenstate(spec: _model.ModelSpec, lam: float, level: int = 1) -> np.ndarray:
    """Instantaneous eigenvector (1-based level) at one control value, in
    the gauge of ``frames``."""
    return frames(spec, [lam])[1][0, :, level - 1]


def track_frames(spec: _model.ModelSpec, grid, pairs=((1, 2),)) -> FrameTrack:
    """Diagonalize along ``grid`` with continuity sign-fixing and compute
    the requested pair couplings.

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
    energies, vectors = frames(spec, grid)
    # dH/dlambda is diagonal, so the coupling numerator is an O(dim)
    # contraction per grid point.
    dh = _model.d_hamiltonian_d_lambda(spec, grid)

    couplings = {}
    spread = np.maximum(energies[:, -1] - energies[:, 0], 1.0)
    for (i, j) in pairs:
        gap = energies[:, j - 1] - energies[:, i - 1]
        bad = np.abs(gap) < DEGENERACY_RTOL * spread
        if np.any(bad):
            k = int(np.argmax(bad))
            raise DegenerateGap(grid[k], (i, j))
        numer = np.einsum("nd,nd->n", vectors[:, :, i - 1] * dh, vectors[:, :, j - 1])
        couplings[(i, j)] = numer / gap

    return FrameTrack(
        spec=spec,
        grid=grid,
        energies=energies,
        vectors=vectors,
        pairs=pairs,
        couplings=couplings,
    )
