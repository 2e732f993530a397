"""Eigen-decomposition along a control grid with continuous eigenvectors.

All model Hamiltonians are real symmetric, so eigenvectors can be kept
real and made continuous along a grid by fixing the sign of each column
against the previous grid point. ``frames`` is the one routine that
diagonalizes and applies this sign gauge; the tracked frames, single
eigenstates, the orbital stacks of ``tg`` and the adiabatic projection of
``dynamics`` all read their eigenvectors from it. Level couplings are
computed with the off-diagonal Hellmann-Feynman identity

    <phi_i | d/dlambda phi_j> = <phi_i | dH/dlambda | phi_j> / (E_j - E_i)

which is exact at each grid point and needs no differencing.

Levels are indexed 1-based throughout the public interface: pair (1, 2)
means the ground state and the first excited state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as _model
from .errors import DegenerateGap

DEGENERACY_RTOL = 1e-12


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

    def __len__(self) -> int:
        return len(self.grid)


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


def frames(spec: _model.ModelSpec, lams):
    """Energies (n, dim) and eigenvector columns (n, dim, dim) of H at each
    control of the 1-d array ``lams``, in the package's sign gauge: the
    columns at the first control follow ``gauge_fix_columns``, and each
    later column has a nonnegative overlap with the one before it."""
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or len(lams) == 0:
        raise ValueError("controls must be a non-empty 1-d array")
    energies, vectors = np.linalg.eigh(_model.hamiltonian(spec, lams))
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
