"""Many-body layer for the stirred ring in the Tonks-Girardeau limit.

Hard-core bosons map onto free fermions, so the N-particle ground state
is the Slater determinant of the N lowest single-particle orbitals, the
time-evolved state is the determinant of the evolved orbitals, and the
magnitude of a many-body overlap reduces to

    |<Psi_A | Psi_B>| = |det(A^dagger B)|

with A, B the (dim x N) orbital matrices (Cauchy-Binet). Everything
heavy therefore happens at the single-particle level: one propagator
evolves the whole orbital stack at once. An orbital stack is a plain
(dim, N) complex array whose columns are the N orbitals. The evolutions
and sweeps take the ring model from the trajectory or timed control
they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dynamics as _dynamics
from . import model as _model
from . import protocol as _protocol
from . import spectral as _spectral

DEFAULT_EPSILONS = (-0.1, -0.05, 0.0, 0.05, 0.1)


@dataclass
class ManyBodyFidelityCurve:
    """Fidelity against one abscissa (duration or calibration error)."""

    abscissa: np.ndarray
    fidelity: np.ndarray
    N: int
    protocol: str
    label: str = "tf"
    failures: list = field(default_factory=list)
    # Adiabatic levels stepped and their leakage, for a frame pass.
    frame_levels: int | None = None
    frame_leakage: float | None = None


def _check_odd_n(spec: _model.ModelSpec, N: int):
    if spec.kind != _model.RING:
        raise ValueError("orbital stacks are defined for the ring model")
    if N % 2 == 0 or N < 1:
        raise ValueError("particle number N must be odd and positive")
    if N > 2 * spec.params.K - 1:
        raise ValueError("N exceeds the sensible range of the truncated basis")


def stack_at(spec: _model.ModelSpec, lam: float, N: int) -> np.ndarray:
    """The N lowest orbitals of H(lam) in the gauge of ``spectral.frames``,
    as the columns of a (dim, N) complex array."""
    _check_odd_n(spec, N)
    return _spectral.frames(spec, [lam])[1][0, :, :N].astype(complex)


def evolve_stack(orbitals: np.ndarray, control: _protocol.TimedControl,
                 n_steps: int | None = None) -> np.ndarray:
    """Evolve every column of a (dim, N) orbital stack with the same
    single-particle propagator; returns the evolved (dim, N) stack."""
    return _dynamics.evolve(control, orbitals, n_steps=n_steps, n_save=2).final_state


def tg_fidelity(evolved: np.ndarray, target: np.ndarray) -> float:
    """|det| of the orbital overlap matrix of two (dim, N) stacks, the
    many-body overlap magnitude."""
    if evolved.shape != target.shape:
        raise ValueError("orbital stacks must share basis size and particle number")
    return float(np.abs(np.linalg.det(evolved.conj().T @ target)))


def duration_sweep(Ns, traj: _protocol.NormalizedTrajectory, tf_list,
                   n_steps: int | None = None, workers: int = 1) -> list[ManyBodyFidelityCurve]:
    """Many-body fidelity to the final-control ground state versus t_f,
    one curve per filling N in ``Ns``. One stack of the largest N evolves;
    the leading N orbitals of it are the evolved stack of N."""
    spec = traj.spec
    if len(Ns) == 0:
        raise ValueError("a duration sweep needs at least one filling N")
    for N in Ns:
        _check_odd_n(spec, N)
    tf_arr = _dynamics._durations(tf_list)
    start = stack_at(spec, spec.lambda_start, max(Ns))
    targets = [stack_at(spec, spec.lambda_end, N) for N in Ns]
    _, final, (levels, leakage) = _dynamics._final_states(traj, start, tf_arr, n_steps,
                                                          pairs=[(N, N + 1) for N in Ns])

    def fidelities(t_f):
        orbitals = final(t_f)
        return [tg_fidelity(orbitals[:, : target.shape[1]], target) for target in targets]

    fidelity, failures = _dynamics._sweep(tf_arr, fidelities, workers, shape=(len(Ns),))
    return [ManyBodyFidelityCurve(abscissa=tf_arr, fidelity=fidelity[:, j], N=N,
                                  protocol=traj.kind, label="tf", failures=list(failures),
                                  frame_levels=levels, frame_leakage=leakage)
            for j, N in enumerate(Ns)]


def epsilon_sweep(N: int, traj: _protocol.NormalizedTrajectory, t_f: float,
                  epsilons=DEFAULT_EPSILONS, n_steps: int | None = None,
                  workers: int = 1) -> ManyBodyFidelityCurve:
    """Fidelity under a miscalibrated drive Omega_e(t) = Omega(t) (1 + eps).

    The drive then ends at lambda_end * (1 + eps), away from the target
    control for eps != 0, while the reference state stays the ground
    state at the nominal final control. eps = -1 freezes the control at
    zero; an empty list and values below -1 or not finite are rejected.
    Each point's final stack comes from ``dynamics._final_states``, whose
    frame pass gives ``frame_levels`` and ``frame_leakage``: the largest
    over the points, or None where every point took the tree product.
    """
    if not (np.isfinite(t_f) and t_f > 0):
        raise ValueError("t_f must be positive and finite")
    spec = traj.spec
    _check_odd_n(spec, N)
    eps_arr = np.asarray(list(epsilons), dtype=float)
    if eps_arr.size == 0:
        raise ValueError("an epsilon sweep needs at least one calibration error")
    if not np.all(np.isfinite(eps_arr) & (eps_arr >= -1.0)):
        raise ValueError("calibration errors must be finite and satisfy eps >= -1")
    if n_steps is None:
        n_steps = _dynamics.default_n_steps(traj, float(t_f), pair=(N, N + 1))
    start = stack_at(spec, spec.lambda_start, N)
    target = stack_at(spec, spec.lambda_end, N)

    tf_arr = np.array([float(t_f)])
    frames = []

    def fidelity_at(eps):
        _, final, frame = _dynamics._final_states(traj.scaled(1.0 + float(eps)), start,
                                                  tf_arr, n_steps)
        frames.append(frame)
        return tg_fidelity(final(tf_arr[0]), target)

    fidelity, failures = _dynamics._sweep(eps_arr, fidelity_at, workers)
    return ManyBodyFidelityCurve(abscissa=eps_arr, fidelity=fidelity, N=N,
                                 protocol=traj.kind, label="epsilon", failures=failures,
                                 frame_levels=max((f[0] for f in frames if f[0]), default=None),
                                 frame_leakage=max((f[1] for f in frames if f[0]), default=None))
