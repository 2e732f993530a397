"""Many-body layer for the stirred ring in the Tonks-Girardeau limit.

Hard-core bosons map onto free fermions, so the N-particle ground state
is the Slater determinant of the N lowest single-particle orbitals, the
time-evolved state is the determinant of the evolved orbitals, and the
magnitude of a many-body overlap reduces to

    |<Psi_A | Psi_B>| = |det(A^dagger B)|

with A, B the (dim x N) orbital matrices (Cauchy-Binet). Everything
heavy therefore happens at the single-particle level: one propagator
evolves the whole orbital stack at once. The evolutions and sweeps take
the ring model from the trajectory or timed control they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dynamics as _dynamics
from . import model as _model
from . import protocol as _protocol
from . import spectral as _spectral

DEFAULT_EPSILONS = (-0.1, -0.05, 0.0, 0.05, 0.1)


@dataclass(frozen=True)
class OrbitalStack:
    """N single-particle orbitals as columns of a (dim, N) matrix."""

    orbitals: np.ndarray
    t: float = 0.0

    @property
    def N(self) -> int:
        return self.orbitals.shape[1]

    def gram_error(self) -> float:
        gram = self.orbitals.conj().T @ self.orbitals
        return float(np.max(np.abs(gram - np.eye(self.N))))


@dataclass
class ManyBodyFidelityCurve:
    """Fidelity against one abscissa (duration or calibration error)."""

    abscissa: np.ndarray
    fidelity: np.ndarray
    N: int
    protocol: str
    label: str = "tf"
    failures: list = field(default_factory=list)


def _check_odd_n(spec: _model.ModelSpec, N: int):
    if spec.kind != _model.RING:
        raise ValueError("orbital stacks are defined for the ring model")
    if N % 2 == 0 or N < 1:
        raise ValueError("particle number N must be odd and positive")
    if N > 2 * spec.params.K - 1:
        raise ValueError("N exceeds the sensible range of the truncated basis")


def stack_at(spec: _model.ModelSpec, lam: float, N: int) -> OrbitalStack:
    """The N lowest orbitals of H(lam) in the deterministic gauge."""
    _check_odd_n(spec, N)
    _, vectors = np.linalg.eigh(_model.hamiltonian(spec, lam))
    vectors = _spectral.gauge_fix_columns(vectors)
    return OrbitalStack(orbitals=vectors[:, :N].astype(complex), t=0.0)


def initial_stack(spec: _model.ModelSpec, N: int) -> OrbitalStack:
    """Ground-state stack at the starting control value."""
    return stack_at(spec, spec.lambda_start, N)


def target_stack(spec: _model.ModelSpec, N: int) -> OrbitalStack:
    """Ground-state stack at the final control value."""
    return stack_at(spec, spec.lambda_end, N)


def evolve_stack(stack: OrbitalStack, control: _protocol.TimedControl,
                 n_steps: int | None = None) -> OrbitalStack:
    """Evolve every orbital with the same single-particle propagator."""
    result = _dynamics.evolve(control, stack.orbitals, n_steps=n_steps, n_save=2)
    return OrbitalStack(orbitals=result.final_state, t=control.t_f)


def tg_fidelity(evolved: OrbitalStack, target: OrbitalStack) -> float:
    """|det| of the orbital overlap matrix, the many-body overlap magnitude."""
    if evolved.orbitals.shape != target.orbitals.shape:
        raise ValueError("orbital stacks must share basis size and particle number")
    overlap = evolved.orbitals.conj().T @ target.orbitals
    return float(np.abs(np.linalg.det(overlap)))


def duration_sweep(Ns, traj: _protocol.NormalizedTrajectory, tf_list,
                   n_steps: int | None = None, workers: int = 1) -> list[ManyBodyFidelityCurve]:
    """Many-body fidelity to the final-control ground state versus t_f,
    one curve per filling N in ``Ns``. One stack of the largest N evolves;
    the leading N orbitals of it are the evolved stack of N."""
    spec = traj.spec
    for N in Ns:
        _check_odd_n(spec, N)
    tf_arr = np.asarray(list(tf_list), dtype=float)
    start = initial_stack(spec, max(Ns))
    targets = [target_stack(spec, N) for N in Ns]
    _, final = _dynamics._final_states(traj, start.orbitals, tf_arr, n_steps,
                                       pairs=[(N, N + 1) for N in Ns])

    def fidelities(t_f):
        orbitals = final(t_f)
        return [tg_fidelity(OrbitalStack(orbitals[:, : target.N], t_f), target)
                for target in targets]

    fidelity, failures = _dynamics._sweep(tf_arr, fidelities, workers, shape=(len(Ns),))
    return [ManyBodyFidelityCurve(abscissa=tf_arr, fidelity=fidelity[:, j], N=N,
                                  protocol=traj.kind, label="tf", failures=list(failures))
            for j, N in enumerate(Ns)]


def epsilon_sweep(N: int, traj: _protocol.NormalizedTrajectory, t_f: float,
                  epsilons=DEFAULT_EPSILONS, n_steps: int | None = None,
                  workers: int = 1) -> ManyBodyFidelityCurve:
    """Fidelity under a miscalibrated drive Omega_e(t) = Omega(t) (1 + eps).

    The drive then ends at lambda_end * (1 + eps), away from the target
    control for eps != 0, while the reference state stays the ground
    state at the nominal final control. eps = -1 freezes the control at
    zero; values below -1 are rejected.
    """
    spec = traj.spec
    _check_odd_n(spec, N)
    eps_arr = np.asarray(list(epsilons), dtype=float)
    if np.any(eps_arr < -1.0):
        raise ValueError("calibration errors must satisfy eps >= -1")
    if n_steps is None:
        n_steps = _dynamics.default_n_steps(traj, float(t_f), pair=(N, N + 1))
    start = initial_stack(spec, N)
    target = target_stack(spec, N)

    def fidelity_at(eps):
        control = _protocol.rescale(traj.scaled(1.0 + float(eps)), float(t_f))
        return tg_fidelity(evolve_stack(start, control, n_steps=n_steps), target)

    fidelity, failures = _dynamics._sweep(eps_arr, fidelity_at, workers)
    return ManyBodyFidelityCurve(abscissa=eps_arr, fidelity=fidelity, N=N,
                                 protocol=traj.kind, label="epsilon", failures=failures)
