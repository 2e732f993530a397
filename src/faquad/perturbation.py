"""First-order adiabatic-perturbation predictions for designed drives.

For a schedule with constant adiabaticity parameter c = c_tilde / t_f,
the leading transition amplitude into the partner level integrates to a
pure interference form, giving the excited-state probability

    |g|^2 = (4 c_tilde^2 / t_f^2) * sin^2(t_f * Phi / 2)

where Phi is the normalized gap integral over the trajectory clock,

    Phi = integral_0^1 omega_tilde(s) ds,  omega_tilde = gap(lambda_tilde(s)).

Zeros repeat at t_f = 2 pi k / Phi, so T = 2 pi / Phi is both the
revival period of the fidelity maxima and a rough minimal duration; the
prefactor 4 c_tilde^2 / t_f^2 is the upper envelope of the oscillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as _model
from . import protocol as _protocol
from . import spectral as _spectral


@dataclass(frozen=True)
class PerturbationPrediction:
    """Closed-form first-order prediction data for one level pair.

    ``approximate`` flags trajectories other than FAQUAD, whose
    adiabaticity parameter is not constant, making the closed form a
    rough guide only. ``r`` is the sign of coupling times gap at s = 0,
    fixing the orientation of the first-order amplitude.
    """

    phi: float
    c_tilde: float
    pair: tuple
    r: float = 1.0
    approximate: bool = False

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.phi

    def envelope(self, t_f):
        t = np.asarray(t_f, dtype=float)
        out = 4.0 * self.c_tilde**2 / t**2
        return float(out) if np.isscalar(t_f) else out


def phase_integral(traj: _protocol.NormalizedTrajectory) -> float:
    """Normalized gap integral Phi over the trajectory's natural clock.

    Trapezoid quadrature of the tracked pair gap on the trajectory's own
    (s, lambda) knots. Duration never enters: the same trajectory gives
    the same Phi at every t_f by construction.
    """
    spec, pair = traj.spec, traj.pair or (1, 2)
    if traj.kind == _protocol.CONSTANT:
        lam = float(traj.values[0])
        energies = np.linalg.eigvalsh(_model.hamiltonian(spec, lam))
        return float(energies[pair[1] - 1] - energies[pair[0] - 1])
    track = _spectral.track_frames(spec, traj.values, pairs=(pair,))
    gap = np.abs(track.gap(pair))
    return float(np.trapezoid(gap, traj.s_grid))


def predict(traj: _protocol.NormalizedTrajectory) -> PerturbationPrediction:
    """Bundle Phi, c_tilde and the sign factor for a designed trajectory."""
    spec, pair = traj.spec, tuple(traj.pair or (1, 2))
    if traj.c_tilde is None:
        raise ValueError("trajectory defines no adiabaticity constant c_tilde")
    phi = phase_integral(traj)
    track = _spectral.track_frames(spec, traj.values[:2], pairs=(pair,))
    r = 1.0 if track.coupling(pair)[0] * track.gap(pair)[0] >= 0 else -1.0
    return PerturbationPrediction(
        phi=phi,
        c_tilde=float(traj.c_tilde),
        pair=pair,
        r=r,
        approximate=traj.kind != _protocol.FAQUAD,
    )


def predicted_infidelity(pred: PerturbationPrediction, t_f):
    """(4 c_tilde^2 / t_f^2) sin^2(t_f Phi / 2); exact zeros at multiples
    of the period, envelope value midway between them."""
    t = np.asarray(t_f, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t_f must be positive")
    out = pred.envelope(t) * np.sin(t * pred.phi / 2.0) ** 2
    return float(out) if np.isscalar(t_f) else out
