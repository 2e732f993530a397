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

from . import protocol as _protocol
from . import spectral as _spectral


@dataclass(frozen=True)
class PerturbationPrediction:
    """The two numbers of a design that fix its first-order prediction:
    the gap integral ``phi`` and the scaled adiabaticity constant
    ``c_tilde``. The closed form is exact to first order for FAQUAD,
    whose adiabaticity parameter is constant, and a rough guide for the
    other designs."""

    phi: float
    c_tilde: float

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.phi

    def envelope(self, t_f):
        t = np.asarray(t_f, dtype=float)
        out = 4.0 * self.c_tilde**2 / t**2
        return float(out) if np.isscalar(t_f) else out


def phase_integral(traj: _protocol.NormalizedTrajectory) -> float:
    """Normalized gap integral Phi over the trajectory's natural clock.

    Trapezoid quadrature of |gap| on the trajectory's own (s, lambda)
    knots. A designed trajectory carries its pair's gap there, so this
    diagonalises nothing; any other (linear, constant, scaled) gets the
    gap of its pair, or of (1, 2), from the eigenvalues at its knots.
    Duration never enters: the same trajectory gives the same Phi at
    every t_f by construction.
    """
    gap = traj.gap
    if gap is None:
        i, j = _spectral._canonical_pair(traj.pair or (1, 2), traj.spec.dim)
        energies = _spectral.eigh(traj.spec, traj.values)[0]
        gap = energies[:, j - 1] - energies[:, i - 1]
    return float(np.trapezoid(np.abs(gap), traj.s_grid))


def predict(traj: _protocol.NormalizedTrajectory) -> PerturbationPrediction:
    """Phi and c_tilde of a trajectory that defines c_tilde."""
    if traj.c_tilde is None:
        raise ValueError("trajectory defines no adiabaticity constant c_tilde")
    return PerturbationPrediction(phi=phase_integral(traj), c_tilde=float(traj.c_tilde))


def predicted_infidelity(pred: PerturbationPrediction, t_f):
    """(4 c_tilde^2 / t_f^2) sin^2(t_f Phi / 2); exact zeros at multiples
    of the period, envelope value midway between them."""
    t = np.asarray(t_f, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0)):
        raise ValueError("t_f must be finite and positive")
    out = pred.envelope(t) * np.sin(t * pred.phi / 2.0) ** 2
    return float(out) if np.isscalar(t_f) else out
