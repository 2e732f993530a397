"""Hamiltonian families as matrix-valued functions of a scalar control.

Three models are provided, all real symmetric in their natural bases:

* ``two-level``: avoided-crossing qubit with bias control Delta, in units
  of the hopping J (hbar = 1, J = 1 by default).
* ``bose-hubbard-3``: two bosons on two sites, truncated to the three Fock
  states |2,0>, |1,1>, |0,2>, bias control Delta.
* ``ring``: one particle on a unit ring with a delta barrier of strength
  u0 and a stirring control Omega, expanded over plane waves k = -K..K.
  Energies are reported in units of E0 = 2 pi^2 hbar^2 / (M L^2). The
  plane waves |k| > K are downfolded into a rank-one barrier term (see
  ``ring_barrier``), so the truncated spectrum converges like K^-3
  instead of the 1/K of a plain cut. Every ring Hamiltonian is thus a
  diagonal plus the rank-one term of ``ring_barrier_factor``, the form
  that ``spectral.eigh`` diagonalises by its secular equation.

Each model also exposes its analytic control derivative dH/dlambda. It is
diagonal for every model, and is returned as that diagonal. The ring
additionally has an independent transcendental-equation solver
for its exact spectrum, used as a cross-check oracle by the tests.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import RootBracketError

SQRT2 = math.sqrt(2.0)

# Bernoulli numbers B_2, B_4, ..., B_20 of the polygamma asymptotic series.
_BERNOULLI_2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                 -3617 / 510, 43867 / 798, -174611 / 330)

TWO_LEVEL = "two-level"
BOSE_HUBBARD3 = "bose-hubbard-3"
RING = "ring"

KINDS = (TWO_LEVEL, BOSE_HUBBARD3, RING)


@dataclass(frozen=True)
class BiasParams:
    """Interaction U and hopping J of the bias-controlled models, two-level
    and bose-hubbard-3. J is the energy unit and defaults to 1."""

    U: float
    J: float = 1.0

    def __post_init__(self):
        if not (0 < self.U < math.inf and 0 < self.J < math.inf):
            raise ValueError("bias models require finite U > 0 and J > 0")


@dataclass(frozen=True)
class RingParams:
    """Stirred delta-barrier ring parameters.

    Parameters
    ----------
    u0:
        Dimensionless barrier strength U0*M*L/hbar^2, >= 0.
    K:
        Plane-wave truncation; the basis is k = -K..K (dimension 2K+1).
        Values >= 20 are needed for converged dynamics; smaller values
        are accepted for toy problems and oracles.
    """

    u0: float
    K: int = 40

    def __post_init__(self):
        if self.u0 < 0:
            raise ValueError("ring barrier strength u0 must be >= 0")
        if isinstance(self.K, bool) or not isinstance(self.K, numbers.Integral) or self.K < 1:
            raise ValueError("ring truncation K must be a positive integer")


@dataclass(frozen=True)
class ModelSpec:
    """A model family plus its control boundary values.

    ``lambda_start`` and ``lambda_end`` are the control values at
    normalized time s = 0 and s = 1. They must differ: every sweep
    protocol drives the control monotonically between them.
    """

    kind: str
    params: object
    lambda_start: float
    lambda_end: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not (np.isfinite(self.lambda_start) and np.isfinite(self.lambda_end)):
            raise ValueError("control boundary values must be finite")
        if self.lambda_start == self.lambda_end:
            raise ValueError("lambda_start and lambda_end must differ")

    @property
    def dim(self) -> int:
        if self.kind == TWO_LEVEL:
            return 2
        if self.kind == BOSE_HUBBARD3:
            return 3
        return 2 * self.params.K + 1


def two_level(U: float, delta_start: float, delta_end: float, J: float = 1.0) -> ModelSpec:
    """Two-level model with bias swept from delta_start to delta_end."""
    return ModelSpec(TWO_LEVEL, BiasParams(U=U, J=J), delta_start, delta_end)


def bose_hubbard3(U: float, delta_start: float, delta_end: float, J: float = 1.0) -> ModelSpec:
    """Three-state Bose-Hubbard dimer with bias swept between the given values."""
    return ModelSpec(BOSE_HUBBARD3, BiasParams(U=U, J=J), delta_start, delta_end)


def ring(u0: float, K: int = 40, omega_start: float = 0.0, omega_end: float = math.pi) -> ModelSpec:
    """Delta-barrier ring with stirring control swept between the given values."""
    if not (0.0 <= min(omega_start, omega_end) and max(omega_start, omega_end) <= math.pi):
        raise ValueError("declared stirring boundary values must lie in [0, pi]")
    return ModelSpec(RING, RingParams(u0=u0, K=K), omega_start, omega_end)


def _controls(lam) -> np.ndarray:
    """A control value, or a 1-d array of them, as a float array."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 1:
        raise ValueError("controls must be a scalar or a 1-d array")
    if not np.all(np.isfinite(lam)):
        raise ValueError("control value must be finite")
    return lam


def hamiltonian(spec: ModelSpec, lam) -> np.ndarray:
    """Hamiltonian matrix at control value ``lam``, or the (n, dim, dim)
    stack of them when ``lam`` is a 1-d array of n controls.

    Two-level (J units, hbar = 1)::

        [[0, -sqrt(2) J], [-sqrt(2) J, U - Delta]]

    Bose-Hubbard dimer in the basis |2,0>, |1,1>, |0,2>::

        [[U + Delta, -sqrt(2) J, 0],
         [-sqrt(2) J, 0, -sqrt(2) J],
         [0, -sqrt(2) J, U - Delta]]

    Ring in plane waves k = -K..K (E0 units): kinetic diagonal
    (k - Omega/2pi)^2 plus the downfolded delta barrier gamma v v^T of
    ``ring_barrier_factor``, which does not depend on Omega. The levels
    converge to the transcendental roots like K^-3.
    """
    lam = _controls(lam)
    p = spec.params
    diag = np.arange(spec.dim)
    if spec.kind == RING:
        k = np.arange(-p.K, p.K + 1, dtype=float)
        H = np.broadcast_to(ring_barrier(p), lam.shape + (spec.dim, spec.dim)).copy()
        H[..., diag, diag] += (k - lam[..., None] / (2.0 * math.pi)) ** 2
        return H
    h = -SQRT2 * p.J
    H = np.zeros(lam.shape + (spec.dim, spec.dim))
    H[..., diag[1:], diag[:-1]] = H[..., diag[:-1], diag[1:]] = h  # nearest-neighbour hopping
    if spec.kind == TWO_LEVEL:
        H[..., 1, 1] = p.U - lam
    else:
        H[..., 0, 0] = p.U + lam
        H[..., 2, 2] = p.U - lam
    return H


def _polygamma(n: int, x: float) -> float:
    """The polygamma function psi_n(x) for n >= 1 and x > 0.

    The recurrence psi_n(x) = psi_n(x + 1) + (-1)^(n+1) n! / x^(n+1)
    steps x up to y >= 30, where the asymptotic series

        psi_n(y) = (-1)^(n+1) [(n-1)!/y^n + n!/(2 y^(n+1))
                   + sum_k B_2k (2k+n-1)! / ((2k)! y^(2k+n))]

    is summed through B_20; at y >= 30 the first term left out is below
    1e-25 of the sum for n <= 3. All terms are added by ``math.fsum``.
    """
    steps = max(0, math.ceil(30.0 - x))
    y = x + steps
    terms = [math.factorial(n) / (x + j) ** (n + 1) for j in range(steps)]
    terms.append(math.factorial(n - 1) / y**n)
    terms.append(math.factorial(n) / (2.0 * y ** (n + 1)))
    terms += [b * math.perm(2 * k + n - 1, n - 1) / y ** (2 * k + n)
              for k, b in enumerate(_BERNOULLI_2K, start=1)]
    return (-1) ** (n + 1) * math.fsum(terms)


@functools.lru_cache(maxsize=16)
def ring_barrier_factor(params: RingParams) -> tuple[float, np.ndarray]:
    """Rank-one factor (gamma, v) of the ring's delta barrier gamma v v^T
    (E0 units), so that H(Omega) = diag((k - Omega/2pi)^2) + gamma v v^T.

    The barrier couples every pair of plane waves with the same weight
    g = u0/(2 pi^2), so a plain cut at |k| <= K solves the secular
    equation 1 = g sum_{|k|<=K} 1/(E - (k - a)^2), a = Omega/(2 pi), and
    drops a tail of order 1/K. Downfolding the plane waves |k| > K onto
    the kept basis replaces g by the energy-dependent coupling

        g / (1 + g tau + g sigma E + O(K^-5)),
        tau = 2 psi_1(K+1),  sigma = psi_3(K+1) / 3,

    with psi_n the polygamma functions (psi_1 the trigamma). They are
    evaluated in the package (``_polygamma``): the recurrence carries
    K + 1 up to at least 30, where their asymptotic series is summed. For
    K < 400 this agrees with ``scipy.special.polygamma`` to 5e-16
    relative. The rank-one matrix

        beta = -g sigma / (2 (1 + g tau)),
        gamma = g / (1 + g tau - 2 g beta N),  N = 2K + 1,
        v_k = sqrt(1 + 2 beta k^2),

    reproduces that coupling to first order in E. The tail terms it
    neglects depend on Omega and are O(K^-3), so the levels converge to
    the transcendental roots like K^-3. The term is independent of
    Omega, which keeps dH/dOmega diagonal, and exactly zero for u0 = 0
    (gamma = 0). It is cached per parameter set; v is returned read-only.
    """
    g = params.u0 / (2.0 * math.pi**2)
    K = params.K
    k = np.arange(-K, K + 1, dtype=float)
    tau = 2.0 * _polygamma(1, K + 1.0)
    sigma = _polygamma(3, K + 1.0) / 3.0
    beta = -g * sigma / (2.0 * (1.0 + g * tau))
    gamma = g / (1.0 + g * tau - 2.0 * g * beta * (2 * K + 1))
    v = np.sqrt(1.0 + 2.0 * beta * k * k)
    v.setflags(write=False)
    return gamma, v


@functools.lru_cache(maxsize=16)
def ring_barrier(params: RingParams) -> np.ndarray:
    """Delta-barrier part of the ring Hamiltonian, the matrix gamma v v^T
    of ``ring_barrier_factor``. It is cached per parameter set and
    returned read-only."""
    gamma, v = ring_barrier_factor(params)
    barrier = gamma * np.outer(v, v)
    barrier.setflags(write=False)
    return barrier


def d_hamiltonian_d_lambda(spec: ModelSpec, lam) -> np.ndarray:
    """Analytic derivative of ``hamiltonian`` with respect to the control.
    It is diagonal for every built-in model and is returned as its
    diagonal: shape (dim,) for one control, (n, dim) for a 1-d array of n
    controls."""
    lam = _controls(lam)
    if spec.kind == TWO_LEVEL:
        values = [0.0, -1.0]
    elif spec.kind == BOSE_HUBBARD3:
        values = [1.0, 0.0, -1.0]
    else:
        k = np.arange(-spec.params.K, spec.params.K + 1, dtype=float)
        values = -(k - lam[..., None] / (2.0 * math.pi)) / math.pi
    return np.broadcast_to(values, lam.shape + (spec.dim,)).astype(float)


def _cot(x: float) -> float:
    return math.cos(x) / math.sin(x)


def ring_alpha_roots(omega: float, u0: float, count: int) -> np.ndarray:
    """Exact ring spectrum through the transcendental quantization condition.

    Solves, for the first ``count`` levels ordered by ascending energy,

        4 pi alpha / u0 = cot(pi alpha - Omega/2) + cot(pi alpha + Omega/2)

    whose solutions alpha give energies E = E0 alpha^2. Roots are
    bracketed between consecutive poles of the cotangents; coincident
    (double) poles are themselves exact eigenvalues, the odd states with
    a node at the barrier, and are emitted directly. For u0 = 0 the
    closed-form limit alpha_n = n - Omega/(2 pi) is returned, ordered by
    energy with the positive branch first on ties.

    Parameters
    ----------
    omega:
        Stirring control, 0 <= omega <= pi.
    u0:
        Barrier strength, >= 0.
    count:
        Number of levels requested.

    Returns
    -------
    numpy.ndarray
        ``count`` values of alpha, energies ``alpha**2`` ascending.
    """
    if not 0.0 <= omega <= math.pi:
        raise ValueError("omega must lie in [0, pi]")
    if u0 < 0:
        raise ValueError("u0 must be >= 0")
    if count < 1:
        raise ValueError("count must be >= 1")

    if u0 == 0.0:
        ns = np.arange(-(count + 2), count + 3)
        alphas = ns - omega / (2.0 * math.pi)
        order = sorted(range(len(alphas)), key=lambda i: (alphas[i] ** 2, -alphas[i]))
        return np.array([alphas[i] for i in order[:count]])

    from scipy.optimize import brentq  # only this oracle needs scipy.optimize

    tol = 1e-9

    def g(a: float) -> float:
        return _cot(math.pi * a - omega / 2.0) + _cot(math.pi * a + omega / 2.0) - 4.0 * math.pi * a / u0

    # Positive poles of the cotangents: a = m -/+ omega/(2 pi). A double
    # pole (both families coincide) is an exact eigenvalue; a zero pole
    # only bounds the first bracketing interval.
    m_max = count + 3
    raw = []
    for m in range(0, m_max + 1):
        for p in (m + omega / (2.0 * math.pi), m - omega / (2.0 * math.pi)):
            if p > -tol:
                raw.append(max(p, 0.0))
    raw.sort()
    poles = []
    pinned = []
    i = 0
    while i < len(raw):
        if i + 1 < len(raw) and raw[i + 1] - raw[i] < tol:
            # double pole
            if raw[i] > tol:
                pinned.append(raw[i])
            poles.append(raw[i])
            i += 2
        else:
            poles.append(raw[i])
            i += 1

    roots = list(pinned)
    for a, b in zip(poles[:-1], poles[1:]):
        eps = (b - a) * 1e-10
        lo, hi = a + eps, b - eps
        try:
            glo, ghi = g(lo), g(hi)
        except ZeroDivisionError as exc:  # pragma: no cover - merged above
            raise RootBracketError((a, b), "pole inside bracketing interval") from exc
        if glo == 0.0:
            roots.append(lo)
            continue
        if ghi == 0.0:
            roots.append(hi)
            continue
        if glo * ghi > 0.0:
            # No sign change: this interval holds no root (the interval
            # below the first pole for omega > 0).
            continue
        roots.append(brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16))

    roots.sort()
    if len(roots) < count:
        raise RootBracketError(len(roots), f"only {len(roots)} roots found, {count} requested")
    return np.array(roots[:count])

