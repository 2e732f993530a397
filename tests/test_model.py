"""Hamiltonian construction, analytic derivatives, and the ring's
transcendental spectrum oracle."""

import math

import numpy as np
import pytest

from faquad import model

E0_TOL = 1e-12


def _specs():
    return [
        model.two_level(U=22.3, delta_start=66.7, delta_end=0.0),
        model.bose_hubbard3(U=33.45, delta_start=100.0, delta_end=0.0),
        model.ring(u0=0.5, K=7),
    ]


def test_two_level_matrix_on_resonance():
    spec = model.two_level(U=22.3, delta_start=66.7, delta_end=0.0)
    H = model.hamiltonian(spec, 22.3)
    expected = np.array([[0.0, -math.sqrt(2)], [-math.sqrt(2), 0.0]])
    assert np.array_equal(H, expected)


def test_bose_hubbard_matrix_entries():
    spec = model.bose_hubbard3(U=22.3, delta_start=66.7, delta_end=-66.7)
    H = model.hamiltonian(spec, 10.0)
    h = -math.sqrt(2)
    assert H[0, 0] == 32.3 and H[1, 1] == 0.0 and H[2, 2] == 12.3
    assert H[0, 1] == h and H[1, 2] == h and H[0, 2] == 0.0


def test_ring_matrix_structure():
    # H = kinetic diagonal + barrier; the barrier is the downfolded
    # rank-one term gamma v v^T, even in k and independent of Omega.
    spec = model.ring(u0=0.5, K=3)
    k = np.arange(-3, 4)
    barrier = model.ring_barrier(spec.params)
    assert barrier.shape == (7, 7)
    for lam in (0.0, 0.7, math.pi):
        H = model.hamiltonian(spec, lam)
        assert np.array_equal(H, barrier + np.diag((k - lam / (2 * math.pi)) ** 2))
    assert np.array_equal(barrier, barrier.T)
    assert np.array_equal(barrier, barrier[::-1, ::-1])
    sv = np.linalg.svd(barrier, compute_uv=False)
    assert sv[1] <= 1e-15 * sv[0]

    free = model.ring(u0=0.0, K=3)
    assert not np.any(model.ring_barrier(free.params))
    assert np.array_equal(model.hamiltonian(free, 0.7), np.diag((k - 0.7 / (2 * math.pi)) ** 2))

    # gamma v_k v_l -> u0/(2 pi^2): to leading order gamma = g (1 - 2g/K)
    # and v_K^2 = 1 - 2g/(3K), so no element strays further than 3 g^2/K
    g = 0.5 / (2.0 * math.pi**2)
    devs = []
    for K in (3, 30, 300):
        dev = float(np.max(np.abs(model.ring_barrier(model.RingParams(u0=0.5, K=K)) - g)))
        assert dev <= 3.0 * g * g / K
        devs.append(dev)
    assert devs[0] > devs[1] > devs[2]


def test_hamiltonian_symmetric_across_controls():
    rng = np.random.default_rng(7)
    for spec in _specs():
        lams = rng.uniform(min(spec.lambda_start, spec.lambda_end),
                           max(spec.lambda_start, spec.lambda_end), size=50)
        for lam in lams:
            H = model.hamiltonian(spec, lam)
            assert np.array_equal(H, H.T)


def test_control_derivative_matches_finite_difference():
    rng = np.random.default_rng(11)
    for spec in _specs():
        span = abs(spec.lambda_end - spec.lambda_start)
        for lam in rng.uniform(min(spec.lambda_start, spec.lambda_end),
                               max(spec.lambda_start, spec.lambda_end), size=5):
            h = 1e-6 * max(span, 1.0)
            fd = (model.hamiltonian(spec, lam + h) - model.hamiltonian(spec, lam - h)) / (2 * h)
            exact = model.d_hamiltonian_d_lambda(spec, lam)
            assert exact.shape == (spec.dim,)
            scale = max(np.max(np.abs(exact)), 1.0)
            assert np.max(np.abs(np.diagonal(fd) - exact)) <= 1e-6 * scale
            # The derivative is diagonal, as the returned shape assumes.
            assert np.array_equal(fd, np.diag(np.diagonal(fd)))


def test_dim_property():
    assert model.two_level(U=1.0, delta_start=1.0, delta_end=0.0).dim == 2
    assert model.bose_hubbard3(U=1.0, delta_start=1.0, delta_end=0.0).dim == 3
    assert model.ring(u0=0.5, K=40).dim == 81


def test_constructor_validation():
    with pytest.raises(ValueError):
        model.two_level(U=-1.0, delta_start=1.0, delta_end=0.0)
    with pytest.raises(ValueError):
        model.two_level(U=1.0, J=0.0, delta_start=1.0, delta_end=0.0)
    with pytest.raises(ValueError):
        model.two_level(U=1.0, delta_start=1.0, delta_end=1.0)
    for build in (model.two_level, model.bose_hubbard3):
        for U, J in ((-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.inf),
                     (math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="finite U > 0 and J > 0"):
                build(U=U, J=J, delta_start=1.0, delta_end=0.0)
    with pytest.raises(ValueError):
        model.ring(u0=-0.5)
    with pytest.raises(ValueError):
        model.ring(u0=0.5, K=0)
    for K in (40.0, True, "40"):
        # Only integer types: a whole-valued float would make dim a float.
        with pytest.raises(ValueError):
            model.ring(u0=0.5, K=K)
    with pytest.raises(ValueError):
        model.ring(u0=0.5, omega_end=3.5)
    with pytest.raises(ValueError):
        model.hamiltonian(model.ring(u0=0.5), float("nan"))


@pytest.mark.parametrize("spec", [
    model.two_level(U=22.3, delta_start=66.7, delta_end=0.0),
    model.bose_hubbard3(U=22.3, delta_start=66.7, delta_end=-66.7),
    model.ring(u0=0.5, K=12),
], ids=["two-level", "bose-hubbard-3", "ring-K12"])
def test_array_of_controls_builds_the_stacked_matrices(spec):
    lams = np.array([0.0, math.pi, 1.1 * math.pi])
    for build, shape in ((model.hamiltonian, (3, spec.dim, spec.dim)),
                         (model.d_hamiltonian_d_lambda, (3, spec.dim))):
        stack = build(spec, lams)
        assert stack.shape == shape
        assert np.array_equal(stack, np.stack([build(spec, lam) for lam in lams]))
        for bad in (float("nan"), np.array([0.0, np.inf]), np.array([np.nan])):
            with pytest.raises(ValueError):
                build(spec, bad)


def test_free_ring_closed_form_spectrum():
    # Without the barrier the matrix is diagonal and the quantization
    # condition degenerates to alpha_n = n - Omega/(2 pi).
    for omega in (0.0, math.pi / 3, math.pi):
        spec = model.ring(u0=0.0, K=6)
        energies = np.linalg.eigvalsh(model.hamiltonian(spec, omega))
        alphas = model.ring_alpha_roots(omega, 0.0, 7)
        assert np.max(np.abs(np.sort(alphas**2) - energies[:7])) <= E0_TOL


def test_free_ring_tie_breaking_prefers_positive_branch():
    alphas = model.ring_alpha_roots(0.0, 0.0, 5)
    assert alphas[0] == 0.0
    assert alphas[1] == 1.0 and alphas[2] == -1.0
    assert alphas[3] == 2.0 and alphas[4] == -2.0


def test_free_ring_degeneracies():
    # Omega = 0 pairs k with -k; Omega = pi pairs k with 1 - k.
    e0 = np.linalg.eigvalsh(model.hamiltonian(model.ring(u0=0.0, K=8), 0.0))
    assert abs(e0[1] - e0[2]) <= E0_TOL
    assert abs(e0[3] - e0[4]) <= E0_TOL
    epi = np.linalg.eigvalsh(model.hamiltonian(model.ring(u0=0.0, K=8), math.pi))
    assert abs(epi[0] - epi[1]) <= E0_TOL
    assert abs(epi[2] - epi[3]) <= E0_TOL


def test_ring_roots_satisfy_quantization_condition():
    omega, u0 = 0.7, 4.0
    alphas = model.ring_alpha_roots(omega, u0, 6)
    assert np.all(np.diff(alphas**2) > 0)
    for a in alphas:
        lhs = 4.0 * math.pi * a / u0
        rhs = (math.cos(math.pi * a - omega / 2) / math.sin(math.pi * a - omega / 2)
               + math.cos(math.pi * a + omega / 2) / math.sin(math.pi * a + omega / 2))
        # Pinned double-pole roots make both cotangents blow up in
        # opposite directions; they are exact by construction and are
        # excluded from the residual check.
        near_pole = min(abs(a - round(a - omega / (2 * math.pi)) - omega / (2 * math.pi)),
                        abs(a - round(a + omega / (2 * math.pi)) + omega / (2 * math.pi)))
        if near_pole > 1e-6:
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_ring_double_poles_are_pinned_eigenvalues():
    # At Omega = 0 both cotangent pole families coincide at integers;
    # those states have a node at the barrier and stay exact.
    alphas = model.ring_alpha_roots(0.0, 4.0, 5)
    assert 1.0 in alphas.tolist()
    assert 2.0 in alphas.tolist()


def test_ring_root_count_and_validation():
    with pytest.raises(ValueError):
        model.ring_alpha_roots(-0.1, 1.0, 3)
    with pytest.raises(ValueError):
        model.ring_alpha_roots(0.5, -1.0, 3)
    with pytest.raises(ValueError):
        model.ring_alpha_roots(0.5, 1.0, 0)
    assert len(model.ring_alpha_roots(0.5, 1.0, 9)) == 9
    assert len(model.ring_alpha_roots(0.5, 1.0, 4) ** 2) == 4


def test_ring_matrix_matches_roots_at_k60():
    # The delta barrier couples every pair of plane waves equally; a
    # plain cut at K = 60 would sit 2.4e-3 E0 off. The downfolded tail
    # brings the residual down like K^-3.
    worst = 0.0
    for omega in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        spec = model.ring(u0=4.0, K=60)
        matrix = np.linalg.eigvalsh(model.hamiltonian(spec, omega))[:5]
        exact = model.ring_alpha_roots(omega, 4.0, 5) ** 2
        worst = max(worst, float(np.max(np.abs(matrix - exact))))
    assert worst <= 1e-4, f"worst energy residual {worst:.3e} E0 exceeds 1e-4 E0"


def test_ring_truncation_insensitivity_k40_to_k60():
    # With the downfolded tail the lowest levels at u0 = 4 barely move
    # between K = 40 and 60 (a plain cut moves them by 1.2e-3 E0).
    worst = 0.0
    for omega in (0.0, math.pi / 2, math.pi):
        e40 = np.linalg.eigvalsh(model.hamiltonian(model.ring(u0=4.0, K=40), omega))[:5]
        e60 = np.linalg.eigvalsh(model.hamiltonian(model.ring(u0=4.0, K=60), omega))[:5]
        worst = max(worst, float(np.max(np.abs(e40 - e60))))
    assert worst <= 1e-6, f"K 40->60 level movement {worst:.3e} E0 exceeds 1e-6 E0"


def test_ring_truncation_error_scales_like_inverse_k():
    # The residual against the roots, tracked across truncations. The
    # downfolded tail is exact to first order in E only for Omega = 0;
    # its neglected Omega dependence leaves err(K) = P / K^3. Per level,
    # in units of the exact coupling g = u0/(2 pi^2) with a = Omega/(2 pi),
    # the matrix solves the secular equation with 1/g shifted by
    #   (2/(3 K^3)) (2 g a R(E) - 2 a^2),
    #   R(E) = sum_k (k - a)/(E - (k - a)^2)
    #        = (pi/2) [cot(pi (alpha + a)) - cot(pi (alpha - a))],
    # and a shift of 1/g moves E by g^2 dE/dg times that shift. The
    # leading-order P must hold up to the O(1/K) corrections of
    # psi_3(K+1) K^3 / 2 and of g tau, a few percent at K >= 100.
    omega, u0 = math.pi / 2, 4.0
    a, g = omega / (2 * math.pi), u0 / (2 * math.pi**2)
    alphas = model.ring_alpha_roots(omega, u0, 5)
    exact = alphas**2
    h = 1e-6 * u0
    dE_dg = (2 * math.pi**2) * (model.ring_alpha_roots(omega, u0 + h, 5) ** 2
                                - model.ring_alpha_roots(omega, u0 - h, 5) ** 2) / (2 * h)
    R = (math.pi / 2) * (1 / np.tan(math.pi * (alphas + a)) - 1 / np.tan(math.pi * (alphas - a)))
    predicted = float(np.max((2.0 / 3.0) * g * g * dE_dg * np.abs(2 * g * a * R - 2 * a * a)))
    errs = {}
    for K in (100, 200, 400):
        e = np.linalg.eigvalsh(model.hamiltonian(model.ring(u0=u0, K=K), omega))[:5]
        errs[K] = float(np.max(np.abs(e - exact)))
    assert errs[100] > errs[200] > errs[400]
    products = [errs[K] * K**3 for K in (100, 200, 400)]
    assert max(products) / min(products) < 1.25
    assert 0.9 * predicted < min(products) and max(products) < 1.1 * predicted


def test_polygamma_matches_scipy():
    from scipy.special import polygamma

    for n in (1, 3):
        x = np.arange(2.0, 202.0)  # K + 1 for K = 1..200
        ours = np.array([model._polygamma(n, xi) for xi in x])
        np.testing.assert_allclose(ours, polygamma(n, x), rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("K", [1, 2, 20, 40, 60])
@pytest.mark.parametrize("u0", [0.0, 0.5, 4.0])
def test_ring_barrier_factor_matches_scipy_polygamma(K, u0):
    from scipy.special import polygamma

    gamma, v = model.ring_barrier_factor(model.RingParams(u0=u0, K=K))
    g = u0 / (2.0 * math.pi**2)
    tau = 2.0 * float(polygamma(1, K + 1))
    sigma = float(polygamma(3, K + 1)) / 3.0
    beta = -g * sigma / (2.0 * (1.0 + g * tau))
    k = np.arange(-K, K + 1, dtype=float)
    np.testing.assert_allclose(gamma, g / (1.0 + g * tau - 2.0 * g * beta * (2 * K + 1)),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(v, np.sqrt(1.0 + 2.0 * beta * k * k), rtol=1e-15, atol=0.0)
