"""Frame tracking, sign continuity, and the Hellmann-Feynman couplings."""

import math

import numpy as np
import pytest

from faquad import model, spectral, tg
from faquad.errors import DegenerateGap


def _two_level_gap(spec, lam):
    g = spec.params.U - lam
    return math.sqrt(g * g + 8.0 * spec.params.J**2)


def _two_level_coupling(spec, lam):
    g = spec.params.U - lam
    return math.sqrt(2.0) * spec.params.J / (g * g + 8.0 * spec.params.J**2)


def test_two_level_gap_closed_form(two_level_spec):
    grid = np.linspace(66.7, 0.0, 201)
    track = spectral.track_frames(two_level_spec, grid)
    expected = np.array([_two_level_gap(two_level_spec, x) for x in grid])
    assert np.max(np.abs(track.gap((1, 2)) - expected)) <= 1e-12 * expected.max()


def test_two_level_coupling_closed_form(two_level_spec):
    # |<phi_1|d_lambda phi_2>| = sqrt(2) J / ((U - Delta)^2 + 8 J^2)
    grid = np.linspace(66.7, 0.0, 201)
    track = spectral.track_frames(two_level_spec, grid)
    expected = np.array([_two_level_coupling(two_level_spec, x) for x in grid])
    assert np.max(np.abs(np.abs(track.coupling((1, 2))) - expected)) <= 1e-8


def test_coupling_antisymmetry_and_diagonal(two_level_spec):
    grid = np.linspace(66.7, 0.0, 11)
    track = spectral.track_frames(two_level_spec, grid)
    assert np.array_equal(track.coupling((2, 1)), -track.coupling((1, 2)))


def test_hellmann_feynman_matches_vector_differencing(two_level_spec, cotunneling_spec):
    # <phi_i|d_lambda phi_j> from the identity versus centered
    # differencing of sign-aligned eigenvectors.
    for spec, lams in ((two_level_spec, (10.0, 22.3, 40.0)),
                       (cotunneling_spec, (-30.0, 0.0, 25.0))):
        for lam in lams:
            h = 1e-5 * abs(spec.lambda_start - spec.lambda_end)
            track = spectral.track_frames(spec, np.array([lam - h, lam, lam + h]))
            dvec = (track.vectors[2] - track.vectors[0]) / (2 * h)
            fd = float(track.vectors[1][:, 0] @ dvec[:, 1])
            hf = float(track.coupling((1, 2))[1])
            assert abs(fd - hf) <= 1e-3 * abs(hf)


def test_track_sign_continuity(cotunneling_spec):
    grid = np.linspace(66.7, -66.7, 401)
    track = spectral.track_frames(cotunneling_spec, grid)
    overlaps = np.einsum("kdn,kdn->kn", track.vectors[:-1], track.vectors[1:])
    # Levels 2 and 3 pass through a narrow avoided crossing at Delta = 0
    # where the vectors genuinely rotate ~37 degrees per grid cell; the
    # continuity fix must still keep every overlap clearly positive.
    assert np.all(overlaps > 0.7)
    assert np.all(overlaps[:, 0] > 0.99)


def test_track_deterministic(two_level_spec):
    grid = np.linspace(66.7, 0.0, 101)
    a = spectral.track_frames(two_level_spec, grid)
    b = spectral.track_frames(two_level_spec, grid)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.coupling((1, 2)), b.coupling((1, 2)))


def test_gap_positive_for_ordered_pair(splitting_spec):
    grid = np.linspace(100.0, 0.0, 101)
    track = spectral.track_frames(splitting_spec, grid, pairs=((1, 2), (2, 3)))
    assert np.all(track.gap((1, 2)) > 0)
    assert np.all(track.gap((2, 3)) > 0)


def test_splitting_coupling_peaks_at_gap_minimum(splitting_spec):
    grid = np.linspace(100.0, 0.0, 2001)
    track = spectral.track_frames(splitting_spec, grid)
    gap = track.gap((1, 2))
    coup = np.abs(track.coupling((1, 2)))
    assert abs(int(np.argmin(gap)) - int(np.argmax(coup))) <= 2


def test_degenerate_pair_raises():
    spec = model.ring(u0=0.0, K=5, omega_start=0.0, omega_end=math.pi)
    grid = np.linspace(0.0, math.pi, 7)
    with pytest.raises(DegenerateGap):
        spectral.track_frames(spec, grid, pairs=((2, 3),))


def test_track_grid_validation(two_level_spec):
    with pytest.raises(ValueError):
        spectral.track_frames(two_level_spec, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        spectral.track_frames(two_level_spec, np.array([0.0]))
    with pytest.raises(ValueError):
        spectral.track_frames(two_level_spec, np.linspace(0, 1, 5), pairs=((0, 1),))


def test_eigenstate_gauge(two_level_spec):
    phi = spectral.eigenstate(two_level_spec, 0.0, level=1)
    assert phi[np.argmax(np.abs(phi))] > 0
    H = model.hamiltonian(two_level_spec, 0.0)
    energies, _ = np.linalg.eigh(H)
    assert np.allclose(H @ phi, energies[0] * phi, atol=1e-12)


def test_frames_gauge_is_shared_by_its_callers(ring_spec):
    lam = 0.7
    stack = tg.stack_at(ring_spec, lam, 9)
    for n in range(1, 10):
        assert np.array_equal(stack[:, n - 1], spectral.eigenstate(ring_spec, lam, n))
    grid = np.linspace(0.0, math.pi, 21)
    _, vectors = spectral.frames(ring_spec, grid)
    assert np.array_equal(vectors, spectral.track_frames(ring_spec, grid).vectors)


def test_frames_rejects_a_scalar_or_empty_control(two_level_spec):
    for bad in (0.0, np.array([]), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            spectral.frames(two_level_spec, bad)


def test_sign_fix_handles_zero_overlap():
    ref = np.array([[1.0, 0.0], [0.0, 1.0]])
    rotated = np.array([[0.0, -1.0], [1.0, 0.0]])
    fixed = spectral.sign_fix(rotated, ref)
    # Zero-overlap columns must pass through unscaled, never zeroed.
    assert np.array_equal(np.abs(fixed), np.abs(rotated))
