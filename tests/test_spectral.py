"""Frame tracking, sign continuity, the Hellmann-Feynman couplings, and
the ring's secular eigensolver."""

import ctypes
import math
import os
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import cython_lapack

import faquad
from faquad import cli, dynamics, model, protocol, spectral, tg
from faquad.errors import DegenerateGap, FaquadError

from conftest import traced_peak


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
            grid = np.array([lam - h, lam, lam + h])
            track = spectral.track_frames(spec, grid)
            vectors = spectral.frames(spec, grid)[1]
            dvec = (vectors[2] - vectors[0]) / (2 * h)
            fd = float(vectors[1][:, 0] @ dvec[:, 1])
            hf = float(track.coupling((1, 2))[1])
            assert abs(fd - hf) <= 1e-3 * abs(hf)


def test_track_sign_continuity(cotunneling_spec):
    grid = np.linspace(66.7, -66.7, 401)
    vectors = spectral.frames(cotunneling_spec, grid)[1]
    overlaps = np.einsum("kdn,kdn->kn", vectors[:-1], vectors[1:])
    # Levels 2 and 3 pass through a narrow avoided crossing at Delta = 0
    # where the vectors genuinely rotate ~37 degrees per grid cell; the
    # continuity fix must still keep every overlap clearly positive.
    assert np.all(overlaps > 0.7)
    assert np.all(overlaps[:, 0] > 0.99)


def test_track_deterministic(two_level_spec):
    grid = np.linspace(66.7, 0.0, 101)
    a = spectral.track_frames(two_level_spec, grid)
    b = spectral.track_frames(two_level_spec, grid)
    assert np.array_equal(spectral.frames(two_level_spec, grid)[1],
                          spectral.frames(two_level_spec, grid)[1])
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
    energies, couplings = _couplings_from_frames(ring_spec, grid, [(1, 2)])
    track = spectral.track_frames(ring_spec, grid)
    assert np.array_equal(energies, track.energies)
    assert np.array_equal(couplings[(1, 2)], track.coupling((1, 2)))


def test_frames_rejects_a_scalar_or_empty_control(two_level_spec):
    for bad in (0.0, np.array([]), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            spectral.frames(two_level_spec, bad)


def sign_fix(vectors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so their overlap with ``reference`` columns
    is positive. Columns with zero overlap are left unchanged: the
    reference for the gauge of ``spectral.frames``, column by column."""
    overlaps = np.einsum("ij,ij->j", reference, vectors)
    signs = np.where(overlaps < 0.0, -1.0, 1.0)
    return vectors * signs


def test_sign_fix_handles_zero_overlap():
    ref = np.array([[1.0, 0.0], [0.0, 1.0]])
    rotated = np.array([[0.0, -1.0], [1.0, 0.0]])
    fixed = sign_fix(rotated, ref)
    # Zero-overlap columns must pass through unscaled, never zeroed.
    assert np.array_equal(np.abs(fixed), np.abs(rotated))


def _frames_by_loop(spec, lams):
    """``spectral.frames`` as it was first written: a loop of ``sign_fix``
    against the column before."""
    energies, vectors = spectral.eigh(spec, lams)
    vectors[0] = spectral.gauge_fix_columns(vectors[0])
    for k in range(1, len(lams)):
        vectors[k] = sign_fix(vectors[k], vectors[k - 1])
    return energies, vectors


def _couplings_from_frames(spec, grid, pairs):
    """Energies and pair couplings from the whole eigenvectors of
    ``spectral.frames``, by the contraction ``track_frames`` makes."""
    energies, vectors = spectral.frames(spec, grid)
    dh = model.d_hamiltonian_d_lambda(spec, grid)
    return energies, {(i, j): np.einsum("nd,nd->n", vectors[:, :, i - 1] * dh, vectors[:, :, j - 1])
                      / (energies[:, j - 1] - energies[:, i - 1]) for (i, j) in pairs}


@pytest.mark.parametrize("case", ["ring", "cotunneling", "zero-overlap",
                                  "zero-overlap-at-a-chunk-boundary"])
def test_frames_gauge_matches_the_sign_fix_loop(monkeypatch, ring_spec, cotunneling_spec, case):
    # The vectorised gauge against the loop, on 2001-point design grids and
    # on a u0 = 0 ring whose levels cross at Omega = pi: there the columns
    # swap, their overlaps are exactly zero and the sign product restarts.
    # The zero-overlap grid gets random column signs from a stand-in for
    # the dense half of the ring solver, which solves every control of a
    # u0 = 0 ring, in ``eigh`` and in the chunk stream of ``frames`` alike;
    # the signs are the same for a control on every call, so that flips
    # accumulate between the zeros. The last case starts a chunk of
    # ``frames`` right after a zero overlap.
    if case == "ring":
        spec, lams = ring_spec, np.linspace(0.0, math.pi, 2001)
    elif case == "cotunneling":
        spec, lams = cotunneling_spec, np.linspace(66.7, -66.7, 2001)
    else:
        spec, lams = model.ring(u0=0.0, K=3), np.linspace(0.1, 2.0 * math.pi - 0.1, 41)
        solve = spectral._solve_ties
        flips = np.random.default_rng(7).choice([-1.0, 1.0], size=(len(lams), spec.dim))

        def scrambled(spec, controls, energies, vectors, tie, columns=None):
            assert np.all(tie) and columns is None
            energies, vectors = solve(spec, controls, energies, vectors, tie)
            return energies, vectors * flips[np.searchsorted(lams, controls), None, :]

        monkeypatch.setattr(spectral, "_solve_ties", scrambled)
    energies, vectors = _frames_by_loop(spec, lams)
    if case.startswith("zero-overlap"):
        raw = spectral.eigh(spec, lams)[1]
        assert np.any(np.einsum("kij,kij->kj", raw[:-1], raw[1:]) < 0.0)
        zero = np.einsum("kij,kij->kj", vectors[:-1], vectors[1:]) == 0.0
        assert np.any(zero)
    if case == "zero-overlap-at-a-chunk-boundary":
        first = int(np.flatnonzero(np.any(zero, axis=1))[0]) + 1
        monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", first * spec.dim ** 2)
        assert 0 < first < len(lams) - 1
    got_energies, got_vectors = spectral.frames(spec, lams)
    assert np.array_equal(got_energies, energies)
    assert np.array_equal(got_vectors, vectors)


@pytest.mark.parametrize("budget", ["default", "seven-controls"])
@pytest.mark.parametrize("case", ["ring", "cotunneling"])
def test_streamed_track_matches_the_whole_frames(monkeypatch, ring_spec, cotunneling_spec,
                                                 case, budget):
    # The track solves its grid in chunks and keeps only its pairs'
    # columns; its energies, gaps and couplings are those of the eigenvectors
    # of the whole grid solved at once, to the bit, with chunk boundaries
    # inside the grid or not.
    if case == "ring":
        spec, grid, pairs = ring_spec, np.linspace(0.0, math.pi, 2001), [(3, 4), (9, 10)]
    else:
        spec, grid, pairs = cotunneling_spec, np.linspace(66.7, -66.7, 2001), [(1, 2), (2, 3)]
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_CHUNK_ENTRIES", len(grid) * spec.dim ** 2)
        energies, couplings = _couplings_from_frames(spec, grid, pairs)
    if budget == "seven-controls":
        monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", 7 * spec.dim ** 2)
    track = spectral.track_frames(spec, grid, pairs=pairs)
    assert np.array_equal(track.energies, energies)
    for (i, j) in pairs:
        assert np.array_equal(track.gap((i, j)), energies[:, j - 1] - energies[:, i - 1])
        assert np.array_equal(track.coupling((i, j)), couplings[(i, j)])


def test_design_track_holds_no_eigenvector_table(ring_spec):
    # The K = 40 design track of fig6a: whole (2001, 81, 81) frames would
    # take 105 MB, and the solver's buffers 5 MB more.
    track, peak = traced_peak(lambda: protocol.design_track(ring_spec, [(3, 4), (9, 10)]))
    assert track.pairs == ((3, 4), (9, 10))
    assert peak <= 25e6


@pytest.mark.parametrize("cores,bound", [(2, 3.0e6), (1, 4.5e6)], ids=["threaded", "inline"])
def test_design_track_holds_no_grid_sized_vectors(monkeypatch, ring_spec, cores, bound):
    # The same track takes its couplings chunk by chunk from the gauged
    # stream, so beside the (2001, 81) energies (1.3 MB) it holds only the
    # chunks in flight. Traced peaks: 2.36 MB with the solver threads and
    # 3.78 MB inline, where eigh returns all 81 columns of a 39-control chunk
    # (2.0 MB) before four are taken. Gauged (2001, 81, 4) vectors, a
    # full-grid dH and the coupling product traced 9.2 and 11.0 MB. Each
    # bound is its peak plus about 0.7 MB.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    track, peak = traced_peak(lambda: protocol.design_track(ring_spec, [(3, 4), (9, 10)]))
    assert track.pairs == ((3, 4), (9, 10))
    assert peak <= bound


# The ring's secular solver (``spectral.eigh``) against numpy's dense eigh.
# Errors measured over K in {1, 2, 20, 40, 60}, u0 in {0, 1e-12, 0.5, 4, 40}
# and 400 random plus 13 special controls each (one BLAS thread), in units
# of the level scale max(1, max|E|) where they scale with it:
#   eigenvalues 1.6e-15, orthonormality 4.0e-15 (numpy's own, at a tie),
#   residual |HV - VE| 2.4e-15, step propagator 1.3e-13 at dt = 90/4000,
#   which is 1.4e-15 in units of dt * scale. The propagators also differ
#   by the rounding of their unit-size entries, as the Gram matrices do,
#   so their bound adds ORTH_TOL.
# Each bound is the measured error times a margin of about 4.
EIG_RTOL = 6e-15
ORTH_TOL = 1.6e-14
RESID_RTOL = 1e-14
PROPAGATOR_RTOL = 6e-15
STEP = 90.0 / 4000

# Stirring controls a = Omega/2pi: exact pole ties (a a multiple of 1/2),
# near-ties on both sides of them, and values past a = 1/2, which
# miscalibrated drives reach.
TIE_CONTROLS = (0.0, 1e-12, 2e-16, 0.5, 0.5 - 1e-7, 0.5 + 1e-7, 0.5 + 1e-15, 1.0,
                0.55, 0.73, 1.3, 1.5 - 1e-12)


def _propagators(energies, vectors):
    phases = np.exp(-1j * energies * STEP)
    return np.einsum("nij,nj,nkj->nik", vectors, phases, vectors)


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(K=st.sampled_from((1, 2, 20, 40, 60)),
       u0=st.sampled_from((0.0, 1e-12, 0.5, 4.0, 40.0)),
       a=st.lists(st.sampled_from(TIE_CONTROLS) | st.floats(0.0, 1.5), min_size=1, max_size=4))
def test_ring_secular_solver_matches_dense_eigh(K, u0, a):
    spec = model.ring(u0=u0, K=K)
    lams = 2.0 * math.pi * np.array(a)
    energies, vectors = spectral.eigh(spec, lams)
    H = model.hamiltonian(spec, lams)
    expected, expected_vectors = np.linalg.eigh(H)
    scale = np.maximum(1.0, np.abs(expected).max(axis=1))
    assert np.all(np.abs(energies - expected).max(axis=1) <= EIG_RTOL * scale)
    gram = np.einsum("nji,njk->nik", vectors, vectors)
    assert np.abs(gram - np.eye(spec.dim)).max() <= ORTH_TOL
    residual = np.abs(H @ vectors - vectors * energies[:, None, :]).max(axis=(1, 2))
    assert np.all(residual <= RESID_RTOL * scale)
    step_error = np.abs(_propagators(energies, vectors)
                        - _propagators(expected, expected_vectors)).max(axis=(1, 2))
    assert np.all(step_error <= ORTH_TOL + PROPAGATOR_RTOL * STEP * scale)


def test_ring_solver_threads_share_no_buffers():
    # ctypes releases the GIL during each LAPACK call, so threads solve at
    # the same time; more threads than cores and a short switch interval
    # make their calls interleave.
    spec = model.ring(u0=0.5, K=20)
    batches = [np.linspace(0.1, 3.0, 150) + 0.01 * j for j in range(6)]
    serial = [spectral.eigh(spec, lams) for lams in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(spectral.eigh, spec, lams) for lams in batches]
            threaded = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for (w0, v0), (w1, v1) in zip(serial, threaded):
        assert np.array_equal(w0, w1) and np.array_equal(v0, v1)


def test_ring_table_at_interior_controls_calls_no_dense_eigh(monkeypatch):
    traj = protocol.linear_ramp(model.ring(u0=0.5, K=20))
    counted = []
    dense = np.linalg.eigh

    def counting(a):
        counted.append(int(np.prod(np.shape(a)[:-2])))
        return dense(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    table = dynamics.MidpointTable(traj, 300)
    assert counted == []
    assert np.all(np.diff(table.eigvals, axis=1) > 0)
    # The design grid's end points, Omega = 0 and pi, are tie controls.
    spectral.frames(traj.spec, np.linspace(0.0, math.pi, 11))
    assert counted == [2]


def test_frames_at_tie_controls_keep_the_dense_columns_and_gauge(ring_spec):
    for spec in (ring_spec, model.ring(u0=0.0, K=5)):
        for lams in ([0.0], [math.pi], [0.0, math.pi]):
            energies, vectors = np.linalg.eigh(model.hamiltonian(spec, np.array(lams)))
            vectors[0] = spectral.gauge_fix_columns(vectors[0])
            for k in range(1, len(lams)):
                vectors[k] = sign_fix(vectors[k], vectors[k - 1])
            got_energies, got_vectors = spectral.frames(spec, lams)
            assert np.array_equal(got_energies, energies)
            assert np.array_equal(got_vectors, vectors)


def _write_info(address, info):
    """Write ``info`` at ``address`` as the solver's LAPACK integer, of
    whichever width the resolved source takes."""
    np.ctypeslib.as_ctypes_type(spectral._DLAED9_INT).from_address(address).value = info


def _handle_writing(info=0, energy=None):
    """A stand-in for the dlaed9 handle that sets ``info`` and, if given,
    writes ``energy`` as the first eigenvalue."""
    def handle(*addresses):
        if energy is not None:
            ctypes.c_double.from_address(addresses[4]).value = energy
        _write_info(addresses[12], info)
    return handle


@pytest.mark.parametrize("handle,message", [
    (_handle_writing(info=3), "info 3"),
    (_handle_writing(energy=float("nan")), "not finite"),
], ids=["info", "nan"])
def test_secular_solver_failure_names_the_control(monkeypatch, handle, message):
    monkeypatch.setattr(spectral, "_DLAED9", handle)
    spec = model.ring(u0=0.5, K=3)
    with pytest.raises(FaquadError, match=message) as caught:
        spectral.eigh(spec, np.array([0.0, 0.25, 0.5]))
    assert "0.25" in str(caught.value)
    # A sweep records the failure as a failed point instead of a number.
    traj = protocol.linear_ramp(spec)
    curve = tg.epsilon_sweep(1, traj, 5.0, epsilons=(0.0, 0.1), n_steps=20)
    assert np.all(np.isnan(curve.fidelity))
    assert [eps for eps, _ in curve.failures] == [0.0, 0.1]
    assert all(message in text for _, text in curve.failures)


def test_lapack_signature_mismatch_is_a_faquad_error():
    capsules = cython_lapack.__pyx_capi__
    spectral._capsule_dlaed9(capsules)
    with pytest.raises(FaquadError, match="declared"):
        spectral._capsule_dlaed9({"dlaed9": capsules["dsyevd"]})
    with pytest.raises(FaquadError, match="no dlaed9"):
        spectral._capsule_dlaed9({})


def _address(function):
    return ctypes.cast(function, ctypes.c_void_p).value


def _secular(spec, lams):
    energies, vectors = spectral._outputs(spec, lams)
    tie = spectral._ring_secular(spec, lams, energies, vectors)
    return energies, vectors, tie


def test_scipy_source_takes_c_ints_and_solves_as_numpys_lapack(monkeypatch):
    # Without numpy's LAPACK the resolver takes scipy's dlaed9 capsule,
    # whose integers are C ints, and the secular half then solves a K = 40
    # grid with tie controls (Omega = 0, pi, 2 pi) as the first source does.
    spec = model.ring(u0=0.5, K=40)
    lams = np.linspace(0.0, 2.0 * math.pi, 401)
    want_energies, want_vectors, want_tie = _secular(spec, lams)
    monkeypatch.setattr(spectral, "_openblas_dlaed9", lambda lib: None)
    solve, integer, name = spectral._dlaed9_handle()
    assert _address(solve) == _address(spectral._capsule_dlaed9(cython_lapack.__pyx_capi__))
    assert integer is np.intc
    assert name.startswith("scipy ") and name.endswith(" cython_lapack")
    monkeypatch.setattr(spectral, "_DLAED9", solve)
    monkeypatch.setattr(spectral, "_DLAED9_INT", integer)
    energies, vectors, tie = _secular(spec, lams)
    assert np.array_equal(tie, want_tie) and np.flatnonzero(tie).tolist() == [0, 200, 400]
    assert np.max(np.abs(energies - want_energies)) <= 1e-13
    assert np.max(np.abs(vectors - want_vectors)) <= 1e-13
    # The failure checks read info in the source's integer type.
    monkeypatch.setattr(spectral, "_DLAED9", _handle_writing(info=3))
    with pytest.raises(FaquadError, match="info 3"):
        spectral.eigh(spec, lams[1:3])


def _library(config, dlaed9=True):
    """A stand-in for a shared library whose configuration string reads
    ``config`` and which exports a dlaed9 unless ``dlaed9`` is False."""
    lib = types.SimpleNamespace(scipy_openblas_get_config64_=lambda: config)
    if dlaed9:
        lib.scipy_dlaed9_64_ = lambda *addresses: None
    return lib


def test_a_64_bit_scipy_openblas_is_taken():
    lib = _library(b"OpenBLAS 0.3.31  USE64BITINT DYNAMIC_ARCH MAX_THREADS=64")
    solve, name = spectral._openblas_dlaed9(lib)
    assert solve is lib.scipy_dlaed9_64_ and name == "OpenBLAS 0.3.31"
    assert solve.argtypes == [ctypes.c_void_p] * 13 and solve.restype is None


@pytest.mark.parametrize("lib", [
    _library(b"OpenBLAS 0.3.31  DYNAMIC_ARCH MAX_THREADS=64"),
    _library(b"OpenBLAS 0.3.31  NO_USE64BITINT"),
    _library(None),
    _library(b"OpenBLAS 0.3.31  USE64BITINT DYNAMIC_ARCH", dlaed9=False),
    types.SimpleNamespace(),
], ids=["32-bit-config", "other-word", "no-config-string", "no-dlaed9", "no-symbols"])
def test_a_library_without_64_bit_integers_or_dlaed9_is_never_used(monkeypatch, lib):
    assert spectral._openblas_dlaed9(lib) is None
    monkeypatch.setattr(ctypes, "CDLL", lambda path: lib)
    solve, integer, name = spectral._dlaed9_handle()
    assert integer is np.intc and name.endswith(" cython_lapack")
    assert _address(solve) == _address(spectral._capsule_dlaed9(cython_lapack.__pyx_capi__))


def test_eigenstate_rejects_a_level_outside_the_model():
    spec = model.ring(u0=0.5, K=3)
    frames = spectral.frames(spec, [0.7])[1][0]
    assert np.array_equal(spectral.eigenstate(spec, 0.7, 1), frames[:, 0])
    assert np.array_equal(spectral.eigenstate(spec, 0.7, spec.dim), frames[:, -1])
    for level in (0, -1, spec.dim + 1):
        with pytest.raises(ValueError, match=f"1..{spec.dim}"):
            spectral.eigenstate(spec, 0.7, level)


def _serial_solved(spec, lams, columns=None, span=None):
    """The chunk stream of ``spectral._solved`` without its solver threads:
    ``spectral.eigh`` of each chunk in turn, on the calling thread."""
    most = max(1, spectral._CHUNK_ENTRIES // spec.dim ** 2)
    span = most if span is None else max(1, min(span, most))
    for lo in range(0, len(lams), span):
        hi = min(lo + span, len(lams))
        energies, vectors = spectral.eigh(spec, lams[lo:hi])
        yield lo, hi, energies, vectors if columns is None else np.take(vectors, columns, axis=2)


def _recording_threads(monkeypatch, owner, attr):
    """Patch ``owner.attr`` to record the thread of each call; returns the
    set of thread idents it fills."""
    function, threads = getattr(owner, attr), set()

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, attr, recording)
    return threads


# A K = 20 ring grid of 180 controls, 155 to a default chunk, with tie
# controls (Omega = 0 and pi, which the calling thread solves) at the ends
# of chunks of 155 and of 7 controls.
STREAM_TIES = {0: 0.0, 6: math.pi, 7: 0.0, 154: math.pi, 155: 0.0, 179: math.pi}


@pytest.mark.parametrize("chunk", ["one", "default", "seven"])
def test_stream_matches_a_serial_chunk_by_chunk_eigh(monkeypatch, two_cores, chunk):
    # frames and the frame pass get the same bits from the threaded stream
    # as from eigh chunk by chunk on the calling thread, and at every chunk
    # size as from one chunk of the whole grid.
    spec = model.ring(u0=0.5, K=20)
    lams = np.linspace(0.05, 3.0, 180)
    lams[list(STREAM_TIES)] = list(STREAM_TIES.values())
    traj = protocol.linear_ramp(spec)
    stack = tg.stack_at(spec, spec.lambda_start, 9)
    tf_arr = np.array([20.0, 90.0])
    monkeypatch.setattr(dynamics, "_midpoint_controls", lambda traj, n_steps: lams[:n_steps])

    def both():
        return (spectral.frames(spec, lams), spectral.frames(spec, lams, [2, 3, 8, 9]),
                dynamics._frame_pass(traj, len(lams), stack, tf_arr, 32, saves=[7, 100, 180]))

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_CHUNK_ENTRIES", len(lams) * spec.dim ** 2)
        patch.setattr(spectral, "_solved", _serial_solved)
        whole = both()
    if chunk == "one":
        monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", len(lams) * spec.dim ** 2)
    elif chunk == "seven":
        monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", 7 * spec.dim ** 2)
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_solved", _serial_solved)
        serial = both()
    solver_threads = _recording_threads(monkeypatch, spectral, "_ring_secular")
    dense_threads = _recording_threads(monkeypatch, np.linalg, "eigh")
    streamed = both()
    for got in (serial, streamed):
        for (energies, vectors), (want_energies, want_vectors) in zip(got[:2], whole[:2]):
            assert np.array_equal(energies, want_energies)
            assert np.array_equal(vectors, want_vectors)
        assert np.array_equal(got[2][0], whole[2][0]) and got[2][1] == whole[2][1]
    caller = threading.get_ident()
    assert dense_threads == {caller}
    # One chunk is solved inline; more go to the solver threads.
    assert (solver_threads == {caller}) == (chunk == "one")


def _failing_at(lam):
    """A dlaed9 handle that solves as LAPACK does, then reports info 3 at
    the control ``lam`` of a ring stirred within (0, pi), whose smallest
    pole is (lam / 2pi)^2."""
    solve, pole = spectral._DLAED9, (lam / (2.0 * math.pi)) ** 2

    def handle(*addresses):
        smallest = ctypes.c_double.from_address(addresses[8]).value
        solve(*addresses)
        if math.isclose(smallest, pole, rel_tol=1e-12):
            _write_info(addresses[12], 3)

    return handle


@pytest.mark.parametrize("caller", ["frames", "duration_sweep"])
def test_a_failed_chunk_names_its_control_and_the_pool_goes_on(monkeypatch, two_cores, caller):
    # The control sits in the third of five chunks of 7, which a solver
    # thread solves while the calling thread works on the first.
    spec = model.ring(u0=0.5, K=5)
    assert spec.dim > dynamics.TREE_PRODUCT_MAX_DIM
    monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", 7 * spec.dim ** 2)
    traj = protocol.linear_ramp(spec)
    lams = np.linspace(0.1, 3.0, 32)
    if caller == "frames":
        def run():
            return spectral.frames(spec, lams)
    else:
        lams = dynamics._midpoint_controls(traj, 32)

        def run():
            return tg.duration_sweep([3], traj, [5.0, 10.0], n_steps=32)[0].fidelity
    bad = float(lams[16])
    solve = spectral._DLAED9
    monkeypatch.setattr(spectral, "_DLAED9", _failing_at(bad))
    with pytest.raises(FaquadError, match="info 3") as caught:
        run()
    assert f"at control {bad!r}" in str(caught.value)
    pool = spectral._solver_pool()
    monkeypatch.setattr(spectral, "_DLAED9", solve)
    got = run()
    assert spectral._solver_pool() is pool
    if caller == "frames":
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_solved", _serial_solved)
            want = spectral.frames(spec, lams)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    else:
        assert np.all(np.isfinite(got))


def test_traced_functions_run_on_the_calling_thread(tmp_path, monkeypatch, two_cores):
    # bench/tracing.py wraps numpy.linalg.eigh and model.hamiltonian and
    # nests its spans on one stack, so neither may run on a solver thread
    # during a reduced fig6a, whose chunks' secular halves do, or during a
    # few-level sweep-tf, whose tree products run on two threads.
    monkeypatch.delenv("FAQUAD_WORKERS", raising=False)
    dense = _recording_threads(monkeypatch, np.linalg, "eigh")
    assembly = _recording_threads(monkeypatch, model, "hamiltonian")
    secular = _recording_threads(monkeypatch, spectral, "_ring_secular")
    tree = _recording_threads(monkeypatch, dynamics, "_total_propagator")
    assert cli.main(["figure", "fig6a", "--K", "20", "--n-steps", "400", "--tf-count", "2",
                     "--out", str(tmp_path / "out")]) == 0
    caller = threading.get_ident()
    assert dense == assembly == {caller}
    assert secular - {caller}
    assert cli.main(["sweep-tf", "--model", "bose-hubbard-3", "--U", "22.3", "--lambda-start",
                     "66.7", "--lambda-end", "-66.7", "--protocol", "faquad", "--tf-min", "1",
                     "--tf-max", "4", "--tf-count", "4", "--n-steps", "2000",
                     "--out", str(tmp_path / "few")]) == 0
    assert dense == assembly == {caller}
    assert caller in tree and len(tree) == 2


@pytest.mark.parametrize("case", ["two-level", "bose-hubbard-3", "ring-K2", "ring-K3"])
def test_threaded_tree_finals_are_the_serial_finals(monkeypatch, two_cores, request, case):
    # On the main thread of a process allowed two cores, a helper thread
    # forms half of the durations' products; every final state keeps the
    # bits it has with all of them formed on the calling thread.
    if case.startswith("ring"):
        spec = model.ring(u0=0.5, K=int(case[-1]))
        traj = protocol.linear_ramp(spec)
        psi0 = tg.stack_at(spec, spec.lambda_start, 3)
    else:
        traj = request.getfixturevalue(
            "two_level_faquad" if case == "two-level" else "cotunneling_faquad")
        psi0 = dynamics._level_vector(traj, dynamics.GROUND, 0.0).astype(complex)
    tf_arr = np.linspace(0.5, 6.0, 7)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial_threads = _recording_threads(patch, dynamics, "_total_propagator")
        _, serial, frame = dynamics._final_states(traj, psi0, tf_arr, 3001)
        want = [serial(t_f) for t_f in tf_arr]
    threads = _recording_threads(monkeypatch, dynamics, "_total_propagator")
    _, threaded, _ = dynamics._final_states(traj, psi0, tf_arr, 3001)
    assert frame == (None, None)
    assert serial_threads == {threading.get_ident()}
    assert len(threads) == 2 and threading.get_ident() in threads
    for t_f, state in zip(tf_arr, want):
        assert np.array_equal(threaded(t_f), state)


@pytest.mark.parametrize("where", ["sweep-workers", "one-core"])
def test_a_stream_on_a_sweep_worker_or_one_core_solves_inline(monkeypatch, where):
    # A sweep's worker threads keep the cores busy already, and one core
    # leaves nothing to overlap, so there every chunk of a ring stream is
    # solved on the calling thread, with the same bits.
    spec = model.ring(u0=0.5, K=20)
    lams = np.linspace(0.05, 3.0, 400)
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_solved", _serial_solved)
        want = spectral.frames(spec, lams)

    def no_pool():
        raise AssertionError("a stream reached the solver threads")

    monkeypatch.setattr(spectral, "_solver_pool", no_pool)
    secular = _recording_threads(monkeypatch, spectral, "_ring_secular")
    got = {}

    def point(x):
        got[threading.get_ident()] = spectral.frames(spec, lams)
        return x

    if where == "one-core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        point(0.0)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        values, failures = dynamics._sweep([0.0, 1.0], point, workers=2)
        assert not failures and threading.get_ident() not in got
    assert secular == set(got)
    for energies, vectors in got.values():
        assert np.array_equal(energies, want[0]) and np.array_equal(vectors, want[1])


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this faquad."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(faquad.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_starts_no_thread():
    # The solver threads start with the first ring grid of more than one
    # chunk, not with the import.
    code = (
        "import threading\n"
        "import faquad.cli\n"
        "from faquad import spectral\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert spectral._pool is None\n"
    )
    _run_python(code)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_solver_threads():
    # A child forked after a threaded stream has none of the pool's
    # threads; a stream there must not wait on them (the alarm ends a child
    # that does).
    code = (
        "import os\n"
        "import signal\n"
        "import numpy as np\n"
        "from faquad import model, spectral\n"
        "spec = model.ring(u0=0.5, K=20)\n"
        "lams = np.linspace(0.1, 3.0, 400)\n"
        "want = spectral.frames(spec, lams)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(30)\n"
        "    got = spectral.frames(spec, lams)\n"
        "    os._exit(0 if all(np.array_equal(a, b) for a, b in zip(got, want)) else 1)\n"
        "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0\n"
    )
    _run_python(code)
