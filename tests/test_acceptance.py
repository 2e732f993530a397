"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one `criterion NN: PASS/FAIL` line with the measured
numbers; the same detail string is carried into the assertion message.
Criterion 05 checks the two-level revival times against the exact zeros
of the constant adiabatic-frame generator, not the first-order ones;
criterion 06 checks the downfolded ring matrix, which converges like
K^-3, against the transcendental roots.
"""

import itertools
import math
import time

import numpy as np
import pytest

from faquad import dynamics, model, perturbation, protocol, spectral, tg

RING_TF_PLATEAU = 90.0
RING_N_STEPS = 4000


def _report(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _first_crossing(tf, pop, threshold):
    hit = np.nonzero(pop >= threshold)[0]
    return None if len(hit) == 0 else float(tf[hit[0]])


def _local_maxima(tf, pop, floor=0.0):
    out = []
    for i in range(1, len(pop) - 1):
        if pop[i] >= pop[i - 1] and pop[i] > pop[i + 1] and pop[i] >= floor:
            out.append((float(tf[i]), float(pop[i])))
    return out


@pytest.fixture(scope="module")
def ring_linear(ring_spec):
    return protocol.linear_ramp(ring_spec)


def test_criterion_01_faquad_beats_local_adiabatic(two_level_spec):
    # Time to hold ground-state fidelity >= 0.9998: local-adiabatic over
    # FAQUAD should come out near 3, within +-0.5, in under two minutes.
    t0 = time.monotonic()
    fq = protocol.design_faquad(two_level_spec)
    la = protocol.design_local_adiabatic(two_level_spec)
    grid_fq = np.linspace(1.0, 2.0, 201)
    grid_la = np.linspace(3.5, 4.8, 261)
    pop_fq = dynamics.fidelity_sweep(fq, grid_fq, start="ground",
                                     target="ground", n_steps=8192).population
    pop_la = dynamics.fidelity_sweep(la, grid_la, start="ground",
                                     target="ground", n_steps=8192).population
    t_fq = _first_crossing(grid_fq, pop_fq, 0.9998)
    t_la = _first_crossing(grid_la, pop_la, 0.9998)
    elapsed = time.monotonic() - t0
    ok = t_fq is not None and t_la is not None
    ratio = t_la / t_fq if ok else float("nan")
    ok = ok and 2.5 <= ratio <= 3.5 and elapsed < 120.0
    _report(1, ok, f"t_faquad={t_fq}, t_la={t_la}, ratio={ratio:.3f} "
                   f"(window 2.5..3.5), elapsed={elapsed:.1f}s (< 120s)")


def test_criterion_02_revival_spacing_matches_phase_integral(
        two_level_faquad):
    phi = perturbation.phase_integral(two_level_faquad)
    period = 2.0 * math.pi / phi
    grid = np.linspace(0.9, 7.7, 1701)
    pop = dynamics.fidelity_sweep(two_level_faquad, grid,
                                  start="ground", target=1, n_steps=8192).population
    peaks = [t for t, _ in _local_maxima(grid, pop, floor=0.99)]
    spacings = np.diff(peaks)
    ok = len(spacings) >= 3
    devs = np.abs(spacings / period - 1.0) if ok else np.array([np.inf])
    ok = ok and bool(np.all(devs <= 0.05))
    _report(2, ok, f"period=2pi/Phi={period:.4f}, spacings={np.round(spacings, 4)}, "
                   f"max deviation={devs.max():.3%} (<= 5%)")


def test_criterion_03_splitting_durations(splitting_spec, splitting_faquad):
    grid = np.linspace(0.7, 1.9, 241)
    pop = dynamics.fidelity_sweep(splitting_faquad, grid,
                                  start="ground", target=2, n_steps=32768).population
    peaks = _local_maxima(grid, pop, floor=0.995)
    ok = len(peaks) > 0
    t_peak, p_peak = peaks[0] if ok else (float("nan"), float("nan"))
    ok = ok and 0.9 <= t_peak <= 1.5

    # the linear curve oscillates with ~1.1-wide lobes whose tops creep
    # up through 0.998, so locate the coarse crossing and refine the lobe
    lin = protocol.linear_ramp(splitting_spec)
    grid_lin = np.linspace(38.0, 50.0, 241)
    pop_lin = dynamics.fidelity_sweep(lin, grid_lin, start="ground",
                                      target=2, n_steps=16384).population
    t_coarse = _first_crossing(grid_lin, pop_lin, 0.998)
    t_lin, p_lin = None, float("nan")
    if t_coarse is not None:
        fine = np.linspace(t_coarse - 0.15, t_coarse + 0.15, 61)
        pop_fine = dynamics.fidelity_sweep(lin, fine, start="ground",
                                           target=2, n_steps=16384).population
        j = int(np.argmax(pop_fine))
        t_lin, p_lin = float(fine[j]), float(pop_fine[j])
    ok = ok and t_lin is not None and p_lin >= 0.998 and 38.0 <= t_lin <= 48.0
    _report(3, ok, f"faquad first peak {p_peak:.5f} at tf={t_peak} "
                   f"(>= 0.995 in 1.2+-0.3), linear {p_lin:.6f} at tf={t_lin} (43+-5)")


def test_criterion_04_cotunneling_durations(cotunneling_spec, cotunneling_faquad):
    grid = np.linspace(1.8, 3.2, 351)
    pop = dynamics.fidelity_sweep(cotunneling_faquad, grid,
                                  start="ground", target=1, n_steps=32768).population
    peaks = _local_maxima(grid, pop, floor=0.995)
    ok = len(peaks) > 0
    t_peak, p_peak = peaks[0] if ok else (float("nan"), float("nan"))
    ok = ok and 2.0 <= t_peak <= 2.6

    lin = protocol.linear_ramp(cotunneling_spec)
    grid_lin = np.linspace(57.0, 73.0, 161)
    pop_lin = dynamics.fidelity_sweep(lin, grid_lin, start="ground",
                                      target=1, n_steps=32768).population
    t_lin = _first_crossing(grid_lin, pop_lin, 0.998)
    ok = ok and t_lin is not None and 57.0 <= t_lin <= 73.0

    # the first-order envelope is optimistic here: the fidelity minimum
    # near the antinode t = 2.5 T falls below 1 - 4 c_tilde^2 / t_f^2
    pred = perturbation.predict(cotunneling_faquad)
    dip_grid = np.linspace(2.5 * pred.period - 0.6, 2.5 * pred.period + 0.6, 31)
    dip = dynamics.fidelity_sweep(cotunneling_faquad, dip_grid,
                                  start="ground", target=1, n_steps=16384).population
    i = int(np.nanargmin(dip))
    floor = 1.0 - pred.envelope(float(dip_grid[i]))
    below = bool(dip[i] < floor)
    ok = ok and below

    # transient third-level occupation peaks near the bare crossing
    t_f = 1.5 * pred.period
    control = protocol.rescale(cotunneling_faquad, t_f)
    psi0 = spectral.eigenstate(cotunneling_spec, 66.7, level=1).astype(complex)
    res = dynamics.evolve(control, psi0, n_steps=16384, n_save=401)
    proj = dynamics.adiabatic_projection(res)
    g3 = np.abs(proj.g[:, 2]) ** 2
    k = int(np.argmax(g3))
    lam_at_max = float(control.value(proj.times[k]))
    transient = g3[k] > 0.01 and abs(lam_at_max) < 15.0 and g3[k] > 10.0 * g3[0]
    ok = ok and transient
    _report(4, ok, f"faquad first peak {p_peak:.5f} at tf={t_peak} (2.3+-0.3), "
                   f"linear 0.998 at tf={t_lin} (65+-8), "
                   f"min {dip[i]:.4f} < lower envelope {floor:.4f}: {below}, "
                   f"max |g3|^2={g3[k]:.3e} at Delta={lam_at_max:.2f}")


def test_criterion_05_infidelity_envelope_and_zeros(two_level_spec, two_level_faquad):
    pred = perturbation.predict(two_level_faquad)
    period = pred.period

    # (a) beyond the first revival the excited-state weight stays under
    # 1.2 x the first-order envelope at the antinodes
    table = dynamics.MidpointTable(two_level_faquad, 8192)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    ratios = []
    for k in range(1, 7):
        t_f = (k + 0.5) * period
        control = protocol.rescale(two_level_faquad, t_f)
        res = dynamics.evolve(control, psi0, n_steps=8192,
                              n_save=2, table=table)
        proj = dynamics.adiabatic_projection(res)
        g2 = float(np.abs(proj.g[-1, 1]) ** 2)
        ratios.append(g2 / pred.envelope(t_f))
    envelope_ok = bool(np.max(ratios) <= 1.2)

    # (b) revival maxima of the dressed ground-state population against
    # the exact two-level zeros. FAQUAD keeps coupling/gap = c_tilde/t_f
    # constant, so on the gap clock phi = int (E2 - E1) dt the
    # adiabatic-frame generator [[-1/2, i c_tilde/t_f], [-i c_tilde/t_f, 1/2]]
    # is constant. Its Rabi solution, with phi running to t_f Phi, gives
    #   P_exc = 4 c~^2 / (t_f^2 + 4 c~^2) sin^2(Phi sqrt(t_f^2 + 4 c~^2) / 2),
    # whose zeros sit at t_k = sqrt((2 pi k / Phi)^2 - 4 c~^2). The
    # first-order zeros k 2pi/Phi are its t_f >> 2 c~ limit and come
    # 0.117 T late at k = 1, so the check is against t_k.
    grid = np.linspace(0.9, 9.3, 2101)
    pop = dynamics.fidelity_sweep(two_level_faquad, grid,
                                  start="ground", target="ground", n_steps=8192).population
    maxima = np.array([t for t, _ in _local_maxima(grid, pop, floor=0.9)])
    offsets = []
    for k in range(1, 7):
        zero = math.sqrt((k * period) ** 2 - 4.0 * pred.c_tilde ** 2)
        nearest = maxima[np.argmin(np.abs(maxima - zero))]
        offsets.append(abs(nearest - zero) / period)
    zeros_ok = bool(np.max(offsets) <= 0.01)

    ok = envelope_ok and zeros_ok
    _report(5, ok, f"antinode ratios max={np.max(ratios):.3f} (<= 1.2): {envelope_ok}; "
                   f"offsets from exact zeros t_k, /T={np.round(offsets, 4)} (<= 0.01): "
                   f"{zeros_ok}")


def test_criterion_06_ring_spectrum_against_roots():
    # exact part: without the barrier, matrix and closed form agree and
    # the degenerate pairs close to 1e-12
    free = model.ring(u0=0.0, K=60)
    for omega, pairs in ((0.0, ((2, 3), (4, 5))), (math.pi, ((1, 2), (3, 4)))):
        energies = np.linalg.eigvalsh(model.hamiltonian(free, omega))[:6]
        exact = np.sort(model.ring_alpha_roots(omega, 0.0, 6) ** 2)
        assert np.max(np.abs(energies - exact)) <= 1e-12
        for i, j in pairs:
            assert abs(energies[i - 1] - energies[j - 1]) <= 1e-12

    # with u0 = 4 the downfolded matrix at K = 60 must reach the
    # transcendental energies; its residual falls like K^-3
    worst = 0.0
    spec = model.ring(u0=4.0, K=60)
    for omega in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        matrix = np.linalg.eigvalsh(model.hamiltonian(spec, omega))[:5]
        exact = model.ring_alpha_roots(omega, 4.0, 5) ** 2
        worst = max(worst, float(np.max(np.abs(matrix - exact))))
    ok = worst <= 1e-4
    _report(6, ok, f"free-ring degeneracies <= 1e-12: True; "
                   f"u0=4, K=60 worst residual {worst:.3e} E0 (<= 1e-4 E0)")


def test_criterion_07_many_body_faquad_insensitive_to_filling(
        ring_faquad_n3, ring_faquad_n9, ring_linear):
    def plateau(Ns, traj):
        curves = tg.duration_sweep(Ns, traj, [RING_TF_PLATEAU], n_steps=RING_N_STEPS)
        return [curve.fidelity[0] for curve in curves]

    (f3,) = plateau([3], ring_faquad_n3)
    (f9,) = plateau([9], ring_faquad_n9)
    l3, l9 = plateau([3, 9], ring_linear)
    ok = abs(f3 - f9) < 0.02 and l9 < l3
    _report(7, ok, f"F_faquad(3)={f3:.5f}, F_faquad(9)={f9:.5f}, "
                   f"|diff|={abs(f3 - f9):.5f} (< 0.02); "
                   f"F_linear(3)={l3:.5f} > F_linear(9)={l9:.5f}: {l9 < l3}")


def test_criterion_08_calibration_error_sweep_peaks_at_zero(
        ring_faquad_n3, ring_faquad_n9):
    details = []
    ok = True
    for N, traj in ((3, ring_faquad_n3), (9, ring_faquad_n9)):
        curve = tg.epsilon_sweep(N, traj, RING_TF_PLATEAU,
                                 epsilons=(-0.1, -0.05, 0.0, 0.05, 0.1),
                                 n_steps=RING_N_STEPS)
        fid = curve.fidelity
        best = int(np.argmax(fid))
        strict = bool(np.all(np.delete(fid, 2) < fid[2]))
        ok = ok and best == 2 and strict
        details.append(f"N={N}: F(eps)={np.round(fid, 5)}, argmax at eps=0: {best == 2}")
    _report(8, ok, "; ".join(details))


def test_criterion_09_property_suite(two_level_spec, two_level_faquad):
    checks = {}

    control = protocol.rescale(two_level_faquad, 3.0)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    res = dynamics.evolve(control, psi0, n_steps=4096)
    checks["unitarity<1e-9"] = res.norm_drift < 1e-9

    profile = protocol.adiabaticity_profile(two_level_faquad)
    dev = float(np.max(np.abs(profile - two_level_faquad.c_tilde))
                / two_level_faquad.c_tilde)
    checks["c-constancy<1%"] = dev < 0.01

    checks["boundaries exact"] = (two_level_faquad.evaluate(0.0) == 66.7
                                  and two_level_faquad.evaluate(1.0) == 0.0)

    fine = protocol.design_faquad(
        two_level_spec, track=protocol.design_track(two_level_spec, [(1, 2)], 4001))
    rich = abs(two_level_faquad.c_tilde - fine.c_tilde) / fine.c_tilde
    checks["richardson<0.1%"] = rich < 1e-3

    h = 1e-5 * 66.7
    track = spectral.track_frames(two_level_spec, np.array([22.3 - h, 22.3, 22.3 + h]))
    dvec = (track.vectors[2] - track.vectors[0]) / (2 * h)
    fd = float(track.vectors[1][:, 0] @ dvec[:, 1])
    hf = float(track.coupling((1, 2))[1])
    checks["hellmann-feynman vs fd<1e-3"] = abs(fd - hf) <= 1e-3 * abs(hf)

    rng = np.random.default_rng(99)
    a, _ = np.linalg.qr(rng.normal(size=(13, 3)) + 1j * rng.normal(size=(13, 3)))
    b, _ = np.linalg.qr(rng.normal(size=(13, 3)) + 1j * rng.normal(size=(13, 3)))
    brute = sum(np.conj(np.linalg.det(a[list(occ), :])) * np.linalg.det(b[list(occ), :])
                for occ in itertools.combinations(range(13), 3))
    det_fid = tg.tg_fidelity(a, b)
    checks["fock oracle<1e-10"] = abs(det_fid - abs(brute)) <= 1e-10

    const = protocol.constant_protocol(two_level_spec, 22.3)
    times = np.linspace(1.10, 1.12, 2001)
    curve = dynamics.fidelity_sweep(const, times,
                                    start=1, target=2, n_steps=512)
    t_star = float(times[np.argmax(curve.population)])
    target = math.pi / (2.0 * math.sqrt(2.0))
    checks["pi-pulse time +-1e-4"] = abs(t_star - target) <= 1e-4

    ok = all(checks.values())
    _report(9, ok, ", ".join(f"{k}: {v}" for k, v in checks.items()))


def test_criterion_10_rescaling_invariance(two_level_faquad):
    s = np.linspace(0.0, 1.0, 1001)
    reference = two_level_faquad.evaluate(s)
    worst = 0.0
    for t_f in (1.0, 10.0, 100.0):
        control = protocol.rescale(two_level_faquad, t_f)
        worst = max(worst, float(np.max(np.abs(control.value(s * t_f) - reference))))
    ok = worst <= 1e-12
    _report(10, ok, f"max |lambda(t/t_f) - lambda_tilde(s)| = {worst:.3e} (<= 1e-12)")
