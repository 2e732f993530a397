"""First-order infidelity prediction for designed schedules."""

import math

import numpy as np
import pytest

from faquad import dynamics, model, perturbation, protocol, spectral

PHI_TWO_LEVEL = 4.195468594893811
PHI_SPLITTING = 4.272942832585531
PHI_COTUNNELING = 4.195537594548598
# Downfolded ring, u0 = 0.5, K = 40; the K-convergence limits are
# 0.07826937 (N = 3) and 0.07929634 (N = 9), matched to 2e-6 relative by
# 1/K Richardson extrapolation of a plain cut from K = 80/160.
PHI_RING_N3 = 0.07826937248578464
PHI_RING_N9 = 0.07929632223330493


def test_constant_control_phase_is_the_fixed_gap(two_level_spec):
    # At Delta = U the two-level gap is exactly 2 sqrt(2) J.
    const = protocol.constant_protocol(two_level_spec, 22.3)
    phi = perturbation.phase_integral(const)
    assert phi == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)


def test_frozen_phase_integrals(two_level_faquad, splitting_faquad,
                                cotunneling_faquad, ring_faquad_n3, ring_faquad_n9):
    assert perturbation.phase_integral(two_level_faquad) == pytest.approx(PHI_TWO_LEVEL, rel=1e-9)
    assert perturbation.phase_integral(splitting_faquad) == pytest.approx(PHI_SPLITTING, rel=1e-9)
    assert perturbation.phase_integral(cotunneling_faquad) == pytest.approx(PHI_COTUNNELING, rel=1e-9)
    assert perturbation.phase_integral(ring_faquad_n3) == pytest.approx(PHI_RING_N3, rel=1e-9)
    assert perturbation.phase_integral(ring_faquad_n9) == pytest.approx(PHI_RING_N9, rel=1e-9)


def test_phase_integral_grid_refinement(two_level_spec):
    coarse, fine = (perturbation.phase_integral(protocol.design_faquad(
        two_level_spec, track=protocol.design_track(two_level_spec, [(1, 2)], n)))
        for n in (1001, 4001))
    assert abs(coarse - fine) / fine < 1e-3


def test_prediction_identities(two_level_faquad):
    pred = perturbation.predict(two_level_faquad)
    assert pred.period == pytest.approx(2.0 * math.pi / pred.phi, rel=1e-15)
    assert pred.envelope(2.0) == pytest.approx(pred.c_tilde**2, rel=1e-15)
    # zeros of the predicted infidelity at integer multiples of the period
    for k in (1, 2, 5):
        assert perturbation.predicted_infidelity(pred, k * pred.period) \
            == pytest.approx(0.0, abs=1e-12)
    # maxima halfway between zeros touch the envelope
    t = 2.5 * pred.period
    assert perturbation.predicted_infidelity(pred, t) == pytest.approx(pred.envelope(t), rel=1e-6)


def test_prediction_tracks_projection(two_level_faquad):
    # |g_2(t_f)|^2 at an envelope antinode agrees with the first-order
    # formula within 20%.
    pred = perturbation.predict(two_level_faquad)
    t_f = 2.5 * pred.period
    control = protocol.rescale(two_level_faquad, t_f)
    psi0 = dynamics._start_vector(two_level_faquad, "ground").astype(complex)
    result = dynamics.evolve(control, psi0, n_steps=8192)
    proj = dynamics.adiabatic_projection(result)
    measured = float(np.abs(proj.g[-1, 1]) ** 2)
    assert measured == pytest.approx(perturbation.predicted_infidelity(pred, t_f), rel=0.2)


def test_cotunneling_dips_below_the_lower_envelope(cotunneling_faquad):
    # Negative control: near the antinode t_f = 2.5 T the cotunneling
    # fidelity falls below 1 - envelope, i.e. the first-order two-level
    # picture underestimates the loss because the third level
    # participates.
    pred = perturbation.predict(cotunneling_faquad)
    t_mid = 2.5 * pred.period
    tf_grid = np.linspace(t_mid - 0.6, t_mid + 0.6, 31)
    curve = dynamics.fidelity_sweep(cotunneling_faquad, tf_grid,
                                    start="ground", target=1, n_steps=16384)
    i = int(np.nanargmin(curve.population))
    floor = 1.0 - pred.envelope(float(tf_grid[i]))
    assert curve.population[i] < floor


def test_predict_requires_designed_schedule(two_level_spec):
    lin = protocol.linear_ramp(two_level_spec)
    with pytest.raises(ValueError):
        perturbation.predict(lin)
    # the phase integral itself is still defined along any trajectory
    assert perturbation.phase_integral(lin) > 0


def test_competitor_prediction_carries_its_c_tilde(two_level_la):
    pred = perturbation.predict(two_level_la)
    assert pred.c_tilde == pytest.approx(1.0436237082810267, rel=1e-9)


def test_predicted_infidelity_validation(two_level_faquad):
    pred = perturbation.predict(two_level_faquad)
    with pytest.raises(ValueError):
        perturbation.predicted_infidelity(pred, 0.0)
    with pytest.raises(ValueError):
        perturbation.predicted_infidelity(pred, -1.0)
    with pytest.raises(ValueError):
        perturbation.predicted_infidelity(pred, math.nan)
    with pytest.raises(ValueError):
        perturbation.predicted_infidelity(pred, math.inf)


@pytest.mark.parametrize("design", [protocol.design_faquad, protocol.design_local_adiabatic,
                                    protocol.design_uniform_adiabatic])
@pytest.mark.parametrize("spec_name", ["two_level_spec", "cotunneling_spec"])
def test_designed_prediction_reads_the_design_record(design, spec_name, request,
                                                     monkeypatch):
    spec = request.getfixturevalue(spec_name)
    track = protocol.design_track(spec, [(1, 2)])
    traj = design(spec, track=track)
    # The record is a fresh array, so it does not keep the track alive.
    assert not np.shares_memory(traj.gap, track.energies)
    # Phi as the knots' own diagonalisation gives it.
    knots = spectral.track_frames(spec, traj.values, pairs=((1, 2),))
    reference = float(np.trapezoid(np.abs(knots.gap((1, 2))), traj.s_grid))
    scaled = traj.scaled(1.1)
    assert scaled.gap is None
    energies = np.linalg.eigvalsh(model.hamiltonian(spec, scaled.values))
    scaled_reference = float(np.trapezoid(energies[:, 1] - energies[:, 0], scaled.s_grid))

    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    phi = perturbation.phase_integral(traj)
    pred = perturbation.predict(traj)
    assert calls == []
    assert phi == pred.phi == reference
    assert perturbation.phase_integral(scaled) == scaled_reference
    assert calls == ["eigh"]

    with pytest.raises(ValueError, match="gap"):
        protocol.NormalizedTrajectory(kind=traj.kind, spec=spec, s_grid=traj.s_grid,
                                      values=traj.values, gap=traj.gap[1:])
