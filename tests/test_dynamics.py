"""Midpoint-exponential propagation, sweeps, and adiabatic projections."""

import math

import numpy as np
import pytest

from faquad import dynamics, model, perturbation, protocol, spectral, tg
from faquad.errors import FaquadError

PI_PULSE_TIME = math.pi / (2.0 * math.sqrt(2.0))


def test_constant_control_preserves_eigenstate_populations(two_level_spec):
    traj = protocol.constant_protocol(two_level_spec, 50.0)
    control = protocol.rescale(traj, 3.0)
    psi0 = spectral.eigenstate(two_level_spec, 50.0, level=1).astype(complex)
    result = dynamics.evolve(two_level_spec, control, psi0, n_steps=2000)
    assert np.max(np.abs(np.abs(result.final_state) - np.abs(psi0))) < 1e-12


def test_pi_pulse_rabi_oracle(two_level_spec):
    # On resonance (Delta = U) the coupling -sqrt(2) J drives a bare
    # Rabi cycle |b_2(t)|^2 = sin^2(sqrt(2) J t); the pi-pulse time is
    # pi / (2 sqrt(2) J).
    traj = protocol.constant_protocol(two_level_spec, 22.3)
    psi0 = dynamics.bare_state(two_level_spec, 1).astype(complex)

    control = protocol.rescale(traj, PI_PULSE_TIME)
    result = dynamics.evolve(two_level_spec, control, psi0, n_steps=2000)
    assert dynamics.final_population(result, 2) == pytest.approx(1.0, abs=1e-10)

    control = protocol.rescale(traj, 2.0 * PI_PULSE_TIME)
    result = dynamics.evolve(two_level_spec, control, psi0, n_steps=2000)
    assert dynamics.final_population(result, 1) == pytest.approx(1.0, abs=1e-10)

    times = np.linspace(PI_PULSE_TIME - 0.01, PI_PULSE_TIME + 0.01, 2001)
    curve = dynamics.fidelity_sweep(two_level_spec, traj, times,
                                    start=1, target=2, n_steps=512)
    measured = float(times[np.argmax(curve.population)])
    assert abs(measured - PI_PULSE_TIME) <= 1e-4


def test_unitarity(two_level_spec, two_level_faquad):
    control = protocol.rescale(two_level_faquad, 5.0)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(two_level_spec, control, psi0)
    assert result.norm_drift < 1e-9
    norms = np.linalg.norm(result.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_step_halving_convergence(two_level_spec, two_level_faquad):
    # Midpoint exponentials are second order: halving the step should
    # shrink the defect by about 4x.
    control = protocol.rescale(two_level_faquad, 2.246)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    states = [dynamics.evolve(two_level_spec, control, psi0, n_steps=n).final_state
              for n in (8192, 16384, 32768)]
    d_coarse = np.max(np.abs(states[0] - states[1]))
    d_fine = np.max(np.abs(states[1] - states[2]))
    assert d_coarse < 1e-4
    assert d_fine < d_coarse
    assert 3.5 < d_coarse / d_fine < 4.5


def test_short_evolution_is_identity(two_level_spec, two_level_faquad):
    control = protocol.rescale(two_level_faquad, 1e-9)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(two_level_spec, control, psi0, n_steps=2000)
    assert np.max(np.abs(result.final_state - psi0)) < 1e-6


def test_evolve_time_grid_and_shapes(two_level_spec, two_level_faquad):
    control = protocol.rescale(two_level_faquad, 2.0)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(two_level_spec, control, psi0, n_steps=2048, n_save=101)
    assert result.times[0] == 0.0
    assert result.times[-1] == 2.0
    assert result.states.shape == (len(result.times), 2)
    assert len(result.times) == 101
    assert np.all(np.diff(result.times) > 0)


def test_default_step_rule(two_level_spec, two_level_faquad):
    got = dynamics.default_n_steps(two_level_spec, two_level_faquad, 10.0)
    g = 22.3 - 66.7
    gap_max = math.sqrt(g * g + 8.0)
    expected = max(2000, math.ceil(200.0 * 10.0 * gap_max / (2.0 * math.pi)))
    assert got == expected
    assert dynamics.default_n_steps(two_level_spec, two_level_faquad, 0.01) == 2000


def test_bare_state_and_population_conventions(two_level_spec):
    b1 = dynamics.bare_state(two_level_spec, 1)
    assert np.array_equal(b1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        dynamics.bare_state(two_level_spec, 0)
    with pytest.raises(ValueError):
        dynamics.bare_state(two_level_spec, 3)


def test_evolve_input_validation(two_level_spec, two_level_faquad):
    control = protocol.rescale(two_level_faquad, 1.0)
    with pytest.raises(ValueError):
        dynamics.evolve(two_level_spec, control, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        dynamics.evolve(two_level_spec, control, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        dynamics.evolve(two_level_spec, control, np.array([1.0, 0.0]), n_save=1)


def test_projection_initial_value_and_sum_rule(two_level_spec, two_level_faquad):
    pred = perturbation.predict(two_level_faquad)
    t_f = 1.5 * pred.period
    control = protocol.rescale(two_level_faquad, t_f)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(two_level_spec, control, psi0, n_save=201)
    proj = dynamics.adiabatic_projection(two_level_spec, control, result)

    assert proj.g[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert proj.g[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert proj.sum_rule_error < 1e-9
    assert proj.W[(1, 2)][0] == 0.0
    # E_1 < E_2 makes beta_1 - beta_2 strictly decreasing
    assert np.all(np.diff(proj.W[(1, 2)]) < 0)

    g2 = np.abs(proj.g_level(2)) ** 2
    predicted = perturbation.predicted_infidelity(pred, t_f)
    assert g2[-1] == pytest.approx(predicted, rel=0.2)


def test_endpoint_bare_adiabatic_consistency():
    # When the final ground state is bare-dominated (> 0.999 here), the
    # bare and adiabatic end-point populations agree to 1e-3 at a
    # revival time.
    spec = model.two_level(U=22.3, delta_start=66.7, delta_end=-66.7)
    traj = protocol.design_faquad(spec)
    phi_end = spectral.eigenstate(spec, -66.7, level=1)
    dominance = float(np.abs(phi_end[0]) ** 2)
    assert dominance > 0.999

    pred = perturbation.predict(traj)
    t_f = 4.0 * pred.period
    control = protocol.rescale(traj, t_f)
    psi0 = spectral.eigenstate(spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(spec, control, psi0, n_steps=8192)
    bare = dynamics.final_population(result, 1)
    adiabatic = float(np.abs(np.vdot(phi_end, result.final_state)) ** 2)
    assert abs(bare - adiabatic) < 1e-3


def test_sweep_deterministic_and_thread_safe(two_level_spec, two_level_faquad):
    tf = np.linspace(0.5, 3.0, 12)
    one = dynamics.fidelity_sweep(two_level_spec, two_level_faquad, tf,
                                  n_steps=4096, workers=1)
    two = dynamics.fidelity_sweep(two_level_spec, two_level_faquad, tf,
                                  n_steps=4096, workers=2)
    again = dynamics.fidelity_sweep(two_level_spec, two_level_faquad, tf,
                                    n_steps=4096, workers=1)
    assert np.array_equal(one.population, two.population)
    assert np.array_equal(one.population, again.population)
    assert one.failures == [] and two.failures == []


def test_sweep_tree_product_matches_stepwise(two_level_spec, two_level_faquad):
    t_f = 1.7
    curve = dynamics.fidelity_sweep(two_level_spec, two_level_faquad, [t_f],
                                    start="ground", target=1, n_steps=4096)
    control = protocol.rescale(two_level_faquad, t_f)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(two_level_spec, control, psi0, n_steps=4096)
    assert curve.population[0] == pytest.approx(
        dynamics.final_population(result, 1), abs=1e-10)


def test_sweep_ground_target(two_level_spec, two_level_faquad):
    # At a revival node (integer multiple of the oscillation period) the
    # dressed ground-state population returns to ~1.
    t_f = 6.0 * 1.4976122845554554
    curve = dynamics.fidelity_sweep(two_level_spec, two_level_faquad, [t_f],
                                    start="ground", target="ground", n_steps=4096)
    assert curve.population[0] > 0.999


def test_sweep_rejects_bad_durations(two_level_spec, two_level_faquad):
    with pytest.raises(ValueError):
        dynamics.fidelity_sweep(two_level_spec, two_level_faquad, [1.0, -2.0])


def _two_level_sweep(spec, traj, points):
    curve = dynamics.fidelity_sweep(spec, traj, points, n_steps=2048)
    return curve.population, curve.failures


def _ring_duration_sweep(spec, traj, points):
    curves = tg.duration_sweep(spec, [1, 3], traj, points, n_steps=400)
    assert curves[0].failures == curves[1].failures
    return np.stack([c.fidelity for c in curves], axis=1), curves[0].failures


def _ring_epsilon_sweep(spec, traj, points):
    curve = tg.epsilon_sweep(spec, 3, traj, 5.0, epsilons=points, n_steps=400)
    return curve.fidelity, curve.failures


@pytest.mark.parametrize("sweep,ring,patched,points", [
    (_two_level_sweep, False, "_total_propagator", [0.5, 1.0, 1.5]),
    (_ring_duration_sweep, True, "evolve", [2.0, 4.0, 6.0]),
    (_ring_epsilon_sweep, True, "evolve", [-0.05, 0.0, 0.05]),
])
def test_sweeps_turn_a_failed_point_into_nan(monkeypatch, two_level_spec, two_level_faquad,
                                             sweep, ring, patched, points):
    # Every sweep runs its points through one loop: a FaquadError at one
    # point leaves NaN there, is listed with its point, and spares the rest.
    if ring:
        spec = model.ring(u0=0.5, K=12)
        args = (spec, protocol.linear_ramp(spec), points)
    else:
        args = (two_level_spec, two_level_faquad, points)
    clean, no_failures = sweep(*args)
    assert no_failures == [] and not np.any(np.isnan(clean))

    original = getattr(dynamics, patched)
    calls = []

    def second_call_fails(*a, **kw):
        calls.append(None)
        if len(calls) == 2:
            raise FaquadError("injected")
        return original(*a, **kw)

    monkeypatch.setattr(dynamics, patched, second_call_fails)
    values, failures = sweep(*args)
    assert np.all(np.isnan(values[1]))
    assert failures == [(points[1], "injected")]
    assert np.array_equal(values[[0, 2]], clean[[0, 2]])


def test_midpoint_table_reuse(two_level_spec, two_level_faquad):
    table = dynamics.MidpointTable(two_level_spec, two_level_faquad, 2048)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    for t_f in (1.0, 2.5):
        control = protocol.rescale(two_level_faquad, t_f)
        with_table = dynamics.evolve(two_level_spec, control, psi0,
                                     n_steps=2048, table=table)
        without = dynamics.evolve(two_level_spec, control, psi0, n_steps=2048)
        assert np.array_equal(with_table.final_state, without.final_state)


def test_stacked_state_evolution(two_level_spec, two_level_faquad):
    control = protocol.rescale(two_level_faquad, 1.3)
    stack = np.eye(2, dtype=complex)
    result = dynamics.evolve(two_level_spec, control, stack, n_steps=2048, n_save=2)
    U = result.final_state
    assert U.shape == (2, 2)
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-12

    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    single = dynamics.evolve(two_level_spec, control, psi0, n_steps=2048, n_save=2)
    assert np.max(np.abs(U @ psi0 - single.final_state)) < 1e-12


def test_ring_evolve_matches_a_complex_matmul_loop():
    # evolve steps the real and imaginary parts with real matrix products;
    # the plain loop casts each eigenvector matrix to complex.
    spec = model.ring(u0=0.5, K=12)
    traj = protocol.linear_ramp(spec)
    table = dynamics.MidpointTable(spec, traj, 400)
    control = protocol.rescale(traj, 20.0)
    dt = 20.0 / 400
    orbitals = tg.initial_stack(spec, 5).orbitals * np.exp(1j * np.arange(5))

    def plain(psi):
        psi = psi.reshape(spec.dim, -1)
        for w, v in zip(table.eigvals, table.eigvecs):
            v = v.astype(complex)
            psi = v @ (np.exp(-1j * w * dt)[:, None] * (v.T @ psi))
        return psi

    cases = {"stack": orbitals[:, :3], "vector": orbitals[:, 1], "slice": orbitals[:, ::2]}
    assert not cases["slice"].flags.c_contiguous
    for name, psi0 in cases.items():
        final = dynamics.evolve(spec, control, psi0, n_save=2, table=table).final_state
        assert final.shape == psi0.shape, name
        assert np.max(np.abs(final.reshape(spec.dim, -1) - plain(psi0))) <= 1e-13, name
        streamed = dynamics.evolve(spec, control, psi0, n_steps=400, n_save=2).final_state
        assert np.array_equal(streamed, final), name
