"""CF4 propagation, sweeps, and adiabatic projections."""

import inspect
import math
import os
import types

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from faquad import dynamics, model, perturbation, protocol, spectral, tg
from faquad.errors import FaquadError, StepSizeTooCoarse

from conftest import traced_peak

PI_PULSE_TIME = math.pi / (2.0 * math.sqrt(2.0))
# CF4 weights a1, a2 and the offset of the Gauss nodes from a step's middle.
A1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
A2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
NODE = math.sqrt(3.0) / 6.0


def test_constant_control_preserves_eigenstate_populations(two_level_spec):
    traj = protocol.constant_protocol(two_level_spec, 50.0)
    control = protocol.rescale(traj, 3.0)
    psi0 = spectral.eigenstate(two_level_spec, 50.0, level=1).astype(complex)
    result = dynamics.evolve(control, psi0, n_steps=2000)
    assert np.max(np.abs(np.abs(result.final_state) - np.abs(psi0))) < 1e-12


def test_pi_pulse_rabi_oracle(two_level_spec):
    # On resonance (Delta = U) the coupling -sqrt(2) J drives a bare
    # Rabi cycle |b_2(t)|^2 = sin^2(sqrt(2) J t); the pi-pulse time is
    # pi / (2 sqrt(2) J).
    traj = protocol.constant_protocol(two_level_spec, 22.3)
    psi0 = dynamics.bare_state(two_level_spec, 1).astype(complex)

    control = protocol.rescale(traj, PI_PULSE_TIME)
    result = dynamics.evolve(control, psi0, n_steps=2000)
    assert float(np.abs(result.final_state[1]) ** 2) == pytest.approx(1.0, abs=1e-10)

    control = protocol.rescale(traj, 2.0 * PI_PULSE_TIME)
    result = dynamics.evolve(control, psi0, n_steps=2000)
    assert float(np.abs(result.final_state[0]) ** 2) == pytest.approx(1.0, abs=1e-10)

    times = np.linspace(PI_PULSE_TIME - 0.01, PI_PULSE_TIME + 0.01, 2001)
    curve = dynamics.fidelity_sweep(traj, times,
                                    start=1, target=2, n_steps=512)
    measured = float(times[np.argmax(curve.population)])
    assert abs(measured - PI_PULSE_TIME) <= 1e-4


def test_unitarity(two_level_spec, two_level_faquad):
    control = protocol.rescale(two_level_faquad, 5.0)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(control, psi0)
    assert result.norm_drift < 1e-9
    norms = np.linalg.norm(result.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_step_halving_convergence(cotunneling_spec):
    # CF4 is fourth order: on a smooth schedule, the bose-hubbard-3 linear
    # ramp at t_f = 20, halving the step shrinks the defect by about 16x.
    # Measured: differences 4.0e-8, 2.4e-9 and 1.5e-10, far above roundoff,
    # and ratios 16.7 and 16.2.
    control = protocol.rescale(protocol.linear_ramp(cotunneling_spec), 20.0)
    psi0 = spectral.eigenstate(cotunneling_spec, 66.7, level=1).astype(complex)
    states = [dynamics.evolve(control, psi0, n_steps=n, n_save=2).final_state
              for n in (1000, 2000, 4000, 8000)]
    diffs = [np.max(np.abs(a - b)) for a, b in zip(states[:-1], states[1:])]
    assert diffs[0] < 1e-6
    assert diffs[-1] > 1e-11
    for coarse, fine in zip(diffs[:-1], diffs[1:]):
        assert 14.0 < coarse / fine < 18.0


def test_default_rule_matches_a_dop853_solve(two_level_faquad):
    # The default rule at t_f = 10, the longest fig1b duration, against
    # scipy's DOP853 along the same schedule: CF4 reads 4.3e-8 off.
    t_f = 10.0
    traj = two_level_faquad
    curve = dynamics.fidelity_sweep(traj, [t_f], start="ground", target=1)
    assert curve.n_steps == 1771
    psi0 = spectral.eigenstate(traj.spec, traj.spec.lambda_start, level=1).astype(complex)

    def rhs(t, psi):
        return -1j * (model.hamiltonian(traj.spec, traj.evaluate(min(t / t_f, 1.0))) @ psi)

    sol = solve_ivp(rhs, (0.0, t_f), psi0, method="DOP853", rtol=1e-12, atol=1e-12)
    assert sol.success
    assert abs(curve.population[0] - abs(sol.y[0, -1]) ** 2) <= 1e-7


@settings(max_examples=60, deadline=None, database=None)
@given(kind=st.sampled_from(model.KINDS), lam1=st.floats(-10.0, 10.0),
       lam2=st.floats(-10.0, 10.0))
def test_a_cf4_exponent_is_one_hamiltonian_and_a_shift(kind, lam1, lam2):
    # a H(lam1) + b H(lam2) = (H(lam_bar) + 2c I) / 2 for both factors, the
    # first (a, b) = (a2, a1) and the second (a1, a2), with c = 0 but on the
    # ring, where c = a x1^2 + b x2^2 - 2 (a x1 + b x2)^2, x = Omega/2pi.
    spec = {"two-level": model.two_level(U=22.3, delta_start=66.7, delta_end=0.0),
            "bose-hubbard-3": model.bose_hubbard3(U=22.3, delta_start=66.7, delta_end=-66.7),
            "ring": model.ring(u0=0.5, K=5)}[kind]
    controls, shifts = dynamics._cf4_exponents(spec, np.array([lam1]), np.array([lam2]))
    assert controls.shape == shifts.shape == (2, 1)
    H1, H2 = model.hamiltonian(spec, lam1), model.hamiltonian(spec, lam2)
    x1, x2 = lam1 / (2.0 * math.pi), lam2 / (2.0 * math.pi)
    for (a, b), control, shift in zip([(A2, A1), (A1, A2)], controls[:, 0], shifts[:, 0]):
        c = a * x1 * x1 + b * x2 * x2 - 2.0 * (a * x1 + b * x2) ** 2 if kind == "ring" else 0.0
        assert shift == pytest.approx(2.0 * c, rel=1e-9, abs=1e-15)
        want = a * H1 + b * H2
        got = 0.5 * (model.hamiltonian(spec, control) + shift * np.eye(spec.dim))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_step_controls_are_the_exponents_at_the_gauss_nodes(ring_faquad_n3):
    # Sub-steps 2k and 2k + 1 are the two factors of step k, the first
    # acting first, at the nodes s = (k + 1/2 -/+ sqrt(3)/6)/n.
    n_steps = 7
    controls, shifts = dynamics._step_controls(ring_faquad_n3, n_steps)
    middle = np.arange(n_steps) + 0.5
    want = dynamics._cf4_exponents(ring_faquad_n3.spec,
                                   ring_faquad_n3.evaluate((middle - NODE) / n_steps),
                                   ring_faquad_n3.evaluate((middle + NODE) / n_steps))
    assert np.array_equal(controls, want[0].T.reshape(-1))
    assert np.array_equal(shifts, want[1].T.reshape(-1))
    assert np.all(shifts < 0.0)


def test_short_evolution_is_identity(two_level_spec, two_level_faquad):
    control = protocol.rescale(two_level_faquad, 1e-9)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(control, psi0, n_steps=2000)
    assert np.max(np.abs(result.final_state - psi0)) < 1e-6


def test_evolve_time_grid_and_shapes(two_level_spec, two_level_faquad):
    control = protocol.rescale(two_level_faquad, 2.0)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(control, psi0, n_steps=2048, n_save=101)
    assert result.times[0] == 0.0
    assert result.times[-1] == 2.0
    assert result.states.shape == (len(result.times), 2)
    assert len(result.times) == 101
    assert np.all(np.diff(result.times) > 0)


def test_default_step_rule(two_level_faquad):
    got = dynamics.default_n_steps(two_level_faquad, 10.0)
    g = 22.3 - 66.7
    gap_max = math.sqrt(g * g + 8.0)
    expected = max(250, math.ceil(25.0 * 10.0 * gap_max / (2.0 * math.pi)))
    assert got == expected
    assert dynamics.default_n_steps(two_level_faquad, 0.01) == 250


def test_reversed_pair_takes_the_same_steps_and_sweep(two_level_spec, two_level_faquad):
    reversed_design = protocol.design_faquad(two_level_spec, pair=(2, 1))
    assert reversed_design.c_tilde == two_level_faquad.c_tilde
    assert dynamics.default_n_steps(two_level_faquad, 10.0, pair=(2, 1)) == \
        dynamics.default_n_steps(two_level_faquad, 10.0) == 1771
    points = [0.5, 5.25, 10.0]
    forward = dynamics.fidelity_sweep(two_level_faquad, points)
    backward = dynamics.fidelity_sweep(reversed_design, points)
    assert backward.n_steps == forward.n_steps == 1771
    assert np.array_equal(backward.population, forward.population)


def _model_inputs(function):
    """Names of the parameters of ``function`` that carry a model: a spec,
    or a trajectory, timed control or evolution result, which hold one."""
    carriers = ("NormalizedTrajectory", "TimedControl", "EvolutionResult")
    spec, carrier = [], []
    for name, param in inspect.signature(function).parameters.items():
        annotation = str(param.annotation)
        if name == "spec" or "ModelSpec" in annotation:
            spec.append(name)
        elif name in ("traj", "control", "result") or any(c in annotation for c in carriers):
            carrier.append(name)
    return spec, carrier


@pytest.mark.parametrize("module", [dynamics, tg], ids=["dynamics", "tg"])
def test_no_public_function_takes_a_spec_beside_a_trajectory(module):
    # The model comes from the trajectory, control or result alone, so the
    # two cannot disagree.
    public = [obj for name, obj in vars(module).items()
              if not name.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == module.__name__]
    assert public
    both = [obj.__name__ for obj in public if all(_model_inputs(obj))]
    assert both == []


def test_bare_state_and_population_conventions(two_level_spec):
    b1 = dynamics.bare_state(two_level_spec, 1)
    assert np.array_equal(b1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        dynamics.bare_state(two_level_spec, 0)
    with pytest.raises(ValueError):
        dynamics.bare_state(two_level_spec, 3)


def test_evolve_input_validation(two_level_faquad):
    control = protocol.rescale(two_level_faquad, 1.0)
    with pytest.raises(ValueError):
        dynamics.evolve(control, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        dynamics.evolve(control, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        dynamics.evolve(control, np.array([1.0, 0.0]), n_save=1)


def test_norm_checks_reject_nan(two_level_faquad):
    # A NaN norm drift compares false against any limit, so it must fail the
    # checks rather than slip past them.
    control = protocol.rescale(two_level_faquad, 1.0)
    with pytest.raises(ValueError, match="normalized"):
        dynamics.evolve(control, np.array([math.nan, 0.0]), n_steps=100)
    with pytest.raises(StepSizeTooCoarse, match="norm drift"):
        dynamics._check_norm(np.array([[math.nan], [0.0]]), axis=0)


def test_projection_initial_value_and_sum_rule(two_level_spec, two_level_faquad):
    pred = perturbation.predict(two_level_faquad)
    t_f = 1.5 * pred.period
    control = protocol.rescale(two_level_faquad, t_f)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(control, psi0, n_save=201)
    proj = dynamics.adiabatic_projection(result)

    assert proj.g[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert proj.g[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert proj.sum_rule_error < 1e-9
    assert proj.W[(1, 2)][0] == 0.0
    # E_1 < E_2 makes beta_1 - beta_2 strictly decreasing
    assert np.all(np.diff(proj.W[(1, 2)]) < 0)

    g2 = np.abs(proj.g[:, 1]) ** 2
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
    result = dynamics.evolve(control, psi0, n_steps=8192)
    bare = float(np.abs(result.final_state[0]) ** 2)
    adiabatic = float(np.abs(np.vdot(phi_end, result.final_state)) ** 2)
    assert abs(bare - adiabatic) < 1e-3


def test_sweep_deterministic_and_thread_safe(two_level_faquad):
    tf = np.linspace(0.5, 3.0, 12)
    one = dynamics.fidelity_sweep(two_level_faquad, tf,
                                  n_steps=4096, workers=1)
    two = dynamics.fidelity_sweep(two_level_faquad, tf,
                                  n_steps=4096, workers=2)
    again = dynamics.fidelity_sweep(two_level_faquad, tf,
                                    n_steps=4096, workers=1)
    assert np.array_equal(one.population, two.population)
    assert np.array_equal(one.population, again.population)
    assert one.failures == [] and two.failures == []


def test_sweep_tree_product_matches_stepwise(two_level_spec, two_level_faquad):
    t_f = 1.7
    curve = dynamics.fidelity_sweep(two_level_faquad, [t_f],
                                    start="ground", target=1, n_steps=4096)
    control = protocol.rescale(two_level_faquad, t_f)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    result = dynamics.evolve(control, psi0, n_steps=4096)
    assert curve.population[0] == pytest.approx(
        float(np.abs(result.final_state[0]) ** 2), abs=1e-10)


def test_sweep_ground_target(two_level_faquad):
    # At a revival node (integer multiple of the oscillation period) the
    # dressed ground-state population returns to ~1.
    t_f = 6.0 * 1.4976122845554554
    curve = dynamics.fidelity_sweep(two_level_faquad, [t_f],
                                    start="ground", target="ground", n_steps=4096)
    assert curve.population[0] > 0.999


def test_sweep_rejects_bad_durations(two_level_faquad, monkeypatch):
    with pytest.raises(ValueError):
        dynamics.fidelity_sweep(two_level_faquad, [1.0, -2.0])

    # A NaN or infinite duration or calibration error is rejected before
    # the step rule runs, a table is built or a state is stepped, with or
    # without an explicit step count.
    def refused(*args, **kwargs):
        raise AssertionError("the step rule, a table or a frame pass was reached")

    monkeypatch.setattr(dynamics, "default_n_steps", refused)
    monkeypatch.setattr(dynamics, "MidpointTable", refused)
    monkeypatch.setattr(dynamics, "_frame_pass", refused)
    ring = protocol.linear_ramp(model.ring(u0=0.5, K=2))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="durations"):
            dynamics.fidelity_sweep(two_level_faquad, [1.0, bad], n_steps=2000)
        with pytest.raises(ValueError, match="durations"):
            dynamics.fidelity_sweep(two_level_faquad, [1.0, bad])
        with pytest.raises(ValueError, match="durations"):
            tg.duration_sweep([3], ring, [bad], n_steps=400)
        with pytest.raises(ValueError, match="t_f"):
            tg.epsilon_sweep(1, ring, bad)
        for n_steps in (None, 400):
            with pytest.raises(ValueError, match="calibration errors"):
                tg.epsilon_sweep(1, ring, 5.0, epsilons=[0.0, bad], n_steps=n_steps)


def test_sweeps_reject_empty_durations_and_fillings(two_level_faquad, monkeypatch):
    # Before the step rule runs, a table is built or a state is stepped,
    # with or without an explicit step count.
    def refused(*args, **kwargs):
        raise AssertionError("the step rule, a table or a frame pass was reached")

    monkeypatch.setattr(dynamics, "default_n_steps", refused)
    monkeypatch.setattr(dynamics, "MidpointTable", refused)
    monkeypatch.setattr(dynamics, "_frame_pass", refused)
    ring = protocol.linear_ramp(model.ring(u0=0.5, K=2))
    for n_steps in (None, 400):
        with pytest.raises(ValueError, match="at least one duration"):
            dynamics.fidelity_sweep(two_level_faquad, [], n_steps=n_steps)
        with pytest.raises(ValueError, match="at least one duration"):
            tg.duration_sweep([3], ring, [], n_steps=n_steps)
        with pytest.raises(ValueError, match="at least one filling"):
            tg.duration_sweep([], ring, [1.0], n_steps=n_steps)
        with pytest.raises(ValueError, match="at least one calibration error"):
            tg.epsilon_sweep(1, ring, 5.0, epsilons=[], n_steps=n_steps)


@pytest.mark.parametrize("target", [0, -1, 3, 5])
def test_sweep_rejects_a_target_outside_the_levels(two_level_faquad, monkeypatch, target):
    # A bare target outside 1..dim would otherwise index the state from the
    # end (0, -1) or fail late; it fails before the step rule or a table.
    def refused(*args, **kwargs):
        raise AssertionError("the step rule or a table was reached")

    monkeypatch.setattr(dynamics, "default_n_steps", refused)
    monkeypatch.setattr(dynamics, "MidpointTable", refused)
    with pytest.raises(ValueError, match="bare index"):
        dynamics.fidelity_sweep(two_level_faquad, [1.0], target=target)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_sweeps_reject_a_step_count_below_one(two_level_faquad, n_steps):
    # As evolve and tg.epsilon_sweep do, before any table is built.
    with pytest.raises(ValueError, match="n_steps"):
        dynamics.fidelity_sweep(two_level_faquad, [1.0], n_steps=n_steps)
    ring = protocol.linear_ramp(model.ring(u0=0.5, K=2))
    with pytest.raises(ValueError, match="n_steps"):
        tg.duration_sweep([1], ring, [1.0], n_steps=n_steps)


def _two_level_sweep(traj, points):
    curve = dynamics.fidelity_sweep(traj, points, n_steps=2048)
    return curve.population, curve.failures


def _ring_duration_sweep(traj, points):
    curves = tg.duration_sweep([1, 3], traj, points, n_steps=400)
    assert curves[0].failures == curves[1].failures
    return np.stack([c.fidelity for c in curves], axis=1), curves[0].failures


def _ring_epsilon_sweep(traj, points):
    curve = tg.epsilon_sweep(3, traj, 5.0, epsilons=points, n_steps=400)
    return curve.fidelity, curve.failures


@pytest.mark.parametrize("sweep,ring,patched,points", [
    (_two_level_sweep, False, "_total_propagator", [0.5, 1.0, 1.5]),
    (_ring_duration_sweep, True, "_check_norm", [2.0, 4.0, 6.0]),
    (_ring_epsilon_sweep, True, "_final_states", [-0.05, 0.0, 0.05]),
])
def test_sweeps_turn_a_failed_point_into_nan(monkeypatch, two_level_faquad,
                                             sweep, ring, patched, points):
    # Every sweep runs its points through one loop: a FaquadError at one
    # point leaves NaN there, is listed with its point, and spares the rest.
    if ring:
        args = (protocol.linear_ramp(model.ring(u0=0.5, K=12)), points)
    else:
        args = (two_level_faquad, points)
    clean, no_failures = sweep(*args)
    assert no_failures == [] and not np.any(np.isnan(clean))

    original = getattr(dynamics, patched)
    calls = []

    def middle_point_fails(*a, **kw):
        # The tree forms its durations on two threads in no fixed order, so
        # its failure is keyed to the middle duration's sub-step (2048 CF4
        # steps, 4096 sub-steps); on the other paths the second call is the
        # middle point's.
        calls.append(None)
        if a[1] == points[1] / 4096 if patched == "_total_propagator" else len(calls) == 2:
            raise FaquadError("injected")
        return original(*a, **kw)

    monkeypatch.setattr(dynamics, patched, middle_point_fails)
    values, failures = sweep(*args)
    assert np.all(np.isnan(values[1]))
    assert failures == [(points[1], "injected")]
    assert np.array_equal(values[[0, 2]], clean[[0, 2]])


@pytest.mark.parametrize("K", [2, 3])
def test_small_ring_sweeps_take_the_tree_product(monkeypatch, K):
    # d = 5 and 7: the tree path forms every final state, and agrees with
    # evolve, a frame pass at M = dim. An epsilon sweep takes it too, and
    # reports no frame.
    spec = model.ring(u0=0.5, K=K)
    assert spec.dim <= dynamics.TREE_PRODUCT_MAX_DIM
    traj = protocol.linear_ramp(spec)
    psi0 = tg.stack_at(spec, spec.lambda_start, 3)
    tf_list = [5.0, 20.0]
    evolve = dynamics.evolve
    calls = []
    monkeypatch.setattr(dynamics, "evolve", lambda *a, **k: calls.append(a) or evolve(*a, **k))
    _, final, frame = dynamics._final_states(traj, psi0, np.array(tf_list), 4000)
    assert frame == (None, None)
    tree = [final(t_f) for t_f in tf_list]
    assert calls == []
    curve = tg.epsilon_sweep(3, traj, 5.0, epsilons=[-0.05, 0.05], n_steps=400)
    assert calls == []
    assert curve.frame_levels is None and curve.frame_leakage is None
    assert curve.failures == [] and np.all(np.isfinite(curve.fidelity))
    for t_f, state in zip(tf_list, tree):
        streamed = evolve(protocol.rescale(traj, t_f), psi0, n_steps=4000, n_save=2)
        assert np.max(np.abs(state - streamed.final_state)) <= 1e-12


@pytest.mark.parametrize("K", [2, 3])
def test_ring_tree_and_frame_pass_share_the_global_phase(K):
    # The ring's sub-steps carry the shift 2c of their exponent, which turns
    # every state by the phase sum(2c) dt: 3.5e-6 rad at 200 steps and
    # t_f = 20. The tree path and the frame pass both apply it, so their
    # states agree with each other and with the bare-basis CF4 stepper,
    # phase included, far below that turn.
    spec = model.ring(u0=0.5, K=K)
    assert spec.dim <= dynamics.TREE_PRODUCT_MAX_DIM
    traj = protocol.linear_ramp(spec)
    psi0 = tg.stack_at(spec, spec.lambda_start, 3)
    n_steps, t_f = 200, 20.0
    _, shifts = dynamics._step_controls(traj, n_steps)
    assert abs(np.sum(shifts) * t_f / (2 * n_steps)) > 3e-6
    _, final, frame = dynamics._final_states(traj, psi0, np.array([t_f]), n_steps)
    assert frame == (None, None)
    (passed,), _ = dynamics._frame_pass(traj, n_steps, psi0, np.array([t_f]), spec.dim)
    reference = _bare_steps(traj, psi0, t_f, n_steps)[-1]
    assert np.max(np.abs(final(t_f) - passed[0])) <= 1e-12
    assert np.max(np.abs(final(t_f) - reference)) <= 1e-12


def test_a_ground_target_is_solved_once(monkeypatch, two_level_faquad):
    # One eigenstate for the start and one for the target, whatever the
    # number of durations.
    eigenstate = spectral.eigenstate
    calls = []
    monkeypatch.setattr(spectral, "eigenstate",
                        lambda *a, **k: calls.append(a) or eigenstate(*a, **k))
    curve = dynamics.fidelity_sweep(two_level_faquad, [0.5, 1.0, 1.5, 2.0], target="ground",
                                    n_steps=2048)
    assert len(calls) == 2 and np.all(np.isfinite(curve.population))


# The untruncated frame pass and stepping in the bare basis round
# differently: at 800 steps their ring fidelities differ by up to 3e-12.
ROUNDING = 1e-11


def _bare_steps(traj, psi0, t_f, n_steps):
    """The reference integrator, apart from the code under test: psi0 (a
    vector or a (dim, m) stack) stepped in the bare basis by CF4, each
    factor exp(-i h (a H1 + b H2)) taken as psi <- V exp(-i (E + 2c) h/2)
    V^T psi with complex matrix products, V and E from ``spectral.eigh`` at
    lam_bar = 2 (a lam1 + b lam2), (a, b) = (a2, a1) first, then (a1, a2),
    and 2c the ring's identity term (zero for the other models). Returns
    the (n_steps + 1, dim, m) states after 0 to n_steps steps."""
    spec = traj.spec
    middle = np.arange(n_steps) + 0.5
    lam1 = traj.evaluate((middle - NODE) / n_steps)
    lam2 = traj.evaluate((middle + NODE) / n_steps)
    x1, x2 = lam1 / (2.0 * math.pi), lam2 / (2.0 * math.pi)
    factors = []
    for a, b in ((A2, A1), (A1, A2)):
        c = a * x1 * x1 + b * x2 * x2 - 2.0 * (a * x1 + b * x2) ** 2
        factors.append((2.0 * (a * lam1 + b * lam2),
                        2.0 * c if spec.kind == model.RING else np.zeros(n_steps)))
    dt = t_f / (2 * n_steps)
    psi = np.asarray(psi0, dtype=complex).reshape(spec.dim, -1)
    states = [psi]
    for lo in range(0, n_steps, 256):
        solved = [(spectral.eigh(spec, lams[lo : lo + 256]), shifts[lo : lo + 256])
                  for lams, shifts in factors]
        for k in range(len(solved[0][1])):
            for (energies, vectors), shifts in solved:
                v = vectors[k].astype(complex)
                psi = v @ (np.exp(-1j * (energies[k] + shifts[k]) * dt)[:, None] * (v.T @ psi))
            states.append(psi)
    return np.stack(states)


def _bare_fidelities(traj, Ns, tf_list, n_steps):
    """(len(tf_list), len(Ns)) fidelities of one stack of max(Ns)
    orbitals stepped in the bare basis by ``_bare_steps``."""
    spec = traj.spec
    start = tg.stack_at(spec, spec.lambda_start, max(Ns))
    targets = [tg.stack_at(spec, spec.lambda_end, N) for N in Ns]
    out = np.empty((len(tf_list), len(Ns)))
    for i, t_f in enumerate(tf_list):
        final = _bare_steps(traj, start, t_f, n_steps)[-1]
        out[i] = [tg.tg_fidelity(final[:, : t.shape[1]], t) for t in targets]
    return out


@pytest.mark.parametrize("case", ["two-level", "ring-stack", "ring-bare-start"])
def test_evolve_matches_the_bare_basis_stepper(request, case):
    # evolve is one frame pass. Two levels are all of the model, and a bare
    # ring state leaks out of 32 levels, so it doubles to M = dim: there
    # every saved state matches the stepper. A K = 40 stack of 9 orbitals
    # stays in 32 levels, and its fidelity moves by at most the leakage.
    if case == "two-level":
        traj = request.getfixturevalue("two_level_faquad")
        psi0 = spectral.eigenstate(traj.spec, 66.7, level=1)
        t_f, n_steps, n_save, levels = 2.5, 2000, 401, 2
    elif case == "ring-stack":
        spec = request.getfixturevalue("ring_spec")
        traj = protocol.linear_ramp(spec)
        psi0 = tg.stack_at(spec, spec.lambda_start, 9)
        t_f, n_steps, n_save, levels = 30.0, 800, 2, dynamics.FRAME_LEVELS
    else:
        spec = model.ring(u0=0.5, K=20)
        traj = protocol.linear_ramp(spec)
        psi0 = dynamics.bare_state(spec, spec.params.K + 1)
        t_f, n_steps, n_save, levels = 10.0, 800, 5, spec.dim
    result = dynamics.evolve(protocol.rescale(traj, t_f), psi0, n_steps=n_steps, n_save=n_save)
    assert result.frame_levels == levels
    assert result.frame_leakage <= dynamics.LEAKAGE_LIMIT
    assert len(result.times) == n_save
    reference = _bare_steps(traj, psi0, t_f, n_steps)
    bound = result.frame_leakage + ROUNDING
    if case == "ring-stack":
        target = tg.stack_at(spec, spec.lambda_end, 9)
        error = abs(tg.tg_fidelity(result.final_state, target)
                    - tg.tg_fidelity(reference[-1], target))
    else:
        steps = np.round(result.times / t_f * n_steps).astype(int)
        error = np.max(np.abs(result.states - reference[steps][:, :, 0]))
    assert error <= bound


@pytest.mark.parametrize("kind", ["linear", "faquad"])
def test_ring_duration_sweep_steps_a_truncated_frame(monkeypatch, ring_spec, ring_faquad_n3,
                                                     kind):
    # K = 40: every duration is stepped at once in the lowest FRAME_LEVELS
    # of the 81 adiabatic levels, with no call to evolve, and the fidelities
    # move from the bare-basis ones by no more than the reported leakage.
    traj = protocol.linear_ramp(ring_spec) if kind == "linear" else ring_faquad_n3
    Ns, tf_list = (1, 3, 9), [2.0, 30.0, 90.0]
    evolve = dynamics.evolve
    calls = []
    monkeypatch.setattr(dynamics, "evolve", lambda *a, **k: calls.append(a) or evolve(*a, **k))
    curves = tg.duration_sweep(Ns, traj, tf_list, n_steps=800)
    assert calls == []
    leakage = curves[0].frame_leakage
    for curve in curves:
        assert curve.frame_levels == dynamics.FRAME_LEVELS < ring_spec.dim
        assert curve.frame_leakage == leakage
    assert 0 < leakage <= dynamics.LEAKAGE_LIMIT
    fidelity = np.stack([curve.fidelity for curve in curves], axis=1)
    error = np.max(np.abs(fidelity - _bare_fidelities(traj, Ns, tf_list, 800)))
    assert error <= leakage + ROUNDING
    assert error <= dynamics.LEAKAGE_LIMIT


def test_frame_pass_gives_a_column_the_same_bits_at_any_stack_width():
    # A duration sweep scores each filling on the leading orbitals of one
    # stack, so a column must come out the same whatever the stack width,
    # truncated or not, for one or many durations.
    spec = model.ring(u0=0.5, K=20)
    traj = protocol.linear_ramp(spec)
    stack = tg.stack_at(spec, spec.lambda_start, 9)
    for levels in (dynamics.FRAME_LEVELS, spec.dim):
        for tf_arr in (np.array([2.0]), np.array([2.0, 5.0]), np.linspace(1.0, 9.0, 7)):
            (wide,), _ = dynamics._frame_pass(traj, 200, stack, tf_arr, levels)
            for m in (1, 3, 5):
                (narrow,), _ = dynamics._frame_pass(traj, 200, stack[:, :m], tf_arr, levels)
                assert np.array_equal(narrow, wide[:, :, :m]), (levels, len(tf_arr), m)


@pytest.mark.parametrize("cores", [2, 1], ids=["threaded", "inline"])
@pytest.mark.parametrize("levels", [dynamics.FRAME_LEVELS, 41], ids=["truncated", "exact"])
def test_frame_pass_steps_chunks_of_seven_as_one(monkeypatch, cores, levels):
    # The pass steps each chunk of the stream where it lies and carries only
    # the chunk's last frame across the boundary: chunks of seven steps give
    # the states of one chunk to the bit, saved after every step (on each
    # boundary and on both sides of it), and the same leakage.
    spec = model.ring(u0=0.5, K=20)
    traj = protocol.linear_ramp(spec)
    stack = tg.stack_at(spec, spec.lambda_start, 9)
    tf_arr, n_steps = np.array([2.0, 5.0, 9.0]), 60
    saves = range(1, n_steps + 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_CHUNK_ENTRIES", n_steps * spec.dim ** 2)
        whole, whole_leakage = dynamics._frame_pass(traj, n_steps, stack, tf_arr, levels, saves)
    monkeypatch.setattr(spectral, "_CHUNK_ENTRIES", 7 * spec.dim ** 2)
    chunked, leakage = dynamics._frame_pass(traj, n_steps, stack, tf_arr, levels, saves)
    assert chunked.shape == (n_steps, len(tf_arr), spec.dim, 9)
    assert np.array_equal(chunked, whole)
    assert leakage == whole_leakage


@pytest.mark.parametrize("cores,bound", [(2, 4.5e6), (1, 2.5e6)], ids=["threaded", "inline"])
def test_ring_frame_pass_holds_no_frame_buffer(monkeypatch, cores, bound):
    # One frame pass of the ring-duration shape: K = 40, an N = 9 stack, 3
    # durations, 2000 CF4 steps (4000 sub-steps) in 32 levels. It steps each
    # chunk where the stream yields it and keeps the chunk's last frame
    # alone; the stream drops a chunk before it solves the next. Traced
    # peaks: 3.83 MB with the solver threads (three chunks in flight) and
    # 1.76 MB inline, where a chunk keeps only its 32 columns as on the
    # threads (3.47 MB when it formed all 81 before taking them). Copying
    # each chunk into a (40, 81, 32) frame buffer traced 5.14 and 5.70 MB.
    # Each bound is its peak plus about 0.7 MB.
    spec = model.ring(u0=0.5, K=40)
    traj = protocol.linear_ramp(spec)
    stack = tg.stack_at(spec, spec.lambda_start, 9)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    (states, _), peak = traced_peak(lambda: dynamics._frame_pass(
        traj, 2000, stack, np.array([30.0, 60.0, 90.0]), dynamics.FRAME_LEVELS))
    assert states.shape == (1, 3, spec.dim, 9)
    assert peak <= bound


@pytest.mark.parametrize("K,levels", [(40, 64), (20, 41)])
def test_frame_levels_double_while_the_stack_leaks(K, levels):
    # N = 31 orbitals fill the frame of FRAME_LEVELS = 32 up to its guard,
    # so the level count doubles: to 64 of 81 at K = 40, and at K = 20 to
    # all 41 levels, where the pass is exact.
    traj = protocol.linear_ramp(model.ring(u0=0.5, K=K))
    tf_list = [2.0, 10.0]
    (curve,) = tg.duration_sweep([31], traj, tf_list, n_steps=800)
    assert curve.frame_levels == levels
    assert curve.frame_leakage <= dynamics.LEAKAGE_LIMIT
    error = np.max(np.abs(curve.fidelity - _bare_fidelities(traj, [31], tf_list, 800)[:, 0]))
    assert error <= curve.frame_leakage + ROUNDING


def test_frame_states_skip_levels_the_start_already_leaks(monkeypatch):
    # A bare K = 40 state leaves 1.1e-7 of its norm outside the lowest 32
    # levels of the first sub-step's frame and 7.2e-9 outside 64, and no
    # truncated pass can end with less, so evolve steps it once, at all 81.
    spec = model.ring(u0=0.5, K=40)
    control = protocol.TimedControl(protocol.linear_ramp(spec), 10.0)
    psi0 = dynamics.bare_state(spec, 41)
    frame_pass = dynamics._frame_pass
    levels = []

    def counting(traj, n_steps, stack, tf_arr, m, saves=None):
        levels.append(m)
        return frame_pass(traj, n_steps, stack, tf_arr, m, saves)

    monkeypatch.setattr(dynamics, "_frame_pass", counting)
    result = dynamics.evolve(control, psi0, n_steps=4000, n_save=2)
    assert levels == [spec.dim]
    assert result.frame_levels == spec.dim
    (final,), leakage = frame_pass(control.trajectory, 4000, psi0[:, None].astype(complex),
                                   np.array([10.0]), spec.dim)
    assert np.array_equal(result.final_state, final[0, :, 0])
    assert result.frame_leakage == leakage


def test_ring_duration_sweep_holds_only_the_frame_levels():
    # The fig6a shape: a K = 40 ring at 4000 steps steps in 32 levels,
    # solved one chunk of sub-steps at a time, so no step table is built
    # (a (8000, 81, 81) one would take 420 MB).
    shapes = []
    init = dynamics.MidpointTable.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shapes.append(self.eigvecs.shape)

    traj = protocol.linear_ramp(model.ring(u0=0.5, K=40))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics.MidpointTable, "__init__", recording_init)
        curves, peak = traced_peak(
            lambda: tg.duration_sweep([3, 9], traj, [30.0, 60.0, 90.0], n_steps=4000))
    assert curves[0].frame_levels == dynamics.FRAME_LEVELS
    assert shapes == []
    assert peak <= 110e6


@pytest.mark.parametrize("kind,budget,passes,levels", [
    ("two-level", 2 * 800 * 2 * 2, 0, None),
    ("two-level", 2 * 800 * 2 * 2 - 1, 1, 2),
    ("ring", 2 * 800 * 81 * 81, 1, dynamics.FRAME_LEVELS),
], ids=["tree", "frame", "ring"])
def test_table_budget_gates_only_the_tree_table(monkeypatch, two_level_faquad, kind, budget,
                                                passes, levels):
    # TABLE_ENTRY_BUDGET bounds the tree's full table, 2 n_steps x dim^2: a
    # small model whose table does not fit takes the frame pass at M = dim,
    # with the tree's populations to rounding. A ring sweep takes the frame
    # pass whatever the budget, and builds no table.
    if kind == "ring":
        traj = protocol.linear_ramp(model.ring(u0=0.5, K=40))
    else:
        traj = two_level_faquad
    n_steps, tf_list = 800, [2.0, 10.0]
    unpatched = dynamics.fidelity_sweep(traj, tf_list, n_steps=n_steps)
    monkeypatch.setattr(dynamics, "TABLE_ENTRY_BUDGET", budget)
    calls = {"_frame_pass": 0, "MidpointTable": 0}
    for name in calls:
        original = getattr(dynamics, name)

        def counted(*a, _name=name, _original=original, **k):
            calls[_name] += 1
            return _original(*a, **k)

        monkeypatch.setattr(dynamics, name, counted)
    curve = dynamics.fidelity_sweep(traj, tf_list, n_steps=n_steps)
    assert calls == {"_frame_pass": passes, "MidpointTable": 1 - passes}
    assert curve.frame_levels == levels
    assert np.max(np.abs(curve.population - unpatched.population)) <= ROUNDING


def test_stacked_state_evolution(two_level_spec, two_level_faquad):
    control = protocol.rescale(two_level_faquad, 1.3)
    stack = np.eye(2, dtype=complex)
    result = dynamics.evolve(control, stack, n_steps=2048, n_save=2)
    U = result.final_state
    assert U.shape == (2, 2)
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-12

    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    single = dynamics.evolve(control, psi0, n_steps=2048, n_save=2)
    assert np.max(np.abs(U @ psi0 - single.final_state)) < 1e-12


def test_ring_evolve_matches_a_complex_matmul_loop():
    # evolve steps real coefficient rows in the adiabatic frame (all 25
    # levels at K = 12); the plain loop of _bare_steps casts each
    # eigenvector matrix to complex. A column slice gives the bits of the
    # same columns stored contiguously.
    spec = model.ring(u0=0.5, K=12)
    traj = protocol.linear_ramp(spec)
    control = protocol.rescale(traj, 20.0)
    orbitals = tg.stack_at(spec, spec.lambda_start, 5) * np.exp(1j * np.arange(5))

    cases = {"stack": orbitals[:, :3], "vector": orbitals[:, 1], "slice": orbitals[:, ::2]}
    assert not cases["slice"].flags.c_contiguous
    for name, psi0 in cases.items():
        final = dynamics.evolve(control, psi0, n_steps=400, n_save=2).final_state
        assert final.shape == psi0.shape, name
        plain = _bare_steps(traj, psi0, 20.0, 400)[-1]
        assert np.max(np.abs(final.reshape(spec.dim, -1) - plain)) <= 1e-13, name
    contiguous = dynamics.evolve(control, np.ascontiguousarray(cases["slice"]), n_steps=400,
                                 n_save=2).final_state
    sliced = dynamics.evolve(control, cases["slice"], n_steps=400, n_save=2).final_state
    assert np.array_equal(sliced, contiguous)


@pytest.mark.parametrize("spec_name,traj_name,t_f,n_steps", [
    ("two_level_spec", "two_level_faquad", 10.0, 14162),
    ("cotunneling_spec", "cotunneling_faquad", 20.0, 28309),
])
def test_total_propagator_matches_an_extended_precision_step_product(
        request, spec_name, traj_name, t_f, n_steps):
    # The regrouped tree product against the step-by-step product of the
    # same table's sub-step propagators V_k exp(-i E_k dt) V_k^T, in
    # clongdouble: 2 n_steps of them at dt = t_f / (2 n_steps).
    spec, traj = request.getfixturevalue(spec_name), request.getfixturevalue(traj_name)
    table = dynamics.MidpointTable(traj, n_steps)
    assert table.eigvals.shape == (2 * n_steps, spec.dim)
    dt = t_f / (2 * n_steps)
    steps = dynamics.StepOverlaps(table)
    U = dynamics._total_propagator(steps, dt, dynamics._tree_scratch(steps))

    v = table.eigvecs.astype(np.clongdouble)
    phases = np.exp(-1j * table.eigvals.astype(np.longdouble) * np.longdouble(dt))
    steps = np.matmul(v * phases[:, None, :], v.transpose(0, 2, 1))
    exact = np.eye(spec.dim, dtype=np.clongdouble)
    for step in steps:
        exact = step @ exact
    assert np.max(np.abs(U - exact)) <= 1e-12


def _pairwise_reduction(mats, product):
    # The tree of the stacked layout (n, d, d): neighbours pair up, and at a
    # level of odd length the last factor multiplies the last pair product.
    while mats.shape[0] > 1:
        m = mats.shape[0] // 2
        head = product(mats[1 : 2 * m : 2], mats[0 : 2 * m : 2])
        if mats.shape[0] % 2:
            head[-1:] = product(mats[-1:], head[-1:])
        mats = head
    return mats[0]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 1025])
def test_tree_product_is_the_pairwise_stacked_reduction(d, n):
    rng = np.random.default_rng(10 * d + n)
    mats, _ = np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))

    expected = _pairwise_reduction(mats, _ordered)
    for chunk in sorted({max(1, min(n // 2, 5)), max(1, n // 2)}):
        stack = np.ascontiguousarray(mats.transpose(1, 2, 0))
        level = np.empty((d, d, max(1, n // 2)), dtype=complex)
        spare = np.empty((d, d, 2 * chunk), dtype=complex)
        term = np.empty((d, d, chunk), dtype=complex)
        product = dynamics._tree_product(lambda lo, hi: stack[:, :, lo:hi], n, level, spare, term)
        assert np.array_equal(product, expected)
    # np.matmul rounds each product its own way (BLAS kernels).
    assert np.max(np.abs(_pairwise_reduction(mats, np.matmul) - expected)) <= 1e-13


def _ordered(a, b):
    # Stacked matrix products with each entry summed over the inner index
    # in order, as the tree's elementwise multiply-adds do.
    return (a[:, :, :, None] * b[:, None, :, :]).sum(axis=2)


CHUNK = dynamics._TREE_CHUNK


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 7, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 1, 5 * CHUNK + 3])
def test_total_propagator_is_the_pairwise_reduction_of_the_phased_overlaps(d, n):
    # The factors P_k O_k are formed one chunk at a time and the levels
    # reduced in place, with the bits of the stacked reduction of the whole
    # (n, d, d) stack overlaps * phases. 5 CHUNK + 3 steps give three chunks
    # of pairs and levels of odd length.
    rng = np.random.default_rng(100 * d + n)
    vecs, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    table = types.SimpleNamespace(eigvals=np.sort(30.0 * rng.standard_normal((n, d)), axis=1),
                                  eigvecs=vecs)
    steps = dynamics.StepOverlaps(table)
    dt = 0.37
    angles = steps.energies.T * -dt
    phases = np.empty(angles.shape, dtype=complex)
    phases.real, phases.imag = np.cos(angles), np.sin(angles)
    factors = steps.overlaps.transpose(2, 0, 1) * phases[:, :, None]
    expected = steps.last @ _pairwise_reduction(factors, _ordered) @ steps.first
    got = dynamics._total_propagator(steps, dt, dynamics._tree_scratch(steps))
    assert np.array_equal(got, expected)


def test_a_two_thread_tree_sweep_holds_one_level_per_thread(two_cores, cotunneling_faquad):
    # The fig4b shape up to t_f = 20 at 14155 CF4 steps, 28310 sub-steps of
    # d = 3. Each thread holds a (3, 3, 14155) first tree level (2.0 MB),
    # a chunk of 8192 factors (1.2 MB) and a term (0.6 MB), beside the
    # shared overlaps (2.0 MB). With a full phased (3, 3, 28310) stack and
    # its half-length spare per thread, one thread alone traced 11.2 MB and
    # two would take about 19 MB. Two threads traced 11.1 MB; the bound
    # leaves 1.4 MB of margin.
    curve, peak = traced_peak(lambda: dynamics.fidelity_sweep(
        cotunneling_faquad, np.linspace(0.5, 20.0, 6), n_steps=14155))
    assert curve.failures == [] and np.all(np.isfinite(curve.population))
    assert peak <= 12.5e6


def test_tree_sweep_turns_a_broken_table_into_nan(monkeypatch, two_level_faquad):
    # Eigenvectors off unit length make the product non-unitary; the tree
    # path checks the final norm as evolve does.
    init = dynamics.MidpointTable.__init__

    def scaled_init(self, *args):
        init(self, *args)
        self.eigvecs *= 1.0 + 1e-6

    monkeypatch.setattr(dynamics.MidpointTable, "__init__", scaled_init)
    points = [0.5, 1.0, 1.5]
    curve = dynamics.fidelity_sweep(two_level_faquad, points, n_steps=2048)
    assert np.all(np.isnan(curve.population))
    assert [point for point, _ in curve.failures] == points
    assert all("norm drift" in message for _, message in curve.failures)
