"""Midpoint-exponential propagation, sweeps, and adiabatic projections."""

import inspect
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


def test_step_halving_convergence(two_level_spec, two_level_faquad):
    # Midpoint exponentials are second order: halving the step should
    # shrink the defect by about 4x.
    control = protocol.rescale(two_level_faquad, 2.246)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    states = [dynamics.evolve(control, psi0, n_steps=n).final_state
              for n in (8192, 16384, 32768)]
    d_coarse = np.max(np.abs(states[0] - states[1]))
    d_fine = np.max(np.abs(states[1] - states[2]))
    assert d_coarse < 1e-4
    assert d_fine < d_coarse
    assert 3.5 < d_coarse / d_fine < 4.5


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
    expected = max(2000, math.ceil(200.0 * 10.0 * gap_max / (2.0 * math.pi)))
    assert got == expected
    assert dynamics.default_n_steps(two_level_faquad, 0.01) == 2000


def test_reversed_pair_takes_the_same_steps_and_sweep(two_level_spec, two_level_faquad):
    reversed_design = protocol.design_faquad(two_level_spec, pair=(2, 1))
    assert reversed_design.c_tilde == two_level_faquad.c_tilde
    assert dynamics.default_n_steps(two_level_faquad, 10.0, pair=(2, 1)) == \
        dynamics.default_n_steps(two_level_faquad, 10.0) == 14162
    points = [0.5, 5.25, 10.0]
    forward = dynamics.fidelity_sweep(two_level_faquad, points)
    backward = dynamics.fidelity_sweep(reversed_design, points)
    assert backward.n_steps == forward.n_steps == 14162
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

    # A NaN or infinite duration is rejected before the step rule runs or
    # a table is built, with or without an explicit step count.
    def refused(*args, **kwargs):
        raise AssertionError("the step rule or a table was reached")

    monkeypatch.setattr(dynamics, "default_n_steps", refused)
    monkeypatch.setattr(dynamics, "MidpointTable", refused)
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
    (_ring_duration_sweep, True, "evolve", [2.0, 4.0, 6.0]),
    (_ring_epsilon_sweep, True, "evolve", [-0.05, 0.0, 0.05]),
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


@pytest.mark.parametrize("K", [2, 3])
def test_small_ring_sweeps_take_the_tree_product(monkeypatch, K):
    # d = 5 and 7: the tree path forms every final state, and agrees with
    # streaming evolve.
    spec = model.ring(u0=0.5, K=K)
    assert spec.dim <= dynamics.TREE_PRODUCT_MAX_DIM
    traj = protocol.linear_ramp(spec)
    psi0 = tg.stack_at(spec, spec.lambda_start, 3)
    tf_list = [5.0, 20.0]
    evolve = dynamics.evolve
    calls = []
    monkeypatch.setattr(dynamics, "evolve", lambda *a, **k: calls.append(a) or evolve(*a, **k))
    _, final = dynamics._final_states(traj, psi0, np.array(tf_list), 4000)
    tree = [final(t_f) for t_f in tf_list]
    assert calls == []
    for t_f, state in zip(tf_list, tree):
        streamed = evolve(protocol.rescale(traj, t_f), psi0, n_steps=4000, n_save=2)
        assert np.max(np.abs(state - streamed.final_state)) <= 1e-12


def test_midpoint_table_reuse(two_level_spec, two_level_faquad):
    table = dynamics.MidpointTable(two_level_faquad, 2048)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    for t_f in (1.0, 2.5):
        control = protocol.rescale(two_level_faquad, t_f)
        with_table = dynamics.evolve(control, psi0,
                                     n_steps=2048, table=table)
        without = dynamics.evolve(control, psi0, n_steps=2048)
        assert np.array_equal(with_table.final_state, without.final_state)


def test_evolve_rejects_a_table_of_another_trajectory(two_level_spec, two_level_faquad):
    table = dynamics.MidpointTable(two_level_faquad, 2048)
    control = protocol.rescale(protocol.linear_ramp(two_level_spec), 2.0)
    psi0 = spectral.eigenstate(two_level_spec, 66.7, level=1).astype(complex)
    with pytest.raises(ValueError, match="trajectory"):
        dynamics.evolve(control, psi0, table=table)


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
    # evolve steps the real and imaginary parts with real matrix products;
    # the plain loop casts each eigenvector matrix to complex.
    spec = model.ring(u0=0.5, K=12)
    traj = protocol.linear_ramp(spec)
    table = dynamics.MidpointTable(traj, 400)
    control = protocol.rescale(traj, 20.0)
    dt = 20.0 / 400
    orbitals = tg.stack_at(spec, spec.lambda_start, 5) * np.exp(1j * np.arange(5))

    def plain(psi):
        psi = psi.reshape(spec.dim, -1)
        for w, v in zip(table.eigvals, table.eigvecs):
            v = v.astype(complex)
            psi = v @ (np.exp(-1j * w * dt)[:, None] * (v.T @ psi))
        return psi

    cases = {"stack": orbitals[:, :3], "vector": orbitals[:, 1], "slice": orbitals[:, ::2]}
    assert not cases["slice"].flags.c_contiguous
    for name, psi0 in cases.items():
        final = dynamics.evolve(control, psi0, n_save=2, table=table).final_state
        assert final.shape == psi0.shape, name
        assert np.max(np.abs(final.reshape(spec.dim, -1) - plain(psi0))) <= 1e-13, name
        streamed = dynamics.evolve(control, psi0, n_steps=400, n_save=2).final_state
        assert np.array_equal(streamed, final), name


@pytest.mark.parametrize("spec_name,traj_name,t_f,n_steps", [
    ("two_level_spec", "two_level_faquad", 10.0, 14162),
    ("cotunneling_spec", "cotunneling_faquad", 20.0, 28309),
])
def test_total_propagator_matches_an_extended_precision_step_product(
        request, spec_name, traj_name, t_f, n_steps):
    # The regrouped tree product against the step-by-step product of the
    # same table's propagators V_k exp(-i E_k dt) V_k^T, in clongdouble.
    spec, traj = request.getfixturevalue(spec_name), request.getfixturevalue(traj_name)
    table = dynamics.MidpointTable(traj, n_steps)
    dt = t_f / n_steps
    U = dynamics._total_propagator(dynamics.StepOverlaps(table), dt)

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

    # Stacked matrix products with each entry summed over the inner index
    # in order, as the tree's elementwise multiply-adds do.
    def ordered(a, b):
        return (a[:, :, :, None] * b[:, None, :, :]).sum(axis=2)

    expected = _pairwise_reduction(mats, ordered)
    for chunk in sorted({max(1, min(n // 2, 5)), max(1, n // 2)}):
        stack = np.ascontiguousarray(mats.transpose(1, 2, 0))
        spare = np.empty((d, d, n // 2), dtype=complex)
        term = np.empty((d, d, chunk), dtype=complex)
        assert np.array_equal(dynamics._tree_product(stack, spare, term), expected)
    # np.matmul rounds each product its own way (BLAS kernels).
    assert np.max(np.abs(_pairwise_reduction(mats, np.matmul) - expected)) <= 1e-13


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
