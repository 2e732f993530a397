"""Orbital-stack evolution and determinant many-body fidelities."""

import itertools
import math

import numpy as np
import pytest

from faquad import cli, dynamics, model, protocol, tg


def _free_ring(K=6):
    return model.ring(u0=0.0, K=K)


def _gram_error(orbitals):
    """max |A^dagger A - I| of a (dim, N) orbital stack."""
    gram = orbitals.conj().T @ orbitals
    return float(np.max(np.abs(gram - np.eye(orbitals.shape[1]))))


def test_starting_stack_spans_lowest_momenta():
    # Without a barrier at Omega = 0 the three lowest orbitals span the
    # plane waves k = 0, +-1, regardless of how eigh resolves the
    # degenerate pair.
    spec = _free_ring()
    stack = tg.stack_at(spec, spec.lambda_start, 3)
    assert stack.shape == (13, 3)
    assert _gram_error(stack) < 1e-12
    projector = stack @ stack.conj().T
    expected = np.zeros((13, 13))
    for k in (-1, 0, 1):
        expected[k + 6, k + 6] = 1.0
    assert np.max(np.abs(projector - expected)) < 1e-12


def test_odd_filling_enforced():
    spec = _free_ring()
    with pytest.raises(ValueError):
        tg.stack_at(spec, spec.lambda_start, 2)
    with pytest.raises(ValueError):
        tg.stack_at(spec, spec.lambda_start, -3)
    with pytest.raises(ValueError):
        tg.stack_at(spec, spec.lambda_start, 13)  # exceeds 2K - 1
    two_level = model.two_level(U=22.3, delta_start=66.7, delta_end=0.0)
    with pytest.raises(ValueError):
        tg.stack_at(two_level, two_level.lambda_start, 3)


def test_fidelity_identity_and_orthogonal():
    spec = _free_ring()
    stack = tg.stack_at(spec, spec.lambda_start, 3)
    assert tg.tg_fidelity(stack, stack) == pytest.approx(1.0, abs=1e-12)

    other = np.eye(13, dtype=complex)[:, 5:8]
    disjoint = np.eye(13, dtype=complex)[:, 9:12]
    assert tg.tg_fidelity(other, disjoint) == pytest.approx(0.0, abs=1e-14)


def test_fidelity_invariant_under_orbital_remix():
    rng = np.random.default_rng(42)
    a, _ = np.linalg.qr(rng.normal(size=(13, 3)) + 1j * rng.normal(size=(13, 3)))
    b, _ = np.linalg.qr(rng.normal(size=(13, 3)) + 1j * rng.normal(size=(13, 3)))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert tg.tg_fidelity(a, b @ q) == pytest.approx(tg.tg_fidelity(a, b), abs=1e-12)


def test_determinant_fidelity_equals_fock_expansion():
    # Brute-force Cauchy-Binet: expand both Slater determinants over all
    # C(13, 3) occupation patterns and sum conj(amp_A) * amp_B.
    rng = np.random.default_rng(2024)
    a, _ = np.linalg.qr(rng.normal(size=(13, 3)) + 1j * rng.normal(size=(13, 3)))
    b, _ = np.linalg.qr(rng.normal(size=(13, 3)) + 1j * rng.normal(size=(13, 3)))
    overlap = 0.0 + 0.0j
    for occ in itertools.combinations(range(13), 3):
        amp_a = np.linalg.det(a[list(occ), :])
        amp_b = np.linalg.det(b[list(occ), :])
        overlap += np.conj(amp_a) * amp_b
    assert tg.tg_fidelity(a, b) == pytest.approx(abs(overlap), abs=1e-10)


def test_fidelity_shape_mismatch_rejected():
    a = np.eye(13, dtype=complex)[:, :3]
    b = np.eye(13, dtype=complex)[:, :5]
    with pytest.raises(ValueError):
        tg.tg_fidelity(a, b)


def test_short_evolution_keeps_stack(ring_spec, ring_faquad_n3):
    start = tg.stack_at(ring_spec, ring_spec.lambda_start, 3)
    control = protocol.rescale(ring_faquad_n3, 1e-9)
    evolved = tg.evolve_stack(start, control, n_steps=2000)
    assert tg.tg_fidelity(evolved, start) > 1.0 - 1e-8


def test_gram_preserved_under_evolution(ring_spec, ring_faquad_n3):
    start = tg.stack_at(ring_spec, ring_spec.lambda_start, 3)
    control = protocol.rescale(ring_faquad_n3, 10.0)
    evolved = tg.evolve_stack(start, control, n_steps=2000)
    assert _gram_error(evolved) < 1e-8


def test_single_particle_limit_matches_fidelity_sweep(ring_spec):
    traj = protocol.design_faquad(ring_spec, pair=(1, 2))
    tf_list = [30.0, 60.0]
    (many,) = tg.duration_sweep([1], traj, tf_list, n_steps=2000)
    single = dynamics.fidelity_sweep(traj, tf_list, start="ground",
                                     target="ground", n_steps=2000)
    assert np.max(np.abs(many.fidelity - np.sqrt(single.population))) < 1e-10


def test_epsilon_sweep_reference_points(ring_spec, ring_faquad_n3):
    # eps = -1 freezes the control at zero, so the fidelity must equal
    # the static overlap between the initial and target stacks.
    curve = tg.epsilon_sweep(3, ring_faquad_n3, 90.0,
                             epsilons=[-1.0], n_steps=2000)
    static = tg.tg_fidelity(tg.stack_at(ring_spec, ring_spec.lambda_start, 3),
                            tg.stack_at(ring_spec, ring_spec.lambda_end, 3))
    assert curve.fidelity[0] == pytest.approx(static, abs=1e-9)

    with pytest.raises(ValueError):
        tg.epsilon_sweep(3, ring_faquad_n3, 90.0, epsilons=[-1.5],
                         n_steps=2000)


def test_duration_sweep_metadata(ring_faquad_n3):
    (curve,) = tg.duration_sweep([3], ring_faquad_n3, [20.0], n_steps=2000)
    assert curve.N == 3
    assert curve.protocol == protocol.FAQUAD
    assert curve.label == "tf"
    assert curve.failures == []
    assert 0.0 <= curve.fidelity[0] <= 1.0 + 1e-12


def test_duration_sweep_scores_each_filling_on_one_stack(ring_faquad_n3):
    # The leading three orbitals of the evolved N = 9 stack are the evolved
    # N = 3 stack, so the N = 3 curve of a (3, 9) sweep is the (3,) sweep's.
    tf_list = [30.0, 90.0]
    three, nine = tg.duration_sweep((3, 9), ring_faquad_n3, tf_list, n_steps=600)
    (alone,) = tg.duration_sweep((3,), ring_faquad_n3, tf_list, n_steps=600)
    assert (three.N, nine.N) == (3, 9)
    assert np.array_equal(three.fidelity, alone.fidelity)
    assert not np.array_equal(nine.fidelity, alone.fidelity)


def test_fig6a_takes_one_frame_pass_per_trajectory(tmp_path, monkeypatch):
    # The linear ramp serves both fillings; each FAQUAD design has its own
    # pass. No midpoint table is built.
    passes = []
    frame_pass = dynamics._frame_pass

    def counting_pass(traj, *args, **kwargs):
        passes.append(traj.kind)
        return frame_pass(traj, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a midpoint table was built")

    monkeypatch.setattr(dynamics, "_frame_pass", counting_pass)
    monkeypatch.setattr(dynamics, "MidpointTable", refused)
    assert cli.main(["figure", "fig6a", "--K", "20", "--n-steps", "400",
                     "--tf-count", "3", "--out", str(tmp_path / "o")]) == 0
    assert sorted(passes) == [protocol.FAQUAD, protocol.FAQUAD, protocol.LINEAR]


def test_final_control_stack_is_the_ground_block(ring_spec):
    target = tg.stack_at(ring_spec, ring_spec.lambda_end, 3)
    H = model.hamiltonian(ring_spec, math.pi)
    energies = np.linalg.eigvalsh(H)
    residual = H @ target - target * energies[:3]
    assert np.max(np.abs(residual)) < 1e-10
