"""Schedule design by separable quadrature, plus the rescaling law."""

import math

import numpy as np
import pytest

from faquad import model, protocol
from faquad.errors import FaquadError, FlatGap

# Frozen design constants for the reference parameter sets; the values
# were cross-checked against closed-form arc-length integrals where one
# exists (two-level: integral of sqrt(2)/(g^2+8)^(3/2) dg for FAQUAD and
# of 1/(g^2+8) dg for the local-adiabatic weight).
C_TILDE_TWO_LEVEL_FAQUAD = 0.35179079601708424
C_TILDE_TWO_LEVEL_LA = 1.0436237082810267
C_TILDE_SPLITTING = 0.3528551541858962
C_TILDE_COTUNNELING = 0.7040327492508932
# The ring constants pin the downfolded u0 = 0.5, K = 40 matrix. A
# K-convergence table (K = 40/60/80/120) falls like K^-3 to the limits
# 9.9321906 (N = 3) and 9.8766406 (N = 9); 1/K Richardson extrapolation
# of a plain plane-wave cut from K = 80/160 gives 9.9321719 and
# 9.8766262, within 2e-6 relative. K = 40 sits within 1e-6 of the limit.
C_TILDE_RING_N3 = 9.932193150157566
C_TILDE_RING_N9 = 9.87665019215028


def test_boundaries_pinned_exactly(two_level_faquad, two_level_spec):
    traj = two_level_faquad
    assert traj.values[0] == two_level_spec.lambda_start
    assert traj.values[-1] == two_level_spec.lambda_end
    assert traj.evaluate(0.0) == two_level_spec.lambda_start
    assert traj.evaluate(1.0) == two_level_spec.lambda_end


def test_two_level_faquad_against_closed_form_integral(two_level_spec, two_level_faquad):
    # c_tilde = [g / (4 sqrt(2) sqrt(g^2 + 8))] evaluated between the
    # boundary detunings g = U - Delta.
    def antiderivative(g):
        return g / (4.0 * np.sqrt(2.0) * np.sqrt(g * g + 8.0))

    lo = two_level_spec.params.U - two_level_spec.lambda_start
    hi = two_level_spec.params.U - two_level_spec.lambda_end
    exact = antiderivative(hi) - antiderivative(lo)
    assert two_level_faquad.c_tilde == pytest.approx(exact, rel=1e-7)
    assert two_level_faquad.c_tilde == pytest.approx(C_TILDE_TWO_LEVEL_FAQUAD, rel=1e-12)


def test_two_level_la_against_closed_form_integral(two_level_spec, two_level_la):
    def antiderivative(g):
        return np.arctan(g / np.sqrt(8.0)) / np.sqrt(8.0)

    lo = two_level_spec.params.U - two_level_spec.lambda_start
    hi = two_level_spec.params.U - two_level_spec.lambda_end
    exact = antiderivative(hi) - antiderivative(lo)
    assert two_level_la.c_tilde == pytest.approx(exact, rel=1e-7)
    assert two_level_la.c_tilde == pytest.approx(C_TILDE_TWO_LEVEL_LA, rel=1e-12)


def test_frozen_design_constants(splitting_faquad, cotunneling_faquad,
                                 ring_faquad_n3, ring_faquad_n9):
    assert splitting_faquad.c_tilde == pytest.approx(C_TILDE_SPLITTING, rel=1e-9)
    assert cotunneling_faquad.c_tilde == pytest.approx(C_TILDE_COTUNNELING, rel=1e-9)
    assert ring_faquad_n3.c_tilde == pytest.approx(C_TILDE_RING_N3, rel=1e-9)
    assert ring_faquad_n9.c_tilde == pytest.approx(C_TILDE_RING_N9, rel=1e-9)


def test_constant_weight_designs_linear_schedule(two_level_spec):
    track = protocol.design_track(two_level_spec, [(1, 2)], 501)
    traj = protocol._design_from_weight(track, np.ones_like(track.grid),
                                        protocol.FAQUAD, (1, 2))
    s = np.linspace(0.0, 1.0, 101)
    expected = 66.7 * (1.0 - s)
    assert np.max(np.abs(traj.evaluate(s) - expected)) <= 1e-9 * 66.7


def test_uniform_adiabatic_linear_gap_closed_form(two_level_spec):
    # With gap(x) = a + b x on x in [0, L], the weight b/(a+bx)^2
    # integrates to s(x) = (1/a - 1/(a+bx)) / (1/a - 1/(a+bL)), giving
    # x(s) = (1/(1/a - s D) - a)/b with D the full integral.
    a, b, L = 2.0, 3.0, 5.0
    spec = model.two_level(U=22.3, delta_start=0.0, delta_end=L)
    track = protocol.design_track(spec, [(1, 2)], 4001)
    grid = track.grid
    gap = a + b * grid
    weight = protocol._ua_weight(gap, grid)
    traj = protocol._design_from_weight(track, weight, protocol.UNIFORM_ADIABATIC, (1, 2))
    s = np.linspace(0.0, 1.0, 101)
    D = 1.0 / a - 1.0 / (a + b * L)
    expected = (1.0 / (1.0 / a - s * D) - a) / b
    assert np.max(np.abs(traj.evaluate(s) - expected)) <= 1e-5 * L


def test_symmetric_sweep_crosses_midpoint_at_half():
    spec = model.two_level(U=22.3, delta_start=32.3, delta_end=12.3)
    traj = protocol.design_faquad(spec)
    assert traj.evaluate(0.5) == pytest.approx(22.3, abs=1e-9)


def test_faquad_keeps_adiabaticity_parameter_constant(two_level_faquad):
    profile = protocol.adiabaticity_profile(two_level_faquad)
    dev = np.max(np.abs(profile - two_level_faquad.c_tilde)) / two_level_faquad.c_tilde
    assert dev < 0.01


def test_competitor_profiles_are_not_constant(two_level_la):
    profile = protocol.adiabaticity_profile(two_level_la)
    dev = np.max(np.abs(profile - np.mean(profile))) / np.mean(profile)
    assert dev > 0.1


def test_design_grid_halving_richardson(two_level_spec):
    coarse = protocol.design_faquad(two_level_spec,
                                    track=protocol.design_track(two_level_spec, [(1, 2)], 2001))
    fine = protocol.design_faquad(two_level_spec,
                                  track=protocol.design_track(two_level_spec, [(1, 2)], 4001))
    assert abs(coarse.c_tilde - fine.c_tilde) / fine.c_tilde < 1e-3
    s = np.linspace(0.0, 1.0, 513)
    sup = np.max(np.abs(coarse.evaluate(s) - fine.evaluate(s)))
    assert sup < 1e-3 * 66.7


def test_rescaling_law_is_exact(two_level_faquad):
    s = np.linspace(0.0, 1.0, 101)
    reference = two_level_faquad.evaluate(s)
    for t_f in (1.0, 10.0, 100.0):
        control = protocol.rescale(two_level_faquad, t_f)
        assert np.max(np.abs(control.value(s * t_f) - reference)) <= 1e-12 * 66.7
        assert control.c == pytest.approx(two_level_faquad.c_tilde / t_f, rel=1e-15)


def test_rescale_validation(two_level_faquad):
    with pytest.raises(ValueError):
        protocol.rescale(two_level_faquad, 0.0)
    with pytest.raises(ValueError):
        protocol.rescale(two_level_faquad, -1.0)
    with pytest.raises(ValueError):
        protocol.rescale(two_level_faquad, float("inf"))


def test_linear_ramp_and_constant(two_level_spec):
    lin = protocol.linear_ramp(two_level_spec)
    s = np.linspace(0.0, 1.0, 57)
    assert np.max(np.abs(lin.evaluate(s) - (66.7 * (1 - s)))) <= 1e-12 * 66.7
    assert lin.c_tilde is None and lin.pair is None

    const = protocol.constant_protocol(two_level_spec, 22.3)
    assert len(const.s_grid) == 2
    assert np.all(const.evaluate(s) == 22.3)


def test_scaled_trajectory(two_level_faquad, two_level_spec):
    up = two_level_faquad.scaled(1.1)
    assert up.evaluate(0.0) == pytest.approx(1.1 * 66.7, rel=1e-12)
    assert up.c_tilde is None
    zero = two_level_faquad.scaled(0.0)
    assert zero.kind == protocol.CONSTANT
    assert np.all(zero.values == 0.0)
    with pytest.raises(ValueError):
        two_level_faquad.scaled(-0.5)


def test_sweep_values_strictly_monotone(two_level_faquad):
    assert np.all(np.diff(two_level_faquad.values) < 0)


def test_evaluate_domain_checks(two_level_faquad):
    # derivative shares the domain: out of range is an error for it too,
    # not the slope at the clipped end
    for method in (two_level_faquad.evaluate, two_level_faquad.derivative):
        for s in (-0.1, 1.1, 1.5, -3.0, math.nan, [0.5, 1.1]):
            with pytest.raises(ValueError):
                method(s)
        # values inside the floating-point guard band are clipped, not rejected
        assert method(1.0 + 5e-13) == method(1.0)
        assert method(-5e-13) == method(0.0)


def test_flat_gap_detection():
    grid = np.linspace(0.0, 1.0, 9)
    with pytest.raises(FlatGap):
        protocol._ua_weight(np.ones_like(grid), grid)
    partial = np.concatenate([np.ones(6), 1.0 + np.linspace(0.1, 0.4, 3)])
    with pytest.raises(FlatGap):
        protocol._ua_weight(partial, grid)


def test_vanishing_weight_cell_rejected(two_level_spec):
    track = protocol.design_track(two_level_spec, [(1, 2)], 11)
    weight = np.ones_like(track.grid)
    weight[3:5] = 0.0
    with pytest.raises(FaquadError):
        protocol._design_from_weight(track, weight, protocol.FAQUAD, (1, 2))


def test_trajectory_validation(two_level_spec):
    with pytest.raises(ValueError):
        protocol.NormalizedTrajectory(kind="bogus", spec=two_level_spec,
                                      s_grid=np.array([0.0, 1.0]),
                                      values=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        protocol.NormalizedTrajectory(kind=protocol.LINEAR, spec=two_level_spec,
                                      s_grid=np.array([0.0, 0.5]),
                                      values=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        protocol.NormalizedTrajectory(kind=protocol.FAQUAD, spec=two_level_spec,
                                      s_grid=np.array([0.0, 0.5, 1.0]),
                                      values=np.array([1.0, 0.0, 0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", [protocol.LINEAR, protocol.CONSTANT])
def test_non_finite_knots_are_rejected(two_level_spec, kind, bad):
    # A NaN slips through the s_grid ordering test; it must not become a
    # silent NaN schedule.
    s = np.array([0.0, 0.4, 1.0])
    values = np.array([3.0, 2.0, 1.0])
    bad_s = s.copy()
    bad_s[1] = bad
    bad_values = values.copy()
    bad_values[1] = bad
    for grid, vals, name in ((bad_s, values, "s_grid"), (s, bad_values, "values")):
        with pytest.raises(ValueError, match=f"{name} must contain only finite values"):
            protocol.NormalizedTrajectory(kind=kind, spec=two_level_spec, s_grid=grid, values=vals)
    if kind == protocol.CONSTANT:
        with pytest.raises(ValueError, match="values must contain only finite values"):
            protocol.constant_protocol(two_level_spec, bad)


def _pchip_knot_sets():
    """Knot sets (s, values) for the scipy comparison: seeded random
    increasing and decreasing sets, 2 and 3 knots, and sets whose end
    slopes take each limiter branch (checked in the test)."""
    rng = np.random.default_rng(20140101)
    sets = []
    for n in (2, 3, 3, 5, 17, 64, 201):
        for sign in (1.0, -1.0):
            s = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
            values = sign * np.cumsum(rng.uniform(0.01, 1.0, n) ** 3) * rng.uniform(1.0, 80.0)
            sets.append((s, values))
    # d_0 = ((2 h0 + h1) m0 - h0 m1)/(h0 + h1) has the wrong sign: set to 0.
    sets.append((np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 0.01, 5.0, 5.01])))
    # secants change sign and |d_0| > 3 |m0|: clamped to 3 m0.
    sets.append((np.array([0.0, 0.5, 0.51, 1.0]), np.array([0.0, 0.5, -0.5, 0.0])))
    return sets


def test_pchip_is_scipys_bit_for_bit(two_level_spec):
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(7)
    branches = set()
    for s, values in _pchip_knot_sets():
        dv = np.diff(values)
        monotone = np.all(dv > 0) or np.all(dv < 0)
        traj = protocol.NormalizedTrajectory(
            kind=protocol.FAQUAD if monotone else protocol.CONSTANT,
            spec=two_level_spec, s_grid=s, values=values)
        reference = PchipInterpolator(s, values)
        q = np.concatenate([s, [0.0, 1.0], rng.uniform(0.0, 1.0, 257)])
        # evaluate pins s = 1 to the last knot exactly; scipy's cubic there
        # may round.
        expected = np.where(q == 1.0, values[-1], reference(q))
        assert np.array_equal(traj.evaluate(q), expected)
        assert np.array_equal(traj.derivative(q), reference.derivative()(q))
        assert traj.evaluate(float(q[-1])) == expected[-1]
        assert traj.derivative(float(q[-1])) == reference.derivative()(q[-1])
        m0 = (values[1] - values[0]) / s[1]
        d0 = traj.derivative(0.0)
        branches.add("zero" if d0 == 0.0 else "clamped" if d0 == 3.0 * m0 else "one-sided")
    assert branches == {"zero", "clamped", "one-sided"}


def test_adiabaticity_profile_requires_pair(two_level_spec):
    with pytest.raises(ValueError):
        protocol.adiabaticity_profile(protocol.linear_ramp(two_level_spec))


def test_design_from_a_shared_track_is_the_standalone_design():
    spec = model.ring(u0=0.5, K=20)
    track = protocol.design_track(spec, [(3, 4), (9, 10)])
    for design in (protocol.design_faquad, protocol.design_local_adiabatic,
                   protocol.design_uniform_adiabatic):
        for pair in ((3, 4), (9, 10)):
            shared = design(spec, pair=pair, track=track)
            alone = design(spec, pair=pair)
            assert shared.c_tilde == alone.c_tilde
            assert np.array_equal(shared.s_grid, alone.s_grid)
            assert np.array_equal(shared.values, alone.values)
    with pytest.raises(ValueError):
        protocol.design_faquad(spec, pair=(5, 6), track=track)
    with pytest.raises(ValueError):
        protocol.design_faquad(model.ring(u0=0.6, K=20), pair=(3, 4), track=track)
