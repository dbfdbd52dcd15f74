"""Closed-form layer: the maximization chain, the two kernels, both bounds.

Frozen reference constants below were produced by independent routes
(brute-force protocol runs, dense grid scans, partial-trace entropies)
and are asserted at tight tolerances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minqet import analytic, entanglement, measurement
from minqet.analytic import DomainError
from minqet.measurement import OutcomeWeights
from minqet.model import ModelParams, ParamsBlock

UNIT = ModelParams(h=1.0, k=1.0)

# sqrt(X^2 + (hkq ny)^2) - X at X = 3/2, hkq ny = 1/2: (sqrt(10) - 3) / 2
MAX_OVER_OMEGA_UNIT = 0.08113883008418976
# 2 * the above / sqrt(2): the projective-pair maximum at h = k = 1
MAX_EB_UNIT = 0.11474763394014725
GROUND_ENTROPY_UNIT = 0.4164955306996875
C32_UNIT = 3.739351440841384
C770_UNIT = 0.27550747962980054
F_E_QUARTER = 0.029260973201013844
F_I_QUARTER = 0.08117383727836852

Y_AXIS = (0.0, 1.0, 0.0)

# A weak outcome (|q|/p ~ 2e-5) from verify's optimizer draws at seed 26.
# Its omega-maximum on the y axis over eps, which equals p f_E((q/p)^2), from a
# 50-digit mpmath evaluation of sqrt(a^2 + (hkq)^2) - a with a = p (h^2 + 2k^2).
WEAK_P = 0.952626887361273
WEAK_Q = 1.9144983737149932e-05
WEAK_PARAMS = ModelParams(h=0.7468337987663782, k=3.2601258359281653)
WEAK_MAX_OVER_EPS = 1.563095872966533e-11
# Q on the y axis at max_over_omega's argmax for that outcome (omega near pi),
# from a 50-digit mpmath evaluation of X (cos 2w - 1) - hkq sin 2w.
WEAK_OMEGA = 3.1415915320538104
WEAK_Q_AT_OMEGA = 5.2278912060423020941e-11


def unit_axis(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


def test_q_of_vanishes_at_zero_angle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = rng.uniform(0.05, 1.0)
        q = rng.uniform(-p, p)
        assert analytic.Q_of(UNIT, p, q, 0.0, unit_axis(rng)) == pytest.approx(0.0, abs=1e-14)


def test_q_of_without_correlation_never_positive():
    for omega in np.linspace(0.0, math.pi, 64):
        val = analytic.Q_of(UNIT, 0.4, 0.0, float(omega), Y_AXIS)
        assert val <= 1e-14


def test_max_over_omega_no_correlation():
    value, omega = analytic.max_over_omega(UNIT, 0.4, 0.0, Y_AXIS)
    assert abs(value) <= 1e-14
    assert abs(omega) <= 1e-14


def test_max_over_omega_unit_projective():
    value, omega = analytic.max_over_omega(UNIT, 0.5, 0.5, Y_AXIS)
    assert abs(value - MAX_OVER_OMEGA_UNIT) <= 1e-15
    assert abs(value - 0.081139) <= 1e-6
    # the reported angle actually attains the value
    assert analytic.Q_of(UNIT, 0.5, 0.5, omega, Y_AXIS) == pytest.approx(value, abs=1e-12)


def test_max_over_omega_off_axis():
    # n_y = 0 kills the sin term; the best over omega is |X| - X
    n = (1.0, 0.0, 0.0)
    x = analytic.X_of(UNIT, 0.5, 0.3, n)
    value, _ = analytic.max_over_omega(UNIT, 0.5, 0.3, n)
    assert abs(value - (abs(x) - x)) <= 1e-14


def test_weak_outcome_keeps_its_digits():
    value, _ = analytic.max_over_omega(WEAK_PARAMS, WEAK_P, WEAK_Q, Y_AXIS)
    term = WEAK_P * analytic.f_E(WEAK_PARAMS, (WEAK_Q / WEAK_P) ** 2)
    for got in (value / WEAK_PARAMS.eps, term):
        assert abs(got - WEAK_MAX_OVER_EPS) <= 1e-14 * WEAK_MAX_OVER_EPS


def test_q_of_keeps_its_digits_near_pi():
    got = analytic.Q_of(WEAK_PARAMS, WEAK_P, WEAK_Q, WEAK_OMEGA, Y_AXIS)
    assert abs(got - WEAK_Q_AT_OMEGA) <= 1e-14 * WEAK_Q_AT_OMEGA


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    h=st.floats(min_value=0.25, max_value=4.0),
    k=st.floats(min_value=0.25, max_value=4.0),
)
def test_max_over_omega_dominates_grid(seed, h, k):
    params = ModelParams(h=h, k=k)
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0)
    q = rng.uniform(-p, p)
    n = unit_axis(rng)
    best, _ = analytic.max_over_omega(params, p, q, n)
    grid = [
        analytic.Q_of(params, p, q, w, n) for w in np.linspace(0.0, math.pi, 256)
    ]
    scale = max(1.0, abs(best), max(abs(v) for v in grid))
    assert best >= max(grid) - 1e-9 * scale
    # and the closed maximum is attained somewhere (finer probe near optimum)
    value, omega = analytic.max_over_omega(params, p, q, n)
    assert analytic.Q_of(params, p, q, omega, n) >= value - 1e-9 * scale


def test_min_x_at_zero_z():
    a, _, _ = analytic.abc_constants(UNIT, 0.4, 0.2)
    assert analytic.min_X_over_psi(UNIT, 0.4, 0.2, 0.0) == pytest.approx(a, abs=1e-15)
    assert a == pytest.approx(0.4 * 3.0, abs=1e-15)


def test_min_x_at_full_z_no_correlation():
    # h=k=1, q=0: a = 3p, b = (3p + p)/2 = 2p, so a - b = p
    assert analytic.min_X_over_psi(UNIT, 0.4, 0.0, 1.0) == pytest.approx(0.4, abs=1e-15)


def test_min_x_dominated_by_psi_grid():
    rng = np.random.default_rng(5)
    for _ in range(25):
        params = ModelParams(h=rng.uniform(0.25, 4), k=rng.uniform(0.25, 4))
        p = rng.uniform(0.05, 1.0)
        q = rng.uniform(-p, p)
        z = rng.uniform(0.0, 1.0)
        closed = analytic.min_X_over_psi(params, p, q, z)
        rz = math.sqrt(z)
        grid = [
            analytic.X_of(
                params,
                p,
                q,
                (rz * math.cos(psi), math.sqrt(1 - z), rz * math.sin(psi)),
            )
            for psi in np.linspace(0, 2 * math.pi, 64)
        ]
        assert closed <= min(grid) + 1e-12 * max(1.0, abs(closed))


def test_min_x_domain_error():
    with pytest.raises(DomainError):
        analytic.min_X_over_psi(UNIT, 0.5, 0.0, 1.5)
    with pytest.raises(DomainError):
        analytic.T_profile(UNIT, 0.5, 0.0, -0.1)


def test_envelope_takes_an_array_of_z():
    z = np.linspace(0.0, 1.0, 33)
    for fn in (analytic.T_profile, analytic.t_witness):
        values = fn(UNIT, 0.5, 0.3, z)
        assert values.tolist() == [fn(UNIT, 0.5, 0.3, float(v)) for v in z]
    # the scalar slack of 1e-12 outside [0, 1] holds element by element
    ends = analytic.T_profile(UNIT, 0.5, 0.3, np.array([-5e-13, 1.0 + 5e-13]))
    assert ends.tolist() == [
        analytic.T_profile(UNIT, 0.5, 0.3, 0.0),
        analytic.T_profile(UNIT, 0.5, 0.3, 1.0),
    ]
    for bad in (np.array([0.5, 1.0 + 1e-9]), np.array([-1e-9, 0.5]), np.array([np.nan])):
        with pytest.raises(DomainError):
            analytic.T_profile(UNIT, 0.5, 0.3, bad)


def test_closed_forms_broadcast_over_outcomes():
    # one ParamsBlock row per outcome; each must give what a scalar call gives
    rng = np.random.default_rng(9)
    params = [ModelParams(h=rng.uniform(0.25, 4), k=rng.uniform(0.25, 4)) for _ in range(12)]
    p = rng.uniform(0.05, 1.0, size=12)
    q = p * rng.uniform(-1.0, 1.0, size=12)
    q[3] = 0.0
    omega, axis = rng.uniform(0.0, math.pi, size=12), tuple(rng.normal(size=(3, 12)))
    block = ParamsBlock.of(params)
    arrays = {
        "abc": np.array(analytic.abc_constants(block, p, q)).T,
        "Q": analytic.Q_of(block, p, q, omega, axis),
        "T0": analytic.T_profile(block, p, q, 0.0),
        "sign": analytic.t_sign_check(block, p, q),
    }
    for i, one in enumerate(params):
        args = (one, float(p[i]), float(q[i]))
        scalars = {
            "abc": analytic.abc_constants(*args),
            "Q": analytic.Q_of(*args, float(omega[i]), tuple(float(c[i]) for c in axis)),
            "T0": analytic.T_profile(*args, 0.0),
            "sign": analytic.t_sign_check(*args),
        }
        for name, value in scalars.items():
            assert np.array_equal(arrays[name][i], value), (name, i)
        assert all(type(x) is float for x in scalars["abc"])
        assert type(scalars["Q"]) is float
        assert type(scalars["sign"]) is bool
    assert arrays["sign"].dtype == bool and arrays["sign"].all()


def test_t_profile_at_origin():
    a, _, c = analytic.abc_constants(UNIT, 0.5, 0.3)
    expected = math.sqrt(a * a + c) - a
    assert analytic.T_profile(UNIT, 0.5, 0.3, 0.0) == pytest.approx(expected, abs=1e-15)


def test_t_profile_no_correlation_identically_zero():
    for z in np.linspace(0, 1, 33):
        assert analytic.T_profile(UNIT, 0.5, 0.0, float(z)) == 0.0


def test_t_profile_peaks_at_zero():
    rng = np.random.default_rng(6)
    for _ in range(40):
        params = ModelParams(h=rng.uniform(0.25, 4), k=rng.uniform(0.25, 4))
        p = rng.uniform(0.05, 1.0)
        q = rng.uniform(-p, p)
        assert analytic.t_sign_check(params, p, q)
        t0 = analytic.T_profile(params, p, q, 0.0)
        grid = [analytic.T_profile(params, p, q, z) for z in np.linspace(0, 1, 128)]
        assert max(grid) <= t0 + 1e-12 * max(1.0, t0)


def test_t_witness_negative_at_one_both_regimes():
    # a > b: weak correlation; a < b needs |q|/p > 2 sqrt(2)/3 at h = k
    assert analytic.t_witness(UNIT, 0.5, 0.05, 1.0) < 0.0
    a, b, _ = analytic.abc_constants(UNIT, 0.5, 0.48)
    assert b > a
    assert analytic.t_witness(UNIT, 0.5, 0.48, 1.0) < 0.0


def test_degenerate_axis_family_at_saturation():
    # at |q| = p the envelope is exactly flat in z; the y-pole is then a
    # convention, not the unique maximizer
    vals = [analytic.T_profile(UNIT, 0.5, 0.5, z) for z in np.linspace(0, 1, 17)]
    assert max(vals) - min(vals) <= 1e-15
    # strictly below saturation the pole wins
    t0 = analytic.T_profile(UNIT, 0.5, 0.45, 0.0)
    t1 = analytic.T_profile(UNIT, 0.5, 0.45, 1.0)
    assert t1 < t0


def test_optimal_rotation_reaches_envelope():
    rng = np.random.default_rng(7)
    for _ in range(30):
        params = ModelParams(h=rng.uniform(0.25, 4), k=rng.uniform(0.25, 4))
        p = rng.uniform(0.05, 1.0)
        q = rng.uniform(-p, p)
        omega, axis = analytic.optimal_rotation(params, p, q)
        assert axis == Y_AXIS
        attained = analytic.Q_of(params, p, q, omega, axis)
        target = analytic.T_profile(params, p, q, 0.0)
        assert abs(attained - target) <= 1e-12 * max(1.0, target)


def test_optimal_rotation_no_correlation():
    omega, axis = analytic.optimal_rotation(UNIT, 0.5, 0.0)
    assert omega == 0.0
    assert axis == Y_AXIS


def test_max_eb_closed_no_correlation():
    weights = [OutcomeWeights(0.5, 0.0), OutcomeWeights(0.5, 0.0)]
    assert analytic.max_EB_closed(UNIT, weights) == pytest.approx(0.0, abs=1e-15)


def test_max_eb_closed_unit_projective():
    weights = [OutcomeWeights(0.5, 0.5), OutcomeWeights(0.5, -0.5)]
    value = analytic.max_EB_closed(UNIT, weights)
    assert abs(value - MAX_EB_UNIT) <= 1e-15


def test_max_eb_closed_skips_zero_probability():
    weights = [OutcomeWeights(0.5, 0.5), OutcomeWeights(0.5, -0.5), OutcomeWeights(0.0, 0.0)]
    value = analytic.max_EB_closed(UNIT, weights)
    assert abs(value - MAX_EB_UNIT) <= 1e-15


def test_max_eb_equals_kernel_sum():
    rng = np.random.default_rng(8)
    for i in range(25):
        model = measurement.random_measurement(seed=1000 + i, n_outcomes=2 + i % 4)
        params = ModelParams(h=rng.uniform(0.25, 4), k=rng.uniform(0.25, 4))
        ws = model.weights
        direct = analytic.max_EB_closed(params, ws)
        kernel = sum(
            w.p * analytic.f_E(params, (w.q / w.p) ** 2) for w in ws if w.p > 1e-14
        )
        assert abs(direct - kernel) <= 1e-12 * max(1.0, direct)


def test_per_outcome_term_matches_envelope():
    # eps * p * f_E((q/p)^2) is the T(0) value of that outcome
    rng = np.random.default_rng(9)
    for _ in range(25):
        params = ModelParams(h=rng.uniform(0.25, 4), k=rng.uniform(0.25, 4))
        p = rng.uniform(0.05, 1.0)
        q = rng.uniform(-p, p)
        lhs = params.eps * p * analytic.f_E(params, (q / p) ** 2)
        rhs = analytic.T_profile(params, p, q, 0.0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_kernels_vanish_at_origin():
    assert analytic.f_E(UNIT, 0.0) == 0.0
    assert analytic.f_I(UNIT, 0.0) == 0.0


def test_kernels_unit_values():
    assert abs(analytic.f_E(UNIT, 1.0) - MAX_EB_UNIT) <= 1e-15
    # two independent routes to the same number (kernel vs binary entropy)
    assert abs(analytic.f_I(UNIT, 1.0) - GROUND_ENTROPY_UNIT) <= 1e-14
    assert abs(analytic.f_E(UNIT, 0.25) - F_E_QUARTER) <= 1e-15
    assert abs(analytic.f_I(UNIT, 0.25) - F_I_QUARTER) <= 1e-15


def test_kernels_monotone():
    xs = np.linspace(0.0, 1.0, 64)
    fe = [analytic.f_E(UNIT, float(x)) for x in xs]
    fi = [analytic.f_I(UNIT, float(x)) for x in xs]
    assert all(b > a for a, b in zip(fe, fe[1:]))
    assert all(b > a for a, b in zip(fi, fi[1:]))


def test_kernels_domain_errors():
    for bad in (-0.1, 1.1):
        with pytest.raises(DomainError):
            analytic.f_E(UNIT, bad)
        with pytest.raises(DomainError):
            analytic.f_I(UNIT, bad)


def test_rescaled_kernels_at_origin():
    assert analytic.rescaled_f_E(UNIT, 0.0) == 0.0
    assert analytic.rescaled_f_I(UNIT, 0.0) == 0.0


def test_rescaled_kernels_first_order():
    for kernel in (analytic.rescaled_f_E, analytic.rescaled_f_I):
        val = kernel(UNIT, 1e-6)
        assert abs(val - 1e-6) <= 1e-9


def test_rescaled_kernels_bracket_identity():
    for params in (UNIT, ModelParams(h=2.0, k=0.5), ModelParams(h=0.5, k=2.0)):
        for x in np.linspace(0.0, 1.0, 128):
            x = float(x)
            lo = analytic.rescaled_f_E(params, x)
            hi = analytic.rescaled_f_I(params, x)
            assert lo <= x + 1e-12
            assert x <= hi + 1e-12


def test_lambda_pm_saturated():
    lam_plus, lam_minus = analytic.lambda_pm(UNIT, 0.5, 0.5)
    assert abs(lam_plus - 1.0) <= 1e-15
    assert abs(lam_minus) <= 1e-15


def test_lambda_pm_no_correlation():
    lam_plus, lam_minus = analytic.lambda_pm(UNIT, 0.5, 0.0)
    assert abs(lam_plus - 0.8535533905932738) <= 1e-15
    assert abs(lam_minus - 0.14644660940672624) <= 1e-15


def test_lambda_pm_quarter_point():
    lam_plus, lam_minus = analytic.lambda_pm(UNIT, 0.5, 0.25)
    assert abs(lam_plus - 0.8952847075210474) <= 1e-15
    assert abs(lam_minus - 0.10471529247895262) <= 1e-15
    assert np.allclose([lam_plus, lam_minus], [0.895285, 0.104715], atol=1e-6)


def test_lambda_pm_basic_properties():
    rng = np.random.default_rng(10)
    for _ in range(50):
        p = rng.uniform(0.01, 1.0)
        q = rng.uniform(-p, p)
        lam_plus, lam_minus = analytic.lambda_pm(UNIT, p, q)
        assert 0.0 <= lam_minus <= lam_plus <= 1.0
        assert abs(lam_plus + lam_minus - 1.0) <= 1e-14


def test_lambda_pm_domain():
    with pytest.raises(DomainError):
        analytic.lambda_pm(UNIT, 0.0, 0.0)
    with pytest.raises(DomainError):
        analytic.lambda_pm(UNIT, 0.2, 0.3)


def test_bound_coefficients_unit_point():
    b = analytic.bounds(UNIT)
    assert abs(b.c32 - C32_UNIT) <= 1e-14
    assert abs(b.c770 - C770_UNIT) <= 1e-14


def test_bound_coefficient_c770_is_kernel_ratio():
    # the saturating measurement pins c770 at f_E(1) / f_I(1)
    for params in (UNIT, ModelParams(h=2.0, k=0.5), ModelParams(h=0.3, k=1.7)):
        b = analytic.bounds(params)
        ratio = analytic.f_E(params, 1.0) / analytic.f_I(params, 1.0)
        assert abs(b.c770 - ratio) <= 1e-12 * max(1.0, ratio)


def test_bound_coefficients_positive_grid():
    for h in (0.5, 1.0, 2.0):
        for k in (0.5, 1.0, 2.0):
            b = analytic.bounds(ModelParams(h=h, k=k))
            assert b.c32 > 0.0
            assert b.c770 > 0.0


def test_c32_grows_in_the_strong_field_limit():
    mid = analytic.bounds(ModelParams(h=10.0, k=0.1)).c32
    far = analytic.bounds(ModelParams(h=1000.0, k=0.1)).c32
    assert mid > C32_UNIT
    assert far > mid


def test_weak_limit_ratio_converges():
    target = analytic.bounds(UNIT).c32
    errs = [
        abs(analytic.weak_limit_ratio(UNIT, u) - target) / target
        for u in (1e-1, 1e-2, 1e-3)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 5e-6


def test_shannon_entropy_and_units():
    assert abs(analytic.shannon_entropy([0.5, 0.5]) - math.log(2.0)) <= 1e-15
    assert analytic.shannon_entropy([1.0, 0.0]) == 0.0
    assert abs(analytic.nats_to_bits(math.log(2.0)) - 1.0) <= 1e-15


def test_delta_s_closed_matches_brute_force():
    for i in range(10):
        model = measurement.random_measurement(seed=2000 + i, n_outcomes=2 + i % 3)
        closed = analytic.delta_S_closed(UNIT, model.weights)
        brute = entanglement.consumption(UNIT, model).delta_s
        assert abs(closed - brute) <= 1e-10
