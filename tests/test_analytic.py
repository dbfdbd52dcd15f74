"""Closed-form layer: the maximization chain, the two kernels, both bounds.

Frozen reference constants below were produced by independent routes
(brute-force protocol runs, dense grid scans, partial-trace entropies)
and are asserted at tight tolerances.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minqet import analytic, measurement, protocol
from minqet.analytic import Y_AXIS, DomainError
from minqet.measurement import weight_block
from minqet.model import ModelParams, ParamsBlock, params_row

from conftest import consumption_columns

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

# A weak outcome (|q|/p ~ 2e-5) from verify's optimizer draws at seed 26.
# Its omega-maximum on the y axis over eps, which equals p f_E((q/p)^2), from a
# 50-digit mpmath evaluation of sqrt(a^2 + (hkq)^2) - a with a = p (h^2 + 2k^2).
WEAK_P = 0.952626887361273
WEAK_Q = 1.9144983737149932e-05
WEAK_PARAMS = ModelParams(h=0.7468337987663782, k=3.2601258359281653)
WEAK_MAX_OVER_EPS = 1.563095872966533e-11
# Q on the y axis at pi plus max_over_omega's argmax for that outcome (omega near pi),
# from a 50-digit mpmath evaluation of X (cos 2w - 1) - hkq sin 2w.
WEAK_OMEGA = 3.1415915320538104
WEAK_Q_AT_OMEGA = 5.2278912060423020941e-11


def unit_axis(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


def q_at(params, p, q, omega, n):
    """``Q_of`` at the turn (cos omega, sin omega n) of angles omega and a unit axis n."""
    turn = protocol.turn_vectors(omega, np.stack(np.broadcast_arrays(*n), axis=-1))
    return analytic.Q_of(params, p, q, np.moveaxis(turn, -1, 0))


def paper_q(params, p, q, omega, n):
    """The paper's Q(omega, n) = X (cos 2 omega - 1) - h k q n_y sin 2 omega for a unit axis n.

    With X(n) = p [h^2 (1 - n_z^2) + 2 k^2 (1 - n_x^2)] - 3 h k q n_x n_z.
    """
    h, k = params.h, params.k
    nx, ny, nz = n
    x = p * (h * h * (1.0 - nz * nz) + 2.0 * k * k * (1.0 - nx * nx)) - 3.0 * h * k * q * nx * nz
    return x * (np.cos(2.0 * omega) - 1.0) - h * k * q * ny * np.sin(2.0 * omega)


def test_q_of_vanishes_at_zero_angle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = rng.uniform(0.05, 1.0)
        q = rng.uniform(-p, p)
        assert q_at(UNIT, p, q, 0.0, unit_axis(rng)) == pytest.approx(0.0, abs=1e-14)


def test_q_of_without_correlation_never_positive():
    for omega in np.linspace(0.0, math.pi, 64):
        val = q_at(UNIT, 0.4, 0.0, float(omega), Y_AXIS)
        assert val <= 1e-14
        assert abs(val - paper_q(UNIT, 0.4, 0.0, float(omega), Y_AXIS)) <= 1e-14


def test_max_over_omega_no_correlation():
    value, omega = analytic.max_over_omega(UNIT, 0.4, 0.0, Y_AXIS)
    assert abs(value) <= 1e-14
    assert abs(omega) <= 1e-14


def test_max_over_omega_unit_projective():
    value, omega = analytic.max_over_omega(UNIT, 0.5, 0.5, Y_AXIS)
    assert abs(value - MAX_OVER_OMEGA_UNIT) <= 1e-15
    assert abs(value - 0.081139) <= 1e-6
    # the reported angle actually attains the value
    assert q_at(UNIT, 0.5, 0.5, omega, Y_AXIS) == pytest.approx(value, abs=1e-12)
    assert paper_q(UNIT, 0.5, 0.5, omega, Y_AXIS) == pytest.approx(value, abs=1e-12)


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
    got = q_at(WEAK_PARAMS, WEAK_P, WEAK_Q, WEAK_OMEGA, Y_AXIS)
    assert abs(got - WEAK_Q_AT_OMEGA) <= 1e-14 * WEAK_Q_AT_OMEGA


def test_max_over_omega_is_q_at_its_angle_on_every_branch():
    # rows (h, k, p, q) against 64 axes spread over the sphere (z stratified, azimuth
    # by the golden angle) and one in the x-z plane
    params = types.SimpleNamespace(
        h=np.array([[1.5], [0.8], [1.0]]),
        k=np.array([[1.0], [2.1], [1.0]]),
    )
    p, q = np.array([[0.5], [0.43], [0.0]]), np.array([[0.5], [-0.21], [0.0]])
    i = np.arange(64)
    z, azimuth = 1.0 - (2.0 * i + 1.0) / 64, i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    n = (
        np.append(r * np.cos(azimuth), math.sqrt(0.5)),
        np.append(r * np.sin(azimuth), 0.0),
        np.append(z, math.sqrt(0.5)),
    )
    x, g = analytic.X_of(params, p, q, n), params.h * params.k * q * n[1]
    assert (x < 0.0).any() and (x > 0.0).any() and ((x == 0.0) & (g == 0.0)).any()
    value, omega = analytic.max_over_omega(params, p, q, n)
    assert np.all(value >= 0.0)
    # the paper's Q at the angle, of the same X and G, and Q_of at the turn of the angle
    at_omega = x * (np.cos(2.0 * omega) - 1.0) - g * np.sin(2.0 * omega)
    for got in (at_omega, q_at(params, p, q, omega, n)):
        assert np.all(np.abs(value - got) <= 1e-15 * (np.abs(x) + np.abs(g)))


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
    omegas = np.linspace(0.0, math.pi, 256)
    grid = q_at(params, p, q, omegas, n)
    scale = max(1.0, abs(best), np.abs(grid).max())
    assert best >= grid.max() - 1e-9 * scale
    assert np.abs(grid - paper_q(params, p, q, omegas, n)).max() <= 1e-9 * scale
    # and the closed maximum is attained somewhere (finer probe near optimum)
    value, omega = analytic.max_over_omega(params, p, q, n)
    assert q_at(params, p, q, omega, n) >= value - 1e-9 * scale


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
    omega, axis = rng.uniform(0.0, math.pi, size=12), rng.normal(size=(3, 12))
    turn = protocol.turn_vectors(omega, axis.T).T
    block = ParamsBlock.of(params)
    arrays = {
        "abc": np.array(analytic.abc_constants(block, p, q)).T,
        "Q": analytic.Q_of(block, p, q, turn),
        "T0": analytic.T_profile(block, p, q, 0.0),
    }
    for i, one in enumerate(params):
        args = (one, float(p[i]), float(q[i]))
        scalars = {
            "abc": analytic.abc_constants(*args),
            "Q": analytic.Q_of(*args, tuple(float(c[i]) for c in turn)),
            "T0": analytic.T_profile(*args, 0.0),
        }
        for name, value in scalars.items():
            assert np.array_equal(arrays[name][i], value), (name, i)


def test_closed_forms_take_a_zero_padded_block():
    # 2-, 3-, 4- and 6-outcome models zero-padded to six outcomes: each case of
    # one stacked call gives the bits of one call per case
    rng = np.random.default_rng(12)
    params = [ModelParams(h=rng.uniform(0.25, 4), k=rng.uniform(0.25, 4)) for _ in range(8)]
    models = [
        measurement.random_measurement(seed=300 + i, n_outcomes=(2, 3, 4, 6)[i % 4])
        for i in range(8)
    ]
    block = ParamsBlock.of(params)
    p, q = measurement.weight_block(measurement.coefficient_block(models))
    assert p.shape == q.shape == (6, 8)
    live = p > 0.0
    max_eb = analytic.max_EB_closed(block, p, q)
    delta_s = analytic.delta_S_closed(block, p, q)
    lam = analytic.lambda_pm(block, np.where(live, p, 1.0), np.where(live, q, 0.0))
    coefficients = analytic.bounds(block)
    for i, (one, model) in enumerate(zip(params, models)):
        n = model.n_outcomes
        assert live[:, i].tolist() == [mu < n for mu in range(6)]
        p_i, q_i = weight_block(model.rows)
        assert max_eb[i] == analytic.max_EB_closed(one, p_i, q_i)
        assert delta_s[i] == analytic.delta_S_closed(one, p_i, q_i)
        for stacked, alone in zip(lam, analytic.lambda_pm(one, p_i, q_i)):
            assert stacked[:n, i].tolist() == alone.tolist()
        alone = analytic.bounds(one)
        assert (coefficients.c32[i], coefficients.c770[i]) == (alone.c32, alone.c770)
        # padding outcomes add exactly 0, wherever they sit
        for pad in ((0, 6 - n), (1, 1), (2, 0)):
            padded = (np.pad(p_i, pad), np.pad(q_i, pad))
            assert analytic.max_EB_closed(one, *padded) == max_eb[i]
            assert analytic.delta_S_closed(one, *padded) == delta_s[i]


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
        a, _, c = analytic.abc_constants(params, p, q)
        scale = max(1.0, a, math.sqrt(c))
        t0 = analytic.T_profile(params, p, q, 0.0)
        zs = np.linspace(0, 1, 128)
        # the sign witness t = 2 b T - c of T' is nonpositive, so T falls from z = 0
        assert analytic.t_witness(params, p, q, zs).max() <= 1e-12 * scale * scale
        grid = [analytic.T_profile(params, p, q, z) for z in zs]
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


@pytest.mark.parametrize("u", [1.0, 1e-2, 1e-4, 1e-6])
def test_envelope_meets_the_d_route_on_weak_outcomes(u):
    # T(z) / eps is lambda_max of D on span{1, sqrt(1 - z) sigma_y + sqrt(z) m}, m the best
    # axis of D's {sigma_x, sigma_z} block: [[d00, sqrt(1 - z) d02], [., (1 - z) d22 +
    # z lambda_xz]].  Both outcomes of weak_pair(u) at 400 (h, k) log-uniform on [1e-3, 1e3];
    # T(z) = hypot(base, root) - base would cancel where base = a - b z >> root
    rng = np.random.default_rng(40)
    hk = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(400, 2)))
    block = ParamsBlock.of_rows([params_row(h, k) for h, k in hk.tolist()])
    coeffs = np.broadcast_to(measurement.weak_pair(u).rows, (400, 2, 4))
    p, q = weight_block(coeffs)
    d = np.moveaxis(protocol.turn_gains(block, coeffs), 1, 0)  # outcomes first, as p and q
    top_xz = protocol.top_eigen(d[..., 1, 1], d[..., 3, 3], d[..., 1, 3])[0]
    for z in (0.37, 0.9):
        spin, mixed = (1.0 - z) * d[..., 2, 2] + z * top_xz, math.sqrt(1.0 - z) * d[..., 0, 2]
        by_d = block.eps * protocol.top_eigen(d[..., 0, 0], spin, mixed)[0]
        closed = analytic.T_profile(block, p, q, z)
        assert np.all(np.abs(closed - by_d) <= 1e-13 * by_d), np.max(np.abs(closed / by_d - 1.0))


def test_omega_maximum_on_y_axis_reaches_envelope():
    assert Y_AXIS == (0.0, 1.0, 0.0)
    rng = np.random.default_rng(7)
    for _ in range(30):
        params = ModelParams(h=rng.uniform(0.25, 4), k=rng.uniform(0.25, 4))
        p = rng.uniform(0.05, 1.0)
        q = rng.uniform(-p, p)
        _, omega = analytic.max_over_omega(params, p, q, Y_AXIS)
        attained = q_at(params, p, q, omega, Y_AXIS)
        target = analytic.T_profile(params, p, q, 0.0)
        assert abs(attained - target) <= 1e-12 * max(1.0, target)


def test_omega_maximum_on_y_axis_no_correlation():
    _, omega = analytic.max_over_omega(UNIT, 0.5, 0.0, Y_AXIS)
    assert omega == 0.0


def test_max_eb_closed_no_correlation():
    p, q = np.array([0.5, 0.5]), np.array([0.0, 0.0])
    assert analytic.max_EB_closed(UNIT, p, q) == pytest.approx(0.0, abs=1e-15)


def test_max_eb_closed_unit_projective():
    p, q = np.array([0.5, 0.5]), np.array([0.5, -0.5])
    value = analytic.max_EB_closed(UNIT, p, q)
    assert abs(value - MAX_EB_UNIT) <= 1e-15


def test_max_eb_closed_skips_zero_probability():
    p, q = np.array([0.5, 0.5, 0.0]), np.array([0.5, -0.5, 0.0])
    value = analytic.max_EB_closed(UNIT, p, q)
    assert abs(value - MAX_EB_UNIT) <= 1e-15


def test_max_eb_equals_kernel_sum():
    rng = np.random.default_rng(8)
    for i in range(25):
        model = measurement.random_measurement(seed=1000 + i, n_outcomes=2 + i % 4)
        params = ModelParams(h=rng.uniform(0.25, 4), k=rng.uniform(0.25, 4))
        p, q = weight_block(model.rows)
        direct = analytic.max_EB_closed(params, p, q)
        kernel = sum(
            p_mu * analytic.f_E(params, (q_mu / p_mu) ** 2)
            for p_mu, q_mu in zip(p.tolist(), q.tolist())
            if p_mu > 1e-14
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


def test_lambda_pm_refuses_nan():
    # NaN fails both guards' in-range tests, as it fails f_E's, f_I's and T_profile's
    with pytest.raises(DomainError, match="^outcome weight p must be positive, got nan$"):
        analytic.lambda_pm(UNIT, math.nan, 0.0)
    with pytest.raises(DomainError, match=r"^\|q\| exceeds p: \|q\| - p, got nan$"):
        analytic.lambda_pm(UNIT, 0.5, math.nan)


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


def test_shannon_entropy_rejects_nan():
    with pytest.raises(DomainError):
        analytic.shannon_entropy([np.nan, 0.5])


def test_delta_s_closed_matches_brute_force():
    models = [
        measurement.random_measurement(seed=2000 + i, n_outcomes=2 + i % 3) for i in range(10)
    ]
    brute = consumption_columns([(UNIT, model) for model in models]).delta_s.tolist()
    for model, brute_s in zip(models, brute):
        closed = analytic.delta_S_closed(UNIT, *weight_block(model.rows))
        assert abs(closed - brute_s) <= 1e-10
