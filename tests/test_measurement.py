"""POVM layer: constraints, canonical inversion, Born rule, deposited energy."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minqet import checks, measurement, protocol, qmath
from minqet.measurement import (
    ConstraintViolation, MeasurementModel, kraus_operators, weight_block,
)
from minqet.model import ModelParams, ParamsBlock, build_hamiltonian, ground_state

from conftest import case_block, case_report, run_batch


def test_identity_outcome_is_valid():
    model = MeasurementModel([[1.0, 0.0, 0.0, 0.0]])
    (p,), (q,) = weight_block(model.rows)
    assert abs(p - 1.0) <= 1e-15
    assert abs(q) <= 1e-15


def test_projective_pair_weights():
    # two sigma_x projectors written with alpha: (m, l, 0) and (m, l, pi)
    model = MeasurementModel([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, math.pi, 0.0]])
    (p0, p1), (q0, q1) = weight_block(model.rows)
    assert abs(p0 - 0.5) <= 1e-15 and abs(q0 - 0.5) <= 1e-15
    assert abs(p1 - 0.5) <= 1e-15 and abs(q1 + 0.5) <= 1e-15


def test_normalization_violation():
    with pytest.raises(ConstraintViolation) as info:
        MeasurementModel([[0.6, 0.3, 0.0, 0.0], [0.6, -0.3, 0.0, 0.0]])
    assert info.value.kind == "normalization"
    assert abs(info.value.residual - 0.1) <= 1e-12


def test_model_needs_an_outcome():
    with pytest.raises(ConstraintViolation, match="no outcomes") as info:
        MeasurementModel(np.zeros((0, 4)))
    assert info.value.kind == "normalization"


def test_balance_violation():
    root_half = math.sqrt(0.5)
    with pytest.raises(ConstraintViolation) as info:
        MeasurementModel([[root_half, root_half, 0.0, 0.0]])
    assert info.value.kind == "balance"


def test_weights_to_coeffs_identity():
    model = MeasurementModel.from_weights([1.0], [0.0])
    ((m, l, _, _),) = model.rows
    assert abs(m - 1.0) <= 1e-15
    assert abs(l) <= 1e-15


def test_weights_to_coeffs_projective():
    model = MeasurementModel.from_weights([0.5, 0.5], [0.5, -0.5])
    (m0, l0, _, _), (m1, l1, _, _) = model.rows
    assert abs(m0 - 0.5) <= 1e-15 and abs(l0 - 0.5) <= 1e-15
    assert abs(m1 - 0.5) <= 1e-15 and abs(l1 + 0.5) <= 1e-15


def test_weights_round_trip():
    given_p, given_q = np.array([0.5, 0.5]), np.array([0.25, -0.25])
    p, q = weight_block(MeasurementModel.from_weights(given_p, given_q).rows)
    assert np.all(np.abs(p - given_p) <= 1e-12)
    assert np.all(np.abs(q - given_q) <= 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    p0=st.floats(min_value=0.05, max_value=0.95),
    u0=st.floats(min_value=-1.0, max_value=1.0),
)
def test_weights_round_trip_property(p0, u0):
    # symmetric two-outcome family keeps the constraints satisfiable by hand
    q0 = u0 * min(p0, 1.0 - p0)
    given_p, given_q = np.array([p0, 1.0 - p0]), np.array([q0, -q0])
    p, q = weight_block(MeasurementModel.from_weights(given_p, given_q).rows)
    assert np.all(np.abs(p - given_p) <= 1e-12)
    assert np.all(np.abs(q - given_q) <= 1e-12)


def test_weights_to_coeffs_rejects_unnormalized():
    with pytest.raises(ConstraintViolation):
        MeasurementModel.from_weights([0.7], [0.0])


def test_weight_type_rejects_q_above_p():
    # the outcome check runs before the canonical map and its normalization
    with pytest.raises(ConstraintViolation) as info:
        MeasurementModel.from_weights([0.3], [0.5])
    assert info.value.kind == "balance"


def test_kraus_identity_outcome():
    model = measurement.identity_measurement()
    assert np.allclose(kraus_operators(model.rows)[0], np.eye(4), atol=1e-15)


def test_kraus_projectors_idempotent():
    model = measurement.projective_pair()
    for mu in range(2):
        op = kraus_operators(model.rows)[mu]
        sx = qmath.tensor(qmath.pauli("x"), np.eye(2))
        sign = 1.0 if mu == 0 else -1.0
        assert np.allclose(op, (np.eye(4) + sign * sx) / 2.0, atol=1e-12)
        assert np.allclose(op @ op, op, atol=1e-12)


def test_kraus_commutes_with_interaction(small_ensemble):
    for params, model in small_ensemble[:12]:
        v = build_hamiltonian(params).v
        for mu in range(model.n_outcomes):
            op = kraus_operators(model.rows)[mu]
            comm = op @ v - v @ op
            assert float(np.max(np.abs(comm))) <= 1e-12 * max(1.0, params.eps)


def test_kraus_stack_matches_kron_oracle():
    sx, one = np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    models = [
        MeasurementModel([[0.5, 0.5, 0.3, 1.1], [0.5, -0.5, -0.3, -2.4]]),
        MeasurementModel(
            [[0.6, 0.0, 0.0, 0.7], [0.4, 0.4, 1.2, 0.2], [0.4, -0.4, 1.2, -1.0]]
        ),
        measurement.random_measurement(seed=11, n_outcomes=5),
    ]
    for model in models:
        ops = kraus_operators(model.rows)
        assert ops.shape == (model.n_outcomes, 4, 4)
        for op, (m, l, alpha, delta) in zip(ops, model.rows.tolist()):
            m2 = m * one + l * np.exp(1j * alpha) * sx
            oracle = np.exp(1j * delta) * np.kron(m2, one)
            assert float(np.max(np.abs(op - oracle))) <= 1e-15


def test_measured_kets_are_the_kraus_operators_on_the_ket():
    # one ket with one model's rows, and a block of grounds with a coefficient block,
    # give the bits of the Kraus operators applied ket by ket
    block, coeffs = checks.draw_members(6, range(30))[:2]
    grounds = ground_state(block)
    kets = measurement.measured_kets(grounds, coeffs)
    assert kets.shape == coeffs.shape
    for ground, rows, ket in zip(grounds, coeffs, kets):
        one = kraus_operators(rows) @ ground
        assert measurement.measured_kets(ground, rows).tobytes() == one.tobytes()
        assert ket.tobytes() == one.tobytes()


def test_kraus_index_out_of_range():
    with pytest.raises(IndexError):
        kraus_operators(measurement.projective_pair().rows)[2]


def test_measure_identity():
    params = ModelParams(h=1.0, k=1.0)
    g = ground_state(params)
    model = measurement.identity_measurement()
    assert np.allclose(kraus_operators(model.rows)[0] @ g, g, atol=1e-15)
    # an empty policy is padded with the identity
    ((probability, *_),) = run_batch([(params, model, ())]).per_outcome[0].tolist()
    assert abs(probability - 1.0) <= 1e-15


def test_measure_projective_probabilities():
    params = ModelParams(h=1.0, k=1.0)
    model = measurement.projective_pair()
    # <g|sigma_x^A|g> = 0 forces 1/2 each
    for probability in run_batch([(params, model, ())]).per_outcome[0, :, 0].tolist():
        assert abs(probability - 0.5) <= 1e-12


def test_measure_probabilities_match_weights(small_ensemble):
    block, coeffs = case_block(small_ensemble[:12])
    omega = np.zeros(coeffs.shape[:2])  # the identity: no turn about the y axis
    axes = np.broadcast_to((0.0, 1.0, 0.0), omega.shape + (3,))
    columns = protocol.run_many(block, coeffs, omega, axes)
    for (_, model), probabilities in zip(small_ensemble, columns.per_outcome[..., 0].tolist()):
        total = 0.0
        for p, probability in zip(weight_block(model.rows)[0].tolist(), probabilities):
            assert abs(probability - p) <= 1e-10
            total += probability
        assert abs(total - 1.0) <= 1e-12


def test_measure_degenerate_outcome():
    tiny = 1e-16
    model = MeasurementModel.from_weights([tiny, 1.0 - tiny], [0.0, 0.0])
    report = case_report(run_batch([(ModelParams(h=1.0, k=1.0), model, ())]), 0, 2)
    assert report.per_outcome[0][0] == 0.0
    # NaN eigenvalues mark the degenerate outcome
    assert all(math.isnan(x) for x in report.reduced_eigenvalues[0])
    assert not any(math.isnan(x) for x in report.reduced_eigenvalues[1])


def test_input_energy_identity():
    params = ModelParams(h=1.0, k=1.0)
    assert measurement.input_energy_closed(params, measurement.identity_measurement().rows) == 0.0


def test_input_energy_projective():
    params = ModelParams(h=1.0, k=1.0)
    e_a = measurement.input_energy_closed(params, measurement.projective_pair().rows)
    assert abs(e_a - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert abs(e_a - 0.707107) <= 1e-6


def test_input_energy_matches_brute_force(small_ensemble):
    for params, model in small_ensemble[:20]:
        parts = build_hamiltonian(params)
        g = ground_state(params)
        brute = 0.0
        for mu in range(model.n_outcomes):
            psi = kraus_operators(model.rows)[mu] @ g
            brute += float(np.real(np.vdot(psi, parts.total @ psi)))
        closed = measurement.input_energy_closed(params, model.rows)
        assert abs(closed - brute) <= 1e-10 * max(1.0, params.eps)


def test_input_energy_on_a_block_equals_one_call_per_model(small_ensemble):
    # outcome counts 2-6 padded to 6: a zero row adds exactly 0
    params, models = zip(*small_ensemble[:12])
    block = measurement.input_energy_closed(
        ParamsBlock.of(params), measurement.coefficient_block(models)
    )
    assert block.shape == (12,)
    assert block.tolist() == [
        measurement.input_energy_closed(p, m.rows) for p, m in zip(params, models)
    ]


def test_post_measurement_b_side_untouched(small_ensemble):
    # averaged H_B and V stay at their ground value (zero)
    for params, model in small_ensemble[:20]:
        parts = build_hamiltonian(params)
        g = ground_state(params)
        hb = v = 0.0
        for mu in range(model.n_outcomes):
            psi = kraus_operators(model.rows)[mu] @ g
            hb += float(np.real(np.vdot(psi, parts.h_b @ psi)))
            v += float(np.real(np.vdot(psi, parts.v @ psi)))
        scale = max(1.0, params.eps)
        assert abs(hb) <= 1e-10 * scale
        assert abs(v) <= 1e-10 * scale


def test_random_measurement_deterministic():
    a = measurement.random_measurement(seed=42, n_outcomes=3)
    b = measurement.random_measurement(seed=42, n_outcomes=3)
    assert a == b


def test_random_measurement_bulk_validity():
    for i in range(1000):
        model = measurement.random_measurement(seed=i, n_outcomes=2 + i % 4)
        measurement.validate(model)  # does not raise
        p, q = weight_block(model.rows)
        assert abs(sum(q.tolist())) <= 1e-12
        assert abs(sum(p.tolist()) - 1.0) <= 1e-12


def test_raw_draw_equals_numpys_dirichlet_and_uniform():
    # the running-sum draw has the bits of rng.dirichlet, past 8 outcomes too, where
    # a pairwise sum would round differently; a NumPy that draws otherwise fails here
    for seed in range(200):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(2, 31):
            p, u = measurement.raw_draw(rng, n)
            assert p.tobytes() == twin.dirichlet(np.ones(n)).tobytes()
            assert u.tobytes() == twin.uniform(-1.0, 1.0, n).tobytes()


def test_random_measurement_is_judged_once(monkeypatch):
    # draw_block balances and maps; the MeasurementModel built from its block is the one judge
    check_block, judged = measurement.check_block, []

    def spy(coeffs):
        judged.append(coeffs.shape)
        return check_block(coeffs)

    monkeypatch.setattr(measurement, "check_block", spy)
    for n in range(2, 7):
        measurement.random_measurement(seed=n, n_outcomes=n)
    assert judged == [(n, 4) for n in range(2, 7)]


def test_random_measurement_needs_two_outcomes():
    with pytest.raises(ValueError):
        measurement.random_measurement(seed=0, n_outcomes=1)


def test_constraint_residuals_structure():
    res = measurement.block_residuals(measurement.projective_pair().rows)
    assert set(res) == {"normalization", "balance", "completeness", "commutant"}
    assert all(v <= 1e-12 for v in res.values())


def test_an_operator_that_fails_to_commute_is_a_completeness_violation(monkeypatch):
    # a sigma_A^z term turns every operator by the same unitary, so sum(M^dag M) = I
    # still holds, but sigma_A^z anticommutes with the coupling sigma_A^x sigma_B^x
    rows, kraus = measurement.weak_pair(0.3).rows, measurement.kraus_operators
    turn = math.cos(0.1) * qmath.EYE4 + 1j * math.sin(0.1) * qmath.Z_A
    monkeypatch.setattr(measurement, "kraus_operators", lambda coeffs: turn @ kraus(coeffs))
    assert measurement.block_residuals(rows)["completeness"] <= measurement.WEIGHT_TOL
    with pytest.raises(ConstraintViolation) as info:
        measurement.check_block(rows)
    assert info.value.kind == "completeness"
    assert str(info.value).endswith(": operator fails to commute with the coupling")


def test_weak_pair_and_limits():
    model = measurement.weak_pair(0.3)
    (p0, _), (q0, q1) = weight_block(model.rows)
    assert abs(p0 - 0.5) <= 1e-15 and abs(q0 - 0.15) <= 1e-15
    assert abs(q1 + 0.15) <= 1e-15
    # u = 1 is exactly the projective pair
    strong = measurement.weak_pair(1.0)
    assert strong == measurement.projective_pair()


def test_json_round_trip_outcomes():
    model = measurement.random_measurement(seed=7, n_outcomes=3)
    obj = measurement.to_json_obj(model)
    clone = measurement.from_json_obj(json.loads(json.dumps(obj)))
    for (m_in, l_in, _, _), (m_out, l_out, _, _) in zip(model.rows, clone.rows):
        assert abs(m_in - m_out) <= 1e-15
        assert abs(l_in - l_out) <= 1e-15


def test_json_weights_variant():
    obj = {"weights": [{"p": 0.5, "q": 0.25}, {"p": 0.5, "q": -0.25}]}
    model = measurement.from_json_obj(obj)
    assert abs(weight_block(model.rows)[1][0] - 0.25) <= 1e-12


def test_json_rejects_ambiguous_payload():
    with pytest.raises(ValueError):
        measurement.from_json_obj({})
    with pytest.raises(ValueError):
        measurement.from_json_obj(
            {"outcomes": [{"m": 1.0, "l": 0.0}], "weights": [{"p": 1.0, "q": 0.0}]}
        )


@pytest.mark.parametrize(
    "obj, error, message",
    [
        (
            {"weights": [{"p": 0.5, "q": 0.0}, {"p": math.nan, "q": 0.0}]},
            ConstraintViolation,
            "balance constraint violated (residual inf): weights must be finite",
        ),
        (
            {"weights": [{"p": -0.5, "q": 0.0}, {"p": 1.5, "q": 0.0}]},
            ConstraintViolation,
            "balance constraint violated (residual 5.000e-01): p must be nonnegative",
        ),
        (
            {"weights": [{"p": 0.3, "q": 0.1}, {"p": 0.7, "q": -0.9}]},
            ConstraintViolation,
            "balance constraint violated (residual 2.000e-01): |q| may not exceed p",
        ),
        ({"weights": []}, ValueError, "'weights' must be a non-empty list"),
        ({"outcomes": []}, ValueError, "'outcomes' must be a non-empty list"),
        ({"weights": [{"p": 0.5}, {"p": 0.5, "q": 0.0}]}, ValueError,
         "bad weight entry at index 0: 'q'"),
        ({"outcomes": [{"m": 1.0}]}, ValueError, "bad outcome entry at index 0: 'l'"),
        (
            {"outcomes": [{"m": 1.0, "l": 0.0}], "weights": [{"p": 1.0, "q": 0.0}]},
            ValueError,
            "measurement description needs exactly one of 'outcomes' or 'weights'",
        ),
        ({"weights": [0.5, 0.5]}, ValueError,
         "bad weight entry at index 0: 'float' object is not subscriptable"),
        ({"outcomes": ["abc"]}, ValueError,
         "bad outcome entry at index 0: string indices must be integers, not 'str'"),
    ],
)
def test_json_rejects_malformed_input_with_its_message(obj, error, message):
    with pytest.raises(ValueError) as info:
        measurement.from_json_obj(obj)
    assert type(info.value) is error
    assert str(info.value) == message


def test_balance_weights_pins_sum():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.integers(2, 7)
        p = rng.dirichlet(np.ones(n))
        u = rng.uniform(-1, 1, size=n)
        q = measurement.balance_weights(p, u)
        assert abs(float(np.sum(q))) <= 1e-12
        assert np.all(np.abs(q) <= p + 1e-15)


def _exact_balanced_q(p, u):
    """q at the exact root of R(s) = sum(clip(u - s, -1, 1) * p), in fractions.

    Between two adjacent knots the unclipped outcomes A are fixed, and
    R(s) = 0 solves to s = (sum_A p u + sum_{u-s>=1} p - sum_{u-s<=-1} p) / sum_A p.
    """
    ps = [Fraction(x) for x in p]
    us = [Fraction(x) for x in u]
    knots = sorted({x + d for x in us for d in (-1, 1)})
    for lo, hi in zip(knots, knots[1:]):
        mid = (lo + hi) / 2
        active = [abs(x - mid) < 1 for x in us]
        slope = sum(y for y, a in zip(ps, active) if a)
        clipped = sum(
            y if x > mid else -y for x, y, a in zip(us, ps, active) if not a
        )
        if slope == 0:
            if clipped == 0:
                s = lo
                break
            continue
        s = (sum(x * y for x, y, a in zip(us, ps, active) if a) + clipped) / slope
        if lo <= s <= hi:
            break
    return np.array([float(max(-1, min(1, x - s)) * y) for x, y in zip(us, ps)])


def _assert_exact_root(p, u):
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    q = measurement.balance_weights(p, u)
    assert abs(float(np.sum(q))) <= 1e-15
    assert np.all(np.abs(q) <= p)
    eps = np.finfo(float).eps
    assert float(np.max(np.abs(q - _exact_balanced_q(p, u)))) <= 4 * eps


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(
                lambda raw: sum(raw) > 1e-6
            ),
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
        )
    )
)
def test_balance_weights_exact_root(raw_and_u):
    raw, u = raw_and_u
    p = np.array(raw) / sum(raw)
    _assert_exact_root(p, u)


BALANCE_EDGE_CASES = [
    # zero-mass outcomes, as the weights search makes by clipping raw p
    ([0.0, 0.6, 0.0, 0.4], [0.9, 0.2, -0.7, -0.5]),
    ([0.5, 0.0, 0.5], [0.3, 0.3, -0.8]),
    # all u equal: the root is that u and every q is zero
    ([0.2, 0.3, 0.5], [0.4, 0.4, 0.4]),
    # two outcomes at u = +-1: the projective pair
    ([0.5, 0.5], [1.0, -1.0]),
    ([0.3, 0.7], [-1.0, 1.0]),
    # R is zero on the whole piece [-0.5, 0.5], where the outer outcomes
    # are clipped to +-1 and only the zero-mass one is unclipped
    ([0.5, 0.0, 0.5], [1.5, 0.3, -1.5]),
]


@pytest.mark.parametrize("p, u", BALANCE_EDGE_CASES)
def test_balance_weights_edge_cases(p, u):
    _assert_exact_root(p, u)


def test_balance_weights_balances_a_stack_row_by_row():
    # random columns, some with zero-mass outcomes, and every edge case among
    # columns of its own size: the (n, R) stack, outcome axis first, gives
    # each column's bits, also from 8 outcomes up, where only a sum in
    # outcome order keeps a column's bits the same alone and in a stack
    rng = np.random.default_rng(4)
    for n in (2, 3, 4, 6, 9, 24):
        p = rng.dirichlet(np.ones(n), size=60)
        p[::7, 0] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        u = rng.uniform(-1.0, 1.0, size=(60, n))
        u[::5] = np.round(u[::5], 1)  # ties among the knots
        edge = [case for case in BALANCE_EDGE_CASES if len(case[0]) == n]
        if edge:
            p = np.concatenate([p, [case[0] for case in edge]])
            u = np.concatenate([u, [case[1] for case in edge]])
        p, u = p.T.copy(), u.T.copy()  # (n, R) columns
        stacked = measurement.balance_weights(p, u)
        assert stacked.shape == p.shape
        columns = [measurement.balance_weights(p_col, u_col) for p_col, u_col in zip(p.T, u.T)]
        assert stacked.T.tolist() == [column.tolist() for column in columns]
        # a deeper stack (n, 2, R / 2) as well
        half = p.shape[1] // 2 * 2
        deep = measurement.balance_weights(
            p[:, :half].reshape(n, 2, -1), u[:, :half].reshape(n, 2, -1)
        )
        assert deep.reshape(n, -1).tolist() == stacked[:, :half].tolist()
