"""POVM layer: constraints, canonical inversion, Born rule, deposited energy."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minqet import measurement, protocol, qmath
from minqet.measurement import (
    ConstraintViolation,
    KrausCoefficients,
    MeasurementModel,
    OutcomeWeights,
)
from minqet.model import ModelParams, build_hamiltonian, ground_state


def test_identity_outcome_is_valid():
    model = measurement.validate([KrausCoefficients(m=1.0, l=0.0)])
    (w,) = model.weights
    assert abs(w.p - 1.0) <= 1e-15
    assert abs(w.q) <= 1e-15


def test_projective_pair_weights():
    # two sigma_x projectors written with alpha: (m, l, 0) and (m, l, pi)
    model = measurement.validate(
        [
            KrausCoefficients(m=0.5, l=0.5, alpha=0.0),
            KrausCoefficients(m=0.5, l=0.5, alpha=math.pi),
        ]
    )
    w0, w1 = model.weights
    assert abs(w0.p - 0.5) <= 1e-15 and abs(w0.q - 0.5) <= 1e-15
    assert abs(w1.p - 0.5) <= 1e-15 and abs(w1.q + 0.5) <= 1e-15


def test_normalization_violation():
    with pytest.raises(ConstraintViolation) as info:
        measurement.validate(
            [KrausCoefficients(m=0.6, l=0.3), KrausCoefficients(m=0.6, l=-0.3)]
        )
    assert info.value.kind == "normalization"
    assert abs(info.value.residual - 0.1) <= 1e-12


def test_balance_violation():
    root_half = math.sqrt(0.5)
    with pytest.raises(ConstraintViolation) as info:
        measurement.validate([KrausCoefficients(m=root_half, l=root_half)])
    assert info.value.kind == "balance"


def test_weights_to_coeffs_identity():
    model = measurement.weights_to_coeffs([OutcomeWeights(1.0, 0.0)])
    (c,) = model.coeffs
    assert abs(c.m - 1.0) <= 1e-15
    assert abs(c.l) <= 1e-15


def test_weights_to_coeffs_projective():
    model = measurement.weights_to_coeffs(
        [OutcomeWeights(0.5, 0.5), OutcomeWeights(0.5, -0.5)]
    )
    c0, c1 = model.coeffs
    assert abs(c0.m - 0.5) <= 1e-15 and abs(c0.l - 0.5) <= 1e-15
    assert abs(c1.m - 0.5) <= 1e-15 and abs(c1.l + 0.5) <= 1e-15


def test_weights_round_trip():
    given_weights = [OutcomeWeights(0.5, 0.25), OutcomeWeights(0.5, -0.25)]
    model = measurement.weights_to_coeffs(given_weights)
    for w_in, w_out in zip(given_weights, model.weights):
        assert abs(w_in.p - w_out.p) <= 1e-12
        assert abs(w_in.q - w_out.q) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    p0=st.floats(min_value=0.05, max_value=0.95),
    u0=st.floats(min_value=-1.0, max_value=1.0),
)
def test_weights_round_trip_property(p0, u0):
    # symmetric two-outcome family keeps the constraints satisfiable by hand
    q0 = u0 * min(p0, 1.0 - p0)
    ws = [OutcomeWeights(p0, q0), OutcomeWeights(1.0 - p0, -q0)]
    model = measurement.weights_to_coeffs(ws)
    for w_in, w_out in zip(ws, model.weights):
        assert abs(w_in.p - w_out.p) <= 1e-12
        assert abs(w_in.q - w_out.q) <= 1e-12


def test_weights_to_coeffs_rejects_unnormalized():
    with pytest.raises(ConstraintViolation):
        measurement.weights_to_coeffs([OutcomeWeights(0.7, 0.0)])


def test_weight_type_rejects_q_above_p():
    with pytest.raises(ConstraintViolation):
        OutcomeWeights(0.3, 0.5)


def test_kraus_identity_outcome():
    model = measurement.identity_measurement()
    assert np.allclose(model.kraus[0], np.eye(4), atol=1e-15)


def test_kraus_projectors_idempotent():
    model = measurement.projective_pair()
    for mu in range(2):
        op = model.kraus[mu]
        sx = qmath.tensor(qmath.pauli("x"), np.eye(2))
        sign = 1.0 if mu == 0 else -1.0
        assert np.allclose(op, (np.eye(4) + sign * sx) / 2.0, atol=1e-12)
        assert np.allclose(op @ op, op, atol=1e-12)


def test_kraus_commutes_with_interaction(small_ensemble):
    for params, model in small_ensemble[:12]:
        v = build_hamiltonian(params).v
        for mu in range(model.n_outcomes):
            op = model.kraus[mu]
            comm = op @ v - v @ op
            assert float(np.max(np.abs(comm))) <= 1e-12 * max(1.0, params.eps)


def test_kraus_stack_matches_kron_oracle():
    sx, one = np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    models = [
        measurement.validate(
            [
                KrausCoefficients(m=0.5, l=0.5, alpha=0.3, delta=1.1),
                KrausCoefficients(m=0.5, l=-0.5, alpha=-0.3, delta=-2.4),
            ]
        ),
        measurement.validate(
            [
                KrausCoefficients(m=0.6, l=0.0, alpha=0.0, delta=0.7),
                KrausCoefficients(m=0.4, l=0.4, alpha=1.2, delta=0.2),
                KrausCoefficients(m=0.4, l=-0.4, alpha=1.2, delta=-1.0),
            ]
        ),
        measurement.random_measurement(seed=11, n_outcomes=5),
    ]
    for model in models:
        assert model.kraus.shape == (model.n_outcomes, 4, 4)
        for op, c in zip(model.kraus, model.coeffs):
            m2 = c.m * one + c.l * np.exp(1j * c.alpha) * sx
            oracle = np.exp(1j * c.delta) * np.kron(m2, one)
            assert float(np.max(np.abs(op - oracle))) <= 1e-15


def test_kraus_stack_is_read_only():
    model = measurement.projective_pair()
    assert model.kraus.flags.writeable is False
    with pytest.raises(ValueError):
        model.kraus[0, 0, 0] = 0.0
    assert model.kraus[0, 0, 0] == 0.5


def test_kraus_index_out_of_range():
    with pytest.raises(IndexError):
        measurement.projective_pair().kraus[2]


def test_measure_identity():
    params = ModelParams(h=1.0, k=1.0)
    g = ground_state(params)
    model = measurement.identity_measurement()
    assert np.allclose(model.kraus[0] @ g, g, atol=1e-15)
    (outcome,) = protocol.run(params, model, protocol.FeedbackPolicy.identity(1)).per_outcome
    assert abs(outcome.probability - 1.0) <= 1e-15


def test_measure_projective_probabilities():
    params = ModelParams(h=1.0, k=1.0)
    model = measurement.projective_pair()
    # <g|sigma_x^A|g> = 0 forces 1/2 each
    for outcome in protocol.run(params, model, protocol.FeedbackPolicy.identity(2)).per_outcome:
        assert abs(outcome.probability - 0.5) <= 1e-12


def test_measure_probabilities_match_weights(small_ensemble):
    cases = [
        (params, model, protocol.FeedbackPolicy.identity(model.n_outcomes))
        for params, model in small_ensemble[:12]
    ]
    for (_, model, _), report in zip(cases, protocol.run_many(cases)):
        total = 0.0
        for w, outcome in zip(model.weights, report.per_outcome):
            assert abs(outcome.probability - w.p) <= 1e-10
            total += outcome.probability
        assert abs(total - 1.0) <= 1e-12


def test_measure_degenerate_outcome():
    tiny = 1e-16
    model = measurement.weights_to_coeffs(
        [OutcomeWeights(tiny, 0.0), OutcomeWeights(1.0 - tiny, 0.0)]
    )
    report = protocol.run(ModelParams(h=1.0, k=1.0), model, protocol.FeedbackPolicy.identity(2))
    assert report.per_outcome[0].probability == 0.0
    assert report.reduced_eigenvalues[0] is None
    assert report.reduced_eigenvalues[1] is not None


def test_input_energy_identity():
    params = ModelParams(h=1.0, k=1.0)
    assert measurement.input_energy_closed(measurement.identity_measurement(), params) == 0.0


def test_input_energy_projective():
    params = ModelParams(h=1.0, k=1.0)
    e_a = measurement.input_energy_closed(measurement.projective_pair(), params)
    assert abs(e_a - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert abs(e_a - 0.707107) <= 1e-6


def test_input_energy_matches_brute_force(small_ensemble):
    for params, model in small_ensemble[:20]:
        parts = build_hamiltonian(params)
        g = ground_state(params)
        brute = 0.0
        for mu in range(model.n_outcomes):
            psi = model.kraus[mu] @ g
            brute += float(np.real(np.vdot(psi, parts.total @ psi)))
        closed = measurement.input_energy_closed(model, params)
        assert abs(closed - brute) <= 1e-10 * max(1.0, params.eps)


def test_post_measurement_b_side_untouched(small_ensemble):
    # averaged H_B and V stay at their ground value (zero)
    for params, model in small_ensemble[:20]:
        parts = build_hamiltonian(params)
        g = ground_state(params)
        hb = v = 0.0
        for mu in range(model.n_outcomes):
            psi = model.kraus[mu] @ g
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
        assert abs(sum(w.q for w in model.weights)) <= 1e-12
        assert abs(sum(w.p for w in model.weights) - 1.0) <= 1e-12


def test_random_measurement_needs_two_outcomes():
    with pytest.raises(ValueError):
        measurement.random_measurement(seed=0, n_outcomes=1)


def test_constraint_residuals_structure():
    res = measurement.constraint_residuals(measurement.projective_pair())
    assert set(res) == {"normalization", "balance", "completeness", "commutant"}
    assert all(v <= 1e-12 for v in res.values())


def test_weak_pair_and_limits():
    model = measurement.weak_pair(0.3)
    w0, w1 = model.weights
    assert abs(w0.p - 0.5) <= 1e-15 and abs(w0.q - 0.15) <= 1e-15
    assert abs(w1.q + 0.15) <= 1e-15
    # u = 1 is exactly the projective pair
    strong = measurement.weak_pair(1.0)
    assert strong == measurement.projective_pair()


def test_json_round_trip_outcomes():
    model = measurement.random_measurement(seed=7, n_outcomes=3)
    obj = measurement.to_json_obj(model)
    clone = measurement.from_json_obj(json.loads(json.dumps(obj)))
    for c_in, c_out in zip(model.coeffs, clone.coeffs):
        assert abs(c_in.m - c_out.m) <= 1e-15
        assert abs(c_in.l - c_out.l) <= 1e-15


def test_json_weights_variant():
    obj = {"weights": [{"p": 0.5, "q": 0.25}, {"p": 0.5, "q": -0.25}]}
    model = measurement.from_json_obj(obj)
    assert abs(model.weights[0].q - 0.25) <= 1e-12


def test_json_rejects_ambiguous_payload():
    with pytest.raises(ValueError):
        measurement.from_json_obj({})
    with pytest.raises(ValueError):
        measurement.from_json_obj(
            {"outcomes": [{"m": 1.0, "l": 0.0}], "weights": [{"p": 1.0, "q": 0.0}]}
        )


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
    st.integers(min_value=2, max_value=8).flatmap(
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


@pytest.mark.parametrize(
    "p, u",
    [
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
    ],
)
def test_balance_weights_edge_cases(p, u):
    _assert_exact_root(p, u)
