"""Derivative-free search vs the closed forms it is meant to cross-check."""

import warnings

import numpy as np
import pytest

from minqet import analytic, measurement, optimizer, protocol
from minqet.measurement import OutcomeWeights
from minqet.model import ModelParams

from conftest import model_ensemble

UNIT = ModelParams(h=1.0, k=1.0)
MAX_EB_UNIT = 0.11474763394014725


def test_fibonacci_sphere_is_unit():
    pts = optimizer.fibonacci_sphere(256)
    assert pts.shape == (256, 3)
    assert float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0))) <= 1e-12


def test_policy_search_trivial_model():
    model = measurement.weights_to_coeffs(
        [OutcomeWeights(0.5, 0.0), OutcomeWeights(0.5, 0.0)]
    )
    res = optimizer.maximize_over_policy(UNIT, model)
    assert abs(res.best_value) <= 1e-10
    assert res.converged


def test_policy_search_projective_unit_point():
    res = optimizer.maximize_over_policy(UNIT, measurement.projective_pair())
    assert abs(res.best_value - MAX_EB_UNIT) <= 1e-8
    for u in res.best_policy.unitaries:
        assert abs(u.n[1]) >= 1.0 - 1e-4


def test_policy_search_matches_closed_form_ensemble():
    members = model_ensemble(30, seed0=500)
    for params, model in members:
        res = optimizer.maximize_over_policy(params, model)
        closed = analytic.max_EB_closed(params, model.weights)
        rel = abs(res.best_value - closed) / max(closed, 1e-9)
        assert rel <= 1e-7
        assert res.best_value <= closed + 1e-9
        assert res.converged


def test_policy_search_canonical_axis():
    members = model_ensemble(20, seed0=900)
    for params, model in members:
        res = optimizer.maximize_over_policy(params, model)
        for w, u in zip(model.weights, res.best_policy.unitaries):
            if abs(w.q) > 1e-12:
                assert abs(u.n[1]) >= 1.0 - 1e-4


def test_policy_search_result_replays():
    model = measurement.random_measurement(seed=77, n_outcomes=3)
    res = optimizer.maximize_over_policy(UNIT, model)
    replay = protocol.run(UNIT, model, res.best_policy).e_b
    assert abs(replay - res.best_value) <= 1e-12


def test_policy_search_deterministic():
    model = measurement.random_measurement(seed=5, n_outcomes=4)
    a = optimizer.maximize_over_policy(UNIT, model)
    b = optimizer.maximize_over_policy(UNIT, model)
    assert a.best_value == b.best_value
    assert a.evaluations == b.evaluations
    assert a.best_policy == b.best_policy


def test_weights_search_unit_point():
    res = optimizer.maximize_over_weights(UNIT, n_outcomes=2)
    limit = analytic.f_E(UNIT, 1.0)
    assert abs(res.best_value - limit) <= 1e-8
    for w in res.best_weights:
        assert abs(abs(w.q) - w.p) <= 1e-6


@pytest.mark.parametrize("h, k", [(1.0, 1.0), (0.8, 2.1)])
def test_weights_search_six_outcomes_reaches_projective_limit(h, k):
    # the benchmark's design-search size, judged as the benchmark judges it
    params = ModelParams(h=h, k=k)
    res = optimizer.maximize_over_weights(params, n_outcomes=6)
    limit = analytic.f_E(params, 1.0)
    assert res.converged
    assert abs(res.best_value - limit) <= 1e-7 * limit


def test_weights_search_no_interaction_limit():
    res = optimizer.maximize_over_weights(ModelParams(h=1.0, k=1e-4), n_outcomes=2)
    assert res.best_value <= 1e-7


def test_weights_search_outcome_count_irrelevant():
    two = optimizer.maximize_over_weights(UNIT, n_outcomes=2)
    four = optimizer.maximize_over_weights(UNIT, n_outcomes=4)
    assert abs(two.best_value - four.best_value) <= 1e-8


def test_weights_search_flags_exhausted_budget(monkeypatch):
    monkeypatch.setattr(optimizer, "REFINE_ITERS", 1)
    with pytest.warns(optimizer.NoConvergence):
        res = optimizer.maximize_over_weights(UNIT, n_outcomes=2)
    assert not res.converged
    assert np.isfinite(res.best_value)


def test_nonconvergence_is_a_warning_not_an_error():
    # callers opt into strictness with simplefilter("error", NoConvergence)
    assert issubclass(optimizer.NoConvergence, RuntimeWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error", optimizer.NoConvergence)
        res = optimizer.maximize_over_policy(UNIT, measurement.projective_pair())
    assert res.converged
