"""The eigen maxima over policies and over weights vs the closed forms they cross-check."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from minqet import analytic, checks, measurement, optimizer, protocol
from minqet.measurement import MeasurementModel, weight_block
from minqet.model import ModelParams, ParamsBlock, params_row

from conftest import case_block, model_ensemble

UNIT = ModelParams(h=1.0, k=1.0)
MAX_EB_UNIT = 0.11474763394014725


def search(cases):
    """``maximize_over_policies`` on the arrays of (params, model) cases."""
    return optimizer.maximize_over_policies(*case_block(cases))


def test_policy_search_trivial_model():
    # q = 0: no turn extracts energy, and the maximum is 0 up to rounding
    model = MeasurementModel.from_weights([0.5, 0.5], [0.0, 0.0])
    value, turns = search([(UNIT, model)])
    assert abs(value[0]) <= 1e-15
    assert np.all(protocol.turn_policy(turns)[0][0] <= 1e-7)


def test_policy_search_projective_unit_point():
    # |q| = p: the best turns form a family; the printed ones replay the maximum
    block, coeffs = case_block([(UNIT, measurement.projective_pair())])
    value, turns = optimizer.maximize_over_policies(block, coeffs)
    assert abs(value[0] - MAX_EB_UNIT) <= 1e-15
    assert abs(protocol.run_many(block, coeffs, turns).e_b[0] - value[0]) <= 1e-15


def test_an_exact_tie_of_the_two_blocks_goes_to_the_y_block(monkeypatch):
    # D's {1, sigma_y} and {sigma_x, sigma_z} blocks equal: the printed turn is about y,
    # by theta = atan2(b, half) / 2, and not a half turn in the x-z plane
    pair = np.array([[0.0, 0.3], [0.3, -1.0]])
    gains = np.zeros((1, 1, 4, 4))
    gains[..., ::2, ::2], gains[..., 1::2, 1::2] = pair, pair
    monkeypatch.setattr(protocol, "turn_gains", lambda params, coeffs: gains.copy())
    rows = measurement.identity_measurement().rows[None]
    value, turns = optimizer.maximize_over_policies(ParamsBlock.of([UNIT]), rows)
    omega, axes = protocol.turn_policy(turns)
    assert abs(value[0] - np.linalg.eigvalsh(pair)[-1]) <= 1e-16
    assert axes[0, 0].tolist() == list(analytic.Y_AXIS)
    assert omega[0, 0] == 0.5 * math.atan2(0.3, 0.5)


def test_policy_search_matches_closed_form_ensemble():
    members = model_ensemble(30, seed0=500)
    block, coeffs = case_block(members)
    closed = analytic.max_EB_closed(block, *weight_block(coeffs))
    value = search(members)[0]
    assert np.all(checks.maximum_gap(value, closed) <= 1e-12)


@pytest.mark.parametrize("seed", [0, 7, 26])
def test_policy_search_meets_the_closed_maximum_on_a_verify_ensemble(seed):
    block, coeffs = checks.draw_members(seed, range(1000))[:2]
    closed = analytic.max_EB_closed(block, *weight_block(coeffs))
    gap = checks.maximum_gap(optimizer.maximize_over_policies(block, coeffs)[0], closed)
    assert gap.max() <= 1e-12, (gap.argmax(), gap.max())


def test_policy_search_meets_weak_measurements():
    # the top eigenvalue keeps its relative digits as the maximum shrinks like u^2
    strengths = [10.0**-e for e in range(2, 9)]
    block, coeffs = case_block([(UNIT, measurement.weak_pair(u)) for u in strengths])
    closed = analytic.max_EB_closed(block, *weight_block(coeffs))
    gap = checks.maximum_gap(optimizer.maximize_over_policies(block, coeffs)[0], closed)
    assert gap.max() <= 1e-14, gap


def test_policy_search_canonical_axis():
    # 0 < |q| < p: the best turn is about the y axis alone.  At |q| = p the best turns
    # form a family (four outcomes here), and the printed turn is one eigenvector of D.
    members = model_ensemble(20, seed0=900)
    axes = protocol.turn_policy(search(members)[1])[1]
    saturated = 0
    for (_, model), case_axes in zip(members, axes):
        for p, q, axis in zip(*(w.tolist() for w in weight_block(model.rows)), case_axes):
            saturated += abs(q) == p
            if 1e-12 < abs(q) < p:
                assert abs(axis[1]) >= 1.0 - 1e-4
    assert saturated == 4


def test_policy_search_result_replays():
    model = measurement.random_measurement(seed=77, n_outcomes=3)
    block, coeffs = case_block([(UNIT, model)])
    value, turns = optimizer.maximize_over_policies(block, coeffs)
    replay = protocol.run_many(block, coeffs, turns).e_b
    assert abs(replay[0] - value[0]) <= 1e-12


def test_policy_search_deterministic():
    model = measurement.random_measurement(seed=5, n_outcomes=4)
    a, b = search([(UNIT, model)]), search([(UNIT, model)])
    # value and turns, bit for bit
    assert [column.tobytes() for column in a] == [column.tobytes() for column in b]


def test_policy_batch_matches_one_call_per_case(monkeypatch):
    mixed = MeasurementModel.from_weights(
        # |q| = p: a degenerate family; zero mass: the identity; q = 0: no gain
        [0.3, 0.0, 0.4, 0.3],
        [0.3, 0.0, 0.0, -0.3],
    )
    cases = [(UNIT, mixed), (ModelParams(h=0.3, k=2.7), measurement.projective_pair())]
    for (h, k), n in zip([(0.5, 2.0), (2.0, 0.5), (1.0, 0.25), (4.0, 1.0)], (2, 3, 4, 6)):
        model = measurement.random_measurement(seed=40 + n, n_outcomes=n)
        cases.append((ModelParams(h=h, k=k), model))
    with monkeypatch.context() as patch:
        # blocks that split cases must not change any case's bits
        patch.setattr(protocol, "BLOCK", 2)
        value, turns = search(cases)
    assert value.shape == (len(cases),) and turns.shape == (len(cases), 6, 4)
    identity = [1.0, 0.0, 0.0, 0.0]
    assert turns[0, 1].tolist() == identity  # the zero-mass outcome
    for i, case in enumerate(cases):
        # a block of N is N blocks of one, bit for bit
        alone = search([case])
        n = case[1].n_outcomes
        assert value[i] == alone[0][0]
        assert turns[i, :n].tobytes() == alone[1][0].tobytes()
        assert (turns[i, n:] == identity).all()  # padding: the identity
    # every turn of a live outcome, and the axis it is printed with, has unit length
    live = (weight_block(case_block(cases)[1])[0] > measurement.DEGENERATE_PROB).T
    assert live.sum() == 20
    for vectors in (turns[live], protocol.turn_policy(turns)[1][live]):
        assert np.all(np.abs(np.sqrt(np.sum(vectors**2, axis=-1)) - 1.0) <= 1e-15)


def test_policy_search_is_covariant_under_power_of_two_scaling():
    # D scales exactly with h and k, so at (2^j h, 2^j k) the maximum is exactly 2^j
    # times as large and the turns are bit-equal
    block, coeffs = checks.draw_members(3, range(60))[:2]
    base = optimizer.maximize_over_policies(block, coeffs)
    hk = list(zip(block.h.tolist(), block.k.tolist()))
    for j in range(-240, 241, 20):
        scaled = ParamsBlock.of_rows([params_row(h * 2.0**j, k * 2.0**j) for h, k in hk])
        columns = optimizer.maximize_over_policies(scaled, coeffs)
        assert np.array_equal(columns[0], base[0] * 2.0**j), j
        for got, want in zip(columns[1:], base[1:]):
            assert np.array_equal(got, want), j


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_policy_search_keeps_its_digits_at_extreme_scales(scale):
    # where mid < 0, lambda_max = det / L is formed as x (z / L) - b (b / L): no product
    # of two entries of D overflows or underflows, as (x z - b^2) / L would past ~1e154
    block, coeffs = checks.draw_members(3, range(60))[:2]
    hk = zip(block.h.tolist(), block.k.tolist())
    scaled = ParamsBlock.of_rows([params_row(h * scale, k * scale) for h, k in hk])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        found = optimizer.maximize_over_policies(scaled, coeffs)[0]
    closed = analytic.max_EB_closed(scaled, *weight_block(coeffs))
    assert checks.maximum_gap(found, closed).max() <= 1e-14


def test_policy_search_meets_the_closed_maximum_across_the_wide_domain():
    # 500 drawn cases: h/k log-uniform on [1e-14, 1e14], the overall scale on
    # [1e-30, 1e30], 2-6 outcomes; D carries h/eps as a factor, so no end loses digits
    rng, size = np.random.default_rng([30, 1]), 500
    ratio = np.exp(rng.uniform(math.log(1e-14), math.log(1e14), size)).tolist()
    scale = np.exp(rng.uniform(math.log(1e-30), math.log(1e30), size)).tolist()
    counts = rng.integers(2, 7, size)
    p, u = np.zeros((size, 6)), np.zeros((size, 6))
    for i, n in enumerate(counts.tolist()):
        p[i, :n], u[i, :n] = measurement.raw_draw(rng, n)
    block = ParamsBlock.of_rows(
        [params_row(s * math.sqrt(r), s / math.sqrt(r)) for s, r in zip(scale, ratio)]
    )
    coeffs = measurement.draw_block(p, u, counts)
    found = optimizer.maximize_over_policies(block, coeffs)[0]
    closed = analytic.max_EB_closed(block, *weight_block(coeffs))
    gap = np.abs(found - closed) / closed
    assert gap.max() <= 1e-13, (gap.argmax(), gap.max())


def test_policy_batch_memory_stays_bounded():
    # the eigenproblems run protocol.BLOCK cases at a time
    model = measurement.weak_pair(0.6)
    axis = np.geomspace(0.25, 4.0, 21).tolist()
    block, coeffs = case_block([(ModelParams(h=h, k=k), model) for h in axis for k in axis])
    tracemalloc.start()
    try:
        value = optimizer.maximize_over_policies(block, coeffs)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.shape == (441,)
    assert peak < 1_000_000


def test_weights_search_unit_point():
    value, p, q = optimizer.maximize_over_weights(UNIT, n_outcomes=2)
    assert abs(value - MAX_EB_UNIT) <= 1e-15
    assert abs(value - analytic.f_E(UNIT, 1.0)) <= 1e-15
    assert [p.tolist(), q.tolist()] == [[0.5, 0.5], [0.5, -0.5]]


@pytest.mark.parametrize("h, k", [(1.0, 1.0), (0.8, 2.1), (0.25, 4.0), (3.3, 0.4)])
def test_weights_search_six_outcomes_reaches_projective_limit(h, k):
    # up to the benchmark's design size, judged as the benchmark judges it
    params = ModelParams(h=h, k=k)
    limit = analytic.f_E(params, 1.0)
    for n in range(2, 7):
        value, p, q = optimizer.maximize_over_weights(params, n_outcomes=n)
        assert abs(value - limit) <= 1e-7 * limit
        # the stated design: saturated, + and - alternating, each half of mass 1/2
        assert np.array_equal(np.abs(q), p)
        assert np.array_equal(np.sign(q), np.resize([1.0, -1.0], n))
        assert abs(p[::2].sum() - 0.5) <= 1e-16 and abs(p[1::2].sum() - 0.5) <= 1e-16


def test_weights_search_no_interaction_limit():
    assert optimizer.maximize_over_weights(ModelParams(h=1.0, k=1e-4), n_outcomes=2)[0] <= 1e-7


def test_weights_search_outcome_count_irrelevant():
    two = optimizer.maximize_over_weights(UNIT, n_outcomes=2)[0]
    for n in (3, 4, 7, 24):
        assert abs(optimizer.maximize_over_weights(UNIT, n_outcomes=n)[0] - two) <= 1e-15


# From 8 outcomes up a last-axis NumPy sum adds pairwise, while the value adds the
# outcomes' maxima in outcome order, as analytic's closed forms add.  Each case is n and
# the best value and evaluations of the compass search this route replaced (commit
# fac021b, STALL_POLLS stop); the exact route meets that value to rounding in one solve.
@pytest.mark.parametrize(
    "n, value, step_stop_evaluations",
    [(9, "0.06586691651113394", 7348), (12, "0.06586691651113395", 9652)],
)
def test_weights_search_sums_in_outcome_order_from_8_outcomes(n, value, step_stop_evaluations):
    params = ModelParams(h=0.8, k=2.1)
    best, p, q = optimizer.maximize_over_weights(params, n_outcomes=n)
    coeffs = MeasurementModel.from_weights(p, q).rows[None]
    gains = protocol.turn_gains(ParamsBlock.of([params]), coeffs)
    ordered = 0.0
    for mu in range(n):
        ordered += float(protocol.best_turns(gains[:, [mu]], p[mu], 0)[0][0])
    assert repr(best) == repr(ordered)
    assert abs(best - float(value)) <= 1e-15 * best
    limit = analytic.f_E(params, 1.0)
    assert abs(best - limit) <= 1e-13 * limit


def test_weights_search_ties_go_to_the_first_start():
    # no coupling to speak of: every design scores 0.0, and the route still returns
    # its stated design, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best, p, q = optimizer.maximize_over_weights(ModelParams(h=1.0, k=1e-320), n_outcomes=2)
    assert best == 0.0
    assert [p.tolist(), q.tolist()] == [[0.5, 0.5], [0.5, -0.5]]


def test_weights_search_reaches_the_projective_limit_across_decades():
    # h/k from 1e-14 to 1e14 at overall scales 1e-150, 1 and 1e150, n = 2, 6, 13 and 24,
    # every warning an error: the worst gap to f_E(1) measured 4.5e-15
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, ratio, scale in itertools.product(
            (2, 6, 13, 24), np.geomspace(1e-14, 1e14, 57), (1e-150, 1.0, 1e150)
        ):
            params = ModelParams(h=scale * ratio, k=scale)
            value = optimizer.maximize_over_weights(params, n_outcomes=n)[0]
            worst = max(worst, checks.maximum_gap(value, analytic.f_E(params, 1.0)))
    assert worst <= 1e-13, worst


def test_weights_search_memory_stays_bounded():
    # the sequential compass search's peak at 24 outcomes (commit fac021b, NumPy 2.4.6)
    # was 2_156_216 bytes; one design of 24 rows takes a small part of it
    tracemalloc.start()
    try:
        optimizer.maximize_over_weights(UNIT, n_outcomes=24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2_156_216


@pytest.mark.parametrize("seed", [0, 7, 26])
def test_no_design_beats_its_projective_pair_on_a_verify_ensemble(seed):
    # the theorem behind maximize_over_weights, checked rather than assumed: each D_mu is
    # p_mu D[1] + q_mu D[X_A], and so no member's maximum exceeds its projective pair's
    block, coeffs, *_ = checks.draw_members(seed, range(1000))
    pair = np.tile(measurement.projective_pair().rows, (len(coeffs), 1, 1))
    gains, pair_gains = protocol.turn_gains(block, coeffs), protocol.turn_gains(block, pair)
    # p = 1/2 at both outcomes of the pair: D[1] = D+ + D- and D[X_A] = D+ - D-
    one, x_a = pair_gains.sum(axis=1, keepdims=True), -np.diff(pair_gains, axis=1)
    p, q = (w.T[..., None, None] for w in weight_block(coeffs))
    residual = np.abs(gains - p * one - q * x_a).max(axis=(1, 2, 3))
    scale = np.maximum(np.abs(gains).max(axis=(1, 2, 3)), np.abs(one).max(axis=(1, 2, 3)))
    assert np.all(residual <= 1e-14 * scale), (residual / scale).max()
    value = optimizer.maximize_over_policies(block, coeffs)[0]
    bound = optimizer.maximize_over_policies(block, pair)[0]
    assert np.all(value <= bound * (1.0 + 1e-13))
    assert np.count_nonzero(value >= bound * (1.0 - 1e-14)) >= 100  # saturated members attain it
