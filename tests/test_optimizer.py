"""The eigen maximum over policies and the weights search vs the closed forms they cross-check."""

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
    value, omega, axes = search([(UNIT, model)])
    assert abs(value[0]) <= 1e-15
    assert np.all(omega[0] <= 1e-7)


def test_policy_search_projective_unit_point():
    # |q| = p: the best turns form a family; the printed ones replay the maximum
    block, coeffs = case_block([(UNIT, measurement.projective_pair())])
    value, omega, axes = optimizer.maximize_over_policies(block, coeffs)
    assert abs(value[0] - MAX_EB_UNIT) <= 1e-15
    assert abs(protocol.run_many(block, coeffs, omega, axes).e_b[0] - value[0]) <= 1e-15


def test_an_exact_tie_of_the_two_blocks_goes_to_the_y_block(monkeypatch):
    # D's {1, sigma_y} and {sigma_x, sigma_z} blocks equal: the printed turn is about y,
    # by theta = atan2(b, half) / 2, and not a half turn in the x-z plane
    pair = np.array([[0.0, 0.3], [0.3, -1.0]])
    gains = np.zeros((1, 1, 4, 4))
    gains[..., ::2, ::2], gains[..., 1::2, 1::2] = pair, pair
    monkeypatch.setattr(protocol, "turn_gains", lambda params, coeffs: gains.copy())
    rows = measurement.identity_measurement().rows[None]
    value, omega, axes = optimizer.maximize_over_policies(ParamsBlock.of([UNIT]), rows)
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
    _, _, axes = search(members)
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
    value, omega, axes = optimizer.maximize_over_policies(block, coeffs)
    replay = protocol.run_many(block, coeffs, omega, axes).e_b
    assert abs(replay[0] - value[0]) <= 1e-12


def test_policy_search_deterministic():
    model = measurement.random_measurement(seed=5, n_outcomes=4)
    a, b = search([(UNIT, model)]), search([(UNIT, model)])
    # value and policy table, bit for bit
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
        value, omega, axes = search(cases)
    assert value.shape == (len(cases),)
    assert omega.shape == (len(cases), 6) and axes.shape == (len(cases), 6, 3)
    assert (omega[0, 1], tuple(axes[0, 1])) == (0.0, analytic.Y_AXIS)  # the identity
    for i, case in enumerate(cases):
        # a block of N is N blocks of one, bit for bit
        alone = search([case])
        n = case[1].n_outcomes
        assert value[i] == alone[0][0]
        assert omega[i, :n].tobytes() == alone[1][0].tobytes()
        assert axes[i, :n].tobytes() == alone[2][0].tobytes()
        assert not omega[i, n:].any()  # padding: the identity
    # every axis row of a live outcome has unit length
    live = (weight_block(case_block(cases)[1])[0] > measurement.DEGENERATE_PROB).T
    lengths = np.sqrt(np.sum(axes[live] ** 2, axis=-1))
    assert live.sum() == 20 and np.all(np.abs(lengths - 1.0) <= 1e-15)


def test_policy_search_is_covariant_under_power_of_two_scaling():
    # D scales exactly with h and k, so at (2^j h, 2^j k) the maximum is exactly 2^j
    # times as large and the policy table is bit-equal
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
    res = optimizer.maximize_over_weights(UNIT, n_outcomes=2)
    limit = analytic.f_E(UNIT, 1.0)
    assert abs(res.best_value - limit) <= 1e-8
    for p, q in zip(*res.best_weights):
        assert abs(abs(q) - p) <= 1e-6


@pytest.mark.parametrize("h, k", [(1.0, 1.0), (0.8, 2.1), (0.25, 4.0), (3.3, 0.4)])
def test_weights_search_six_outcomes_reaches_projective_limit(h, k):
    # up to the benchmark's design-search size, judged as the benchmark judges it
    params = ModelParams(h=h, k=k)
    limit = analytic.f_E(params, 1.0)
    for n in range(2, 7):
        res = optimizer.maximize_over_weights(params, n_outcomes=n)
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


# Frozen outputs of maximize_over_weights as its four starts ran one after
# another (commit fac021b), captured before they ran in one lockstep poll:
# (h, k), n, best_value, evaluations, converged, then the weights (p, q).
# Lockstep must leave every start's path, and so every bit, as it was.  Each
# start then ran until its step fell below TOL.
SIXTH = 0.16666666666666669
HALVES = ([0.5, 0.5], [0.5, -0.5])
QUARTERS = ([0.25] * 4, [0.25, -0.25] * 2)
QUARTERS_AND_EMPTY = ([0.0] + [0.25] * 4, [-0.0] + [0.25, -0.25] * 2)
SIXTHS = ([SIXTH] * 6, [-SIXTH, SIXTH] * 3)
SEQUENTIAL_WEIGHTS_SEARCH = [
    ((1.0, 1.0), 2, 0.11474763394014707, 1684, True, HALVES),
    (
        (1.0, 1.0), 3, 0.11474763393411086, 3148, True,
        ([0.27626811595075834, 0.5000000000134974, 0.2237318840357443],
         [-0.27626811595075834, 0.4999999999865026, -0.2237318840357443]),
    ),
    ((1.0, 1.0), 4, 0.11474763394014707, 2564, True, QUARTERS),
    ((1.0, 1.0), 5, 0.11474763394014707, 3764, True, QUARTERS_AND_EMPTY),
    ((1.0, 1.0), 6, 0.11474763394014707, 5572, True, SIXTHS),
    ((0.8, 2.1), 2, 0.06586691651113394, 1684, True, HALVES),
    (
        (0.8, 2.1), 3, 0.06586691650760519, 3112, True,
        ([0.2789854961330049, 0.5000000000134974, 0.22101450385349775],
         [-0.2789854961330049, 0.4999999999865026, -0.22101450385349775]),
    ),
    ((0.8, 2.1), 4, 0.06586691651113394, 2564, True, QUARTERS),
    ((0.8, 2.1), 5, 0.06586691651113394, 3764, True, QUARTERS_AND_EMPTY),
    ((0.8, 2.1), 6, 0.06586691651113395, 5500, True, SIXTHS),
    ((0.25, 4.0), 2, 0.0038900973891573083, 1684, True, HALVES),
    (
        (0.25, 4.0), 3, 0.0038900973889473348, 3148, True,
        ([0.2753757930150291, 0.5000000000134974, 0.22462420697147348],
         [-0.2753757930150291, 0.4999999999865026, -0.22462420697147348]),
    ),
    ((0.25, 4.0), 4, 0.0038900973891573083, 2564, True, QUARTERS),
    ((0.25, 4.0), 5, 0.0038900973891573083, 4244, True, QUARTERS_AND_EMPTY),
    ((0.25, 4.0), 6, 0.0038900973891573087, 5548, True, SIXTHS),
    ((3.3, 0.4), 2, 0.023298794543301773, 1684, True, HALVES),
    (
        (3.3, 0.4), 3, 0.023298794542048192, 3148, True,
        ([0.27881500386868097, 0.5000000000134974, 0.22118499611782164],
         [-0.27881500386868097, 0.4999999999865026, -0.22118499611782164]),
    ),
    ((3.3, 0.4), 4, 0.023298794543301773, 2564, True, QUARTERS),
    ((3.3, 0.4), 5, 0.023298794543301773, 3724, True, QUARTERS_AND_EMPTY),
    ((3.3, 0.4), 6, 0.023298794543301776, 5548, True, SIXTHS),
]
# The evaluations of each case at n = 2 to 6 since a start also stops after
# STALL_POLLS failed polls in a row.  Every value and weight bit stayed.
STALL_STOP_EVALUATIONS = {
    (1.0, 1.0): [1220, 2800, 708, 1204, 1252],
    (0.8, 2.1): [1220, 2764, 708, 1204, 1252],
    (0.25, 4.0): [1220, 2800, 708, 2224, 1252],
    (3.3, 0.4): [1220, 2800, 708, 1184, 1252],
}


@pytest.mark.parametrize(
    "hk, n, value, step_stop_evaluations, converged, weights", SEQUENTIAL_WEIGHTS_SEARCH
)
def test_weights_search_keeps_the_sequential_bits(
    hk, n, value, step_stop_evaluations, converged, weights
):
    res = optimizer.maximize_over_weights(ModelParams(*hk), n_outcomes=n)
    assert repr(res.best_value) == repr(value)
    evaluations = STALL_STOP_EVALUATIONS[hk][n - 2]
    assert (res.evaluations, res.converged) == (evaluations, converged)
    assert evaluations < step_stop_evaluations
    # repr tells -0.0 from 0.0
    assert repr(tuple(w.tolist() for w in res.best_weights)) == repr(weights)


# From 8 outcomes up every outcome sum of the search adds in outcome order, as
# analytic's closed forms add; a last-axis NumPy sum adds pairwise there and
# read 0.06586691651113395 at n = 9.  Frozen best values, and the evaluations
# with the step stop alone and with the STALL_POLLS stop too.
@pytest.mark.parametrize(
    "n, value, step_stop_evaluations",
    [(9, "0.06586691651113394", 7348), (12, "0.06586691651113395", 9652)],
)
def test_weights_search_sums_in_outcome_order_from_8_outcomes(n, value, step_stop_evaluations):
    params = ModelParams(h=0.8, k=2.1)
    res = optimizer.maximize_over_weights(params, n_outcomes=n)
    evaluations = {9: 2524, 12: 4084}[n]
    assert (repr(res.best_value), res.evaluations, res.converged) == (value, evaluations, True)
    assert evaluations < step_stop_evaluations
    limit = analytic.f_E(params, 1.0)
    assert abs(res.best_value - limit) <= 1e-7 * limit


# At UNIT with two outcomes the four starts need 36, 34, 68 and 72 polls to
# see step < TOL, and start 0 is reported.  A start converges only if it sees
# itself stopped within its REFINE_ITERS checks: budgets around start 0's and
# the slowest start's needs, with the stall stop out of reach, and the
# sequential search's frozen evaluations and flags.
@pytest.mark.parametrize(
    "budget, converged, evaluations",
    [
        (35, False, 1116), (36, False, 1140), (37, True, 1156),
        (71, True, 1676), (72, True, 1684), (73, True, 1684),
    ],
)
def test_weights_search_budget_edge(monkeypatch, budget, converged, evaluations):
    monkeypatch.setattr(optimizer, "STALL_POLLS", math.inf)
    check_budget_edge(monkeypatch, budget, converged, evaluations)


# With the stall stop the four starts need 7, 5, 68 and 72 polls: start 0
# stalls after 4 moves, and starts 2 and 3 keep moving until step < TOL.
@pytest.mark.parametrize(
    "budget, converged, evaluations",
    [
        (6, False, 188), (7, False, 212), (8, True, 228),
        (71, True, 1212), (72, True, 1220), (73, True, 1220),
    ],
)
def test_weights_search_budget_edge_with_the_stall_stop(
    monkeypatch, budget, converged, evaluations
):
    check_budget_edge(monkeypatch, budget, converged, evaluations)


def check_budget_edge(monkeypatch, budget, converged, evaluations):
    monkeypatch.setattr(optimizer, "REFINE_ITERS", budget)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = optimizer.maximize_over_weights(UNIT, n_outcomes=2)
    assert (res.converged, res.evaluations) == (converged, evaluations)
    assert [w.category for w in caught] == [optimizer.NoConvergence] * (not converged)
    assert repr(res.best_value) == "0.11474763394014707"


def test_weights_search_ties_go_to_the_first_start():
    # no coupling to speak of: every start and every poll point scores 0.0,
    # so no start moves and each stops after STALL_POLLS polls, 4 * (1 + 8 * 3)
    res = optimizer.maximize_over_weights(ModelParams(h=1.0, k=1e-320), n_outcomes=2)
    assert res.best_value == 0.0
    assert (res.evaluations, res.converged) == (100, True)
    assert [w.tolist() for w in res.best_weights] == [[0.5, 0.5], [0.25, -0.25]]  # start 0


def scores(improving):
    """A stand-in for ``analytic.max_EB_closed``: every point scores 0.0, except
    that on the polls numbered in ``improving`` every point scores that number."""
    polls = itertools.count()  # the first call scores the starts

    def score(params, p, q):
        poll = next(polls)
        return np.full(np.shape(p)[1:], float(poll) if poll in improving else 0.0)

    return score


@pytest.mark.parametrize("stall_polls", [1, optimizer.STALL_POLLS, 5])
@pytest.mark.parametrize("n", [2, 5])
def test_a_start_that_never_improves_stops_after_stall_polls(monkeypatch, n, stall_polls):
    monkeypatch.setattr(optimizer, "STALL_POLLS", stall_polls)
    monkeypatch.setattr(analytic, "max_EB_closed", scores(()))
    res = optimizer.maximize_over_weights(UNIT, n_outcomes=n)
    assert (res.evaluations, res.converged) == (4 * (1 + 4 * n * stall_polls), True)


def test_a_move_resets_the_stall_count(monkeypatch):
    # polls 2 and 4 move every start, so the three failed polls in a row
    # that stop it are polls 5, 6 and 7
    monkeypatch.setattr(analytic, "max_EB_closed", scores((2, 4)))
    res = optimizer.maximize_over_weights(UNIT, n_outcomes=2)
    assert (res.best_value, res.evaluations, res.converged) == (4.0, 4 * (1 + 8 * 7), True)


def test_weights_search_reaches_the_projective_limit_across_decades():
    # h and k log-uniform over six decades, 2 to 12 outcomes: each search
    # converges and stops within 1e-10 of the projective limit (the worst of
    # 300 such searches at seed 29, n up to 24, sat at 5.4e-11)
    rng = np.random.default_rng(3)
    for _ in range(40):
        params = ModelParams(*(10.0 ** rng.uniform(-3.0, 3.0, size=2)))
        res = optimizer.maximize_over_weights(params, n_outcomes=int(rng.integers(2, 13)))
        limit = analytic.f_E(params, 1.0)
        assert res.converged
        assert abs(res.best_value - limit) <= 1e-10 * limit


def test_weights_search_memory_stays_bounded():
    # the lockstep poll balances POLL_BLOCK rows at a time, so its peak stays
    # under the 2_156_216 bytes tracemalloc measured for the sequential
    # starts (commit fac021b, NumPy 2.4.6) at 24 outcomes, where one start's
    # poll makes (96, 48, 24) temporaries
    tracemalloc.start()
    try:
        res = optimizer.maximize_over_weights(UNIT, n_outcomes=24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak <= 2_156_216


def test_nonconvergence_is_a_warning_not_an_error():
    # callers opt into strictness with simplefilter("error", NoConvergence)
    assert issubclass(optimizer.NoConvergence, RuntimeWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error", optimizer.NoConvergence)
        assert optimizer.maximize_over_weights(UNIT, n_outcomes=2).converged
