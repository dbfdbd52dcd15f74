"""Derivative-free search vs the closed forms it is meant to cross-check."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from minqet import analytic, measurement, optimizer, protocol
from minqet.measurement import MeasurementModel, weight_block
from minqet.model import ModelParams, ParamsBlock, params_row

from conftest import case_block, model_ensemble

UNIT = ModelParams(h=1.0, k=1.0)
MAX_EB_UNIT = 0.11474763394014725


def test_fibonacci_sphere_is_unit():
    pts = optimizer.fibonacci_sphere(256)
    assert pts.shape == (256, 3)
    assert float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0))) <= 1e-12


def search(cases):
    """``maximize_over_policies`` on the arrays of (params, model) cases."""
    block, coeffs = case_block(cases)
    return optimizer.maximize_over_policies(block, *measurement.weight_block(coeffs))


def test_policy_search_trivial_model():
    model = MeasurementModel.from_weights([0.5, 0.5], [0.0, 0.0])
    value, _, _, _, converged = search([(UNIT, model)])
    assert abs(value[0]) <= 1e-10
    assert converged[0]


def test_policy_search_projective_unit_point():
    value, _, axes, _, _ = search([(UNIT, measurement.projective_pair())])
    assert abs(value[0] - MAX_EB_UNIT) <= 1e-8
    assert np.all(np.abs(axes[0, :, 1]) >= 1.0 - 1e-4)


def test_policy_search_matches_closed_form_ensemble():
    members = model_ensemble(30, seed0=500)
    block, coeffs = case_block(members)
    closed = analytic.max_EB_closed(block, *weight_block(coeffs))
    value, _, _, _, converged = search(members)
    rel = np.abs(value - closed) / np.maximum(closed, 1e-9)
    assert np.all(rel <= 1e-7)
    assert np.all(value <= closed + 1e-9)
    assert converged.all()


def test_policy_search_canonical_axis():
    members = model_ensemble(20, seed0=900)
    _, _, axes, _, _ = search(members)
    for (_, model), case_axes in zip(members, axes):
        for q, axis in zip(weight_block(model.rows)[1].tolist(), case_axes):
            if abs(q) > 1e-12:
                assert abs(axis[1]) >= 1.0 - 1e-4


def test_policy_search_result_replays():
    model = measurement.random_measurement(seed=77, n_outcomes=3)
    block, coeffs = case_block([(UNIT, model)])
    value, omega, axes, _, _ = optimizer.maximize_over_policies(block, *weight_block(coeffs))
    replay = protocol.run_many(block, coeffs, omega, axes).e_b
    assert abs(replay[0] - value[0]) <= 1e-12


def test_policy_search_deterministic():
    model = measurement.random_measurement(seed=5, n_outcomes=4)
    a, b = search([(UNIT, model)]), search([(UNIT, model)])
    # value, policy table, evaluations and flag, bit for bit
    assert [column.tobytes() for column in a] == [column.tobytes() for column in b]


def test_policy_batch_matches_one_call_per_case(monkeypatch):
    mixed = MeasurementModel.from_weights(
        # |q| = p: the tie rule reports the y axis; zero mass: identity, no
        # search row; q = 0: flat in the axis
        [0.3, 0.0, 0.4, 0.3],
        [0.3, 0.0, 0.0, -0.3],
    )
    cases = [(UNIT, mixed), (ModelParams(h=0.3, k=2.7), measurement.projective_pair())]
    for (h, k), n in zip([(0.5, 2.0), (2.0, 0.5), (1.0, 0.25), (4.0, 1.0)], (2, 3, 4, 6)):
        model = measurement.random_measurement(seed=40 + n, n_outcomes=n)
        cases.append((ModelParams(h=h, k=k), model))
    with monkeypatch.context() as patch:
        # blocks that split cases must not change any row's search
        patch.setattr(optimizer, "SCAN_BLOCK", 3)
        patch.setattr(optimizer, "POLISH_BLOCK", 2)
        value, omega, axes, evaluations, converged = search(cases)
    assert value.shape == evaluations.shape == converged.shape == (len(cases),)
    assert omega.shape == (len(cases), 6) and axes.shape == (len(cases), 6, 3)
    assert (omega[0, 1], tuple(axes[0, 1])) == (0.0, analytic.Y_AXIS)  # the identity
    assert tuple(axes[0, 0]) == analytic.Y_AXIS
    for i, case in enumerate(cases):
        # a block of N is N blocks of one, bit for bit
        alone = search([case])
        n = case[1].n_outcomes
        assert value[i] == alone[0][0]
        assert evaluations[i] == alone[3][0]
        assert converged[i] == alone[4][0]
        assert omega[i, :n].tobytes() == alone[1][0].tobytes()
        assert axes[i, :n].tobytes() == alone[2][0].tobytes()
        assert not omega[i, n:].any()  # padding: the identity
    # every axis row of an outcome the search ran has unit length
    live = (weight_block(case_block(cases)[1])[0] > measurement.DEGENERATE_PROB).T
    lengths = np.sqrt(np.sum(axes[live] ** 2, axis=-1))
    assert live.sum() == 20 and np.all(np.abs(lengths - 1.0) <= 1e-12)


# (h, k), measurement, then best_value and evaluations of the per-outcome
# scalar simplex search this package used before the lockstep one: every row
# must take the same path, so the counts match exactly
SCALAR_SEARCH = [
    ((1.0, 1.0), ("random", 5, 4), 0.014043657472302322, 1252),
    ((0.3, 2.7), ("weak", 0.2), 0.0003292520586608376, 620),
    ((2.0, 0.5), ("random", 77, 3), 4.030135056590231e-05, 933),
    ((0.5, 2.0), ("projective",), 0.02929106104978076, 588),
    ((4.0, 0.25), ("random", 9, 6), 0.003763339164224268, 1829),
    # one simplex of this case takes a shrink step
    (
        (3.272494991822921, 0.9882143999710515),
        ("random", 1032, 4),
        0.03306968793429128,
        1298,
    ),
]


def test_policy_batch_follows_the_scalar_search():
    builders = {
        "random": lambda seed, n: measurement.random_measurement(seed=seed, n_outcomes=n),
        "weak": measurement.weak_pair,
        "projective": measurement.projective_pair,
    }
    cases = [
        (ModelParams(h=h, k=k), builders[spec[0]](*spec[1:]))
        for (h, k), spec, _, _ in SCALAR_SEARCH
    ]
    value, _, _, evaluations, converged = search(cases)
    assert evaluations.tolist() == [count for _, _, _, count in SCALAR_SEARCH]
    assert converged.all()
    for got, (_, _, want, _) in zip(value, SCALAR_SEARCH):
        assert abs(got - want) <= 4e-16 * want


# sha256 of each column of maximize_over_policies (value, omega, axes,
# evaluations, converged), recorded when every iteration scored all six
# candidate points with their angles (NumPy 2.4.6, x86-64): scoring fewer
# points by value alone must leave every row's path, and so every bit, as it was
FROZEN_SEARCH_DIGESTS = {
    # the benchmark grid's shape: 21x21 log grid over [0.25, 4], weights (0.43, +-0.21)
    "grid": [
        "a8ff186309d237b0f216e2f98fa79fa7633f4a273851fcae0d9c41e5799b15d8",
        "13a073efb6f4ae1a466420757268412572b4e92fb96ad2609ed7a5f41b7bdedb",
        "6deec7856dc894d862cca2980d0006ff9a9e83b370a7a6da03de52d1fe081e95",
        "074823e391a11da16d069fc147ec202a895f4a4779311bee30f71372a64a66ed",
        "c6b3195f8e12dcca11628bdc4a7cac766ba1357f7198f99d0c6bebf6a791e4ef",
    ],
    # 16 drawn cases of 2-6 outcomes whose simplices expand, contract and shrink
    "drawn": [
        "34535cd7c6e9fe6a20326fd3ab3dedc8407076bbb6a651ae70a5ef0b7761cfdc",
        "279dfdbabb240a82783685ab019bc484003d5bbeb1fd1499fd449300463c1207",
        "5fa86114b68767bcf03503a4fac802cb530be43b62a12317efdd46c2c00ddbb7",
        "5b1267b4419ee71ba84f1651e0c7c434d61c2dcf0f95439775a7c33970e620b6",
        "cc8cd41cef907c4d216069122c4b89936211361f9050a717a1e37ad1862e952f",
    ],
}


def test_policy_search_keeps_its_frozen_bits():
    axis = np.geomspace(0.25, 4.0, 21)
    grid = ParamsBlock.of(ModelParams(h=float(h), k=float(k)) for h in axis for k in axis)
    rows = MeasurementModel.from_weights([0.43, 0.57], [0.21, -0.21]).rows
    # each drawn case draws its log-uniform h and k, its outcome count and its raw
    # weights in that order
    rng, params_rows, counts = np.random.default_rng([128, 3]), [], []
    p, u = np.zeros((16, 6)), np.zeros((16, 6))
    for i in range(16):
        h, k = np.exp(rng.uniform(math.log(0.25), math.log(4.0), size=2)).tolist()
        params_rows.append(params_row(h, k))
        counts.append(int(rng.integers(2, 7)))
        p[i, : counts[i]], u[i, : counts[i]] = measurement.raw_draw(rng, counts[i])
    drawn = measurement.draw_block(p, u, np.array(counts))[0]
    blocks = {
        "grid": (grid, np.broadcast_to(rows, (len(grid.h),) + rows.shape)),
        "drawn": (ParamsBlock.of_rows(params_rows), drawn),
    }
    for name, (params, coeffs) in blocks.items():
        columns = optimizer.maximize_over_policies(params, *weight_block(coeffs))
        digests = [hashlib.sha256(column.tobytes()).hexdigest() for column in columns]
        assert digests == FROZEN_SEARCH_DIGESTS[name], name


def test_policy_batch_memory_stays_bounded():
    # the lattice scan runs in blocks of rows, never one (rows, lattice) array
    model = measurement.weak_pair(0.6)
    axis = np.geomspace(0.25, 4.0, 21).tolist()
    block, coeffs = case_block([(ModelParams(h=h, k=k), model) for h in axis for k in axis])
    weights = measurement.weight_block(coeffs)
    tracemalloc.start()
    try:
        value = optimizer.maximize_over_policies(block, *weights)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.shape == (441,)
    assert peak < 1_000_000


def test_policy_batch_warns_once_when_budget_runs_out(monkeypatch):
    monkeypatch.setattr(optimizer, "REFINE_ITERS", 1)
    cases = [(UNIT, measurement.projective_pair()), (UNIT, measurement.weak_pair(0.4))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        converged = search(cases)[4]
    assert [w.category for w in caught] == [optimizer.NoConvergence]
    assert converged.tolist() == [False, False]


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
# Lockstep must leave every start's path, and so every bit, as it was.
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


@pytest.mark.parametrize(
    "hk, n, value, evaluations, converged, weights", SEQUENTIAL_WEIGHTS_SEARCH
)
def test_weights_search_keeps_the_sequential_bits(hk, n, value, evaluations, converged, weights):
    res = optimizer.maximize_over_weights(ModelParams(*hk), n_outcomes=n)
    assert repr(res.best_value) == repr(value)
    assert (res.evaluations, res.converged) == (evaluations, converged)
    # repr tells -0.0 from 0.0
    assert repr(tuple(w.tolist() for w in res.best_weights)) == repr(weights)


# At UNIT with two outcomes the four starts need 36, 34, 68 and 72 polls and
# start 0 is reported.  A start converges only if it sees step < TOL within
# its REFINE_ITERS checks: budgets around start 0's and the slowest start's
# needs, with the sequential search's frozen evaluations and flags.
@pytest.mark.parametrize(
    "budget, converged, evaluations",
    [
        (35, False, 1116), (36, False, 1140), (37, True, 1156),
        (71, True, 1676), (72, True, 1684), (73, True, 1684),
    ],
)
def test_weights_search_budget_edge(monkeypatch, budget, converged, evaluations):
    monkeypatch.setattr(optimizer, "REFINE_ITERS", budget)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = optimizer.maximize_over_weights(UNIT, n_outcomes=2)
    assert (res.converged, res.evaluations) == (converged, evaluations)
    assert [w.category for w in caught] == [optimizer.NoConvergence] * (not converged)
    assert repr(res.best_value) == "0.11474763394014707"


def test_weights_search_ties_go_to_the_first_start():
    # no coupling to speak of: every start and every poll point scores 0.0,
    # so no start moves and each halves its step 32 times, 4 * (1 + 8 * 32)
    res = optimizer.maximize_over_weights(ModelParams(h=1.0, k=1e-320), n_outcomes=2)
    assert res.best_value == 0.0
    assert (res.evaluations, res.converged) == (1028, True)
    assert [w.tolist() for w in res.best_weights] == [[0.5, 0.5], [0.25, -0.25]]  # start 0


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
        converged = search([(UNIT, measurement.projective_pair())])[4]
    assert converged[0]
