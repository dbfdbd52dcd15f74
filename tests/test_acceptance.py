"""Acceptance gate: every check of ``minqet verify``'s registry, at the gate's sizes.

Each of the 22 names in ``checks.CHECKS`` is one test that asserts its
residual is within the registry's budget.  The capped routines run once per
module at sizes above verify's caps: 10^4 ensemble members, each with its
outcome-blind rotation and its eigen maximum over policies, 1500 of them
saturated, and 200 random Hermitian matrices.

Two claims verify does not make stay as hand-written tests: the frozen unit
constants, and the curvature signs of the rescaled kernels.  The constants
are frozen from independent oracle routes:

  MAX_EB_UNIT        brute-force protocol run AND the closed form, h = k = 1
  GROUND_ENTROPY     binary entropy of (1 +/- 1/sqrt(2)) / 2
  C32_UNIT, C770     direct evaluation of the displayed coefficients
  BOUND32_RHS_UNIT   C32_UNIT * MAX_EB_UNIT / sqrt(2)
"""

import dataclasses
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest

from minqet import analytic, checks, entanglement, measurement, optimizer, protocol
from minqet.model import ModelParams, ParamsBlock, params_row


UNIT = ModelParams(h=1.0, k=1.0)

MAX_EB_UNIT = 0.11474763394014725
GROUND_ENTROPY_UNIT = 0.4164955306996875
C32_UNIT = 3.739351440841384
C770_UNIT = 0.27550747962980054
BOUND32_RHS_UNIT = 0.3034066011834992

GATE_SEED = 0
# members per capped routine, keyed by the routine's first check name
GATE_SIZES = {
    "measurement-completeness": 10_000,
    "eigensolver-reconstruction": 200,
}

NAMES = [name for _, budgets, _ in checks.CHECKS for name in budgets]
BUDGETS = {name: budget for _, budgets, _ in checks.CHECKS for name, budget in budgets.items()}


@pytest.fixture(scope="module")
def residuals():
    """Each check name's residual, or the exception its routine raised."""
    found = {}
    for routine, budgets, cap in checks.CHECKS:
        try:
            if cap is None:
                result = routine()
            else:
                result = routine(GATE_SEED, GATE_SIZES[next(iter(budgets))])
        except Exception as exc:  # each of the routine's names fails with it
            result = exc
        for name in budgets:
            found[name] = result[name] if isinstance(result, dict) else result
    return found


@pytest.mark.parametrize("name", NAMES)
def test_check(residuals, name):
    found = residuals[name]
    if isinstance(found, Exception):
        pytest.fail(f"{type(found).__name__}: {found}")
    assert found <= BUDGETS[name]


def test_registry_is_complete():
    assert NAMES == [
        "builtin-measurement-integrity",
        "ground-state",
        "time-evolution",
        "kernel-shape",
        "weak-limit",
        "measurement-completeness",
        "input-energy",
        "post-measurement-passivity",
        "teleported-energy-routes",
        "entanglement-consumption",
        "reduced-eigenvalues",
        "mutual-information",
        "entanglement-nonnegative",
        "bound-32",
        "bound-770",
        "bound-770-equality",
        "omega-maximum",
        "axis-minimum",
        "envelope-peak",
        "no-go-passive",
        "optimizer-vs-closed",
        "eigensolver-reconstruction",
    ]
    (mark,) = [m for m in test_check.pytestmark if m.name == "parametrize"]
    assert Counter(mark.args[1]) == Counter(NAMES)
    assert set(Counter(NAMES).values()) == {1}
    capped = [next(iter(budgets)) for _, budgets, cap in checks.CHECKS if cap is not None]
    assert sorted(capped) == sorted(GATE_SIZES)
    # never below verify's cap; the uncapped ensemble at 10^4 members
    for _, budgets, cap in checks.CHECKS:
        if cap is not None:
            assert GATE_SIZES[next(iter(budgets))] >= min(cap, 10_000)


@pytest.mark.parametrize("seed", (0, 7, 26, 33))
def test_block_draws_equal_one_random_measurement_per_member(seed):
    # two full ensemble blocks and a partial one; member i of a block equals
    # draw_members(seed, range(i, i + 1)), bit for bit, for every member kind
    size = 2 * checks.ENSEMBLE_BLOCK + 40
    kinds = set()
    for first in range(0, size, checks.ENSEMBLE_BLOCK):
        members = range(first, min(size, first + checks.ENSEMBLE_BLOCK))
        params, coeffs, _, outcomes, turns = checks.draw_members(seed, members)
        assert coeffs.shape == (len(members), 6, 4)
        p, q = measurement.weight_block(coeffs)
        saturated = (np.abs(q) == p).all(axis=0)
        counts = []
        for j, i in enumerate(members):
            alone, alone_coeffs, _, alone_outcomes, alone_turns = checks.draw_members(
                seed, range(i, i + 1)
            )
            n = np.count_nonzero(p[:, j])
            assert n == 2 + i % 5
            # the block's row has the bits of the member's own params row
            assert [x[j] for x in vars(params).values()] == [x[0] for x in vars(alone).values()]
            assert coeffs[j].tobytes() == alone_coeffs[0].tobytes()
            assert not coeffs[j, n:].any()
            assert 0 <= outcomes[j] == alone_outcomes[0] < n
            assert turns[j].tobytes() == alone_turns[0].tobytes()
            kinds.add((i % 3 == 0, n, bool(saturated[j])))
            counts.append(n)
        # member 0 is saturated, so that an ensemble of one scores bound-770-equality
        assert first > 0 or saturated[0]
        # a full block holds every outcome count, and at least 1 in 10 saturated members
        if len(members) == checks.ENSEMBLE_BLOCK:
            assert sorted(set(counts)) == [2, 3, 4, 5, 6]
            assert 10 * np.count_nonzero(saturated) >= len(members)
    # PAIR_GRID or drawn params, 2-6 outcomes, and saturated ones of 2, 4 and 6
    want = {(grid, n, False) for grid in (True, False) for n in range(2, 7)}
    assert kinds == want | {(grid, n, True) for grid in (True, False) for n in (2, 4, 6)}


def member_bytes(members, start=0):
    """Every array of a ``draw_members`` result from member ``start`` on, as bytes."""
    params, coeffs, povm, outcomes, turns = members
    arrays = [*vars(params).values(), coeffs, *povm.values(), outcomes, turns]
    return [x[start:].tobytes() for x in arrays]


@pytest.mark.parametrize("first, stop", [(0, 1), (1, 300), (256, 300), (299, 300)])
def test_members_first_to_stop_are_those_rows_of_the_ensemble(first, stop):
    whole = checks.draw_members(26, range(stop))
    assert member_bytes(checks.draw_members(26, range(first, stop))) == member_bytes(whole, first)


class FixedUniforms:
    """A stand-in for ``np.random.default_rng``'s generator whose every member row is ``row``."""

    def __init__(self, row):
        self.row = row
        self.bit_generator = types.SimpleNamespace(advance=lambda delta: None)

    def random(self, shape):
        return np.tile(self.row, (shape[0], 1))


@pytest.mark.parametrize("edge", (0.0, 1.0 - 2.0**-53))
def test_member_draws_stay_in_range_at_the_edges_of_the_uniforms(monkeypatch, edge):
    # every uniform at an edge of [0, 1) but the exponentials other than the second, at
    # 1/2 (with all of them at 0 a member's p would be 0 / 0)
    row = np.full(18, edge)
    row[[2, 4, 5, 6, 7]] = 0.5
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedUniforms(row))
    params, coeffs, _, outcomes, turns = checks.draw_members(0, range(20))
    n = 2 + np.arange(20) % 5
    p = measurement.weight_block(coeffs)[0]
    # the second exponential is 0 at u = 0, and 36.7 at 1 - 2**-53: member 1's p stays finite
    assert np.isfinite(coeffs).all()
    assert (p[1, 1] == 0.0) == (edge == 0.0)
    assert np.all(outcomes == (n - 1) * (edge > 0.0))
    assert np.all((0.25 <= params.h) & (params.h < 4.0) & (0.25 <= params.k) & (params.k < 4.0))
    assert np.isfinite(turns).all()
    assert np.abs((turns**2).sum(-1) - 1.0).max() <= 1e-15
    assert np.abs((protocol.turn_policy(turns)[1] ** 2).sum(-1) - 1.0).max() <= 1e-15


def test_ensemble_computes_each_blocks_povm_residuals_once(monkeypatch):
    # measurement-completeness reads the residuals that the draw's check computed
    computed = []
    original = measurement.block_residuals

    def recorded(coeffs):
        computed.append(original(coeffs))
        return computed[-1]

    monkeypatch.setattr(measurement, "block_residuals", recorded)
    # a full block and a partial one
    worst = checks.ensemble_residuals(0, 300)
    block = checks.ENSEMBLE_BLOCK
    assert [len(r["balance"]) for r in computed] == [block, 300 - block]
    want = max(float(np.max(r)) for residuals in computed for r in residuals.values())
    assert worst["measurement-completeness"] == want > 0.0


@pytest.mark.parametrize("seed", (0, 33))
def test_ensemble_residuals_do_not_depend_on_the_block_size(monkeypatch, seed):
    # every residual is a member's own, so any block size gives the same maxima, bit for bit
    want = {name: repr(value) for name, value in checks.ensemble_residuals(seed, 300).items()}
    for block in (64, 7):
        monkeypatch.setattr(checks, "ENSEMBLE_BLOCK", block)
        found = checks.ensemble_residuals(seed, 300)
        assert {name: repr(value) for name, value in found.items()} == want


def test_a_failed_cross_check_names_its_ensemble_member(monkeypatch):
    # member 266 is case 10 of the second block; the error counts from the ensemble's start
    second = checks.draw_members(0, range(checks.ENSEMBLE_BLOCK, 300))[0]
    h = second.h[266 - checks.ENSEMBLE_BLOCK]
    assert np.count_nonzero(second.h == h) == 1
    original = analytic.Q_of
    monkeypatch.setattr(
        analytic, "Q_of", lambda params, *rest: original(params, *rest) + 1e-6 * (params.h == h)
    )
    with pytest.raises(RuntimeError, match=r"E_B per-outcome route differs in case 266 "):
        checks.ensemble_residuals(0, 300)


def test_ensemble_working_memory_does_not_grow_with_its_size():
    checks.ensemble_residuals(0, 10)
    peaks = []
    for size in (1000, 4000):
        tracemalloc.start()
        try:
            checks.ensemble_residuals(0, size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # ~2.8 MB for one block's arrays at either size, D of its 256 members built at once
    assert peaks[1] < 3_000_000, peaks
    assert peaks[1] <= peaks[0] + 50_000, peaks


def test_a_corrupted_member_of_a_drawn_block_is_named():
    coeffs, residuals = checks.draw_members(5, range(20))[1:3]
    # the drawn block passes, and its residuals are the check's
    for name, values in measurement.check_block(coeffs).items():
        assert values.tobytes() == residuals[name].tobytes()
    # an l off by 1e-6 breaks normalization first; a phase alpha breaks only balance
    faults = ((7, 1, coeffs[7, 0, 1] * (1.0 + 1e-6), "normalization"), (13, 2, 1e-3, "balance"))
    for member, entry, value, kind in faults:
        corrupted = coeffs.copy()
        corrupted[member, 0, entry] = value
        with pytest.raises(measurement.ConstraintViolation, match=f"member {member}$") as info:
            measurement.check_block(corrupted)
        assert info.value.kind == kind
        assert info.value.residual > measurement.WEIGHT_TOL


@pytest.mark.parametrize(
    "seed, frozen",
    [
        (0, ("5.329070518200751e-15", "3.410973772626401e-14")),
        (7, ("5.329070518200751e-15", "1.336807009006506e-13")),
        (26, ("5.329070518200751e-15", "7.688325471172681e-14")),
        (33, ("5.329070518200751e-15", "3.357079623123997e-14")),
    ],
)
def test_no_go_residuals_are_frozen(seed, frozen):
    # the outcome-blind rotations' and the saturated members' residuals at 1000 members;
    # re-recorded when the reduced spectra went closed-form (bound-770-equality read
    # 3.791710470373987e-14 at seed 0 and 3.6111524353191493e-14 at seed 33), when B's
    # turn was written out elementwise (no-go-passive read 7.105427357601002e-15 at
    # seed 7 and 5.329070518200751e-15 at seed 33), and when each turn's E_B became
    # w^T (sum_mu D_mu) w, also held to sum Q / eps (no-go-passive read
    # 5.329070518200751e-15 at seeds 0, 7 and 26 and 4.440892098500626e-15 at seed 33),
    # and when the checks took each drawn quaternion as the turn w itself, with no
    # (omega, n) round trip (no-go-passive read 7.105427357601002e-15 at seeds 0, 7 and
    # 33 and 6.217248937900877e-15 at seed 26)
    worst = checks.ensemble_residuals(seed, 1000)
    assert (repr(worst["no-go-passive"]), repr(worst["bound-770-equality"])) == frozen


def test_a_c770_off_by_a_millionth_fails_the_equality_case(monkeypatch):
    original = analytic.bounds

    def shifted(params):
        bounds = original(params)
        return dataclasses.replace(bounds, c770=bounds.c770 * (1.0 + 1e-6))

    monkeypatch.setattr(analytic, "bounds", shifted)
    assert checks.ensemble_residuals(0, 300)["bound-770-equality"] > BUDGETS["bound-770-equality"]


def weak_members(seed):
    """``block_residuals``' arguments for weak_pair(u) members at random (h, k) and turns.

    Forty members per u in (1, 1e-2, 1e-4, 1e-6, 1e-8, 0), each scored at a random outcome.
    """
    rng = np.random.default_rng(seed)
    strengths = np.repeat([1.0, 1e-2, 1e-4, 1e-6, 1e-8, 0.0], 40)
    hk = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(len(strengths), 2)))
    block = ParamsBlock.of_rows([params_row(h, k) for h, k in hk.tolist()])
    coeffs = measurement.coefficient_block([measurement.weak_pair(u) for u in strengths])
    povm = measurement.check_block(coeffs)
    outcomes = rng.integers(0, 2, size=len(strengths))
    return block, coeffs, povm, outcomes, protocol.haar_turns(rng.random((len(strengths), 3)))


@pytest.mark.parametrize("seed", (0, 1))
def test_the_omega_maximum_meets_d_on_weak_outcomes(monkeypatch, seed):
    # eps lambda_max of D on span{1, n}, Q at the closed argmax, and that argmax against
    # D's eigenvector angle, from a maximum of order 1 down to 1e-16 and exactly 0 at u = 0
    members = weak_members(seed)
    for component in checks.block_residuals(*members)["omega-maximum"]:
        assert np.max(component) <= 1e-13
    # a closed value off by 1e-8 in the check's view fails both value residuals
    faulty = types.SimpleNamespace(**vars(analytic))

    def off(*args):
        value, omega = analytic.max_over_omega(*args)
        return value * (1.0 + 1e-8), omega

    faulty.max_over_omega = off
    monkeypatch.setattr(checks, "analytic", faulty)
    by_d, at_argmax, angle = checks.block_residuals(*members)["omega-maximum"]
    assert min(np.max(by_d), np.max(at_argmax)) > BUDGETS["omega-maximum"]
    assert np.max(angle) <= 1e-13


def _scaled(factor, index=None):
    """A fault: the function's value times factor, or only its entry ``index``."""

    def fault(original):
        def shifted(*args):
            value = original(*args)
            if index is None:
                return value * factor
            return tuple(v * factor if i == index else v for i, v in enumerate(value))

        return shifted

    return fault


@pytest.mark.parametrize(
    "module, name, fault, failed",
    [
        (analytic, "max_over_omega", _scaled(1.0 + 1e-8, 0), {"omega-maximum"}),
        (analytic, "max_over_omega", _scaled(1.0 + 1e-8, 1), {"omega-maximum"}),
        (analytic, "max_over_omega", _scaled(1.0 + 1e-6, 1), {"omega-maximum"}),
        (analytic, "abc_constants", _scaled(1.0 + 1e-8, 0), {"axis-minimum", "envelope-peak"}),
        (analytic, "abc_constants", _scaled(1.0 + 1e-8, 1), {"axis-minimum", "envelope-peak"}),
        (analytic, "abc_constants", _scaled(1.0 + 1e-6, 2), {"envelope-peak"}),
        (analytic, "min_X_over_psi", _scaled(1.0 + 1e-8), {"axis-minimum"}),
        (analytic, "T_profile", _scaled(1.0 + 1e-6), {"envelope-peak"}),
        (
            analytic,
            "f_E",
            _scaled(1.0 + 1e-8),
            {"teleported-energy-routes", "optimizer-vs-closed", "bound-770-equality"},
        ),
        (
            protocol,
            "turn_gains",
            _scaled(1.0 + 1e-8),
            {"optimizer-vs-closed", "no-go-passive", "omega-maximum", "axis-minimum"},
        ),
    ],
)
def test_a_relative_fault_in_the_chain_fails_its_checks(monkeypatch, module, name, fault, failed):
    # each closed form of the maximization chain, its argmax and D, off by a relative 1e-8
    # or 1e-6 in the whole package: the 300-member ensemble fails exactly these names
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    worst = checks.ensemble_residuals(0, 300)
    assert {check for check in worst if not worst[check] <= BUDGETS[check]} == failed


def test_a_fault_in_the_no_go_direct_route_alone_fails_no_go_passive(monkeypatch):
    # only the ensemble's view of protocol turns B by 1e-6 more, so the runs, and the
    # direct routes' agreement with each other, stay as they are
    shifted = types.SimpleNamespace(**vars(protocol))

    def further(turns):
        omega, axes = protocol.turn_policy(turns)
        return protocol.rotations(protocol.turn_vectors(omega * (1.0 + 1e-6), axes))

    shifted.rotations = further
    monkeypatch.setattr(checks, "protocol", shifted)
    worst = checks.ensemble_residuals(0, 300)
    assert [name for name in worst if not worst[name] <= BUDGETS[name]] == ["no-go-passive"]


def test_a_positive_direction_of_the_summed_gains_fails_no_go_passive(monkeypatch):
    # +1e-6 along the identity turn (1, 0, 0, 0), where sum_mu D_mu is 0, in padding
    # outcome 5 of every member with fewer than 6 outcomes, and a half turn about y,
    # w = (0, 0, 1, 0) to rounding, for every member: no live outcome's D and no
    # w^T (sum_mu D_mu) w moves, so only the exact route lambda_max(sum_mu D_mu) sees it
    def tilted(params, coeffs):
        gains = protocol.turn_gains(params, coeffs)
        gains[:, 5, 0, 0] += 1e-6 * ~coeffs[:, 5].any(axis=-1)
        return gains

    shifted = types.SimpleNamespace(**vars(protocol))
    shifted.turn_gains = tilted
    monkeypatch.setattr(checks, "protocol", shifted)
    block, coeffs, povm, outcomes, turns = checks.draw_members(0, range(checks.ENSEMBLE_BLOCK))
    turns = np.broadcast_to(protocol.turn_vectors(0.5 * np.pi, analytic.Y_AXIS), turns.shape)
    found = checks.block_residuals(block, coeffs, povm, outcomes, turns)
    assert [name for name in found if not checks._worst(*found[name]) <= BUDGETS[name]] == [
        "no-go-passive"
    ]
    *routes, exact = found["no-go-passive"]
    assert checks._worst(*routes) <= BUDGETS["no-go-passive"] < checks._worst(exact) <= 1e-6


def test_frozen_unit_constants():
    projective = np.array([0.5, 0.5]), np.array([0.5, -0.5])
    closed_unit = analytic.max_EB_closed(UNIT, *projective)
    coeffs = measurement.projective_pair().rows[None]
    numeric_unit = optimizer.maximize_over_policies(ParamsBlock.of([UNIT]), coeffs)[0][0]
    assert abs(closed_unit - MAX_EB_UNIT) <= 1e-6
    assert abs(numeric_unit - MAX_EB_UNIT) <= 1e-6
    assert abs(closed_unit - numeric_unit) <= 1e-8
    assert abs(entanglement.ground_entropy(UNIT) - GROUND_ENTROPY_UNIT) <= 1e-6
    coefficients = analytic.bounds(UNIT)
    assert abs(coefficients.c32 - C32_UNIT) <= 1e-6
    assert abs(coefficients.c770 - C770_UNIT) <= 1e-6
    lhs_unit = analytic.delta_S_closed(UNIT, *projective)
    rhs_unit = C32_UNIT * MAX_EB_UNIT / UNIT.eps
    assert abs(lhs_unit - GROUND_ENTROPY_UNIT) <= 1e-6
    assert abs(rhs_unit - BOUND32_RHS_UNIT) <= 1e-6
    assert lhs_unit >= rhs_unit


def test_rescaled_kernel_curvature_signs():
    """Second differences: fbar_E is strictly concave, fbar_I strictly convex."""
    dx = 1.0 / 512.0
    interior = np.linspace(dx, 1.0 - dx, 64).tolist()
    for h, k in checks.PAIR_GRID:
        params = ModelParams(h=h, k=k)
        for kernel, sign in ((analytic.rescaled_f_E, -1.0), (analytic.rescaled_f_I, 1.0)):
            for x in interior:
                second = kernel(params, x + dx) - 2.0 * kernel(params, x) + kernel(params, x - dx)
                assert sign * second > 0.0
