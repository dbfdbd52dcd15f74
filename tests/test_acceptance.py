"""Acceptance gate: every check of ``minqet verify``'s registry, at the gate's sizes.

Each of the 22 names in ``checks.CHECKS`` is one test that asserts its
residual is within the registry's budget.  The capped routines run once per
module at sizes above verify's caps: 10^4 ensemble members, 100 policy
searches, 1000 outcome-blind rotations and 200 saturated measurements.

Two claims verify does not make stay as hand-written tests: the frozen unit
constants, and the curvature signs of the rescaled kernels.  The constants
are frozen from independent oracle routes:

  MAX_EB_UNIT        brute-force protocol run AND the closed form, h = k = 1
  GROUND_ENTROPY     binary entropy of (1 +/- 1/sqrt(2)) / 2
  C32_UNIT, C770     direct evaluation of the displayed coefficients
  BOUND32_RHS_UNIT   C32_UNIT * MAX_EB_UNIT / sqrt(2)
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from minqet import analytic, checks, entanglement, measurement, optimizer
from minqet.model import ModelParams, ParamsBlock


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
    "optimizer-vs-closed": 100,
    "no-go-passive": 1000,
    "bound-770-equality": 200,
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
        "omega-maximum",
        "axis-minimum",
        "envelope-peak",
        "eigensolver-reconstruction",
        "optimizer-vs-closed",
        "no-go-passive",
        "bound-770-equality",
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
    # two full ensemble blocks and a partial one, every outcome count in each; the
    # reference draws each member alone, in draw_members' order, on its own generator
    size = 2 * checks.ENSEMBLE_BLOCK + 40
    block_rng, member_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    for first in range(0, size, checks.ENSEMBLE_BLOCK):
        members = range(first, min(size, first + checks.ENSEMBLE_BLOCK))
        params, coeffs, _, outcomes, axes = checks.draw_members(block_rng, members)
        assert coeffs.shape == (len(members), 6, 4)
        for j, i in enumerate(members):
            if i % 3 == 0:
                want = ModelParams(*checks.PAIR_GRID[(i // 3) % len(checks.PAIR_GRID)])
            else:
                want = ModelParams(*checks._random_params(member_rng)[:2])
            n = (2, 3, 4, 6)[i % 4]
            model = measurement.random_measurement(member_rng, n_outcomes=n)
            outcome = int(member_rng.integers(n))
            axis = member_rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            # the block's row has the bits of the member's own ModelParams
            row = (want.h, want.k, want.eps, want.cos_sigma, want.sin_sigma)
            assert tuple(x[j] for x in vars(params).values()) == row
            assert coeffs[j, :n].tobytes() == model.rows.tobytes()
            assert not coeffs[j, n:].any()
            assert outcomes[j] == outcome
            assert axes[j].tobytes() == axis.tobytes()


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
    rng = np.random.default_rng([0, 1])
    checks.draw_members(rng, range(checks.ENSEMBLE_BLOCK))
    second = checks.draw_members(rng, range(checks.ENSEMBLE_BLOCK, 300))[0]
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
    # ~2.3 MB for one block's arrays at either size
    assert peaks[1] < 3_000_000, peaks
    assert peaks[1] <= peaks[0] + 50_000, peaks


def test_a_corrupted_member_of_a_drawn_block_is_named():
    rng = np.random.default_rng(5)
    coeffs, residuals = measurement.draw_block(
        [measurement.raw_draw(rng, n) for n in (2, 3, 4, 6) * 5]
    )
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
        (0, ("5.329070518200751e-15", "7.105427357601002e-15")),
        (7, ("3.552713678800501e-15", "4.440892098500626e-15")),
        (26, ("5.329070518200751e-15", "5.329070518200751e-15")),
        (33, ("3.552713678800501e-15", "7.105427357601002e-15")),
    ],
)
def test_no_go_residuals_are_frozen(seed, frozen):
    # the outcome-blind rotations' residuals at verify's cap and at the gate's size, bit for bit
    assert tuple(repr(checks._check_no_go(seed, size)) for size in (200, 1000)) == frozen


def test_frozen_unit_constants():
    projective = np.array([0.5, 0.5]), np.array([0.5, -0.5])
    closed_unit = analytic.max_EB_closed(UNIT, *projective)
    weights = measurement.weight_block(measurement.projective_pair().rows[None])
    numeric_unit = optimizer.maximize_over_policies(ParamsBlock.of([UNIT]), *weights)[0][0]
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
