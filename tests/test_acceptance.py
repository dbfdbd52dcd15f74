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

from collections import Counter

import numpy as np
import pytest

from minqet import analytic, checks, entanglement, measurement, optimizer
from minqet.measurement import OutcomeWeights
from minqet.model import ModelParams

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


def test_frozen_unit_constants():
    projective = [OutcomeWeights(0.5, 0.5), OutcomeWeights(0.5, -0.5)]
    closed_unit = analytic.max_EB_closed(UNIT, projective)
    numeric_unit = optimizer.maximize_over_policy(UNIT, measurement.projective_pair()).best_value
    assert abs(closed_unit - MAX_EB_UNIT) <= 1e-6
    assert abs(numeric_unit - MAX_EB_UNIT) <= 1e-6
    assert abs(closed_unit - numeric_unit) <= 1e-8
    assert abs(entanglement.ground_entropy(UNIT) - GROUND_ENTROPY_UNIT) <= 1e-6
    coefficients = analytic.bounds(UNIT)
    assert abs(coefficients.c32 - C32_UNIT) <= 1e-6
    assert abs(coefficients.c770 - C770_UNIT) <= 1e-6
    lhs_unit = analytic.delta_S_closed(UNIT, projective)
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
