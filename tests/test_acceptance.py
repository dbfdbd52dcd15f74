"""Acceptance gate: ten first-class checks, one test (and pass/fail line) each.

Reference constants are frozen from independent oracle routes:

  MAX_EB_UNIT        brute-force protocol run AND the closed form, h = k = 1
  GROUND_ENTROPY     binary entropy of (1 +/- 1/sqrt(2)) / 2
  C32_UNIT, C770     direct evaluation of the displayed coefficients
  BOUND32_RHS_UNIT   C32_UNIT * MAX_EB_UNIT / sqrt(2)

Each ensemble distributes its members round-robin over the nine-point
(h, k) grid {0.5, 1, 2} x {0.5, 1, 2} with outcome counts cycling through
(2, 3, 4, 6).
"""

import math

import numpy as np
import pytest

from minqet import analytic, entanglement, measurement, optimizer, protocol, qmath
from minqet.measurement import OutcomeWeights
from minqet.model import ModelParams, build_hamiltonian, ground_state, spectrum_closed

from conftest import PAIRS, model_ensemble

UNIT = ModelParams(h=1.0, k=1.0)

MAX_EB_UNIT = 0.11474763394014725
GROUND_ENTROPY_UNIT = 0.4164955306996875
C32_UNIT = 3.739351440841384
C770_UNIT = 0.27550747962980054
BOUND32_RHS_UNIT = 0.3034066011834992


@pytest.fixture(scope="module")
def ensemble_100():
    return model_ensemble(100, seed0=10_000)


@pytest.fixture(scope="module")
def ensemble_10k():
    return model_ensemble(10_000, seed0=50_000)


@pytest.fixture(scope="module")
def saturated_ensemble():
    """200 measurements with |q| = p on every outcome (paired Dirichlet halves)."""
    members = []
    rng = np.random.default_rng(777)
    for i in range(200):
        h, k = PAIRS[i % len(PAIRS)]
        masses = rng.dirichlet(np.ones(1 + i % 3))
        weights = []
        for j, mass in enumerate(masses):
            sign = 1.0 if (i + j) % 2 == 0 else -1.0
            weights.append(OutcomeWeights(mass / 2.0, sign * mass / 2.0))
            weights.append(OutcomeWeights(mass / 2.0, -sign * mass / 2.0))
        members.append(
            (ModelParams(h=h, k=k), measurement.weights_to_coeffs(weights))
        )
    return members


def test_criterion_01_ground_state_and_spectrum():
    """20x20 log grid: H|g> = 0, part-wise expectations vanish, H >= 0."""
    for h in np.geomspace(0.1, 10.0, 20):
        for k in np.geomspace(0.1, 10.0, 20):
            params = ModelParams(h=float(h), k=float(k))
            parts = build_hamiltonian(params)
            g = ground_state(params)
            assert float(np.linalg.norm(parts.total @ g)) <= 1e-9
            assert abs(qmath.expectation(g, parts.h_a)) <= 1e-9
            assert abs(qmath.expectation(g, parts.h_b)) <= 1e-9
            assert abs(qmath.expectation(g, parts.v)) <= 1e-9
            vals, _ = qmath.hermitian_eig(parts.total)
            assert -1e-10 <= vals[0] <= 1e-10
            assert np.allclose(vals, spectrum_closed(params), atol=1e-9)


def test_criterion_02_input_energy_oracle_equality(ensemble_10k):
    """E_A closed form equals the brute-force sum; B-side averages stay zero."""
    worst_ea = worst_hb = worst_v = 0.0
    parts_cache = {}
    for params, model in ensemble_10k:
        key = (params.h, params.k)
        if key not in parts_cache:
            parts_cache[key] = (build_hamiltonian(params), ground_state(params))
        parts, g = parts_cache[key]
        brute = hb = v = 0.0
        for mu in range(model.n_outcomes):
            psi = measurement.kraus_on_full_space(model, mu) @ g
            brute += float(np.real(np.vdot(psi, parts.total @ psi)))
            hb += float(np.real(np.vdot(psi, parts.h_b @ psi)))
            v += float(np.real(np.vdot(psi, parts.v @ psi)))
        closed = measurement.input_energy_closed(model, params)
        worst_ea = max(worst_ea, abs(closed - brute))
        worst_hb = max(worst_hb, abs(hb))
        worst_v = max(worst_v, abs(v))
    assert worst_ea <= 1e-10
    assert worst_hb <= 1e-10
    assert worst_v <= 1e-10


def test_criterion_03_optimizer_vs_closed_form(ensemble_100):
    """Numeric policy search agrees with the closed maximum to 1e-7 relative."""
    for params, model in ensemble_100:
        closed = analytic.max_EB_closed(params, model.weights)
        res = optimizer.maximize_over_policy(params, model)
        assert abs(res.best_value - closed) / max(closed, 1e-9) <= 1e-7
    closed_unit = analytic.max_EB_closed(
        UNIT, [OutcomeWeights(0.5, 0.5), OutcomeWeights(0.5, -0.5)]
    )
    numeric_unit = optimizer.maximize_over_policy(
        UNIT, measurement.projective_pair()
    ).best_value
    assert abs(closed_unit - MAX_EB_UNIT) <= 1e-6
    assert abs(numeric_unit - MAX_EB_UNIT) <= 1e-6
    assert abs(closed_unit - numeric_unit) <= 1e-8


def test_criterion_04_entropy_oracle_equality(ensemble_100):
    """Brute-force delta_S matches the kernel sum; reduced spectra match."""
    for params, model in ensemble_100:
        report = entanglement.consumption(params, model)
        kernel = analytic.delta_S_closed(params, model.weights)
        assert abs(report.delta_s - kernel) <= 1e-10
        for w, (_, rho_b) in zip(
            model.weights, entanglement.reduced_post_states(params, model)
        ):
            if rho_b is None:
                continue
            vals = np.sort(np.linalg.eigvalsh(rho_b))[::-1]
            lam_plus, lam_minus = analytic.lambda_pm(params, w.p, w.q)
            assert abs(vals[0] - lam_plus) <= 1e-10
            assert abs(vals[1] - lam_minus) <= 1e-10
    assert abs(entanglement.ground_entropy(UNIT) - GROUND_ENTROPY_UNIT) <= 1e-6


def test_criterion_05_mutual_information_identity(ensemble_100):
    """Pointer-system mutual information equals the entanglement consumed."""
    for params, model in ensemble_100:
        report = entanglement.consumption(params, model)
        assert abs(report.mutual_info - report.delta_s) <= 1e-10


def test_criterion_06_entropy_energy_bound(ensemble_10k):
    """delta_S >= c32 * maxE_B / eps with zero violations across the ensemble."""
    coeff_cache = {}
    for params, model in ensemble_10k:
        key = (params.h, params.k)
        if key not in coeff_cache:
            coeff_cache[key] = analytic.bounds(params).c32
        lhs = analytic.delta_S_closed(params, model.weights)
        rhs = coeff_cache[key] * analytic.max_EB_closed(params, model.weights) / params.eps
        assert lhs - rhs >= -1e-10
    assert abs(analytic.bounds(UNIT).c32 - C32_UNIT) <= 1e-6
    lhs_unit = analytic.delta_S_closed(
        UNIT, [OutcomeWeights(0.5, 0.5), OutcomeWeights(0.5, -0.5)]
    )
    rhs_unit = C32_UNIT * MAX_EB_UNIT / UNIT.eps
    assert abs(lhs_unit - GROUND_ENTROPY_UNIT) <= 1e-6
    assert abs(rhs_unit - BOUND32_RHS_UNIT) <= 1e-6
    assert lhs_unit >= rhs_unit


def test_criterion_07_energy_entropy_bound(ensemble_10k, saturated_ensemble):
    """maxE_B >= c770 * delta_S, tight exactly at |q| = p measurements."""
    coeff_cache = {}
    for params, model in ensemble_10k:
        key = (params.h, params.k)
        if key not in coeff_cache:
            coeff_cache[key] = analytic.bounds(params).c770
        lhs = analytic.max_EB_closed(params, model.weights)
        rhs = coeff_cache[key] * analytic.delta_S_closed(params, model.weights)
        assert lhs - rhs >= -1e-10
    for i, (params, model) in enumerate(saturated_ensemble):
        lhs = analytic.max_EB_closed(params, model.weights)
        if i < 20:
            delta_s = entanglement.consumption(params, model).delta_s
        else:
            delta_s = analytic.delta_S_closed(params, model.weights)
        rhs = analytic.bounds(params).c770 * delta_s
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1e-12)
    assert abs(analytic.bounds(UNIT).c770 - C770_UNIT) <= 1e-6


def test_criterion_08_no_passive_extraction():
    """1000 feedback-blind unitaries never pull energy out; both forms agree."""
    for i in range(1000):
        h, k = PAIRS[i % len(PAIRS)]
        params = ModelParams(h=h, k=k)
        model = measurement.random_measurement(seed=90_000 + i, n_outcomes=2 + i % 3)
        w = protocol.random_local_unitary(seed=i)
        diff = protocol.passive_unitary_energy(params, model, w)
        assert diff >= -1e-10
        # the same number through the total-Hamiltonian route
        parts = build_hamiltonian(params)
        g = ground_state(params)
        w4 = w.matrix4()
        local = float(
            np.real(np.vdot(w4 @ g, (parts.h_b + parts.v) @ (w4 @ g)))
        )
        total = float(np.real(np.vdot(w4 @ g, parts.total @ (w4 @ g))))
        assert abs(local - total) <= 1e-10
        assert abs(diff - local) <= 1e-10


def test_criterion_09_time_evolution():
    """Brute-force <H_B(t)> follows the closed curve; peak equals E_A."""
    cases = [
        (UNIT, measurement.projective_pair()),
        (ModelParams(h=2.0, k=0.5), measurement.weak_pair(0.5)),
    ]
    for params, model in cases:
        e_a = measurement.input_energy_closed(model, params)
        amp = params.h**2 / params.eps * sum(c.l * c.l for c in model.coeffs)
        times = np.linspace(0.0, math.pi / (2.0 * params.k), 256)
        for sample in protocol.evolve_series(params, model, times):
            closed = amp * (1.0 - math.cos(4.0 * params.k * sample.t))
            assert abs(sample.hb_bruteforce - closed) <= 1e-9
            assert abs(sample.v_expect) <= 1e-9
        t_peak = math.pi / (4.0 * params.k)
        peak = protocol.evolve_series(params, model, [t_peak])[0].hb_bruteforce
        assert abs(peak - e_a) <= 1e-9


def test_criterion_10_kernel_shape_and_weak_limit():
    """Rescaled kernels bracket the identity; curvature signs; weak-limit rate."""
    xs = np.linspace(0.0, 1.0, 1024)
    dx = 1.0 / 512.0
    interior = np.linspace(dx, 1.0 - dx, 64)
    for h, k in PAIRS:
        params = ModelParams(h=h, k=k)
        for x in xs:
            x = float(x)
            assert analytic.rescaled_fbar(params, x, "E") <= x + 1e-12
            assert x <= analytic.rescaled_fbar(params, x, "I") + 1e-12
        for x in interior:
            x = float(x)
            for which, sign in (("E", -1.0), ("I", 1.0)):
                second = (
                    analytic.rescaled_fbar(params, x + dx, which)
                    - 2.0 * analytic.rescaled_fbar(params, x, which)
                    + analytic.rescaled_fbar(params, x - dx, which)
                )
                assert sign * second > 0.0
    target = analytic.bounds(UNIT).c32
    errs = [
        abs(analytic.weak_limit_ratio(UNIT, u) - target) / target
        for u in (1e-1, 1e-2, 1e-3)
    ]
    assert errs[0] > errs[1] > errs[2]
    # quadratic envelope frozen at twice the measured curvature at u = 0.1
    rate = 2.0 * errs[0] / 1e-2
    for err, u in zip(errs, (1e-1, 1e-2, 1e-3)):
        assert err <= rate * u * u
