"""Full protocol runs: feedback energetics, the no-go check, free evolution."""

import math

import numpy as np
import pytest

from minqet import analytic, entanglement, measurement, protocol, qmath
from minqet.measurement import KrausCoefficients, OutcomeWeights
from minqet.model import ModelParams, build_hamiltonian, ground_state
from minqet.protocol import FeedbackPolicy, LocalUnitary, PolicyMismatch

UNIT = ModelParams(h=1.0, k=1.0)
MAX_EB_UNIT = 0.11474763394014725
E_A_PROJECTIVE_UNIT = 0.7071067811865475


def identity_policy(n):
    return FeedbackPolicy(unitaries=tuple(LocalUnitary.identity() for _ in range(n)))


def test_local_unitary_matrix_is_unitary():
    u = LocalUnitary(omega=0.7, n=(0.0, 1.0, 0.0)).matrix2()
    assert float(np.max(np.abs(u @ u.conj().T - np.eye(2)))) <= 1e-12


def test_local_unitary_rejects_bad_axis():
    with pytest.raises(ValueError):
        LocalUnitary(omega=0.1, n=(0.0, 2.0, 0.0)).matrix2()


def test_local_unitary_acts_on_b_only():
    u4 = LocalUnitary(omega=0.3, n=(0.0, 1.0, 0.0)).matrix4()
    # block diagonal in the A index: no A-side mixing
    assert float(np.max(np.abs(u4[:2, 2:]))) == 0.0
    assert float(np.max(np.abs(u4[2:, :2]))) == 0.0


def test_run_identity_policy_moves_nothing():
    model = measurement.projective_pair()
    report = protocol.run(UNIT, model, identity_policy(2))
    assert abs(report.e_b) <= 1e-12
    assert abs(report.e_a - E_A_PROJECTIVE_UNIT) <= 1e-12


def test_run_optimal_projective_unit_point():
    model = measurement.projective_pair()
    policy = protocol.optimal_policy(UNIT, model)
    report = protocol.run(UNIT, model, policy)
    assert abs(report.e_b - MAX_EB_UNIT) <= 1e-10
    assert abs(report.e_b - analytic.max_EB_closed(UNIT, model.weights)) <= 1e-10
    assert abs(report.total_final_energy - (report.e_a - report.e_b)) <= 1e-10
    assert report.total_final_energy >= -1e-10


def test_run_entropy_fields_delegate():
    model = measurement.projective_pair()
    report = protocol.run(UNIT, model, identity_policy(2))
    reference = entanglement.consumption(UNIT, model)
    assert abs(report.delta_s - reference.delta_s) <= 1e-12
    assert abs(report.mutual_info - reference.mutual_info) <= 1e-12


def test_run_policy_mismatch():
    with pytest.raises(PolicyMismatch):
        protocol.run(UNIT, measurement.projective_pair(), identity_policy(3))


def test_run_never_exceeds_input(small_ensemble):
    for i, (params, model) in enumerate(small_ensemble[:16]):
        policy = FeedbackPolicy(
            unitaries=tuple(
                protocol.random_local_unitary(seed=31 * i + mu)
                for mu in range(model.n_outcomes)
            )
        )
        report = protocol.run(params, model, policy)
        assert report.e_b <= report.e_a + 1e-10
        assert report.total_final_energy >= -1e-10


def test_run_negative_energy_density_at_b():
    model = measurement.projective_pair()
    report = protocol.run(UNIT, model, protocol.optimal_policy(UNIT, model))
    local_b = sum(oc.probability * (oc.h_b + oc.v) for oc in report.per_outcome)
    assert abs(local_b + report.e_b) <= 1e-10
    assert local_b < 0.0


def test_run_is_phase_independent():
    base = measurement.weights_to_coeffs(
        [OutcomeWeights(0.5, 0.25), OutcomeWeights(0.5, -0.25)]
    )
    shifted = measurement.MeasurementModel(
        tuple(
            KrausCoefficients(m=c.m, l=c.l, alpha=c.alpha, delta=0.41 * (i + 1))
            for i, c in enumerate(base.coeffs)
        )
    )
    policy = protocol.optimal_policy(UNIT, base)
    r0 = protocol.run(UNIT, base, policy)
    r1 = protocol.run(UNIT, shifted, policy)
    assert abs(r0.e_a - r1.e_a) <= 1e-12
    assert abs(r0.e_b - r1.e_b) <= 1e-12
    assert abs(r0.delta_s - r1.delta_s) <= 1e-12


def test_optimal_policy_angles():
    model = measurement.projective_pair()
    policy = protocol.optimal_policy(UNIT, model)
    u0 = policy.unitaries[0]
    assert u0.n == (0.0, 1.0, 0.0)
    # outcome q = +1/2: cos 2w = 3/sqrt(10), sin 2w = -1/sqrt(10)
    assert abs(math.cos(2 * u0.omega) - 3.0 / math.sqrt(10.0)) <= 1e-12
    assert abs(math.sin(2 * u0.omega) - (-1.0 / math.sqrt(10.0))) <= 1e-12


def test_optimal_policy_trivial_without_correlation():
    model = measurement.weights_to_coeffs(
        [OutcomeWeights(0.5, 0.0), OutcomeWeights(0.5, 0.0)]
    )
    for u in protocol.optimal_policy(UNIT, model).unitaries:
        assert u.omega == 0.0


def test_optimal_policy_beats_a_grid():
    model = measurement.projective_pair()
    best = protocol.run(UNIT, model, protocol.optimal_policy(UNIT, model)).e_b
    rng = np.random.default_rng(12)
    for _ in range(60):
        policy = FeedbackPolicy(
            unitaries=tuple(
                LocalUnitary(
                    omega=float(rng.uniform(0, math.pi)),
                    n=tuple(v / np.linalg.norm(v) for v in [rng.normal(size=3)])[0],
                )
                for _ in range(2)
            )
        )
        assert protocol.run(UNIT, model, policy).e_b <= best + 1e-8


def test_policy_shuffling_never_helps(small_ensemble):
    for params, model in small_ensemble[:6]:
        policy = protocol.optimal_policy(params, model)
        best = protocol.run(params, model, policy).e_b
        rolled = FeedbackPolicy(
            unitaries=policy.unitaries[1:] + policy.unitaries[:1]
        )
        assert protocol.run(params, model, rolled).e_b <= best + 1e-10


def test_passive_identity_is_zero():
    model = measurement.projective_pair()
    w = LocalUnitary.identity()
    assert abs(protocol.passive_unitary_energy(UNIT, model, w)) <= 1e-12


def test_passive_random_unitaries_nonnegative():
    model = measurement.projective_pair()
    for seed in range(200):
        w = protocol.random_local_unitary(seed=seed)
        assert protocol.passive_unitary_energy(UNIT, model, w) >= -1e-10


def test_passive_quarter_rotation_positive():
    model = measurement.projective_pair()
    w = LocalUnitary(omega=math.pi / 2.0, n=(0.0, 1.0, 0.0))
    assert protocol.passive_unitary_energy(UNIT, model, w) > 1e-3


def test_evolution_series_closed_form():
    model = measurement.projective_pair()
    e_a = measurement.input_energy_closed(model, UNIT)
    times = np.linspace(0.0, math.pi / 2.0, 65)
    samples = protocol.evolve_series(UNIT, model, times)
    amp = UNIT.h**2 / UNIT.eps * 0.5
    for s in samples:
        closed = amp * (1.0 - math.cos(4.0 * UNIT.k * s.t))
        assert abs(s.hb_bruteforce - closed) <= 1e-9 * max(1.0, closed)
        assert abs(s.v_expect) <= 1e-9
    assert abs(samples[0].hb_bruteforce) <= 1e-12
    # peak at t = pi / (4k) equals the input energy; full period returns to 0
    peak, period = protocol.evolve_series(UNIT, model, [math.pi / 4.0, math.pi / 2.0])
    assert abs(peak.hb_bruteforce - e_a) <= 1e-9
    assert abs(period.hb_bruteforce) <= 1e-9


def test_evolution_other_parameters():
    params = ModelParams(h=2.0, k=0.5)
    model = measurement.weak_pair(0.3)
    e_a = measurement.input_energy_closed(model, params)
    t_peak = math.pi / (4.0 * params.k)
    peak = protocol.evolve_series(params, model, [t_peak])[0].hb_bruteforce
    assert abs(peak - e_a) <= 1e-9 * max(1.0, e_a)


def test_report_bound_fields():
    model = measurement.projective_pair()
    report = protocol.run(UNIT, model, protocol.optimal_policy(UNIT, model))
    b = analytic.bounds(UNIT)
    assert abs(report.bound32_rhs - b.c32 * MAX_EB_UNIT / UNIT.eps) <= 1e-10
    assert abs(report.bound770_rhs - b.c770 * report.delta_s) <= 1e-10
    # the two inequalities at the unit projective point
    assert report.delta_s >= report.bound32_rhs - 1e-10
    assert MAX_EB_UNIT >= report.bound770_rhs - 1e-10
