"""Entropy accounting: consumption, reduced spectra, pointer mutual information."""

import math

import numpy as np
import pytest

from minqet import analytic, entanglement, measurement, qmath
from minqet.measurement import MeasurementModel, weight_block
from minqet.model import ModelParams


UNIT = ModelParams(h=1.0, k=1.0)
GROUND_ENTROPY_UNIT = 0.4164955306996875
DELTA_S_QUARTER = 0.08117383727836852


def test_product_state_has_no_entanglement():
    plus_plus = np.array([1.0, 0.0, 0.0, 0.0])
    assert entanglement.entropy_of_entanglement(plus_plus) == pytest.approx(0.0, abs=1e-12)


def test_bell_state_is_maximal():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert abs(entanglement.entropy_of_entanglement(bell) - math.log(2.0)) <= 1e-12


def test_ground_state_entropy_unit_point():
    from minqet.model import ground_state

    s = entanglement.entropy_of_entanglement(ground_state(UNIT))
    assert abs(s - GROUND_ENTROPY_UNIT) <= 1e-14
    assert abs(entanglement.ground_entropy(UNIT) - GROUND_ENTROPY_UNIT) <= 1e-14


def test_entropy_rejects_unnormalized():
    with pytest.raises(measurement.NotNormalized):
        entanglement.entropy_of_entanglement(np.array([1.0, 1.0, 0.0, 0.0]))


def test_consumption_identity_measurement():
    report = entanglement.consumption(UNIT, measurement.identity_measurement())
    assert abs(report.delta_s) <= 1e-12
    assert abs(report.mutual_info) <= 1e-12


def test_consumption_projective_exhausts_ground_entropy():
    report = entanglement.consumption(UNIT, measurement.projective_pair())
    assert abs(report.delta_s - report.s_ground) <= 1e-12
    assert abs(report.delta_s - GROUND_ENTROPY_UNIT) <= 1e-12
    # every post state is a product state
    assert all(abs(s) <= 1e-12 for s in report.s_post)


def test_consumption_quarter_pair():
    model = MeasurementModel.from_weights([0.5, 0.5], [0.25, -0.25])
    report = entanglement.consumption(UNIT, model)
    assert abs(report.delta_s - DELTA_S_QUARTER) <= 1e-12


def test_consumption_internal_bookkeeping(small_ensemble):
    for params, model in small_ensemble[:16]:
        report = entanglement.consumption(params, model)
        avg_post = sum(p * s for p, s in zip(report.probabilities, report.s_post))
        assert abs(report.delta_s - (report.s_ground - avg_post)) <= 1e-12
        assert -1e-12 <= report.s_ground <= math.log(2.0) + 1e-12
        assert all(-1e-12 <= s <= math.log(2.0) + 1e-12 for s in report.s_post)


def test_consumption_matches_kernel_sum(small_ensemble):
    for params, model in small_ensemble[:16]:
        report = entanglement.consumption(params, model)
        closed = analytic.delta_S_closed(params, *weight_block(model.rows))
        assert abs(report.delta_s - closed) <= 1e-10


def test_consumption_nonnegative(small_ensemble):
    for params, model in small_ensemble:
        assert entanglement.consumption(params, model).delta_s >= -1e-12


def test_reduced_eigenvalues_match_closed_form(small_ensemble):
    for params, model in small_ensemble[:16]:
        p, q = weight_block(model.rows)
        for p_mu, q_mu, (prob, rho_b) in zip(
            p.tolist(), q.tolist(), entanglement.reduced_post_states(params, model)
        ):
            if rho_b is None:
                continue
            vals = np.sort(np.linalg.eigvalsh(rho_b))[::-1]
            lam_plus, lam_minus = analytic.lambda_pm(params, p_mu, q_mu)
            assert abs(vals[0] - lam_plus) <= 1e-10
            assert abs(vals[1] - lam_minus) <= 1e-10
            assert abs(prob - p_mu) <= 1e-10


def test_mutual_information_identity():
    report = entanglement.consumption(UNIT, measurement.identity_measurement())
    assert abs(report.mutual_info) <= 1e-12


def test_mutual_information_projective():
    mi = entanglement.consumption(UNIT, measurement.projective_pair()).mutual_info
    assert abs(mi - GROUND_ENTROPY_UNIT) <= 1e-12


def test_mutual_information_equals_consumption(small_ensemble):
    for params, model in small_ensemble:
        report = entanglement.consumption(params, model)
        assert abs(report.mutual_info - report.delta_s) <= 1e-10


def test_dense_pointer_state_agrees_with_block_form():
    # the dense construction lives in a 2n-dimensional pointer x B space
    for seed in (3, 4, 5):
        model = measurement.random_measurement(seed=seed, n_outcomes=2 + seed % 3)
        dense = entanglement.pointer_state_dense(UNIT, model)
        n = model.n_outcomes
        assert dense.shape == (2 * n, 2 * n)
        assert abs(np.trace(dense).real - 1.0) <= 1e-12
        assert qmath.hermiticity_defect(dense) <= 1e-12
        assert np.min(np.linalg.eigvalsh(dense)) >= -1e-12

        # joint entropy from the dense matrix vs the block shortcut
        joint_vals = np.clip(np.linalg.eigvalsh(dense), 0.0, 1.0)
        s_joint = float(-np.sum(joint_vals[joint_vals > 1e-14] * np.log(joint_vals[joint_vals > 1e-14])))
        probs = weight_block(model.rows)[0].tolist()
        block = analytic.shannon_entropy(probs) + sum(
            p * s
            for p, s in zip(
                probs,
                [
                    entanglement.von_neumann_entropy(rho) if rho is not None else 0.0
                    for _, rho in entanglement.reduced_post_states(UNIT, model)
                ],
            )
        )
        assert abs(s_joint - block) <= 1e-10


def test_consumption_monotone_in_correlation():
    # symmetric pair (1/2, +/- q): delta_S nondecreasing in q
    values = []
    for q in np.linspace(0.0, 0.5, 64):
        model = MeasurementModel.from_weights([0.5, 0.5], [float(q), -float(q)])
        values.append(entanglement.consumption(UNIT, model).delta_s)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_von_neumann_entropy_rejects_bad_trace():
    with pytest.raises(ValueError):
        entanglement.von_neumann_entropy(np.eye(2))


def test_entropy_takes_a_stack_of_density_matrices():
    rng = np.random.default_rng(10)
    raw = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    rhos = raw @ np.swapaxes(raw.conj(), -1, -2)
    rhos /= np.trace(rhos, axis1=-2, axis2=-1).real[:, None, None]
    stacked = entanglement.von_neumann_entropy(rhos)
    assert stacked.shape == (5,)
    for rho, s in zip(rhos, stacked):
        assert abs(entanglement.von_neumann_entropy(rho) - s) <= 1e-15
    # one bad member rejects the whole stack, with the same errors as alone
    with pytest.raises(measurement.NotNormalized):
        entanglement.von_neumann_entropy(np.concatenate([rhos, 0.5 * rhos[:1]]))
    with pytest.raises(qmath.NonHermitianInput):
        entanglement.von_neumann_entropy(rhos + np.array([[0.0, 1e-6], [0.0, 0.0]]))


def test_consumption_block_equals_one_call_per_case(small_ensemble):
    from minqet.model import ground_state

    # the same kets padded to six outcomes: zero kets read as degenerate outcomes
    cases = small_ensemble[:8]
    kets = np.zeros((len(cases), 6, 4), dtype=complex)
    ground = np.array([ground_state(params) for params, _ in cases])
    for i, (params, model) in enumerate(cases):
        kets[i, : model.n_outcomes] = model.kraus @ ground[i]
    block = entanglement.consumption_block(ground, kets)
    for i, (params, model) in enumerate(cases):
        one = entanglement.consumption(params, model)
        n = model.n_outcomes
        assert block.probabilities[i, n:].tolist() == [0.0] * (6 - n)
        assert np.isnan(block.reduced_eigenvalues[i, n:]).all()
        pairs = entanglement.eigenvalue_pairs(block.reduced_eigenvalues[i, :n].tolist())
        assert pairs == one.reduced_eigenvalues
        for field in ("s_ground", "delta_s", "mutual_info"):
            assert abs(getattr(block, field)[i] - getattr(one, field)) <= 1e-15
        assert np.allclose(block.s_post[i, :n], one.s_post, rtol=0.0, atol=1e-15)
