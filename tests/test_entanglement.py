"""Entropy accounting: consumption, reduced spectra, pointer mutual information."""

import math

import numpy as np
import pytest

from minqet import analytic, entanglement, measurement, qmath
from minqet.measurement import MeasurementModel, weight_block
from minqet.model import ModelParams

from conftest import case_block, consumption_columns

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
    report = consumption_columns([(UNIT, measurement.identity_measurement())])
    assert abs(report.delta_s[0]) <= 1e-12
    assert abs(report.mutual_info[0]) <= 1e-12


def test_consumption_projective_exhausts_ground_entropy():
    report = consumption_columns([(UNIT, measurement.projective_pair())])
    assert abs(report.delta_s[0] - report.s_ground[0]) <= 1e-12
    assert abs(report.delta_s[0] - GROUND_ENTROPY_UNIT) <= 1e-12
    # every post state is a product state
    assert np.all(np.abs(report.s_post[0]) <= 1e-12)


def test_consumption_quarter_pair():
    model = MeasurementModel.from_weights([0.5, 0.5], [0.25, -0.25])
    report = consumption_columns([(UNIT, model)])
    assert abs(report.delta_s[0] - DELTA_S_QUARTER) <= 1e-12


def test_consumption_internal_bookkeeping(small_ensemble):
    report = consumption_columns(small_ensemble[:16])
    avg_post = (report.probabilities * report.s_post).sum(axis=1)
    assert np.all(np.abs(report.delta_s - (report.s_ground - avg_post)) <= 1e-12)
    # padding outcomes have s_post 0
    for s in (report.s_ground, report.s_post):
        assert np.all((-1e-12 <= s) & (s <= math.log(2.0) + 1e-12))


def test_consumption_matches_kernel_sum(small_ensemble):
    cases = small_ensemble[:16]
    block, coeffs = case_block(cases)
    closed = analytic.delta_S_closed(block, *weight_block(coeffs))
    assert np.all(np.abs(consumption_columns(cases).delta_s - closed) <= 1e-10)


def test_consumption_nonnegative(small_ensemble):
    assert np.all(consumption_columns(small_ensemble).delta_s >= -1e-12)


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
    report = consumption_columns([(UNIT, measurement.identity_measurement())])
    assert abs(report.mutual_info[0]) <= 1e-12


def test_mutual_information_projective():
    mi = consumption_columns([(UNIT, measurement.projective_pair())]).mutual_info[0]
    assert abs(mi - GROUND_ENTROPY_UNIT) <= 1e-12


def test_mutual_information_equals_consumption(small_ensemble):
    report = consumption_columns(small_ensemble)
    assert np.all(np.abs(report.mutual_info - report.delta_s) <= 1e-10)


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
    cases = [
        (UNIT, MeasurementModel.from_weights([0.5, 0.5], [float(q), -float(q)]))
        for q in np.linspace(0.0, 0.5, 64)
    ]
    values = consumption_columns(cases).delta_s.tolist()
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_von_neumann_entropy_rejects_bad_trace():
    with pytest.raises(ValueError):
        entanglement.von_neumann_entropy(np.eye(2))


def test_spectrum_entropy_rejects_a_nan_eigenvalue():
    # a NaN eigenvalue fails the range test rather than dropping out of the sum
    with pytest.raises(ValueError):
        entanglement._spectrum_entropy(np.array([np.nan, 0.5]))


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
    # the same kets padded to six outcomes: zero kets read as degenerate outcomes
    cases = small_ensemble[:8]
    block = consumption_columns(cases)
    for i, case in enumerate(cases):
        one = consumption_columns([case])
        n = case[1].n_outcomes
        assert block.probabilities[i, n:].tolist() == [0.0] * (6 - n)
        assert np.isnan(block.reduced_eigenvalues[i, n:]).all()
        # a block of N is N blocks of one, bit for bit, NaN eigenvalues included
        for field in ("s_ground", "delta_s", "mutual_info"):
            assert getattr(block, field)[i] == getattr(one, field)[0]
        for field in ("probabilities", "s_post", "reduced_eigenvalues"):
            assert getattr(block, field)[i, :n].tobytes() == getattr(one, field)[0].tobytes()
