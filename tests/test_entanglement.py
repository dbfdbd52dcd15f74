"""Entropy accounting: consumption, reduced spectra, pointer mutual information."""

import math

import numpy as np
import pytest

from minqet import analytic, checks, entanglement, measurement, qmath
from minqet.measurement import MeasurementModel, weight_block
from minqet.model import ModelParams, ground_state

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


@pytest.mark.parametrize("seed", [0, 7])
def test_consumption_spectra_meet_the_lapack_route(seed):
    # the closed-form 2x2 spectra against numpy.linalg.eigh of the same reduced states
    block, coeffs = checks.draw_members(seed, range(1000))[:2]
    ground = ground_state(block)
    kets = measurement.measured_kets(ground, coeffs)
    report = entanglement.consumption_block(ground, kets)
    live = report.probabilities > 0.0
    rho = np.zeros(kets.shape[:-1] + (2, 2), dtype=complex)
    rho[live] = qmath.partial_trace(qmath.projector(kets[live]))
    rho[live] /= report.probabilities[live][:, None, None]
    vals = qmath.hermitian_eig(rho[live])[0]
    assert np.abs(report.reduced_eigenvalues[live] - vals).max() <= 2e-15
    assert np.abs(report.s_post[live] - entanglement.von_neumann_entropy(rho[live])).max() <= 1e-14
    rho_ground = qmath.partial_trace(qmath.projector(ground))
    assert np.abs(report.s_ground - entanglement.von_neumann_entropy(rho_ground)).max() <= 1e-14
    # I(pointer : B) = S(Phi_B) - sum_mu p_mu S(rho_B(mu)), with Phi_B = sum_mu p_mu rho_B(mu)
    phi_b = np.einsum("nm,nmij->nij", report.probabilities, rho)
    s_phi_b = report.mutual_info + (report.probabilities * report.s_post).sum(axis=1)
    assert np.abs(s_phi_b - entanglement.von_neumann_entropy(phi_b)).max() <= 1e-14


def _cancellation_free_ground(h, k):
    """The ground ket with 1 - cos sigma = k^2 / (eps (eps + h)), which keeps its digits."""
    eps = math.hypot(h, k)
    low = k * k / (eps * (eps + h))
    return np.array([math.sqrt(0.5 * low), 0.0, 0.0, -math.sqrt(0.5 * (2.0 - low))], complex)


PHASED_ROWS = [[0.5, 0.2, 0.3, 0.4], [0.6, 0.3, 2.5, 1.1], [0.5, 0.1, 0.23097332453062439, -0.7]]

# (ground ket, POVM rows, the ground's entropy, each outcome's (lambda_min, lambda_max,
# entropy)) of B's reduced states in nats, from 40-digit mpmath on the float kets read
# exactly and normalized there.  At h/k = 1e8 model.ground_state's 1 - h/eps rounds to 0,
# a product state; the cancellation-free ket keeps lambda_min = 2.5e-17.  h/k = 1e-8 is
# nearly maximally mixed; weak(1e-6) at h = k = 1 and the phased POVM at (0.8, 2.1) give
# mixed post-measurement states.
MPMATH_SPECTRA = [
    (
        _cancellation_free_ground(1e8, 1.0), [[1.0, 0.0, 0.0, 0.0]], "9.8069139622561555486e-16",
        [("2.5000000000000000421e-17", "0.999999999999999975", "9.8069139622561555486e-16")],
    ),
    (
        _cancellation_free_ground(1e-8, 1.0), [[1.0, 0.0, 0.0, 0.0]], "0.69314718055994525942",
        [("0.49999999500000005694", "0.50000000499999994306", "0.69314718055994525942")],
    ),
    (
        ground_state(UNIT), measurement.weak_pair(1e-6).rows, "0.41649553069968753465",
        [("0.14644660940654950183", "0.85355339059345049817", "0.4164955306993759099")] * 2,
    ),
    (
        ground_state(ModelParams(0.8, 2.1)), PHASED_ROWS, "0.62836955960830580743",
        [
            ("0.14439958463895472301", "0.85560041536104527699", "0.41287031716450564582"),
            ("0.15163009899387823597", "0.84836990100612176403", "0.42552626967194512172"),
            ("0.25042824145126392104", "0.74957175854873607896", "0.56280512708368150687"),
        ],
    ),
]


def test_consumption_spectra_meet_frozen_mpmath_values():
    # the four cases in one block, padded to three outcomes; every eigenvalue and entropy
    # within 2e-15 relative, lambda_min = 2.5e-17 included
    ground = np.array([case[0] for case in MPMATH_SPECTRA])
    kets = np.zeros((len(ground), 3, 4), dtype=complex)
    for i, (g, rows, _, _) in enumerate(MPMATH_SPECTRA):
        kets[i, : len(rows)] = measurement.measured_kets(g, np.array(rows))
    report = entanglement.consumption_block(ground, kets)
    for i, (_, _, s_ground, posts) in enumerate(MPMATH_SPECTRA):
        assert abs(report.s_ground[i] / float(s_ground) - 1.0) <= 2e-15, i
        for mu, frozen in enumerate(posts):
            found = np.append(report.reduced_eigenvalues[i, mu], report.s_post[i, mu])
            assert np.all(np.abs(found / np.array(frozen, float) - 1.0) <= 2e-15), (i, mu, found)
