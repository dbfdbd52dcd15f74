"""Linear-algebra kernel tests: Pauli algebra, eigensolver, traces, evolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minqet import qmath
from minqet.model import ModelParams, ParamsBlock, build_hamiltonian, ground_state

RNG = np.random.default_rng(20240811)


def random_hermitian(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def test_pauli_z_eigenbasis():
    plus = np.array([1.0, 0.0])
    assert np.allclose(qmath.pauli("z") @ plus, plus)


def test_pauli_involution_and_product():
    for axis in "xyz":
        assert np.allclose(qmath.pauli(axis) @ qmath.pauli(axis), np.eye(2))
    assert np.allclose(
        qmath.pauli("x") @ qmath.pauli("y"), 1j * qmath.pauli("z"), atol=1e-15
    )


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        qmath.pauli("w")


def test_tensor_identity():
    assert np.allclose(qmath.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_ordering():
    # A is the slow index: z on A gives diag(1, 1, -1, -1).
    m = qmath.tensor(qmath.pauli("z"), np.eye(2))
    assert np.allclose(m, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_tensor_double_flip():
    plus_plus = np.array([1.0, 0.0, 0.0, 0.0])
    minus_minus = np.array([0.0, 0.0, 0.0, 1.0])
    flip = qmath.tensor(qmath.pauli("x"), qmath.pauli("x"))
    assert np.allclose(flip @ plus_plus, minus_minus)


def test_eig_diagonal_sorted():
    vals, vecs = qmath.hermitian_eig(np.diag([3.0, 1.0, 2.0, 0.0]))
    assert np.allclose(vals, [0.0, 1.0, 2.0, 3.0], atol=1e-14)
    assert np.allclose(vecs @ vecs.conj().T, np.eye(4), atol=1e-12)


def test_eig_pauli_x():
    vals, _ = qmath.hermitian_eig(qmath.pauli("x"))
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_eig_hamiltonian_unit_point():
    parts = build_hamiltonian(ModelParams(h=1.0, k=1.0))
    vals, _ = qmath.hermitian_eig(parts.total)
    root2 = math.sqrt(2.0)
    expected = [0.0, 2.0 * root2 - 2.0, 2.0 * root2 + 2.0, 4.0 * root2]
    assert np.allclose(vals, expected, atol=1e-10)
    # six-digit prints of the same numbers
    assert np.allclose(vals, [0.0, 0.828427, 4.828427, 5.656854], atol=1e-6)


def test_eig_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(qmath.NonHermitianInput):
        qmath.hermitian_eig(m)


def test_eig_reconstruction_bulk():
    # 1000 random Hermitian matrices: reconstruct and cross-check the spectrum
    # against an independent solver.
    worst_recon = 0.0
    worst_vals = 0.0
    for _ in range(1000):
        m = random_hermitian(RNG)
        vals, vecs = qmath.hermitian_eig(m)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - m))))
        ref = np.linalg.eigvalsh(m)
        worst_vals = max(worst_vals, float(np.max(np.abs(vals - ref))))
    assert worst_recon <= 1e-10
    assert worst_vals <= 1e-10


def test_eig_2x2_closed_form():
    # independent of LAPACK: tr/2 -+ hypot((a - d)/2, |b|), on the 2x2 shape
    # the reduced states of qubit B have
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        m = random_hermitian(rng, dim=2)
        vals, _ = qmath.hermitian_eig(m)
        mean = 0.5 * (m[0, 0].real + m[1, 1].real)
        radius = math.hypot(0.5 * (m[0, 0].real - m[1, 1].real), abs(m[0, 1]))
        worst = max(worst, float(np.max(np.abs(vals - (mean - radius, mean + radius)))))
    assert worst <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_eig_orthonormal_columns(seed):
    m = random_hermitian(np.random.default_rng(seed))
    _, vecs = qmath.hermitian_eig(m)
    gram = vecs.conj().T @ vecs
    assert float(np.max(np.abs(gram - np.eye(4)))) <= 1e-10


def test_partial_trace_product_state():
    plus_plus = np.zeros(4)
    plus_plus[0] = 1.0
    rho_b = qmath.partial_trace(qmath.projector(plus_plus))
    assert np.allclose(rho_b, np.diag([1.0, 0.0]), atol=1e-14)


def test_partial_trace_ground_state_eigenvalues():
    g = ground_state(ModelParams(h=1.0, k=1.0))
    rho_b = qmath.partial_trace(qmath.projector(g))
    vals = np.sort(np.linalg.eigvalsh(rho_b))
    lam_minus = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0
    lam_plus = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
    assert abs(vals[0] - lam_minus) <= 1e-12
    assert abs(vals[1] - lam_plus) <= 1e-12
    assert np.allclose(vals, [0.146447, 0.853553], atol=1e-6)


def test_partial_trace_maximally_mixed():
    rho_b = qmath.partial_trace(np.eye(4) / 4.0)
    assert np.allclose(rho_b, np.eye(2) / 2.0, atol=1e-14)


def test_partial_trace_preserves_trace():
    for _ in range(20):
        m = random_hermitian(RNG)
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        assert abs(np.trace(qmath.partial_trace(rho)).real - 1.0) <= 1e-12


def test_expectation_values():
    params = ModelParams(h=1.0, k=1.0)
    parts = build_hamiltonian(params)
    g = ground_state(params)
    plus_plus = np.zeros(4)
    plus_plus[0] = 1.0
    assert abs(qmath.expectation(g, parts.total)) <= 1e-10
    assert abs(qmath.expectation(g, parts.v)) <= 1e-10
    za = qmath.tensor(qmath.pauli("z"), np.eye(2))
    assert abs(qmath.expectation(plus_plus, za) - 1.0) <= 1e-14


def test_expectation_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[2, 0] = 3.0
    with pytest.raises(qmath.NonHermitianInput):
        qmath.expectation(np.array([1.0, 0, 0, 0]), m)


def test_require_hermitian_rejects_nan():
    # a NaN defect is never within tolerance, nor equal to its own adjoint
    with pytest.raises(qmath.NonHermitianInput):
        qmath.require_hermitian(np.full((2, 2), np.nan))


def test_expectation_rejects_a_nan_residue():
    with pytest.raises(ArithmeticError):
        qmath.expectation(np.array([np.nan, 0.0, 0.0, 0.0]), np.eye(4))


def test_require_hermitian_keeps_an_exact_stack_and_symmetrizes_a_near_one():
    block = ParamsBlock.of([ModelParams(h=0.7, k=1.3), ModelParams(h=2.0, k=0.4)])
    parts = build_hamiltonian(block)
    ops = np.stack([parts.h_a, parts.h_b, parts.v, parts.total], axis=1).astype(complex)
    assert qmath.require_hermitian(ops).tobytes() == ops.tobytes()  # bit for bit
    near = ops + 1e-12 * np.triu(np.ones((4, 4)), 1)  # within tolerance, not exact
    symmetrized = qmath.require_hermitian(near)
    assert np.array_equal(symmetrized, 0.5 * (near + np.swapaxes(near, -1, -2).conj()))
    assert np.array_equal(symmetrized, np.swapaxes(symmetrized, -1, -2).conj())
    assert not np.array_equal(symmetrized, near)


def test_expectation_on_a_ket_stack_equals_one_call_per_ket():
    rng = np.random.default_rng(5)
    kets = rng.normal(size=(3, 2, 4)) + 1j * rng.normal(size=(3, 2, 4))
    ops = np.stack([random_hermitian(rng) for _ in range(3)])
    stacked = qmath.expectation(kets, ops[:, None])  # one operator per row
    assert stacked.shape == (3, 2)
    for row, ket_row, op in zip(stacked, kets, ops):
        assert row.tolist() == [qmath.expectation(ket, op) for ket in ket_row]
    with pytest.raises(qmath.NonHermitianInput):
        qmath.expectation(kets, np.concatenate([ops[:2], [ops[2] + np.triu(ops[2], 1)]])[:, None])


def test_eig_projector_and_partial_trace_take_stacks():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    herm = raw + np.swapaxes(raw.conj(), -1, -2)
    vals, vecs = qmath.hermitian_eig(herm)
    for m, v, u in zip(herm, vals, vecs):
        one_vals, _ = qmath.hermitian_eig(m)
        assert np.allclose(v, one_vals, rtol=0.0, atol=1e-13)
        assert float(np.max(np.abs(u @ np.diag(v) @ u.conj().T - m))) <= 1e-12
    with pytest.raises(qmath.NonHermitianInput):
        qmath.hermitian_eig(np.concatenate([herm, raw[:1]]))
    kets = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
    stacked = qmath.partial_trace(qmath.projector(kets))
    assert stacked.shape == (2, 3, 2, 2)
    for ket, rho_b in zip(kets.reshape(-1, 4), stacked.reshape(-1, 2, 2)):
        one = qmath.partial_trace(np.outer(ket, ket.conj()))
        assert np.allclose(rho_b, one, rtol=0.0, atol=1e-14)
