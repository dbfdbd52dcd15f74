"""Entanglement bookkeeping: entropies consumed by the measurement step.

All entropies are in nats.  The consumption of a measurement is

    delta_S = S(ground) - sum_mu p_mu S(post_mu)

where S(.) is the entanglement entropy between A and B of a pure state
(the von Neumann entropy of either reduced qubit).  The same quantity
reappears as the mutual information between the measurement pointer and
qubit B in the joint pointer-system state

    Phi = sum_mu p_mu |mu><mu| (x) rho_B(mu),

whose block structure makes S(Phi) = H(p) + sum_mu p_mu S(rho_B(mu)).
Everything in this module is brute force over density matrices; the
closed-form route lives in ``analytic`` and the two are compared in tests.

The work is done on stacks: ``consumption_block`` takes the ground kets and
post-measurement kets of N cases at once, diagonalizes every reduced state
of the batch in one call, and returns its entropies as columns.
``protocol.measured_block`` feeds it the kets it has just built, and one
case is a block of one.  ``reduced_post_states``, ``pointer_state_dense``
and the scalar entropies are reference routes the tests compare it with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measurement, model, qmath
from .analytic import shannon_entropy

EIGENVALUE_SLACK = 1e-12


@dataclass(frozen=True)
class EntanglementReport:
    """Entropies around one measurement on the ground state, for N cases at once.

    Every field is an array: (N,) ``s_ground``, ``delta_s`` and
    ``mutual_info``, (N, n) ``probabilities`` and ``s_post``, and (N, n, 2)
    ``reduced_eigenvalues``, the ascending eigenvalues of rho_B(mu), NaN
    where an outcome is degenerate.
    """

    s_ground: np.ndarray
    probabilities: np.ndarray
    s_post: np.ndarray
    delta_s: np.ndarray
    mutual_info: np.ndarray
    reduced_eigenvalues: np.ndarray


def _spectrum_entropy(vals: np.ndarray):
    """Entropy in nats from the eigenvalues (..., d) of density matrices."""
    # both tests are written so that NaN fails them
    outside = ~((vals >= -EIGENVALUE_SLACK) & (vals <= 1.0 + EIGENVALUE_SLACK))
    if outside.any():
        raise ValueError(
            f"density matrix eigenvalue outside [0, 1]: {float(np.extract(outside, vals)[0])!r}"
        )
    trace = vals.sum(axis=-1)
    off = ~(np.abs(trace - 1.0) <= 1e-10)
    if off.any():
        raise measurement.NotNormalized(
            f"density matrix trace is {float(np.extract(off, trace)[0])!r}, expected 1"
        )
    return shannon_entropy(np.clip(vals, 0.0, 1.0))


def von_neumann_entropy(rho: np.ndarray):
    """Entropy in nats of a density matrix; eigenvalues clamped to [0, 1].

    Clamping absorbs rounding only: an eigenvalue outside [0, 1] by more
    than 1e-12, or a trace away from 1 by more than 1e-10, is an error.  A
    stack (..., d, d) gives an array of entropies, checked all at once.
    """
    vals, _ = qmath.hermitian_eig(rho)
    return _spectrum_entropy(vals)


def entropy_of_entanglement(psi: np.ndarray) -> float:
    """Entanglement entropy of a pure two-qubit ket, via the reduced state of B."""
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise measurement.NotNormalized(f"ket norm is {norm!r}, expected 1")
    rho_b = qmath.partial_trace(qmath.projector(psi), keep="B")
    return von_neumann_entropy(rho_b)


def ground_entropy(params: model.ModelParams) -> float:
    """S(ground): the ground state's A-B entanglement entropy in nats."""
    return entropy_of_entanglement(model.ground_state(params))


def _post_states(kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Born probabilities and normalized reduced states of B of post-measurement kets.

    ``kets`` are the unnormalized M_A(mu)|g>, shape (..., n, 4); the results
    have shapes (..., n) and (..., n, 2, 2).  A degenerate outcome
    (probability below DEGENERATE_PROB) gets probability 0 and the zero
    matrix.
    """
    prob = np.einsum("...i,...i->...", kets.conj(), kets).real
    live = prob >= measurement.DEGENERATE_PROB
    rho_b = qmath.partial_trace(qmath.projector(kets), keep="B")
    rho_b /= np.where(live, prob, 1.0)[..., None, None]
    rho_b[~live] = 0.0
    return np.where(live, prob, 0.0), rho_b


def consumption_block(ground: np.ndarray, kets: np.ndarray) -> EntanglementReport:
    """The entropy columns of N cases from their stacks, as an ``EntanglementReport`` of arrays.

    ``ground`` holds the ground kets (N, 4) and ``kets`` the unnormalized
    post-measurement kets (N, n, 4), M_A(mu)|g>.  Every reduced state of
    the batch, the ground states' and the pointer-averaged Phi_B's
    included, is diagonalized in one call.  An all-zero ket (padding)
    reads as a degenerate outcome.
    """
    size = len(ground)
    prob, rho_b = _post_states(kets)
    live = prob > 0.0
    rho_ground = qmath.partial_trace(qmath.projector(ground), keep="B")
    phi_b = np.einsum("...m,...mij->...ij", prob, rho_b)
    vals, _ = qmath.hermitian_eig(np.concatenate([rho_ground, phi_b, rho_b[live]]))
    entropies = _spectrum_entropy(vals)
    s_ground, s_phi_b = entropies[:size], entropies[size : 2 * size]
    post_vals = np.full(prob.shape + (2,), np.nan)
    post_vals[live] = vals[2 * size :]
    s_post = np.zeros(prob.shape)
    s_post[live] = entropies[2 * size :]
    avg_post = (prob * s_post).sum(axis=-1)
    # I(pointer : B) = S(Phi_A) + S(Phi_B) - S(Phi), using the block structure
    s_pointer = shannon_entropy(prob)
    mutual = s_pointer + s_phi_b - (s_pointer + avg_post)
    return EntanglementReport(s_ground, prob, s_post, s_ground - avg_post, mutual, post_vals)


def reduced_post_states(
    params: model.ModelParams, meas: measurement.MeasurementModel
) -> list[tuple[float, np.ndarray | None]]:
    """Per outcome, the Born probability and reduced state of B (None if degenerate)."""
    prob, rho_b = _post_states(measurement.kraus_operators(meas.rows) @ model.ground_state(params))
    return [(p, rho) if p > 0.0 else (0.0, None) for p, rho in zip(prob.tolist(), rho_b)]


def pointer_state_dense(
    params: model.ModelParams, meas: measurement.MeasurementModel
) -> np.ndarray:
    """The joint pointer-B state as an explicit block-diagonal matrix.

    Shape (2n, 2n) for n outcomes; row-block mu holds p_mu * rho_B(mu).
    Exists so tests can check the block-structure entropy identity against
    a direct diagonalization.
    """
    pairs = reduced_post_states(params, meas)
    n = len(pairs)
    dense = np.zeros((2 * n, 2 * n), dtype=complex)
    for mu, (prob, rho_b) in enumerate(pairs):
        if rho_b is None:
            continue
        dense[2 * mu : 2 * mu + 2, 2 * mu : 2 * mu + 2] = prob * rho_b
    return dense
