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
post-measurement kets of N cases at once and returns their entropies as
columns.  Every reduced state of the batch is a 2x2 matrix, read off its ket
as psi^T psi^* with no 4x4 projector, and its spectrum comes in closed form
(``_spectra``), all in one stack and with no LAPACK call.
``protocol.measured_block`` feeds it the kets it has just built, and one
case is a block of one.  ``reduced_post_states``, which builds its kets by
``measurement.measured_kets``, ``pointer_state_dense`` and the scalar
entropies, which diagonalize by ``qmath.hermitian_eig``, are reference routes
the tests compare it with.
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


def _check_spectrum(vals: np.ndarray) -> None:
    """Raise unless eigenvalues (..., d) lie in [0, 1], to EIGENVALUE_SLACK, and sum to 1."""
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


def _spectrum_entropy(vals: np.ndarray):
    """Entropy in nats from the eigenvalues (..., d) of density matrices."""
    _check_spectrum(vals)
    return shannon_entropy(np.clip(vals, 0.0, 1.0))


def _qubit_entropy(vals: np.ndarray):
    """Entropy in nats of qubit states from their checked ascending eigenvalues (..., 2).

    The binary entropy of the smaller one, lambda: -lambda ln lambda - (1 - lambda)
    ln1p(-lambda).  A nearly pure state keeps its relative digits, which -mu ln mu of the
    larger eigenvalue mu, a float near 1, would round away.
    """
    _check_spectrum(vals)
    low = np.maximum(vals[..., 0], 0.0)
    positive = low > 0.0
    own = np.where(positive, low * np.log(np.where(positive, low, 1.0)), 0.0)
    return -own - (1.0 - low) * np.log1p(-low)


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
    rho_b = qmath.partial_trace(qmath.projector(psi))
    return von_neumann_entropy(rho_b)


def ground_entropy(params: model.ModelParams) -> float:
    """S(ground): the ground state's A-B entanglement entropy in nats."""
    return entropy_of_entanglement(model.ground_state(params))


def _reduced_states(kets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared norms (...), reduced states of B (..., 2, 2) and |det psi|^2 (...) of kets (..., 4).

    A ket read as the 2x2 matrix psi[a, b] has rho_B = psi^T psi^*, so no projector is
    built; none of the three is normalized.  |det psi|^2 is det rho_B, the product of
    the Schmidt coefficients squared, with the relative digits that ad - |b|^2 of a
    nearly pure rho_B cancels away.
    """
    weight = np.einsum("...i,...i->...", kets.conj(), kets).real
    psi = kets.reshape(kets.shape[:-1] + (2, 2))
    bra = psi.conj()
    rho = psi[..., 0, :, None] * bra[..., 0, None, :] + psi[..., 1, :, None] * bra[..., 1, None, :]
    det = psi[..., 0, 0] * psi[..., 1, 1] - psi[..., 0, 1] * psi[..., 1, 0]
    return weight, rho, det.real * det.real + det.imag * det.imag


def _spectra(rho: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., 2) of Hermitian 2x2 matrices rho (..., 2, 2), determinants det.

    rho is checked by ``qmath.require_hermitian``.  lambda_max = tr/2 + hypot((a - d)/2,
    |b|), and lambda_min = det / lambda_max rather than tr/2 - hypot, which cancels where
    rho is nearly pure (Higham, Accuracy and Stability of Numerical Algorithms, 2002).
    """
    rho = qmath.require_hermitian(rho)
    a, d = rho[..., 0, 0].real, rho[..., 1, 1].real
    top = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(rho[..., 0, 1]))
    return np.stack([det / top, top], axis=-1)


def consumption_block(ground: np.ndarray, kets: np.ndarray) -> EntanglementReport:
    """The entropy columns of N cases from their stacks, as an ``EntanglementReport`` of arrays.

    ``ground`` holds the ground kets (N, 4) and ``kets`` the unnormalized
    post-measurement kets (N, n, 4), M_A(mu)|g>.  Every reduced state of
    the batch, the ground states' and the pointer-averaged Phi_B's
    included, is a 2x2 matrix whose spectrum ``_spectra`` gives in closed
    form, all in one stack: a pure ket's determinant is its Schmidt
    determinant |det psi|^2 / |psi|^4, and Phi_B's is ad - |b|^2.  Each
    entropy is ``_qubit_entropy``'s, from the smaller eigenvalue.  An
    all-zero ket (padding) reads as a degenerate outcome: probability 0
    below DEGENERATE_PROB.
    """
    size = len(ground)
    # the ground ket as outcome 0 of each case: (N, n + 1, ...)
    weight, rho, det = _reduced_states(np.concatenate([ground[:, None], kets], axis=1))
    live = weight >= measurement.DEGENERATE_PROB
    live[:, 0] = True  # the ground kets are unit kets; a NaN one is checked, and fails
    phi_b = (rho[:, 1:] * live[:, 1:, None, None]).sum(axis=1)  # sum_mu p_mu rho_B(mu)
    phi_det = phi_b[:, 0, 0].real * phi_b[:, 1, 1].real - np.abs(phi_b[:, 0, 1]) ** 2
    norm = weight[live]
    vals = _spectra(
        np.concatenate([rho[live] / norm[:, None, None], phi_b]),
        np.concatenate([det[live] / (norm * norm), phi_det]),
    )
    entropies = _qubit_entropy(vals)
    # the pure states' spectra and entropies back in place, NaN and 0 where degenerate
    spectra, s_pure = np.full(live.shape + (2,), np.nan), np.zeros(live.shape)
    spectra[live], s_pure[live] = vals[:-size], entropies[:-size]
    prob, s_ground, s_post = np.where(live, weight, 0.0)[:, 1:], s_pure[:, 0], s_pure[:, 1:]
    avg_post = (prob * s_post).sum(axis=-1)
    # I(pointer : B) = S(Phi_A) + S(Phi_B) - S(Phi), using the block structure
    s_pointer = shannon_entropy(prob)
    mutual = s_pointer + entropies[-size:] - (s_pointer + avg_post)
    return EntanglementReport(s_ground, prob, s_post, s_ground - avg_post, mutual, spectra[:, 1:])


def reduced_post_states(
    params: model.ModelParams, meas: measurement.MeasurementModel
) -> list[tuple[float, np.ndarray | None]]:
    """Per outcome, the Born probability and reduced state of B (None if degenerate)."""
    kets = measurement.measured_kets(model.ground_state(params), meas.rows)
    prob, rho_b, _ = _reduced_states(kets)
    live = prob >= measurement.DEGENERATE_PROB
    return [(p, rho / p) if ok else (0.0, None) for p, rho, ok in zip(prob.tolist(), rho_b, live)]


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
