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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measurement, model, qmath
from .analytic import shannon_entropy

EIGENVALUE_SLACK = 1e-12


@dataclass(frozen=True)
class EntanglementReport:
    """Entropies around one measurement on the ground state."""

    s_ground: float
    probabilities: tuple[float, ...]
    s_post: tuple[float, ...]
    delta_s: float
    mutual_info: float


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in nats of a density matrix; eigenvalues clamped to [0, 1].

    Clamping absorbs rounding only: an eigenvalue outside [0, 1] by more
    than 1e-12, or a trace away from 1 by more than 1e-10, is an error.
    """
    vals, _ = qmath.hermitian_eig(rho)
    if float(np.min(vals)) < -EIGENVALUE_SLACK or float(np.max(vals)) > 1.0 + EIGENVALUE_SLACK:
        raise ValueError(
            f"density matrix eigenvalues outside [0, 1]: {vals}"
        )
    if abs(float(np.sum(vals)) - 1.0) > 1e-10:
        raise measurement.NotNormalized(
            f"density matrix trace is {float(np.sum(vals))!r}, expected 1"
        )
    clamped = np.clip(vals, 0.0, 1.0)
    positive = clamped[clamped > 0.0]
    return float(-np.sum(positive * np.log(positive)))


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


def reduced_post_states(
    params: model.ModelParams, meas: measurement.MeasurementModel
) -> list[tuple[float, np.ndarray | None]]:
    """Per outcome, the Born probability and reduced state of B (None if degenerate)."""
    g = model.ground_state(params)
    out = []
    for oc in measurement.measure(meas, g):
        if oc.state is None:
            out.append((0.0, None))
        else:
            out.append(
                (oc.probability, qmath.partial_trace(qmath.projector(oc.state), keep="B"))
            )
    return out


def consumption(
    params: model.ModelParams, meas: measurement.MeasurementModel
) -> EntanglementReport:
    """Full entropy report for one measurement on the ground state."""
    s_ground = ground_entropy(params)
    probabilities = []
    s_post = []
    rho_bs = []
    for prob, rho_b in reduced_post_states(params, meas):
        probabilities.append(prob)
        rho_bs.append(rho_b)
        s_post.append(0.0 if rho_b is None else von_neumann_entropy(rho_b))
    avg_post = sum(p * s for p, s in zip(probabilities, s_post))
    delta_s = s_ground - avg_post
    mutual = _pointer_mutual_info(probabilities, rho_bs, s_post)
    return EntanglementReport(
        s_ground=s_ground,
        probabilities=tuple(probabilities),
        s_post=tuple(s_post),
        delta_s=delta_s,
        mutual_info=mutual,
    )


def _pointer_mutual_info(probabilities, rho_bs, s_post) -> float:
    """I(pointer : B) = S(Phi_A) + S(Phi_B) - S(Phi), using the block structure.

    ``s_post`` holds S(rho_B(mu)) per outcome, already computed by the caller.
    """
    s_pointer = shannon_entropy(probabilities)
    phi_b = np.zeros((2, 2), dtype=complex)
    joint = s_pointer
    for prob, rho_b, s in zip(probabilities, rho_bs, s_post):
        if rho_b is None or prob == 0.0:
            continue
        phi_b += prob * rho_b
        joint += prob * s
    return s_pointer + von_neumann_entropy(phi_b) - joint


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
