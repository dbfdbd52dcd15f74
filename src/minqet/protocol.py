"""The full teleportation round: measure A, communicate, rotate B.

The protocol state after feedback is

    rho = sum_mu U_B(mu) M_A(mu) |g><g| M_A(mu)^dag U_B(mu)^dag

where each U_B(mu) = cos(omega) + i sin(omega) n . sigma_B is a local
rotation of qubit B chosen per outcome.  The energy the measurement pumps
in is E_A = sum_mu <g| M^dag H M |g>; the energy extracted at B is
E_B = E_A - Tr[rho H] = -Tr[rho (H_B + V)].

Every run cross-checks its own arithmetic: the density-matrix route must
match the per-outcome scalar route (sum of Q / eps) and the closed form
for E_A, and the final energy must respect H >= 0.  A failed cross-check
is a bug, not a data error, so it raises RuntimeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, entanglement, measurement, qmath
from .model import HamiltonianParts, ModelParams, build_hamiltonian, ground_state

AXIS_TOL = 1e-12
CROSS_CHECK_TOL = 1e-10


class PolicyMismatch(ValueError):
    """Feedback policy and measurement disagree on the number of outcomes."""


@dataclass(frozen=True)
class LocalUnitary:
    """A rotation of qubit B: cos(omega) + i sin(omega) n . sigma, |n| = 1."""

    omega: float
    n: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.n) != 3 or not all(math.isfinite(c) for c in self.n):
            raise ValueError(f"axis must be three finite components, got {self.n!r}")
        defect = abs(math.sqrt(sum(c * c for c in self.n)) - 1.0)
        if defect > AXIS_TOL:
            raise ValueError(f"axis must be unit length, off by {defect:.3e}")

    @classmethod
    def identity(cls) -> "LocalUnitary":
        return cls(omega=0.0, n=(0.0, 1.0, 0.0))

    @classmethod
    def normalized(cls, omega: float, n) -> "LocalUnitary":
        nx, ny, nz = (float(c) for c in n)
        r = math.sqrt(nx * nx + ny * ny + nz * nz)
        if r == 0.0:
            raise ValueError("axis must be nonzero")
        return cls(omega=float(omega), n=(nx / r, ny / r, nz / r))

    def matrix2(self) -> np.ndarray:
        nx, ny, nz = self.n
        axis_dot_sigma = nx * qmath.pauli("x") + ny * qmath.pauli("y") + nz * qmath.pauli("z")
        return math.cos(self.omega) * qmath.identity(2) + (
            1j * math.sin(self.omega)
        ) * axis_dot_sigma

    def matrix4(self) -> np.ndarray:
        """The rotation acting on B, tensored with identity on A."""
        return qmath.tensor(qmath.identity(2), self.matrix2())


@dataclass(frozen=True)
class FeedbackPolicy:
    """One local rotation of B per measurement outcome."""

    unitaries: tuple[LocalUnitary, ...]

    def __len__(self) -> int:
        return len(self.unitaries)

    @classmethod
    def identity(cls, n_outcomes: int) -> "FeedbackPolicy":
        return cls(tuple(LocalUnitary.identity() for _ in range(n_outcomes)))


@dataclass(frozen=True)
class OutcomeEnergies:
    """Energy expectations in one normalized post-feedback state."""

    probability: float
    h_a: float
    h_b: float
    v: float
    total: float


@dataclass(frozen=True)
class ProtocolReport:
    """Energies and entropies of one full protocol run."""

    e_a: float
    e_b: float
    total_final_energy: float
    per_outcome: tuple[OutcomeEnergies, ...]
    delta_s: float
    mutual_info: float
    bound32_rhs: float
    bound770_rhs: float


def _check(label: str, left: float, right: float, scale: float) -> None:
    if abs(left - right) > CROSS_CHECK_TOL * scale:
        raise RuntimeError(
            f"internal cross-check failed: {label} differs "
            f"({left!r} vs {right!r}, scale {scale:g})"
        )


def run(
    params: ModelParams,
    meas: measurement.MeasurementModel,
    policy: FeedbackPolicy,
) -> ProtocolReport:
    """Execute measure-communicate-operate on the ground state.

    Raises ``PolicyMismatch`` if the policy has the wrong number of
    entries, and ``RuntimeError`` if any internal identity fails (which
    would mean the implementation, not the input, is wrong).
    """
    if len(policy) != meas.n_outcomes:
        raise PolicyMismatch(
            f"policy has {len(policy)} unitaries for {meas.n_outcomes} outcomes"
        )
    parts = build_hamiltonian(params)
    g = ground_state(params)

    e_a = 0.0
    rho = np.zeros((4, 4), dtype=complex)
    per_outcome = []
    for psi, unitary in zip(meas.kraus @ g, policy.unitaries):  # unnormalized kets
        e_a += float(np.real(psi.conj() @ parts.total @ psi))
        prob = float(np.real(psi.conj() @ psi))
        if prob < measurement.DEGENERATE_PROB:
            per_outcome.append(OutcomeEnergies(0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        chi = unitary.matrix4() @ (psi / math.sqrt(prob))  # normalized, after feedback
        rho += prob * qmath.projector(chi)
        h_a = qmath.expectation(chi, parts.h_a)
        h_b = qmath.expectation(chi, parts.h_b)
        v = qmath.expectation(chi, parts.v)
        per_outcome.append(
            OutcomeEnergies(probability=prob, h_a=h_a, h_b=h_b, v=v, total=h_a + h_b + v)
        )

    scale = max(1.0, abs(e_a), float(np.max(np.abs(parts.total))))
    _check("E_A closed form", e_a, measurement.input_energy_closed(meas, params), scale)

    total_final = qmath.expectation(rho, parts.total)
    e_b = e_a - total_final
    e_b_local = -qmath.expectation(rho, parts.h_b + parts.v)
    _check("E_B local form", e_b, e_b_local, scale)

    q_route = sum(
        analytic.Q_of(params, w.p, w.q, u.omega, u.n)
        for w, u in zip(meas.weights, policy.unitaries)
    ) / params.eps
    _check("E_B per-outcome route", e_b, q_route, scale)

    if total_final < -CROSS_CHECK_TOL * scale:
        raise RuntimeError(f"final energy {total_final!r} violates H >= 0")

    ent = entanglement.consumption(params, meas)
    coeffs = analytic.bounds(params)
    max_eb = analytic.max_EB_closed(params, meas.weights)
    return ProtocolReport(
        e_a=e_a,
        e_b=e_b,
        total_final_energy=total_final,
        per_outcome=tuple(per_outcome),
        delta_s=ent.delta_s,
        mutual_info=ent.mutual_info,
        bound32_rhs=coeffs.c32 * max_eb / params.eps,
        bound770_rhs=coeffs.c770 * ent.delta_s,
    )


def optimal_policy(
    params: ModelParams, meas: measurement.MeasurementModel
) -> FeedbackPolicy:
    """The closed-form maximizing policy: rotate about y by the per-outcome angle."""
    return FeedbackPolicy(
        tuple(
            LocalUnitary(omega=omega, n=axis)
            for omega, axis in (
                analytic.optimal_rotation(params, w.p, w.q) for w in meas.weights
            )
        )
    )


def random_local_unitary(seed) -> LocalUnitary:
    """A Haar-distributed rotation of qubit B (uniform over SU(2))."""
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    quat = rng.normal(size=4)
    quat /= np.linalg.norm(quat)
    vec_norm = float(np.linalg.norm(quat[1:]))
    if vec_norm == 0.0:
        return LocalUnitary.identity()
    omega = math.atan2(vec_norm, float(quat[0]))
    return LocalUnitary.normalized(omega, quat[1:])


def passive_unitary_energy(
    params: ModelParams, meas: measurement.MeasurementModel, unitary_b
) -> float:
    """Energy cost Tr[omega H] - E_A of replacing feedback with one fixed W on B.

    ``unitary_b`` is a ``LocalUnitary`` or a 2x2 unitary ndarray.  The cost
    equals <g| W^dag (H_B + V) W |g> and is nonnegative: without the
    measurement record, no local operation on B extracts energy.  Both
    identities are enforced; violation raises RuntimeError.
    """
    if isinstance(unitary_b, LocalUnitary):
        w2 = unitary_b.matrix2()
    else:
        w2 = np.asarray(unitary_b, dtype=complex)
        if w2.shape != (2, 2):
            raise ValueError(f"expected a 2x2 unitary, got shape {w2.shape}")
        unitarity = float(np.max(np.abs(w2.conj().T @ w2 - np.eye(2))))
        if unitarity > 1e-10:
            raise ValueError(f"matrix is not unitary (defect {unitarity:.3e})")
    w4 = qmath.tensor(qmath.identity(2), w2)
    parts = build_hamiltonian(params)
    g = ground_state(params)

    kets = meas.kraus @ g
    chis = kets @ w4.T
    e_a = qmath.expectation(kets.T @ kets.conj(), parts.total)
    cost = qmath.expectation(chis.T @ chis.conj(), parts.total) - e_a
    wg = w4 @ g
    direct = float(np.real(wg.conj() @ (parts.h_b + parts.v) @ wg))
    direct_total = float(np.real(wg.conj() @ parts.total @ wg))
    scale = max(1.0, abs(e_a), float(np.max(np.abs(parts.total))))
    _check("passive cost vs direct form", cost, direct, scale)
    _check("passive cost vs total form", cost, direct_total, scale)
    if cost < -CROSS_CHECK_TOL * scale:
        raise RuntimeError(f"passive operation extracted energy: {cost!r}")
    return cost


@dataclass(frozen=True)
class EvolutionSample:
    """B-side energy at one time after the measurement (no feedback applied)."""

    t: float
    hb_bruteforce: float
    hb_closed: float
    v_expect: float


def evolve_series(
    params: ModelParams, meas: measurement.MeasurementModel, times
) -> list[EvolutionSample]:
    """<H_B(t)> and <V(t)> in the freely evolving post-measurement ensemble.

    The brute-force route propagates each post-measurement ket with the
    full Hamiltonian's eigendecomposition; the closed form is

        <H_B(t)> = (h^2 / eps) sum(l^2) (1 - cos 4 k t),    <V(t)> = 0.

    Both identities are enforced to 1e-9 at every sample.
    """
    parts = build_hamiltonian(params)
    g = ground_state(params)
    vals, vecs = qmath.hermitian_eig(parts.total)
    kets = (meas.kraus @ g) @ vecs.conj()  # in the energy eigenbasis

    amp = (
        params.h**2 / params.eps * sum(c.l * c.l for c in meas.coeffs)
    )
    hb_eig = vecs.conj().T @ parts.h_b @ vecs
    v_eig = vecs.conj().T @ parts.v @ vecs
    samples = []
    for t in times:
        t = float(t)
        phases = np.exp(-1j * vals * t)
        hb = 0.0
        v = 0.0
        for ket in kets:
            evolved = phases * ket
            hb += float(np.real(evolved.conj() @ hb_eig @ evolved))
            v += float(np.real(evolved.conj() @ v_eig @ evolved))
        closed = amp * (1.0 - math.cos(4.0 * params.k * t))
        scale = max(1.0, abs(closed))
        if abs(hb - closed) > 1e-9 * scale:
            raise RuntimeError(
                f"<H_B(t)> brute force {hb!r} disagrees with closed form {closed!r} at t={t}"
            )
        if abs(v) > 1e-9 * scale:
            raise RuntimeError(f"<V(t)> = {v!r} fails to vanish at t={t}")
        samples.append(EvolutionSample(t=t, hb_bruteforce=hb, hb_closed=closed, v_expect=v))
    return samples
