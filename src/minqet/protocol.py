"""The full teleportation round: measure A, communicate, rotate B.

The protocol state after feedback is

    rho = sum_mu U_B(mu) M_A(mu) |g><g| M_A(mu)^dag U_B(mu)^dag

where each U_B(mu) = cos(omega) + i sin(omega) n . sigma_B is a local
rotation of qubit B chosen per outcome.  The energy the measurement pumps
in is E_A = sum_mu <g| M^dag H M |g>; the energy extracted at B is
E_B = E_A - Tr[rho H] = -Tr[rho (H_B + V)].

Runs are batched: ``run_many`` takes a sequence of (params, measurement,
policy) cases and computes them BLOCK at a time on stacks.  The kets
M_A(mu)|g> of a block form one (B, n, 4) array, padded to the block's
largest outcome count with zero kets; each rotation of B acts as a 2x2
block on the ket read as an (a, b) matrix; every energy is one ``einsum``.
``run`` is the one-case call.

Every run cross-checks its own arithmetic: the density-matrix route must
match the per-outcome scalar route (sum of Q / eps) and the closed form
for E_A, and the final energy must respect H >= 0.  A failed cross-check
is a bug, not a data error, so it raises RuntimeError naming the check and
the case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, entanglement, measurement, qmath
from .model import ModelParams, ParamsBlock, build_hamiltonian, ground_state

AXIS_TOL = 1e-12
CROSS_CHECK_TOL = 1e-10
# cases per block of run_many, which bounds its arrays whatever the number of cases
BLOCK = 64


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
        return _rotations(self.omega, self.n)

    def matrix4(self) -> np.ndarray:
        """The rotation acting on B, tensored with identity on A."""
        return _on_b(self.matrix2())


def _rotations(omega, axes) -> np.ndarray:
    """cos(omega) + i sin(omega) n . sigma for angles (...) and axes (..., 3): (..., 2, 2)."""
    nx, ny, nz = (np.asarray(axes, dtype=float)[..., i, None, None] for i in range(3))
    axis_dot_sigma = nx * qmath.pauli("x") + ny * qmath.pauli("y") + nz * qmath.pauli("z")
    omega = np.asarray(omega, dtype=float)[..., None, None]
    return np.cos(omega) * qmath.identity(2) + (1j * np.sin(omega)) * axis_dot_sigma


def _on_b(u: np.ndarray) -> np.ndarray:
    """I (x) u for a 2x2 u on B: in the A-major basis, u fills both diagonal blocks."""
    full = np.zeros((4, 4), dtype=complex)
    full[:2, :2] = full[2:, 2:] = u
    return full


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
    """Energies and entropies of one full protocol run.

    ``reduced_eigenvalues`` holds, per outcome, the ascending eigenvalues of
    B's reduced post-measurement state, or None for a degenerate outcome.
    """

    e_a: float
    e_b: float
    total_final_energy: float
    per_outcome: tuple[OutcomeEnergies, ...]
    delta_s: float
    mutual_info: float
    bound32_rhs: float
    bound770_rhs: float
    reduced_eigenvalues: tuple[tuple[float, float] | None, ...]


def _check(label: str, left, right, scale, first: int = 0) -> None:
    """Raise unless |left - right| <= CROSS_CHECK_TOL * scale in every case.

    The arguments are floats or (B,) arrays; ``first`` is the index of the
    block's first case among all cases.
    """
    passed = np.abs(np.subtract(left, right)) <= CROSS_CHECK_TOL * np.asarray(scale)
    if not passed.all():
        i = int(np.argmin(passed))
        left, right, scale = (
            float(np.broadcast_to(x, passed.shape).flat[i]) for x in (left, right, scale)
        )
        raise RuntimeError(
            f"internal cross-check failed: {label} differs in case {first + i} "
            f"({left!r} vs {right!r}, scale {scale:g})"
        )


def run_many(cases) -> tuple[ProtocolReport, ...]:
    """Execute measure-communicate-operate on the ground state, once per case.

    ``cases`` is a sequence of (params, meas, policy) triples; the result
    has one ``ProtocolReport`` per case, in order.  Raises
    ``PolicyMismatch`` if a policy has the wrong number of entries, and
    ``RuntimeError`` naming the check and the case index if any internal
    identity fails (which would mean the implementation, not the input, is
    wrong).
    """
    cases = list(cases)
    for i, (_, meas, policy) in enumerate(cases):
        if len(policy) != meas.n_outcomes:
            raise PolicyMismatch(
                f"case {i}: policy has {len(policy)} unitaries for "
                f"{meas.n_outcomes} outcomes"
            )
    reports: list[ProtocolReport] = []
    for first in range(0, len(cases), BLOCK):
        reports += _run_block(cases[first : first + BLOCK], first)
    return tuple(reports)


def run(
    params: ModelParams,
    meas: measurement.MeasurementModel,
    policy: FeedbackPolicy,
) -> ProtocolReport:
    """One case of ``run_many``."""
    return run_many([(params, meas, policy)])[0]


def _run_block(cases: list, first: int) -> list[ProtocolReport]:
    """``run_many`` on one block of cases; ``first`` numbers them in errors."""
    params = ParamsBlock.of(c[0] for c in cases)
    models = [c[1] for c in cases]
    coeffs = measurement.coefficient_block(models)
    size, n = coeffs.shape[:2]
    parts = build_hamiltonian(params)
    g = ground_state(params)
    kets = (measurement.kraus_operators(coeffs) @ g[:, None, :, None])[..., 0]  # unnormalized

    e_a = np.einsum("bni,bij,bnj->b", kets.conj(), parts.total, kets).real
    prob = np.einsum("bni,bni->bn", kets.conj(), kets).real
    live = prob >= measurement.DEGENERATE_PROB
    prob = np.where(live, prob, 0.0)

    # padding outcomes rotate by 0 about the zero vector: the identity
    table = np.array(
        [
            [(u.omega, *u.n) for u in policy.unitaries] + [(0.0,) * 4] * (n - len(policy))
            for _, _, policy in cases
        ]
    )
    omega, axes = table[..., 0], table[..., 1:]
    rotations = _rotations(omega, axes)
    # U acts on b of the ket read as psi[a, b]: psi -> psi U^T
    phi = kets.reshape(size, n, 2, 2) @ np.swapaxes(rotations, -1, -2)
    phi = np.where(live[..., None], phi.reshape(size, n, 4), 0.0)  # after feedback
    chi = phi / np.sqrt(np.where(live, prob, 1.0))[..., None]  # normalized
    local_ops = np.stack([parts.h_a, parts.h_b, parts.v], axis=1)
    local = qmath.real_part(np.einsum("bni,boij,bnj->bno", chi.conj(), local_ops, chi))
    rho = np.einsum("bni,bnj->bij", phi, phi.conj())
    total_final = qmath.real_part(np.einsum("bij,bji->b", rho, parts.total))
    e_b = e_a - total_final
    e_b_local = -qmath.real_part(np.einsum("bij,bji->b", rho, parts.h_b + parts.v))

    scale = np.maximum(1.0, np.maximum(np.abs(e_a), np.abs(parts.total).max(axis=(-2, -1))))
    e_a_closed = [measurement.input_energy_closed(meas, p) for p, meas, _ in cases]
    _check("E_A closed form", e_a, e_a_closed, scale, first)
    _check("E_B local form", e_b, e_b_local, scale, first)
    m, l, alpha = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    # outcomes along the leading axis, so the (B,) parameters broadcast behind them
    q_sum = analytic.Q_of(
        params, (m * m + l * l).T, (2.0 * m * l * np.cos(alpha)).T, omega.T, tuple(axes.T)
    ).sum(axis=0)
    _check("E_B per-outcome route", e_b, q_sum / params.eps, scale, first)
    negative = np.flatnonzero(total_final < -CROSS_CHECK_TOL * scale)
    if negative.size:
        i = negative[0]
        raise RuntimeError(
            f"final energy {float(total_final[i])!r} violates H >= 0 in case {first + i}"
        )

    reports = []
    for i, (ent, (p, meas, _)) in enumerate(
        zip(entanglement.consumption_many(g, kets), cases)
    ):
        count = meas.n_outcomes
        coeffs_i = analytic.bounds(p)
        max_eb = analytic.max_EB_closed(p, meas.weights)
        reports.append(
            ProtocolReport(
                e_a=float(e_a[i]),
                e_b=float(e_b[i]),
                total_final_energy=float(total_final[i]),
                per_outcome=tuple(
                    OutcomeEnergies(probability=pr, h_a=ha, h_b=hb, v=v, total=ha + hb + v)
                    for pr, (ha, hb, v) in zip(
                        prob[i, :count].tolist(), local[i, :count].tolist()
                    )
                ),
                delta_s=ent.delta_s,
                mutual_info=ent.mutual_info,
                bound32_rhs=coeffs_i.c32 * max_eb / p.eps,
                bound770_rhs=coeffs_i.c770 * ent.delta_s,
                reduced_eigenvalues=ent.reduced_eigenvalues[:count],
            )
        )
    return reports


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
    w4 = _on_b(w2)
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
