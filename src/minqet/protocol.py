"""The full teleportation round: measure A, communicate, rotate B.

The protocol state after feedback is

    rho = sum_mu U_B(mu) M_A(mu) |g><g| M_A(mu)^dag U_B(mu)^dag

where each U_B(mu) = cos(omega) + i sin(omega) n . sigma_B is a local
rotation of qubit B chosen per outcome.  The energy the measurement pumps
in is E_A = sum_mu <g| M^dag H M |g>; the energy extracted at B is
E_B = E_A - Tr[rho H] = -Tr[rho (H_B + V)].

A policy is a table: angles omega (N, n) and axes (N, n, 3), one row per
case, such as ``optimal_table``'s.  Every run starts from ``measured_block``
on a ``ParamsBlock`` and a coefficient block (N, n, 4): the kets M_A(mu)|g>
as one (N, n, 4) array, zero-padded to the largest outcome count, with the
weights in the closed forms' (n, N) layout.  ``run_block`` rotates B by a
policy table and returns per-case columns, and ``run_many`` computes them
BLOCK cases at a time; ``evolve_series`` computes its (T,) columns BLOCK
times at a time.  One case is a block of one, and an outcome-blind
rotation W of B, such as a ``haar_turns`` row, is the policy that
applies W at every outcome.  Each
rotation acts as a 2x2 block on the ket read as an (a, b) matrix, and
every energy is a stacked ``qmath.expectation``: Tr[rho O] is its sum over
the kets of rho.  Born's rule is ``entanglement.consumption_block``'s,
computed once per ``MeasuredBlock``, so a second policy run on the same
block diagonalizes nothing.

Every run cross-checks its own arithmetic: E_B by Tr[rho H] must match the
per-outcome rows' sum of prob (<H_B> + <V>) and the scalar route (sum of
Q / eps), E_A its closed form, and the final energy must respect H >= 0.
A failed cross-check is a bug, not a data error, so it raises RuntimeError
naming the check and the case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, entanglement, measurement, qmath
from .model import HamiltonianParts, ModelParams, ParamsBlock, build_hamiltonian, ground_state

CROSS_CHECK_TOL = 1e-10
# cases (or times) per block of the batched routes, which bounds their arrays
# whatever the number of cases
BLOCK = 64


def unit_axis(n) -> tuple[float, float, float]:
    """The three components of a nonzero axis n, divided by its length in float arithmetic."""
    nx, ny, nz = (float(c) for c in n)
    r = math.sqrt(nx * nx + ny * ny + nz * nz)
    if r == 0.0:
        raise ValueError("axis must be nonzero")
    return nx / r, ny / r, nz / r


def rotations(omega, axes) -> np.ndarray:
    """cos(omega) + i sin(omega) n . sigma for angles (...) and axes (..., 3): (..., 2, 2)."""
    nx, ny, nz = (np.asarray(axes, dtype=float)[..., i, None, None] for i in range(3))
    axis_dot_sigma = nx * qmath.pauli("x") + ny * qmath.pauli("y") + nz * qmath.pauli("z")
    omega = np.asarray(omega, dtype=float)[..., None, None]
    return np.cos(omega) * qmath.identity(2) + (1j * np.sin(omega)) * axis_dot_sigma


def rotate_b(kets: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(I (x) u) psi for kets (B, ..., 4) and u (B, ..., 2, 2) on B: psi[a, b] -> psi u^T."""
    return (kets.reshape(kets.shape[:-1] + (2, 2)) @ np.swapaxes(u, -1, -2)).reshape(kets.shape)


@dataclass(frozen=True)
class ProtocolReport:
    """Energies and entropies of a block of B protocol runs, as per-case columns.

    ``e_a_closed`` is ``measurement.input_energy_closed`` and
    ``max_eb_closed`` is ``analytic.max_EB_closed`` of the weights, the
    closed form behind ``bound32_rhs``; ``c32`` and ``c770`` are
    ``analytic.bounds``, the coefficients of ``bound32_rhs`` and
    ``bound770_rhs``.  Every field is an array: (B,) numbers, (B, n, 5)
    ``per_outcome`` rows (probability, <H_A>, <H_B>, <V>, <H>) of each
    outcome's normalized post-feedback state, and (B, n, 2)
    ``reduced_eigenvalues``, the ascending eigenvalues of B's reduced
    post-measurement state per outcome, NaN where degenerate.
    """

    e_a: np.ndarray
    e_a_closed: np.ndarray
    e_b: np.ndarray
    total_final_energy: np.ndarray
    per_outcome: np.ndarray
    s_ground: np.ndarray
    delta_s: np.ndarray
    mutual_info: np.ndarray
    max_eb_closed: np.ndarray
    bound32_rhs: np.ndarray
    bound770_rhs: np.ndarray
    c32: np.ndarray
    c770: np.ndarray
    reduced_eigenvalues: np.ndarray


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


def _check_nonnegative(label: str, values: np.ndarray, scale, first: int) -> None:
    """Raise unless values >= -CROSS_CHECK_TOL * scale in every case of a (B,) array; NaN fails."""
    negative = np.flatnonzero(~(values >= -CROSS_CHECK_TOL * np.asarray(scale)))
    if negative.size:
        i = negative[0]
        raise RuntimeError(f"{label} in case {first + i}: {float(values[i])!r}")


def run_many(
    params: ParamsBlock, coeffs: np.ndarray, omega: np.ndarray, axes: np.ndarray
) -> ProtocolReport:
    """``run_block``'s columns for N cases, computed BLOCK cases at a time.

    ``coeffs`` is the coefficient block (N, n, 4) and (omega, axes) the
    policy table.  A failed internal identity (a bug, not a data error)
    raises ``RuntimeError`` naming the check and the case.
    """
    blocks = []
    for i in range(0, len(coeffs), BLOCK):
        block = measured_block(params[i : i + BLOCK], coeffs[i : i + BLOCK])
        blocks.append(run_block(block, omega[i : i + BLOCK], axes[i : i + BLOCK], i))
    return ProtocolReport(*map(np.concatenate, zip(*(vars(b).values() for b in blocks))))


@dataclass(frozen=True)
class MeasuredBlock:
    """A block of (params, meas) cases just after the measurement, as stacks.

    ``kets`` are the unnormalized M_A(mu)|g>, (B, n, 4), and ``p``, ``q`` the
    weights, (n, B), zero-padded to the block's largest outcome count; ``e_a``
    is the brute-force E_A and ``scale`` max(1, |E_A|, max |H|), both (B,).
    ``ent`` is the kets' ``entanglement.consumption_block`` report: Born's
    rule and the entropies, which every policy run on the block reads.
    """

    params: ParamsBlock
    coeffs: np.ndarray
    parts: HamiltonianParts
    ground: np.ndarray
    kets: np.ndarray
    p: np.ndarray
    q: np.ndarray
    e_a: np.ndarray
    scale: np.ndarray
    ent: entanglement.EntanglementReport


def measured_block(params: ParamsBlock, coeffs: np.ndarray) -> MeasuredBlock:
    """The ``MeasuredBlock`` of a ``ParamsBlock`` and a coefficient block (B, n, 4)."""
    parts = build_hamiltonian(params)
    g = ground_state(params)
    kets = (measurement.kraus_operators(coeffs) @ g[:, None, :, None])[..., 0]
    e_a = qmath.expectation(kets, parts.total[:, None]).sum(axis=-1)
    scale = np.maximum(1.0, np.maximum(np.abs(e_a), np.abs(parts.total).max(axis=(-2, -1))))
    p, q = measurement.weight_block(coeffs)
    ent = entanglement.consumption_block(g, kets)
    return MeasuredBlock(params, coeffs, parts, g, kets, p, q, e_a, scale, ent)


def optimal_table(params, p, q) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form maximizing policy of weights p, q (n, B): angles (B, n), axes (B, n, 3).

    Every axis is ``analytic.Y_AXIS`` and every angle ``analytic.max_over_omega``'s there.
    """
    omega = analytic.max_over_omega(params, p, q, analytic.Y_AXIS)[1].T
    return omega, np.broadcast_to(analytic.Y_AXIS, omega.shape + (3,))


def run_block(
    block: MeasuredBlock, omega: np.ndarray, axes: np.ndarray, first: int = 0
) -> ProtocolReport:
    """The ``ProtocolReport`` columns of rotating B by (omega, axes) after a ``MeasuredBlock``.

    Every cross-check of the run holds; ``first`` numbers the block's cases in errors.
    """
    params, parts, kets, e_a, scale = block.params, block.parts, block.kets, block.e_a, block.scale
    total = parts.total[:, None]  # against the outcome axis of the kets
    ent = block.ent
    prob = ent.probabilities  # Born's rule, 0 where an outcome is degenerate
    live = prob > 0.0

    phi = np.where(live[..., None], rotate_b(kets, rotations(omega, axes)), 0.0)  # fed back
    chi = phi / np.sqrt(np.where(live, prob, 1.0))[..., None]  # normalized
    local_ops = np.stack([parts.h_a, parts.h_b, parts.v], axis=1)
    local = qmath.expectation(chi[..., None, :], local_ops[:, None])  # (B, n, 3)
    # rho = sum_mu |phi_mu><phi_mu|, so Tr[rho O] sums <phi_mu|O|phi_mu>
    total_final = qmath.expectation(phi, total).sum(axis=-1)
    e_b = e_a - total_final
    e_b_local = -(prob * (local[..., 1] + local[..., 2])).sum(axis=-1)

    e_a_closed = measurement.input_energy_closed(params, block.coeffs)
    _check("E_A closed form", e_a, e_a_closed, scale, first)
    _check("E_B local form", e_b, e_b_local, scale, first)
    # outcomes along the leading axis, so the (B,) parameters broadcast behind them
    q_sum = analytic.Q_of(params, block.p, block.q, omega.T, tuple(axes.T)).sum(axis=0)
    _check("E_B per-outcome route", e_b, q_sum / params.eps, scale, first)
    _check_nonnegative("final energy violates H >= 0", total_final, scale, first)

    bound = analytic.bounds(params)
    max_eb = analytic.max_EB_closed(params, block.p, block.q)
    total_local = (local[..., 0] + local[..., 1] + local[..., 2])[..., None]
    per_outcome = np.concatenate([prob[..., None], local, total_local], axis=-1)
    return ProtocolReport(
        e_a, e_a_closed, e_b, total_final, per_outcome, ent.s_ground, ent.delta_s,
        ent.mutual_info, max_eb, bound.c32 * max_eb / params.eps, bound.c770 * ent.delta_s,
        bound.c32, bound.c770, ent.reduced_eigenvalues,
    )


def haar_turns(u: np.ndarray) -> np.ndarray:
    """Haar rotations of B (uniform over SU(2)) of uniforms u (N, 3): rows (omega, nx, ny, nz).

    Shoemake's quaternion, uniform on the 3-sphere for u in [0, 1); omega
    lies in [0, pi], and the identity gets the y axis.
    """
    a, b = np.sqrt(1.0 - u[:, :1]), np.sqrt(u[:, :1])
    turn_1, turn_2 = 2.0 * math.pi * u[:, 1:2], 2.0 * math.pi * u[:, 2:]
    vec = np.concatenate([a * np.sin(turn_1), b * np.sin(turn_2), b * np.cos(turn_2)], -1)
    norm = np.sqrt((vec * vec).sum(-1, keepdims=True))
    axes = np.where(norm > 0.0, vec / np.where(norm > 0.0, norm, 1.0), analytic.Y_AXIS)
    return np.concatenate([np.arctan2(norm, a * np.cos(turn_1)), axes], -1)


def evolve_series(
    params: ModelParams, meas: measurement.MeasurementModel, times
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """<H_B(t)> and <V(t)> in the freely evolving post-measurement ensemble.

    Returns the columns t, <H_B(t)> by brute force, <H_B(t)> in closed form
    and <V(t)>, each (T,), with no feedback applied.  The brute-force route
    propagates each post-measurement ket, ``measurement.kraus_operators`` of
    the rows on |g>, with the full Hamiltonian's eigendecomposition, BLOCK
    times at a time, in units of eps (not through ``measured_block``, whose
    E_A has an absolute residue budget); the closed form is

        <H_B(t)> = (h^2 / eps) sum(l^2) (1 - cos 4 k t),    <V(t)> = 0.

    Both identities are enforced to 1e-9 at every sample, and a NaN fails
    them; a phase that overflows raises ``FloatingPointError``.
    """
    parts = build_hamiltonian(params)
    g = ground_state(params)
    vals, vecs = qmath.hermitian_eig(parts.total)
    kets = (measurement.kraus_operators(meas.rows) @ g) @ vecs.conj()  # in the energy eigenbasis
    # in units of eps, so that expectation's imaginary-residue budget is relative
    ops = np.stack([parts.h_b, parts.v]) / params.eps
    amp = 0.5 * measurement.input_energy_closed(params, meas.rows)  # E_A / 2
    times = np.asarray(times, dtype=float)
    hb, closed, v = np.empty((3,) + times.shape)
    for first in range(0, len(times), BLOCK):
        part = slice(first, first + BLOCK)
        t = times[part]
        # a phase that overflows has no digits left: it raises FloatingPointError
        with np.errstate(over="raise", invalid="raise"):
            phases = np.exp(-1j * vals * t[:, None])
            closed[part] = amp * (1.0 - np.cos(4.0 * params.k * t))
        # back to the product basis after the phases: (times, outcomes, 4)
        evolved = (phases[:, None, :] * kets) @ vecs.T
        expect = params.eps * qmath.expectation(evolved[..., None, :], ops).sum(axis=1)
        hb[part], v[part] = expect.T
        scale = np.maximum(1.0, np.abs(closed[part]))
        for label, residual in (
            ("<H_B(t)> brute force - closed", hb[part] - closed[part]),
            ("<V(t)>", v[part]),
        ):
            bad = np.flatnonzero(~(np.abs(residual) <= 1e-9 * scale))  # NaN fails too
            if bad.size:
                i = bad[0]
                raise RuntimeError(f"{label} is {float(residual[i])!r} at t={float(t[i])}")
    return times, hb, closed, v
