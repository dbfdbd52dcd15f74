"""The full teleportation round: measure A, communicate, rotate B.

The protocol state after feedback is

    rho = sum_mu U_B(mu) M_A(mu) |g><g| M_A(mu)^dag U_B(mu)^dag

where each U_B(mu) = cos(omega) + i sin(omega) n . sigma_B is a local
rotation of qubit B chosen per outcome.  The energy the measurement pumps
in is E_A = sum_mu <g| M^dag H M |g>; the energy extracted at B is
E_B = E_A - Tr[rho H] = -Tr[rho (H_B + V)].

A policy is a table: angles omega (N, n) and axes (N, n, 3), one row per
case, such as ``optimal_table``'s.  A turn is also a unit 4-vector
a = (cos omega, sin omega n), and ``turn_policy`` is the one reading of such
vectors as a table.  Every run starts from ``measured_block`` on a
``ParamsBlock`` and a coefficient block (N, n, 4): the kets M_A(mu)|g>
(``measurement.measured_kets``) as one (N, n, 4) array, zero-padded to the
largest outcome count, with the weights in the closed forms' (n, N) layout.
``run_block`` rotates B by a policy table and returns per-case columns, and
``run_many`` computes them BLOCK cases at a time; ``evolve_series`` computes
its (T,) columns BLOCK times at a time.  One case is a block of one, and an
outcome-blind rotation W of B, such as a ``haar_turns`` row, is the policy
that applies W at every outcome.  Each rotation acts as a 2x2 block on the ket
read as an (a, b) matrix, and every energy is a stacked ``qmath.expectation``:
Tr[rho O] is its sum over the kets of rho.  Born's rule is
``entanglement.consumption_block``'s, computed once per ``MeasuredBlock``.
``turn_gains`` gives each outcome's 4x4 matrix D of Bob's turns: a turn a at
outcome mu extracts a^T D_mu a, whose maximum and best turns ``best_turns``
solves for, and one turn w at every outcome extracts w^T (sum_mu D_mu) w.
``minqet sweep`` and ``minqet verify`` run the best turns, and ``minqet
report`` runs ``optimal_table``'s closed-form ones.

Every run cross-checks its own arithmetic: E_A must match its closed form,
E_B by Tr[rho H] the per-outcome rows' sum of prob (<H_B> + <V>) and the
scalar route (sum of Q / eps), and the final energy must respect H >= 0.
A failed check is a bug, not a data error: ``_check``, the one judge, raises
RuntimeError naming the check, the case, its residual and its budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, entanglement, measurement, qmath
from .model import HamiltonianParts, ModelParams, ParamsBlock, build_hamiltonian, ground_state

CROSS_CHECK_TOL = 1e-10
# cases (or times) per block of the batched routes, which bounds their arrays
# whatever the number of cases: test_batch_working_memory_is_bounded holds a
# 1000-case run_many's working memory under 1 MB (~0.77 MB at 128, ~1.4 MB at 256)
BLOCK = 128


def rotations(omega, axes) -> np.ndarray:
    """cos(omega) + i sin(omega) n . sigma for angles (...) and axes (..., 3): (..., 2, 2)."""
    nx, ny, nz = (np.asarray(axes, dtype=float)[..., i, None, None] for i in range(3))
    axis_dot_sigma = nx * qmath.pauli("x") + ny * qmath.pauli("y") + nz * qmath.pauli("z")
    omega = np.asarray(omega, dtype=float)[..., None, None]
    return np.cos(omega) * qmath.pauli("i") + (1j * np.sin(omega)) * axis_dot_sigma


def rotate_b(kets: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(I (x) u) psi for kets (B, ..., 4) and u (B, ..., 2, 2) on B: psi[a, b] -> psi u^T.

    Written out over the two columns of psi, as ``@`` would hand BLAS one 2x2 at a time.
    """
    psi = kets.reshape(kets.shape[:-1] + (2, 2))
    turned = psi[..., :, None, 0] * u[..., None, :, 0] + psi[..., :, None, 1] * u[..., None, :, 1]
    return turned.reshape(kets.shape)


def turn_policy(turns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The angles (...) and axes (..., 3) of turns a = (cos omega, sin omega n), unit (..., 4).

    omega = atan2(|a_vec|, a_0) about n = a_vec / |a_vec|; a turn with a_vec = 0 gets
    ``analytic.Y_AXIS``.
    """
    sin_omega = np.sqrt((turns[..., 1:] * turns[..., 1:]).sum(axis=-1, keepdims=True))
    turning = sin_omega > 0.0
    axes = np.where(turning, turns[..., 1:] / np.where(turning, sin_omega, 1.0), analytic.Y_AXIS)
    return np.arctan2(sin_omega[..., 0], turns[..., 0]), axes


# XX (1 x i sigma_a) XX = s_a (1 x i sigma_a) for a = (1, x, y, z); an entry (a, b) of D
# is flipped where s_a s_b = -1
_XX_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_FLIPPED = (np.outer(_XX_SIGNS, _XX_SIGNS) < 0.0).ravel()


@functools.cache
def gain_maps() -> np.ndarray:
    """The real (32, 64) map from [Re, Im] of u^* (x) u to Re<u|A_ab|u> and Re<u|A_ab|XX u>.

    A turn is U = sum_a a_a B_a with B = (1, i sigma_x, i sigma_y, i sigma_z) on B, so
    <U phi|O|U phi> = sum_ab a_a a_b <phi|B_a^dag O B_b|phi>.  A_ab is the Hermitian part
    of O_ab = delta_ab O - B_a^dag O B_b, and Re<u|M|u> = sum_ij Re M_ij Re(u_i^* u_j) -
    Im M_ij Im(u_i^* u_j) reads each 16 columns: M = A_ab for Z_B and for 2 XX, then
    M = A_ab XX for both.  Built on first use, since only the eigen route reads it.
    """
    turns = [qmath.pauli("i")] + [1j * qmath.pauli(axis) for axis in "xyz"]
    b = np.stack([qmath.tensor(qmath.pauli("i"), turn) for turn in turns])
    herms = []
    for op in (qmath.Z_B, 2.0 * qmath.XX):
        o_ab = np.eye(4)[:, :, None, None] * op - np.einsum("aji,jk,bkl->abil", b.conj(), op, b)
        herms.append(0.5 * (o_ab + np.swapaxes(o_ab, 0, 1)))
    columns = []
    for right in (np.eye(4), qmath.XX):
        for herm in herms:
            m = (herm @ right).reshape(16, 16)
            columns.append(np.concatenate([m.real.T, -m.imag.T]))
    maps = np.concatenate(columns, axis=1)
    maps.setflags(write=False)
    return maps


def turn_gains(params: ParamsBlock, coeffs: np.ndarray) -> np.ndarray:
    """Each outcome's D, (B, n, 4, 4) of a coefficient block (B, n, 4): a turn a takes a^T D a.

    Bob's turn U = cos(omega) + i sin(omega) n . sigma on B is the unit 4-vector
    a = (cos omega, sin omega n).  With O = h Z_B + 2 k XX (H_A commutes with U, and the
    identity offsets cancel), the energy the turn extracts from phi = M_A(mu)|g> is
    <phi|O|phi> - <U phi|O|U phi> = a^T D a, D_ab = Re <phi|delta_ab O - B_a^dag O B_b|phi>.

    D is read from the kets u = M_A(mu)|++> through ``gain_maps``, not from phi itself.
    |g> = g0|++> + g3|--> with g0^2 = (1 - cos sigma)/2, g3^2 = (1 + cos sigma)/2 and
    2 g0 g3 = -sin sigma, and M_A(mu) commutes with XX, so phi = g0 u + g3 XX u and
    D = g0^2 D[u] + g3^2 D[XX u] - sin sigma D[u, XX u].  XX O_ab(h, k) XX is
    s_a s_b O_ab(-h, k), so the first two terms are D[u]'s entries times 1 or
    -cos sigma, exactly.  h/eps thus enters as a factor, never as the difference
    g0^2 - g3^2 of two numbers near 1/2 that phi's own entries would give.
    """
    u = measurement.measured_kets(np.eye(4)[0], coeffs)
    own = (u.conj()[..., :, None] * u[..., None, :]).reshape(u.shape[:-1] + (16,))
    d = np.concatenate([own.real, own.imag], axis=-1) @ gain_maps()
    h, k, _, cos, sin = (np.asarray(x)[:, None, None] for x in vars(params).values())
    z_part = np.where(_FLIPPED, 1.0, -cos) * d[..., :16] - sin * d[..., 32:48]
    xx_part = np.where(_FLIPPED, -cos, 1.0) * d[..., 16:32] - sin * d[..., 48:]
    return (h * z_part + k * xx_part).reshape(u.shape + (4,))


def top_eigen(x, z, b) -> tuple:
    """lambda_max and the eigenvector angle theta of [[x, b], [b, z]], element by element.

    lambda_max = mid + hypot(half, b) with mid = (x + z)/2 and half = (x - z)/2, or
    det / L = x (z / L) - b (b / L), L = mid - hypot, where mid < 0 and the sum cancels (no
    product of two entries, so no overflow); the eigenvector is (cos theta, sin theta),
    theta = atan2(b, half) / 2 in (-pi/2, pi/2].
    """
    mid, half = 0.5 * (x + z), 0.5 * (x - z)
    radius = np.hypot(half, b)
    low = np.where(mid < 0.0, mid - radius, 1.0)  # negative where mid + radius cancels
    top = np.where(low < 0.0, x * (z / low) - b * (b / low), mid + radius)
    return top, 0.5 * np.arctan2(b, half)


def best_turns(gains: np.ndarray, p, first: int) -> tuple:
    """The summed maximum of a^T D a over each outcome's turn a of a gains block, and the turns.

    ``gains`` is a (B, n, 4, 4) block of ``turn_gains``' D and ``p`` the weights
    (n, B), or a value that broadcasts to them: sum_mu D_mu is one outcome of weight 1.
    Each outcome with p > DEGENERATE_PROB turns; the others keep the identity and add 0.
    D splits into a {1, sigma_y} block (rows 0, 2) and a {sigma_x, sigma_z} block (rows
    1, 3), since the Kraus operators commute with O and D depends on an outcome only
    through p + q sigma_x^A; ``_check`` holds the entries between them to
    CROSS_CHECK_TOL max |D| per case, numbered from ``first``.  Each block is solved by
    ``top_eigen``, and its eigenvector is (cos theta, sin theta).  The larger lambda_max wins,
    and an exact tie goes to the {1, sigma_y} block: the turn is a = (cos theta, 0, sin
    theta, 0), about the y axis with a_0 >= 0, or a = (0, cos theta, 0, sin theta), a half
    turn about an axis in the x-z plane.  At |q| = p both blocks share one lambda_max in
    exact arithmetic and the best turns form a family: the turn is that of the block whose
    value rounds larger.  Returns the values summed in outcome order (B,) and the turns
    (B, n, 4).
    """
    live = (np.asarray(p) > measurement.DEGENERATE_PROB).T  # (B, n)
    magnitude = np.abs(gains)
    # rows (0, 2) with columns (1, 3), and back: the entries between the two blocks
    cross = np.maximum(magnitude[..., ::2, 1::2], magnitude[..., 1::2, ::2])
    budget = CROSS_CHECK_TOL * magnitude.max(axis=(-3, -2, -1))
    _check("D couples its two blocks", cross.max(axis=(-3, -2, -1)), budget, first)
    # the two blocks side by side, {1, sigma_y} first: (B, n, 2)
    diagonal = np.diagonal(gains, axis1=-2, axis2=-1)
    pair, angle = top_eigen(diagonal[..., :2], diagonal[..., 2:], gains[..., [0, 1], [2, 3]])
    xz_wins = pair[..., 1] > pair[..., 0]
    top = np.where(live, np.where(xz_wins, pair[..., 1], pair[..., 0]), 0.0)
    # the winner's (cos theta, sin theta) as turn[k, j] = a_{2k + j}, block j = 0 or 1
    winner = np.stack([~xz_wins, xz_wins], axis=-1)[..., None, :]
    turn = (np.stack([np.cos(angle), np.sin(angle)], axis=-2) * winner).reshape(gains.shape[:-1])
    turn = np.where(live[..., None], turn, (1.0, 0.0, 0.0, 0.0))
    return np.add.accumulate(top, axis=1)[:, -1], turn


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


def _check(label: str, residual, budget, first: int = 0) -> None:
    """Raise RuntimeError unless residual <= budget in every case; a NaN fails.

    Floats or (B,) arrays; the message names the label, the case ``first + i``
    (``first`` numbers the block's first case), the residual and the budget.
    """
    passed = np.less_equal(residual, budget)
    if not passed.all():
        i = int(np.argmin(passed))
        residual, budget = (np.broadcast_to(x, passed.shape).flat[i] for x in (residual, budget))
        raise RuntimeError(
            f"internal cross-check failed: {label} in case {first + i} "
            f"(residual {float(residual)!r}, budget {float(budget):g})"
        )


def run_many(
    params: ParamsBlock, coeffs: np.ndarray, omega: np.ndarray, axes: np.ndarray
) -> ProtocolReport:
    """``run_block``'s columns for N cases, computed BLOCK cases at a time.

    ``coeffs`` is the coefficient block (N, n, 4) and (omega, axes) the
    policy table.  A failed internal identity (a bug, not a data error)
    raises ``_check``'s ``RuntimeError``.
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
    kets = measurement.measured_kets(g, coeffs)
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
    params, parts, e_a, ent = block.params, block.parts, block.e_a, block.ent
    e_a_closed = measurement.input_energy_closed(params, block.coeffs)
    budget = CROSS_CHECK_TOL * block.scale
    _check("E_A closed form differs", np.abs(e_a - e_a_closed), budget, first)

    prob = ent.probabilities  # Born's rule, 0 where degenerate
    live = prob > 0.0
    phi = np.where(live[..., None], rotate_b(block.kets, rotations(omega, axes)), 0.0)  # fed back
    chi = phi[..., None, :] / np.sqrt(np.where(live, prob, 1.0))[..., None, None]  # normalized
    # each outcome's <H_A>, <H_B> and <V> on its normalized post-feedback state: (B, n, 3)
    local = qmath.expectation(chi, np.stack([parts.h_a, parts.h_b, parts.v], 1)[:, None])
    # rho = sum_mu |phi_mu><phi_mu|, so Tr[rho O] sums <phi_mu|O|phi_mu>
    total_final = qmath.expectation(phi, parts.total[:, None]).sum(axis=-1)
    e_b = e_a - total_final
    e_b_local = -(prob * (local[..., 1] + local[..., 2])).sum(axis=-1)
    _check("E_B local form differs", np.abs(e_b - e_b_local), budget, first)
    # outcomes along the leading axis, so the (B,) parameters broadcast behind them
    q_sum = analytic.Q_of(params, block.p, block.q, omega.T, tuple(axes.T)).sum(axis=0)
    _check("E_B per-outcome route differs", np.abs(e_b - q_sum / params.eps), budget, first)
    _check("final energy violates H >= 0", -total_final, budget, first)

    bound = analytic.bounds(params)
    max_eb = analytic.max_EB_closed(params, block.p, block.q)
    per_outcome = np.concatenate([prob[..., None], local, local.sum(-1, keepdims=True)], -1)
    return ProtocolReport(
        e_a, e_a_closed, e_b, total_final, per_outcome, ent.s_ground, ent.delta_s,
        ent.mutual_info, max_eb, bound.c32 * max_eb / params.eps, bound.c770 * ent.delta_s,
        bound.c32, bound.c770, ent.reduced_eigenvalues,
    )


def haar_turns(u: np.ndarray) -> np.ndarray:
    """Haar rotations of B (uniform over SU(2)) of uniforms u (N, 3): rows (omega, nx, ny, nz).

    Shoemake's quaternion, uniform on the 3-sphere for u in [0, 1), as ``turn_policy``
    reads it: omega lies in [0, pi], and the identity gets the y axis.
    """
    a, b = np.sqrt(1.0 - u[:, :1]), np.sqrt(u[:, :1])
    turn_1, turn_2 = 2.0 * math.pi * u[:, 1:2], 2.0 * math.pi * u[:, 2:]
    quaternion = [a * np.cos(turn_1), a * np.sin(turn_1), b * np.sin(turn_2), b * np.cos(turn_2)]
    omega, axes = turn_policy(np.concatenate(quaternion, -1))
    return np.concatenate([omega[:, None], axes], -1)


def evolve_series(
    params: ModelParams, meas: measurement.MeasurementModel, times
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """<H_B(t)> and <V(t)> in the freely evolving post-measurement ensemble.

    Returns the columns t, <H_B(t)> by brute force, <H_B(t)> in closed form
    and <V(t)>, each (T,), with no feedback applied.  The brute-force route
    propagates each post-measurement ket, ``measurement.measured_kets`` of
    the rows on |g>, with the full Hamiltonian's eigendecomposition, BLOCK
    times at a time, in units of eps (not through ``measured_block``, whose
    E_A has an absolute residue budget); the closed form is

        <H_B(t)> = (h^2 / eps) sum(l^2) (1 - cos 4 k t),    <V(t)> = 0.

    ``_check`` holds both to 1e-9 max(1, |closed|) at sample i (a NaN fails);
    a phase that overflows raises ``FloatingPointError``.
    """
    parts = build_hamiltonian(params)
    g = ground_state(params)
    vals, vecs = qmath.hermitian_eig(parts.total)
    kets = measurement.measured_kets(g, meas.rows) @ vecs.conj()  # in the energy eigenbasis
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
        budget = 1e-9 * np.maximum(1.0, np.abs(closed[part]))
        _check("<H_B(t)> closed form differs", np.abs(hb[part] - closed[part]), budget, first)
        _check("<V(t)> differs from 0", np.abs(v[part]), budget, first)
    return times, hb, closed, v
