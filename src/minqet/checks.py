"""The laboratory's named checks, in one table read by ``minqet verify`` and the acceptance tests.

``CHECKS`` lists every check in print order as (routine, {check name:
budget}, ensemble cap).  A routine with a cap draws random models and runs
as routine(seed, size): ``verify`` passes size = min(--ensemble, cap) and
skips it at --ensemble 0, while the acceptance tests pass their own larger
sizes.  A routine with cap None runs as routine().  A routine returns one
residual, or a {check name: residual} map if it owns several names; a check
passes when its residual is at most its budget.  Each claim is written here
once, so a check and its budget mean the same thing wherever they are run.

The random checks draw two streams: [seed, 2] for the eigensolver, and
[seed, 1] for one ensemble of model members that every other random check
scores.  Member i is row i of one matrix of uniforms (``draw_members``),
whatever the blocking.  The ensemble scores ``ENSEMBLE_BLOCK`` (256) members
at a time, so the fixed NumPy-call costs are paid per block, each once: one
``draw_block`` and one ``check_block`` of its POVM residuals, one
``measured_block``, one ``turn_gains`` of Bob's turn gains D and one
``best_turns`` of it, and one ``run_block`` on the turns it solves.  D gives
each member's exact maximum over policies, whose turns the run replays by
brute force, the energy w^T (sum_mu D_mu) w of its outcome-blind turn w, next
to the most any such turn extracts, and each step of the closed maximization
chain (omega, then the axis, then z) at one outcome.  Each residual is its
member's own, so the block size changes no bit.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict

import numpy as np

from . import analytic, measurement, model, protocol, qmath
from .model import ModelParams, ParamsBlock, params_row

PAIR_GRID = [(hh, kk) for hh in (0.5, 1.0, 2.0) for kk in (0.5, 1.0, 2.0)]
_PAIR_ROWS = [params_row(h, k) for h, k in PAIR_GRID]
# ensemble members drawn and scored per block: the checks' fixed NumPy-call
# costs are paid per block, while its arrays stay bounded whatever the size
ENSEMBLE_BLOCK = 256
# the largest ``maximum_gap`` of an eigen maximum to its closed value, in the CLI and in
# optimizer-vs-closed.  The worst gaps measured at scales 1e-150, 1 and 1e150: 3.8e-15
# to ``max_EB_closed`` over weak_pair(u), u from 1e-8 to 1 and h/k from 1e-8 to 1e8, and
# 4.5e-15 of the weights maximum (n = 2-24) to ``projective_limit``, h/k 1e-14 to 1e14
OPTIMIZER_BUDGET = 1e-11


def _worst(*residuals) -> float:
    """The largest value of residual arrays or floats, NaN if any of them holds a NaN."""
    values = [float(np.max(r)) for r in residuals]
    return math.nan if any(map(math.isnan, values)) else max(values)


def draw_members(seed: int, members: range) -> tuple:
    """Ensemble members as blocks: params, coefficients, and the spot checks' outcome and turn.

    Member i is row i of a matrix of uniforms from stream [seed, 1], 18 per
    member, so it depends on (seed, i) alone: h and k log-uniform on [0.25,
    4) (PAIR_GRID every third member), 6 exponentials for Dirichlet p, 6 raw
    u in [-1, 1), the outcome and the ``protocol.haar_turns`` turn.  Member
    i has n = 2 + i % 5 outcomes.  Where i % 4 = 0 and n is even it is saturated: p comes in
    equal pairs and u is +-1, so ``balance_weights`` returns q = +-p exactly.
    Returns a ``ParamsBlock`` of ``params_row`` rows, the coefficient block (N, 6, 4)
    with its POVM residuals from one ``check_block``, the (N,) outcomes and (N, 4) turns,
    each a unit 4-vector that the checks apply at every outcome.
    """
    rng = np.random.default_rng([seed, 1])
    rng.bit_generator.advance(18 * members.start)  # one output per double
    u = rng.random((len(members), 18))
    i = np.arange(members.start, members.stop)
    n = 2 + i % 5
    grid = np.array(PAIR_GRID)[(i // 3) % len(PAIR_GRID)]
    hk = np.where((i % 3 == 0)[:, None], grid, np.exp(math.log(0.25) + math.log(16.0) * u[:, :2]))
    rows = [params_row(h, k) for h, k in hk.tolist()]
    saturated = ((i % 4 == 0) & (n % 2 == 0))[:, None]
    e = -np.log1p(-u[:, 2:8])  # -log(1 - u): 0 at u = 0, where -log(u) is inf
    e = np.where(np.arange(6) < n[:, None], np.where(saturated, e[:, [0, 0, 1, 1, 2, 2]], e), 0.0)
    raw_u = np.where(saturated, np.resize((1.0, -1.0), 6), 2.0 * u[:, 8:14] - 1.0)
    coeffs = measurement.draw_block(e / e.sum(axis=1, keepdims=True), raw_u, n)
    outcomes = np.floor(u[:, 14] * n).astype(int)
    povm = measurement.check_block(coeffs)
    return ParamsBlock.of_rows(rows), coeffs, povm, outcomes, protocol.haar_turns(u[:, 15:])


def block_residuals(block, coeffs, povm, outcomes, turns, first: int = 0) -> dict[str, list]:
    """The ensemble checks' residuals over one block of ``draw_members``, from member ``first``.

    Each name maps to a list of residual arrays (or floats) whose maximum is the check's value.
    """
    measured = protocol.measured_block(block, coeffs)
    # Bob's turn gains D, solved for each member's maximum over policies and the turns run
    gains = protocol.turn_gains(block, coeffs)
    best, solved = protocol.best_turns(gains, measured.p, first)
    run = protocol.run_block(measured, solved, first)
    parts, kets = measured.parts, measured.kets
    found: dict[str, list] = {"measurement-completeness": list(povm.values())}
    # <H_B> and <V> of the post-measurement state sum over its kets: (B, 2)
    passive = qmath.expectation(kets[..., None, :], np.stack([parts.h_b, parts.v], 1)[:, None])
    found["post-measurement-passivity"] = [np.abs(passive.sum(axis=1))]

    max_eb, delta_s, rhs32 = run.max_eb_closed, run.delta_s, run.bound32_rhs
    delta_closed = analytic.delta_S_closed(block, measured.p, measured.q)
    found["input-energy"] = [np.abs(run.e_a - run.e_a_closed)]
    found["teleported-energy-routes"] = [np.abs(run.e_b - max_eb)]
    found["optimizer-vs-closed"] = [maximum_gap(best, max_eb)]
    found["entanglement-consumption"] = [np.abs(delta_s - delta_closed)]
    found["mutual-information"] = [np.abs(run.mutual_info - delta_s)]
    found["entanglement-nonnegative"] = [-delta_s]
    # each inequality on the brute-force delta_S and on the closed forms alone
    # (bound32_rhs is c32 maxE_B / eps from the closed maximum)
    found["bound-32"] = [rhs32 - delta_s, rhs32 - delta_closed]
    found["bound-770"] = [run.bound770_rhs - max_eb, run.c770 * delta_closed - max_eb]
    # its equality case, on the members whose every outcome has |q| = p (0 elsewhere)
    saturated = (np.abs(measured.q) == measured.p).all(axis=0)
    found["bound-770-equality"] = [
        np.where(saturated, np.abs(max_eb - rhs) / np.maximum(max_eb, 1e-12), 0.0)
        for rhs in (run.bound770_rhs, run.c770 * delta_closed)
    ]
    # B's reduced eigenvalues (lambda_-, lambda_+) by brute force, (n, B, 2); NaN where
    # an outcome is degenerate or padding
    brute = np.swapaxes(run.reduced_eigenvalues, 0, 1)
    live = ~np.isnan(brute[..., 0])
    lam_plus, lam_minus = analytic.lambda_pm(
        block, np.where(live, measured.p, 1.0), np.where(live, measured.q, 0.0)
    )
    found["reduced-eigenvalues"] = [np.abs(brute - np.stack([lam_minus, lam_plus], -1))[live]]

    # each member's turn w at every outcome extracts w^T (sum_mu D_mu) w: minus the direct
    # routes <Wg|H_B + V|Wg> and <Wg|H|Wg>, and sum Q / eps; it is <= 0, as is the most any
    # outcome-blind turn extracts, lambda_max(sum_mu D_mu)
    summed = gains.sum(axis=1)
    blind = np.einsum("bi,bij,bj->b", turns, summed, turns)
    wg = protocol.rotate_b(measured.ground, protocol.rotations(turns))
    local, total = (qmath.expectation(wg, op) for op in (parts.h_b + parts.v, parts.total))
    q_sum = analytic.Q_of(block, measured.p, measured.q, turns.T).sum(axis=0)
    routes = (np.abs(local - total), np.abs(blind + local), np.abs(blind - q_sum / block.eps))
    exact = protocol.best_turns(summed[:, None], 1.0, first)[0]  # one outcome of weight 1
    found["no-go-passive"] = [blind, *routes, exact]

    # the maximization chain on one random outcome and the unit axis n of the member's turn,
    # against that outcome's D: a = (cos omega, sin omega n) takes a^T D a = Q / eps, so the
    # omega maximum on n is eps lambda_max on span{1, n}, X(n) = -(eps/2) n^T D n, and T
    # peaks at z = 0 as D's {1, sigma_y} block beats its {sigma_x, sigma_z} block (indices
    # 0-3 are 1, sigma_x, sigma_y, sigma_z; these forms read the entries between the two
    # blocks as 0, which ``best_turns`` held them to)
    p, q = (x[outcomes, np.arange(len(outcomes))] for x in (measured.p, measured.q))
    d, n = gains[np.arange(len(outcomes)), outcomes], protocol.turn_policy(turns)[1]
    axis = tuple(n.T)
    closed_max, omega_star = analytic.max_over_omega(block, p, q, axis)
    x_coef = analytic.X_of(block, p, q, axis)
    g_coef = block.h * block.k * q * axis[1]
    spin = np.einsum("bi,bij,bj->b", n, d[:, 1:, 1:], n)
    top, theta = protocol.top_eigen(d[:, 0, 0], spin, (d[:, 0, 1:] * n).sum(axis=1))
    # relative to the maximum itself, so an error in a small Q shows,
    # floored at the rounding level of Q's parts (Q's maximum is 0 at q = 0)
    value_scale = np.maximum(closed_max, sys.float_info.epsilon * (abs(x_coef) + abs(g_coef)))
    off = (theta - omega_star) % math.pi  # a turn is a ray: omega and omega + pi are one
    a_star = protocol.turn_vectors(omega_star, n).T  # the turn of the maximum
    found["omega-maximum"] = [
        abs(block.eps * top - closed_max) / value_scale,
        abs(analytic.Q_of(block, p, q, a_star) - closed_max) / value_scale,
        np.minimum(off, math.pi - off),
    ]

    scale = np.maximum(1.0, abs(x_coef) + abs(g_coef))
    z = np.array([[0.0], [0.37], [1.0]])
    # the most n^T D n over the axes (sqrt(z) cos psi, sqrt(1 - z), sqrt(z) sin psi)
    top_xz = protocol.top_eigen(d[:, 1, 1], d[:, 3, 3], d[:, 1, 3])[0]
    spin_z = (1.0 - z) * d[:, 2, 2] + z * top_xz
    x_min = analytic.min_X_over_psi(block, p, q, z)
    found["axis-minimum"] = [abs(x_min + 0.5 * block.eps * spin_z) / scale]

    # T(z) / eps is the most a^T D a over those axes' spans with 1: at z = 0 the {1, sigma_y}
    # block's, which wins unless the {sigma_x, sigma_z} block's tops it; T(0) also meets
    # eps p f_E((q/p)^2), which reaches it through the sigma angles
    envelope = protocol.top_eigen(d[:, 0, 0], spin_z, np.sqrt(1.0 - z) * d[:, 0, 2])[0]
    t_closed = analytic.T_profile(block, p, q, z)
    a, _, _ = analytic.abc_constants(block, p, q)
    kernel = analytic.f_E(block, (q / np.where(p > 0.0, p, 1.0)) ** 2)
    peak_scale = np.maximum(1.0, a)
    found["envelope-peak"] = [
        abs(t_closed[0] - block.eps * p * kernel) / peak_scale,
        abs(t_closed - block.eps * envelope) / peak_scale,
        np.maximum(top_xz - envelope[0], 0.0) * block.eps / peak_scale,
    ]
    return found


def ensemble_residuals(seed: int, size: int) -> dict[str, float]:
    """Random measurements drawn and scored one block of ENSEMBLE_BLOCK members at a time.

    Returns each check's maximum residual over all `size` members.
    """
    worst: defaultdict[str, float] = defaultdict(float)
    for first in range(0, size, ENSEMBLE_BLOCK):
        members = draw_members(seed, range(first, min(size, first + ENSEMBLE_BLOCK)))
        for name, residuals in block_residuals(*members, first).items():
            worst[name] = _worst(worst[name], *residuals)
    return worst


def _check_eigensolver(seed: int, size: int) -> float:
    # matrix i is drawn as its 16 real parts, then its 16 imaginary parts
    raw = np.random.default_rng([seed, 2]).normal(size=(size, 2, 4, 4))
    raw = raw[:, 0] + 1j * raw[:, 1]
    a = raw + np.swapaxes(raw, -1, -2).conj()
    vals, vecs = qmath.hermitian_eig(a)
    vecs_dag = np.swapaxes(vecs, -1, -2).conj()
    recon = (vecs * vals[:, None, :]) @ vecs_dag
    # LAPACK-free oracle on the 2x2 blocks: tr/2 -+ hypot((a-d)/2, |b|)
    vals2, _ = qmath.hermitian_eig(a[:, :2, :2])
    mid, half = 0.5 * (a[:, 0, 0] + a[:, 1, 1]).real, 0.5 * (a[:, 0, 0] - a[:, 1, 1]).real
    radius = np.hypot(half, abs(a[:, 0, 1]))
    oracle = np.stack([mid - radius, mid + radius], axis=-1)
    worst = _worst(np.abs(recon - a), np.abs(vecs_dag @ vecs - np.eye(4)), np.abs(vals2 - oracle))
    if not np.all(np.diff(vals, axis=-1) >= -1e-12):
        worst = _worst(worst, 1.0)
    return worst


def _check_ground_state() -> float:
    """20x20 log grid over [0.1, 10]^2: H|g> = 0, zero part-wise energies, closed spectrum."""
    grid = np.geomspace(0.1, 10.0, 20).tolist()
    block = ParamsBlock.of_rows([params_row(h, k) for h in grid for k in grid])
    parts = model.build_hamiltonian(block)
    g = model.ground_state(block)
    vals, _ = qmath.hermitian_eig(parts.total)
    residuals = [np.linalg.norm((parts.total @ g[..., None])[..., 0], axis=-1)]
    for op in (parts.h_a, parts.h_b, parts.v):
        residuals.append(np.abs(qmath.expectation(g, op)))
    # the ground energy itself is held to a tenth of the budget
    residuals.append(10.0 * np.abs(vals[:, 0]))
    closed = model.spectrum_closed(block)
    residuals.append(np.abs(vals - closed).max(axis=-1))
    # absolute, and relative to the spectrum's width 4 eps where that is below 1
    scale = np.minimum(1.0, 4.0 * block.eps)
    return _worst(*(r / scale for r in residuals))


def maximum_gap(found, closed):
    """|found - closed| relative to the closed value, absolute where that value is 0."""
    return np.abs(found - closed) / np.where(closed != 0.0, np.abs(closed), 1.0)


def _check_time_evolution() -> float:
    """<H_B(t)> on its closed curve and <V(t)> = 0 over half a period; the peak is E_A."""
    worst = 0.0
    cases = [
        (ModelParams(1.0, 1.0), measurement.projective_pair()),
        (ModelParams(2.0, 0.5), measurement.weak_pair(0.3)),
        (ModelParams(2.0, 0.5), measurement.weak_pair(0.5)),
    ]
    for params, meas in cases:
        t_peak = math.pi / (4.0 * params.k)
        times = np.append(np.linspace(0.0, 2.0 * t_peak, 256), t_peak)
        _, hb, closed, v = protocol.evolve_series(params, meas, times)
        e_a = measurement.input_energy_closed(params, meas.rows)
        worst = _worst(worst, np.abs(hb - closed), np.abs(v), abs(hb[-1] - e_a))
    return worst


def _check_kernel_shape() -> float:
    """fbar_E(x) <= x <= fbar_I(x) on a 1024-point grid of x, at every PAIR_GRID point."""
    block = ParamsBlock.of_rows(_PAIR_ROWS)
    x = np.linspace(0.0, 1.0, 1024)[:, None]
    below = analytic.rescaled_f_E(block, x) - x
    above = x - analytic.rescaled_f_I(block, x)
    return _worst(below, above)


def _check_weak_limit() -> float:
    """The weak-limit ratio tends to c32: strictly, and inside a quadratic envelope."""
    block = ParamsBlock.of_rows(_PAIR_ROWS)
    u = np.array([1e-1, 1e-2, 1e-3])[:, None]
    errs = np.abs(analytic.weak_limit_ratio(block, u) / analytic.bounds(block).c32 - 1.0)
    curvature = 2.0 * errs[0] / 1e-2
    worst = _worst(0.0, errs - curvature * u * u)
    if not np.all((errs[0] > errs[1]) & (errs[1] > errs[2])):
        worst = _worst(worst, 1.0)
    return worst


def _check_integrity() -> float:
    builtins = (
        measurement.projective_pair(),
        measurement.weak_pair(0.5),
        measurement.identity_measurement(),
    )
    residuals = measurement.check_block(measurement.coefficient_block(builtins))
    return _worst(*residuals.values())


CHECKS = (
    (_check_integrity, {"builtin-measurement-integrity": 1e-12}, None),
    (_check_ground_state, {"ground-state": 1e-9}, None),
    (_check_time_evolution, {"time-evolution": 1e-9}, None),
    (_check_kernel_shape, {"kernel-shape": 1e-12}, None),
    (_check_weak_limit, {"weak-limit": 0.0}, None),
    (
        ensemble_residuals,
        {
            "measurement-completeness": 1e-12,
            "input-energy": 1e-10,
            "post-measurement-passivity": 1e-10,
            "teleported-energy-routes": 1e-10,
            "entanglement-consumption": 1e-10,
            "reduced-eigenvalues": 1e-10,
            "mutual-information": 1e-10,
            "entanglement-nonnegative": 1e-12,
            "bound-32": 1e-10,
            "bound-770": 1e-10,
            "bound-770-equality": 1e-9,
            "omega-maximum": 1e-9,
            "axis-minimum": 1e-9,
            "envelope-peak": 1e-9,
            "no-go-passive": 1e-10,
            "optimizer-vs-closed": OPTIMIZER_BUDGET,
        },
        math.inf,
    ),
    (_check_eigensolver, {"eigensolver-reconstruction": 1e-12}, 200),
)
