"""The laboratory's named checks, in one table read by ``minqet verify`` and the acceptance tests.

``CHECKS`` lists every check in print order as (routine, {check name:
budget}, ensemble cap).  A routine with a cap draws random models and runs
as routine(seed, size): ``verify`` passes size = min(--ensemble, cap) and
skips it at --ensemble 0, while the acceptance tests pass their own larger
sizes.  A routine with cap None runs as routine().  A routine returns one
residual, or a {check name: residual} map if it owns several names; a check
passes when its residual is at most its budget.  Each claim is written here
once, so a check and its budget mean the same thing wherever they are run.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict

import numpy as np

from . import analytic, entanglement, measurement, model, optimizer, protocol, qmath
from .model import ModelParams, ParamsBlock

PAIR_GRID = [(hh, kk) for hh in (0.5, 1.0, 2.0) for kk in (0.5, 1.0, 2.0)]


def _golden_max(fun, lo, hi, iters: int = 80):
    """Golden-section maxima of smooth unimodal functions, one per element of lo, hi.

    ``fun`` maps an array of points to an array of values; every bracket
    shrinks in lockstep, each keeping the side ``np.where`` picks for it.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        left = fc > fd  # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - inv_phi * (b - a), a + inv_phi * (b - a))
        fx = fun(x)
        c, d, fc, fd = (
            np.where(left, x, d),
            np.where(left, c, x),
            np.where(left, fx, fd),
            np.where(left, fc, fx),
        )
    mid = 0.5 * (a + b)
    return np.maximum(np.maximum(fc, fd), fun(mid))


def _random_params(rng: np.random.Generator) -> ModelParams:
    h, k = np.exp(rng.uniform(math.log(0.25), math.log(4.0), size=2))
    return ModelParams(h=float(h), k=float(k))


def _random_axis(rng: np.random.Generator) -> tuple[float, float, float]:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return (float(v[0]), float(v[1]), float(v[2]))


def _draw_member(rng: np.random.Generator, i: int) -> tuple:
    """Ensemble member i: params, measurement, and the spot checks' outcome and axis."""
    if i % 3 == 0:
        h, k = PAIR_GRID[(i // 3) % len(PAIR_GRID)]
        params = ModelParams(h=h, k=k)
    else:
        params = _random_params(rng)
    meas = measurement.random_measurement(rng, n_outcomes=(2, 3, 4, 6)[i % 4])
    outcome = int(rng.integers(meas.n_outcomes))
    return params, meas, outcome, _random_axis(rng)


_OMEGA_GRID = np.linspace(0.0, math.pi, 256, endpoint=False)[:, None]
_PSI_GRID = np.linspace(0.0, math.pi, 64, endpoint=False)[:, None]


def block_residuals(members) -> dict[str, list]:
    """The ensemble checks' residuals over one block of drawn members.

    Each name maps to a list of residual arrays (or floats); the check's
    value is their maximum.
    """
    params, models, outcomes, axis_rows = zip(*members)
    reports = protocol.run_many(
        (p, meas, protocol.optimal_policy(p, meas)) for p, meas in zip(params, models)
    )
    block = ParamsBlock.of(params)
    coeffs = measurement.coefficient_block(models)
    weights = [meas.weights for meas in models]
    found: dict[str, list] = {
        "measurement-completeness": list(measurement.block_residuals(coeffs).values())
    }

    parts = model.build_hamiltonian(block)
    g = model.ground_state(block)
    kets = (measurement.kraus_operators(coeffs) @ g[:, None, :, None])[..., 0]
    rho_post = np.einsum("bni,bnj->bij", kets, kets.conj())

    def energy(op: np.ndarray) -> np.ndarray:
        return qmath.real_part(np.einsum("bij,bji->b", rho_post, op))

    e_a_closed = [measurement.input_energy_closed(m, p) for p, m in zip(params, models)]
    found["input-energy"] = [np.abs(energy(parts.total) - e_a_closed)]
    found["post-measurement-passivity"] = [np.abs(energy(parts.h_b)), np.abs(energy(parts.v))]

    max_eb = np.array([analytic.max_EB_closed(p, w) for p, w in zip(params, weights)])
    delta_closed = np.array([analytic.delta_S_closed(p, w) for p, w in zip(params, weights)])
    c770 = np.array([analytic.bounds(p).c770 for p in params])
    e_b, delta_s, mutual, rhs32, rhs770 = np.array(
        [(r.e_b, r.delta_s, r.mutual_info, r.bound32_rhs, r.bound770_rhs) for r in reports]
    ).T
    found["teleported-energy-routes"] = [np.abs(e_b - max_eb)]
    found["entanglement-consumption"] = [np.abs(delta_s - delta_closed)]
    found["mutual-information"] = [np.abs(mutual - delta_s)]
    found["entanglement-nonnegative"] = [-delta_s]
    # each inequality on the brute-force delta_S and on the closed forms alone
    # (bound32_rhs is c32 maxE_B / eps from the closed maximum)
    found["bound-32"] = [rhs32 - delta_s, rhs32 - delta_closed]
    found["bound-770"] = [rhs770 - max_eb, c770 * delta_closed - max_eb]
    eigen = found["reduced-eigenvalues"] = []
    for p, outcome_weights, report in zip(params, weights, reports):
        for w, vals in zip(outcome_weights, report.reduced_eigenvalues):
            if vals is not None:
                lam_plus, lam_minus = analytic.lambda_pm(p, w.p, w.q)
                eigen += [abs(vals[1] - lam_plus), abs(vals[0] - lam_minus)]

    # scalar objective spot checks, on one random outcome and axis per member
    p, q = np.array([(w[mu].p, w[mu].q) for w, mu in zip(weights, outcomes)]).T
    axis = tuple(np.array(axis_rows).T)
    closed_max, omega_star = analytic.max_over_omega(block, p, q, axis)
    x_coef = analytic.X_of(block, p, q, axis)
    g_coef = block.h * block.k * q * axis[1]
    q_grid = -2.0 * x_coef * np.sin(_OMEGA_GRID) ** 2 - g_coef * np.sin(2.0 * _OMEGA_GRID)
    refined = _golden_max(
        lambda om: analytic.Q_of(block, p, q, om, axis), omega_star - 0.1, omega_star + 0.1
    )
    # relative to the maximum itself, so an error in a small Q shows,
    # floored at the rounding level of Q's parts (Q's maximum is 0 at q = 0)
    value_scale = np.maximum(closed_max, sys.float_info.epsilon * (abs(x_coef) + abs(g_coef)))
    found["omega-maximum"] = [
        (q_grid.max(axis=0) - closed_max) / value_scale,
        abs(refined - closed_max) / value_scale,
        abs(analytic.Q_of(block, p, q, omega_star, axis) - closed_max) / value_scale,
    ]

    scale = np.maximum(1.0, abs(x_coef) + abs(g_coef))
    found["axis-minimum"] = []
    for z in (0.0, 0.37, 1.0):
        closed_min = analytic.min_X_over_psi(block, p, q, z)
        root_z = math.sqrt(z)
        psi_axes = (root_z * np.cos(_PSI_GRID), 0.0, root_z * np.sin(_PSI_GRID))
        x_vals = analytic.X_of(block, p, q, psi_axes)
        found["axis-minimum"].append((closed_min - x_vals.min(axis=0)) / scale)

    # T(0) against eps p f_E((q/p)^2): f_E reaches it through the sigma angles
    a, _, _ = analytic.abc_constants(block, p, q)
    kernel = [
        analytic.f_E(one, (q_i / p_i) ** 2) if p_i > 0.0 else 0.0
        for one, p_i, q_i in zip(params, p.tolist(), q.tolist())
    ]
    found["envelope-peak"] = [
        abs(analytic.T_profile(block, p, q, 0.0) - block.eps * p * kernel) / np.maximum(1.0, a),
        np.where(analytic.t_sign_check(block, p, q), 0.0, 1.0),
    ]
    return found


def ensemble_residuals(seed: int, size: int) -> dict[str, float]:
    """Random measurements drawn and scored one block of protocol.BLOCK at a time.

    Returns each check's maximum residual over all `size` members.
    """
    rng = np.random.default_rng([seed, 1])
    worst: defaultdict[str, float] = defaultdict(float)
    for first in range(0, size, protocol.BLOCK):
        members = [_draw_member(rng, i) for i in range(first, min(size, first + protocol.BLOCK))]
        for name, residuals in block_residuals(members).items():
            worst[name] = max(worst[name], *(float(np.max(r)) for r in residuals))
    return worst


def _check_eigensolver(seed: int, size: int) -> float:
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(size):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = raw + raw.conj().T
        vals, vecs = qmath.hermitian_eig(a)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        # LAPACK-free oracle on a 2x2 block: tr/2 -+ hypot((a-d)/2, |b|)
        vals2, _ = qmath.hermitian_eig(a[:2, :2])
        mid, half = 0.5 * (a[0, 0] + a[1, 1]).real, 0.5 * (a[0, 0] - a[1, 1]).real
        radius = math.hypot(half, abs(a[0, 1]))
        worst = max(
            worst,
            float(np.max(np.abs(recon - a))),
            float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(4)))),
            float(np.max(np.abs(vals2 - (mid - radius, mid + radius)))),
        )
        if not np.all(np.diff(vals) >= -1e-12):
            worst = max(worst, 1.0)
    return worst


def _check_ground_state() -> float:
    """20x20 log grid over [0.1, 10]^2: H|g> = 0, zero part-wise energies, closed spectrum."""
    grid = np.geomspace(0.1, 10.0, 20).tolist()
    params = [ModelParams(h=h, k=k) for h in grid for k in grid]
    block = ParamsBlock.of(params)
    parts = model.build_hamiltonian(block)
    g = model.ground_state(block)
    vals, _ = qmath.hermitian_eig(parts.total)
    residuals = [np.linalg.norm(np.einsum("bij,bj->bi", parts.total, g), axis=-1)]
    for op in (parts.h_a, parts.h_b, parts.v):
        residuals.append(np.abs(qmath.real_part(np.einsum("bi,bij,bj->b", g.conj(), op, g))))
    # the ground energy itself is held to a tenth of the budget
    residuals.append(10.0 * np.abs(vals[:, 0]))
    closed = np.array([model.spectrum_closed(p) for p in params])
    residuals.append(np.abs(vals - closed).max(axis=-1))
    # absolute, and relative to the spectrum's width 4 eps where that is below 1
    scale = np.minimum(1.0, 4.0 * block.eps)
    return max(float(np.max(r / scale)) for r in residuals)


def _check_optimizer(seed: int, size: int) -> float:
    rng = np.random.default_rng([seed, 3])
    cases = []
    for _ in range(size):
        params = _random_params(rng)
        meas = measurement.random_measurement(rng, n_outcomes=int(rng.integers(2, 7)))
        cases.append((params, meas))
    worst = 0.0
    for (params, meas), result in zip(cases, optimizer.maximize_over_policies(cases)):
        closed = analytic.max_EB_closed(params, meas.weights)
        worst = max(worst, abs(result.best_value - closed) / max(closed, 1e-9))
    return worst


def _check_no_go(seed: int, size: int) -> float:
    """Outcome-blind rotations of B: cost >= 0, equal through B's terms and through H."""
    rng = np.random.default_rng([seed, 4])
    members, costs = [], []
    for _ in range(size):
        params = _random_params(rng)
        meas = measurement.random_measurement(rng, n_outcomes=int(rng.integers(2, 5)))
        unitary = protocol.random_local_unitary(rng)
        costs.append(protocol.passive_unitary_energy(params, meas, unitary))
        members.append((params, unitary.matrix2()))
    params, w2 = zip(*members)
    block = ParamsBlock.of(params)
    parts = model.build_hamiltonian(block)
    # W acts on b of the ground ket read as g[a, b]: g -> g W^T
    wg = model.ground_state(block).reshape(-1, 2, 2) @ np.swapaxes(np.array(w2), -1, -2)
    wg = wg.reshape(-1, 4)

    def energy(op: np.ndarray) -> np.ndarray:
        return qmath.real_part(np.einsum("bi,bij,bj->b", wg.conj(), op, wg))

    local, total = energy(parts.h_b + parts.v), energy(parts.total)
    return float(max(-min(costs), np.max(np.abs(local - total)), np.max(np.abs(costs - local))))


def _check_bound770_equality(seed: int, size: int) -> float:
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    for i in range(size):
        params = _random_params(rng)
        masses = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        weights = []
        for mass in masses:
            weights.append(measurement.OutcomeWeights(mass / 2.0, mass / 2.0))
            weights.append(measurement.OutcomeWeights(mass / 2.0, -mass / 2.0))
        meas = measurement.weights_to_coeffs(weights)
        max_eb = analytic.max_EB_closed(params, meas.weights)
        if i < 20:
            delta = entanglement.consumption(params, meas).delta_s
        else:
            delta = analytic.delta_S_closed(params, meas.weights)
        rhs = analytic.bounds(params).c770 * delta
        worst = max(worst, abs(max_eb - rhs) / max(max_eb, 1e-12))
    return worst


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
        times = np.linspace(0.0, 2.0 * t_peak, 256)
        for sample in protocol.evolve_series(params, meas, times):
            worst = max(
                worst,
                abs(sample.hb_bruteforce - sample.hb_closed),
                abs(sample.v_expect),
            )
        peak = protocol.evolve_series(params, meas, [t_peak])[0].hb_bruteforce
        e_a = measurement.input_energy_closed(meas, params)
        worst = max(worst, abs(peak - e_a))
    return worst


def _check_kernel_shape() -> float:
    worst = 0.0
    xs = np.linspace(0.0, 1.0, 1024).tolist()
    for h, k in PAIR_GRID:
        params = ModelParams(h=h, k=k)
        for x in xs:
            fe = analytic.rescaled_f_E(params, x)
            fi = analytic.rescaled_f_I(params, x)
            worst = max(worst, fe - x, x - fi)
    return worst


def _check_weak_limit() -> float:
    """The weak-limit ratio tends to c32: strictly, and inside a quadratic envelope."""
    worst = 0.0
    for h, k in PAIR_GRID:
        params = ModelParams(h=h, k=k)
        c32 = analytic.bounds(params).c32
        errs = []
        for u in (1e-1, 1e-2, 1e-3):
            ratio = analytic.weak_limit_ratio(params, u)
            errs.append(abs(ratio / c32 - 1.0))
        curvature = 2.0 * errs[0] / 1e-2
        for u, err in zip((1e-1, 1e-2, 1e-3), errs):
            worst = max(worst, err - curvature * u * u)
        if not errs[0] > errs[1] > errs[2]:
            worst = max(worst, 1.0)
    return worst


def _check_integrity() -> float:
    worst = 0.0
    builtins = (
        measurement.projective_pair(),
        measurement.weak_pair(0.5),
        measurement.identity_measurement(),
    )
    for m in builtins:
        measurement.validate(m)
        worst = max(worst, max(measurement.constraint_residuals(m).values()))
    return worst


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
            "omega-maximum": 1e-9,
            "axis-minimum": 1e-9,
            "envelope-peak": 1e-9,
        },
        math.inf,
    ),
    (_check_eigensolver, {"eigensolver-reconstruction": 1e-12}, 200),
    (_check_optimizer, {"optimizer-vs-closed": 1e-7}, 5),
    (_check_no_go, {"no-go-passive": 1e-10}, 200),
    (_check_bound770_equality, {"bound-770-equality": 1e-9}, 100),
)
