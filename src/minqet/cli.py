"""Command-line front end: verify, report, sweep, evolve, optimize.

Exit codes: 0 success; 1 no verified number (a failed verify check, or an
arithmetic error or internal cross-check failure, reported as one
``error:`` line on stderr); 2 usage or I/O error.
All floats in CSV output are printed with 17 significant digits so that
parsing them back gives bit-identical values.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import math
import re
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import __version__
from . import analytic, entanglement, measurement, optimizer, protocol, qmath
from .model import ModelParams, ParamsBlock, build_hamiltonian, ground_state, spectrum_closed

SWEEP_COLUMNS = [
    "h",
    "k",
    "E_A",
    "maxE_B_closed",
    "maxE_B_numeric",
    "delta_S",
    "mutual_info",
    "bound32_lhs",
    "bound32_rhs",
    "bound770_lhs",
    "bound770_rhs",
    "delta_S_bits",
    "povm_sha256",
]

EVOLVE_COLUMNS = ["t", "HB_bruteforce", "HB_closed", "V_expect"]

PAIR_GRID = [(hh, kk) for hh in (0.5, 1.0, 2.0) for kk in (0.5, 1.0, 2.0)]


def fmt(x: float) -> str:
    return f"{x:.16e}"


def povm_sha256(meas: measurement.MeasurementModel) -> str:
    """Hash of the canonical JSON form, identifying the measurement."""
    text = json.dumps(
        measurement.to_json_obj(meas), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def resolve_povm(text: str) -> measurement.MeasurementModel:
    """Load a measurement from a JSON file path or a builtin:NAME tag.

    Builtins: ``builtin:projective``, ``builtin:weak(U)`` with U in [0, 1],
    ``builtin:identity``.
    """
    if text.startswith("builtin:"):
        name = text[len("builtin:") :]
        if name == "projective":
            return measurement.projective_pair()
        if name == "identity":
            return measurement.identity_measurement()
        weak = re.fullmatch(r"weak\(([^)]+)\)", name)
        if weak:
            return measurement.weak_pair(float(weak.group(1)))
        raise ValueError(
            f"unknown builtin measurement {name!r}; "
            "expected projective, weak(U), or identity"
        )
    with open(text, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{text}: {exc}") from exc
    return measurement.from_json_obj(obj)


def parse_range(text: str) -> np.ndarray:
    """Parse MIN:MAX:N[:log] (or a bare value) into a grid of positives."""
    parts = text.split(":")
    if len(parts) == 1:
        value = float(parts[0])
        if value <= 0.0:
            raise ValueError(f"grid values must be positive, got {value}")
        return np.array([value])
    if len(parts) not in (3, 4):
        raise ValueError(f"range {text!r} is not MIN:MAX:N or MIN:MAX:N:log")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    scale = parts[3] if len(parts) == 4 else "linear"
    if scale not in ("linear", "log"):
        raise ValueError(f"range scale must be 'linear' or 'log', got {scale!r}")
    if n < 1:
        raise ValueError(f"range needs at least one point, got {n}")
    if not 0.0 < lo <= hi:
        raise ValueError(f"range bounds must satisfy 0 < MIN <= MAX, got {text!r}")
    if scale == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# verify


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


def _block_residuals(members) -> dict[str, list]:
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

    parts = build_hamiltonian(block)
    kets = (measurement.kraus_operators(coeffs) @ ground_state(block)[:, None, :, None])[..., 0]
    rho_post = np.einsum("bni,bnj->bij", kets, kets.conj())

    def energy(op: np.ndarray) -> np.ndarray:
        return qmath.real_part(np.einsum("bij,bji->b", rho_post, op))

    e_a_closed = [measurement.input_energy_closed(m, p) for p, m in zip(params, models)]
    found["input-energy"] = [np.abs(energy(parts.total) - e_a_closed)]
    found["post-measurement-passivity"] = [np.abs(energy(parts.h_b)), np.abs(energy(parts.v))]

    max_eb = np.array([analytic.max_EB_closed(p, w) for p, w in zip(params, weights)])
    delta_closed = np.array([analytic.delta_S_closed(p, w) for p, w in zip(params, weights)])
    e_b, delta_s, mutual, rhs32, rhs770 = np.array(
        [(r.e_b, r.delta_s, r.mutual_info, r.bound32_rhs, r.bound770_rhs) for r in reports]
    ).T
    found["teleported-energy-routes"] = [np.abs(e_b - max_eb)]
    found["entanglement-consumption"] = [np.abs(delta_s - delta_closed)]
    found["mutual-information"] = [np.abs(mutual - delta_s)]
    found["entanglement-nonnegative"] = [-delta_s]
    found["bound-32"] = [rhs32 - delta_s]
    found["bound-770"] = [rhs770 - max_eb]
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


def _ensemble_residuals(seed: int, size: int) -> dict[str, float]:
    """Random measurements drawn and scored one block of protocol.BLOCK at a time.

    Returns each check's maximum residual over all `size` members.
    """
    rng = np.random.default_rng([seed, 1])
    worst: defaultdict[str, float] = defaultdict(float)
    for first in range(0, size, protocol.BLOCK):
        members = [_draw_member(rng, i) for i in range(first, min(size, first + protocol.BLOCK))]
        for name, residuals in _block_residuals(members).items():
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
    worst = 0.0
    for h in np.geomspace(0.1, 10.0, 5):
        for k in np.geomspace(0.1, 10.0, 5):
            params = ModelParams(h=float(h), k=float(k))
            parts = build_hamiltonian(params)
            g = ground_state(params)
            scale = 4.0 * params.eps
            worst = max(worst, float(qmath.norm(parts.total @ g)) / scale)
            vals, _ = qmath.hermitian_eig(parts.total)
            worst = max(worst, abs(float(vals[0])) / scale)
            worst = max(
                worst,
                float(np.max(np.abs(vals - spectrum_closed(params)))) / scale,
            )
    return worst


def _check_optimizer(seed: int, size: int) -> float:
    rng = np.random.default_rng([seed, 3])
    cases = []
    for _ in range(size):
        params = _random_params(rng)
        meas = measurement.random_measurement(rng, n_outcomes=int(rng.integers(2, 5)))
        cases.append((params, meas))
    worst = 0.0
    for (params, meas), result in zip(cases, optimizer.maximize_over_policies(cases)):
        closed = analytic.max_EB_closed(params, meas.weights)
        worst = max(worst, abs(result.best_value - closed) / max(closed, 1e-9))
    return worst


def _check_no_go(seed: int, size: int) -> float:
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for _ in range(size):
        params = _random_params(rng)
        meas = measurement.random_measurement(rng, n_outcomes=2)
        cost = protocol.passive_unitary_energy(
            params, meas, protocol.random_local_unitary(rng)
        )
        worst = max(worst, -cost)
    return worst


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
    worst = 0.0
    cases = [
        (ModelParams(1.0, 1.0), measurement.projective_pair()),
        (ModelParams(2.0, 0.5), measurement.weak_pair(0.3)),
    ]
    for params, meas in cases:
        t_peak = math.pi / (4.0 * params.k)
        times = np.linspace(0.0, 2.0 * t_peak, 64)
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
    xs = np.linspace(0.0, 1.0, 1024)
    for h, k in PAIR_GRID:
        params = ModelParams(h=h, k=k)
        for x in xs:
            fe = analytic.rescaled_fbar(params, float(x), "E")
            fi = analytic.rescaled_fbar(params, float(x), "I")
            worst = max(worst, fe - x, x - fi)
    return worst


def _check_weak_limit() -> float:
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
        worst = max(worst, errs[1] - errs[0], errs[2] - errs[1])
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


# The verify checks in print order: (routine, {check name: budget}, ensemble
# cap).  A routine with a cap draws random models and runs as
# routine(seed, min(ensemble, cap)), or is skipped at --ensemble 0; one with
# cap None runs as routine().  A routine returns one residual, or a
# {check name: residual} map if it owns several names.
CHECKS = (
    (_check_integrity, {"builtin-measurement-integrity": 1e-12}, None),
    (_check_ground_state, {"ground-state": 1e-9}, None),
    (_check_time_evolution, {"time-evolution": 1e-9}, None),
    (_check_kernel_shape, {"kernel-shape": 1e-12}, None),
    (_check_weak_limit, {"weak-limit": 0.0}, None),
    (
        _ensemble_residuals,
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


def cmd_verify(args) -> int:
    seed, ensemble = args.seed, args.ensemble
    n_checks = n_skip = 0
    failures = []
    for routine, budgets, cap in CHECKS:
        n_checks += len(budgets)
        if cap is not None and ensemble <= 0:
            n_skip += len(budgets)
            for name in budgets:
                print(f"SKIP {name:32s} ensemble checks disabled")
            continue
        try:
            found = routine() if cap is None else routine(seed, min(ensemble, cap))
        except Exception as exc:  # verify reports, never crashes
            found = exc
        for name, budget in budgets.items():
            if isinstance(found, Exception):
                tail = f"{type(found).__name__}: {found}"
                failure = {"error": type(found).__name__, "message": tail}
            else:
                residual = found[name] if isinstance(found, dict) else found
                tail = f"residual {residual:.3e}  budget {budget:.1e}"
                failure = {"residual": residual, "budget": budget}
                if residual <= budget:
                    failure = None
            print(f"{'PASS' if failure is None else 'FAIL'} {name:32s} {tail}")
            if failure is not None:
                failures.append({"check": name, **failure})

    print(
        f"verify: {n_checks} checks, {n_checks - len(failures) - n_skip} passed, "
        f"{len(failures)} failed, {n_skip} skipped (seed {seed}, ensemble {ensemble})"
    )
    if failures:
        print(json.dumps({"failures": failures}), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    params = ModelParams(h=args.h, k=args.k)
    meas = resolve_povm(args.povm)
    measurement.validate(meas)
    policy = protocol.optimal_policy(params, meas)
    report = protocol.run(params, meas, policy)
    max_eb = analytic.max_EB_closed(params, meas.weights)
    coeffs = analytic.bounds(params)
    payload = {
        "params": {"h": params.h, "k": params.k, "eps": params.eps},
        "povm": {
            "source": args.povm,
            "sha256": povm_sha256(meas),
            "outcomes": measurement.to_json_obj(meas)["outcomes"],
            "weights": [{"p": w.p, "q": w.q} for w in meas.weights],
        },
        "energies": {
            "E_A_closed": measurement.input_energy_closed(meas, params),
            "E_A_bruteforce": report.e_a,
            "maxE_B_closed": max_eb,
            "E_B_bruteforce": report.e_b,
            "total_final_energy": report.total_final_energy,
        },
        "entanglement": {
            "ground_entropy": entanglement.ground_entropy(params),
            "delta_S": report.delta_s,
            "delta_S_closed": analytic.delta_S_closed(params, meas.weights),
            "mutual_info": report.mutual_info,
        },
        "bounds": {
            "c32": coeffs.c32,
            "c770": coeffs.c770,
            "bound32": {
                "lhs": report.delta_s,
                "rhs": report.bound32_rhs,
                "slack": report.delta_s - report.bound32_rhs,
            },
            "bound770": {
                "lhs": max_eb,
                "rhs": report.bound770_rhs,
                "slack": max_eb - report.bound770_rhs,
            },
        },
        "policy": [
            {"omega": u.omega, "n": list(u.n)} for u in policy.unitaries
        ],
        "per_outcome": [
            {
                "probability": oc.probability,
                "H_A": oc.h_a,
                "H_B": oc.h_b,
                "V": oc.v,
                "total": oc.total,
            }
            for oc in report.per_outcome
        ],
    }
    print(json.dumps(payload, indent=2))
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_cell(job) -> list:
    h, k, povm_obj, sha, numeric = job
    params = ModelParams(h=h, k=k)
    meas = measurement.from_json_obj(povm_obj)
    report = protocol.run(params, meas, protocol.optimal_policy(params, meas))
    max_eb = analytic.max_EB_closed(params, meas.weights)
    return [
        fmt(h),
        fmt(k),
        fmt(report.e_a),
        fmt(max_eb),
        fmt(numeric),
        fmt(report.delta_s),
        fmt(report.mutual_info),
        fmt(report.delta_s),
        fmt(report.bound32_rhs),
        fmt(max_eb),
        fmt(report.bound770_rhs),
        fmt(analytic.nats_to_bits(report.delta_s)),
        sha,
    ]


def cmd_sweep(args) -> int:
    start = time.perf_counter()
    h_values = parse_range(args.h)
    k_values = parse_range(args.k)
    meas = resolve_povm(args.povm)
    measurement.validate(meas)
    povm_obj = measurement.to_json_obj(meas)
    sha = povm_sha256(meas)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = [(float(h), float(k)) for h in h_values for k in k_values]
    # one policy search for the whole grid, in this process; jobs carry its values
    searched = optimizer.maximize_over_policies(
        [(ModelParams(h=h, k=k), meas) for h, k in cells]
    )
    jobs = [
        (h, k, povm_obj, sha, result.best_value)
        for (h, k), result in zip(cells, searched)
    ]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_cell, jobs, chunksize=8))
    else:
        rows = [_sweep_cell(job) for job in jobs]

    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)

    closed_col = SWEEP_COLUMNS.index("maxE_B_closed")
    numeric_col = SWEEP_COLUMNS.index("maxE_B_numeric")
    worst_gap = 0.0
    for row in rows:
        closed, numeric = float(row[closed_col]), float(row[numeric_col])
        # relative to the closed value; absolute where that is 0
        gap = abs(numeric - closed) / closed if closed != 0.0 else abs(numeric)
        worst_gap = max(worst_gap, gap)
    meta = {
        "h_range": args.h,
        "k_range": args.k,
        "povm_source": args.povm,
        "povm_sha256": sha,
        "rows": len(rows),
        "columns": SWEEP_COLUMNS,
        "seedless": True,
        "minqet_version": __version__,
        "numpy_version": np.__version__,
        "worst_rel_gap_numeric_vs_closed": worst_gap,
        "wall_s": time.perf_counter() - start,
    }
    with open(out_dir / "metadata.json", "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(rows)} rows to {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(args) -> int:
    if args.t_max <= 0.0:
        raise ValueError(f"--t-max must be positive, got {args.t_max}")
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    params = ModelParams(h=args.h, k=args.k)
    meas = resolve_povm(args.povm)
    measurement.validate(meas)
    times = np.linspace(0.0, args.t_max, args.points)
    samples = protocol.evolve_series(params, meas, times)
    rows = [
        [fmt(s.t), fmt(s.hb_bruteforce), fmt(s.hb_closed), fmt(s.v_expect)]
        for s in samples
    ]
    if args.out:
        with open(args.out, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(EVOLVE_COLUMNS)
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(EVOLVE_COLUMNS)
        writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# optimize


def cmd_optimize(args) -> int:
    params = ModelParams(h=args.h, k=args.k)
    if args.over == "weights":
        result = optimizer.maximize_over_weights(params, n_outcomes=args.n_outcomes)
        payload = {
            "over": "weights",
            "params": {"h": params.h, "k": params.k},
            "best_value": result.best_value,
            "projective_limit": analytic.f_E(params, 1.0),
            "weights": [{"p": w.p, "q": w.q} for w in result.best_weights],
            "evaluations": result.evaluations,
            "converged": result.converged,
        }
    else:
        if not args.povm:
            raise ValueError("optimize --over policy needs --povm")
        meas = resolve_povm(args.povm)
        measurement.validate(meas)
        result = optimizer.maximize_over_policy(params, meas)
        payload = {
            "over": "policy",
            "params": {"h": params.h, "k": params.k},
            "povm": {"source": args.povm, "sha256": povm_sha256(meas)},
            "best_value": result.best_value,
            "closed_form_max": analytic.max_EB_closed(params, meas.weights),
            "policy": [
                {"omega": u.omega, "n": list(u.n)}
                for u in result.best_policy.unitaries
            ],
            "evaluations": result.evaluations,
            "converged": result.converged,
        }
    print(json.dumps(payload, indent=2))
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="minqet",
        description="Exact two-qubit energy-teleportation laboratory.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the cross-module property suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--ensemble", type=int, default=1000,
                   help="random models per ensemble check (0 skips them)")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("report", help="single-run JSON report")
    r.add_argument("--h", type=float, required=True)
    r.add_argument("--k", type=float, required=True)
    r.add_argument("--povm", required=True,
                   help="JSON file or builtin:projective|weak(U)|identity")
    r.set_defaults(func=cmd_report)

    s = sub.add_parser("sweep", help="CSV over an (h, k) grid")
    s.add_argument("--h", required=True, help="MIN:MAX:N[:log] or a single value")
    s.add_argument("--k", required=True, help="MIN:MAX:N[:log] or a single value")
    s.add_argument("--povm", required=True)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(func=cmd_sweep)

    e = sub.add_parser("evolve", help="post-measurement energy vs time, CSV")
    e.add_argument("--h", type=float, required=True)
    e.add_argument("--k", type=float, required=True)
    e.add_argument("--povm", required=True)
    e.add_argument("--t-max", type=float, required=True)
    e.add_argument("--points", type=int, default=256)
    e.add_argument("--out", default="", help="CSV path (default: stdout)")
    e.set_defaults(func=cmd_evolve)

    o = sub.add_parser("optimize", help="numeric maximization, JSON report")
    o.add_argument("--h", type=float, required=True)
    o.add_argument("--k", type=float, required=True)
    o.add_argument("--povm", default="",
                   help="measurement for --over policy")
    o.add_argument("--over", choices=("policy", "weights"), default="policy")
    o.add_argument("--n-outcomes", type=int, default=2,
                   help="outcome count for --over weights")
    o.set_defaults(func=cmd_optimize)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:  # no verified number
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
