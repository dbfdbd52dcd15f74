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
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import analytic, checks, entanglement, measurement, optimizer, protocol
# build_hamiltonian stays importable here: perfbench's tracer self-test reads cli.build_hamiltonian
from .model import ModelParams, build_hamiltonian  # noqa: F401

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


def cmd_verify(args) -> int:
    seed, ensemble = args.seed, args.ensemble
    n_checks = n_skip = 0
    failures = []
    for routine, budgets, cap in checks.CHECKS:
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


def cmd_sweep(args) -> int:
    start = time.perf_counter()
    h_values = parse_range(args.h)
    k_values = parse_range(args.k)
    meas = resolve_povm(args.povm)
    measurement.validate(meas)
    sha = povm_sha256(meas)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = [ModelParams(h=float(h), k=float(k)) for h in h_values for k in k_values]
    # one policy search and one batched run for the whole grid; with --jobs N
    # the run is split into N contiguous chunks, one per worker
    searched = optimizer.maximize_over_policies([(params, meas) for params in cells])
    cases = [(params, meas, protocol.optimal_policy(params, meas)) for params in cells]
    if args.jobs > 1:
        size = -(-len(cases) // args.jobs)
        chunks = [cases[i : i + size] for i in range(0, len(cases), size)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = [r for chunk in pool.map(protocol.run_many, chunks) for r in chunk]
    else:
        reports = protocol.run_many(cases)
    rows = []
    for params, result, report in zip(cells, searched, reports):
        max_eb = analytic.max_EB_closed(params, meas.weights)
        rows.append(
            [
                fmt(params.h),
                fmt(params.k),
                fmt(report.e_a),
                fmt(max_eb),
                fmt(result.best_value),
                fmt(report.delta_s),
                fmt(report.mutual_info),
                fmt(report.delta_s),
                fmt(report.bound32_rhs),
                fmt(max_eb),
                fmt(report.bound770_rhs),
                fmt(analytic.nats_to_bits(report.delta_s)),
                sha,
            ]
        )

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
