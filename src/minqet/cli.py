"""Command-line front end: verify, report, sweep, evolve, optimize.

Exit codes: 0 success; 1 no verified number (a failed verify check, or an
arithmetic error, a non-finite result, internal cross-check failure, a numeric
maximum off its closed value or running out of memory, reported as one
``error:`` line on stderr); 2 usage or I/O error.
All floats in CSV output are printed with 17 significant digits so that
parsing them back gives bit-identical values.  ``write_csv`` formats each CSV row
with one ``%``; no field needs quoting, so the bytes are ``csv.writer``'s.
``write_json`` writes every JSON document, as RFC 8259 has it: no NaN or Infinity.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from . import analytic, checks, measurement, optimizer, protocol
# build_hamiltonian stays importable here: perfbench's tracer self-test reads cli.build_hamiltonian
from .model import ModelParams, ParamsBlock, build_hamiltonian, params_row  # noqa: F401

SWEEP_COLUMNS = [
    "h", "k", "E_A", "maxE_B_closed", "maxE_B_numeric", "delta_S", "mutual_info", "bound32_lhs",
    "bound32_rhs", "bound770_lhs", "bound770_rhs", "delta_S_bits", "povm_sha256",
]

EVOLVE_COLUMNS = ["t", "HB_bruteforce", "HB_closed", "V_expect"]

# report's per-outcome keys, in the order of run_block's per_outcome rows
PER_OUTCOME_KEYS = ("probability", "H_A", "H_B", "V", "total")


def write_csv(fh, header: list[str], columns, tail: str) -> int:
    """Write ``header``, then a line per row of float ``columns``: ``%.16e`` fields and ``tail``.

    Each line is one ``%`` format ending in CRLF; a hex ``tail`` needs no quoting, and ""
    adds no field.  The text goes out in one write.  Returns the row count.
    """
    line = ",".join(["%.16e"] * len(columns) + [tail] * bool(tail)) + "\r\n"
    rows = [line % row for row in zip(*(c.tolist() for c in columns))]
    fh.write(",".join(header) + "\r\n" + "".join(rows))
    return len(rows)


def write_json(fh, obj) -> None:
    """Write ``obj`` as JSON indented by 2, and a newline, in one write.

    JSON (RFC 8259) has no NaN or Infinity: a non-finite number writes nothing and
    raises ``ArithmeticError``, so the command exits 1 with no verified number.
    """
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:  # json's own error would read as a usage error, exit 2
        raise ArithmeticError("a result is not finite; JSON has no NaN or Infinity") from None
    fh.write(text + "\n")


def povm_sha256(obj: dict) -> str:
    """Hash identifying a measurement, of its canonical JSON form ``measurement.to_json_obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
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
    """Parse MIN:MAX:N[:log] (or a bare value) into a grid of positive, finite values."""
    parts = text.split(":")
    if len(parts) == 1:
        value = float(parts[0])
        if not 0.0 < value < np.inf:
            raise ValueError(f"grid values must be positive and finite, got {value}")
        return np.array([value])
    if len(parts) not in (3, 4):
        raise ValueError(f"range {text!r} is not MIN:MAX:N or MIN:MAX:N:log")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    scale = parts[3] if len(parts) == 4 else "linear"
    if scale not in ("linear", "log"):
        raise ValueError(f"range scale must be 'linear' or 'log', got {scale!r}")
    if n < 1:
        raise ValueError(f"range needs at least one point, got {n}")
    if not 0.0 < lo <= hi < np.inf:
        raise ValueError(f"range bounds must satisfy 0 < MIN <= MAX < inf, got {text!r}")
    if scale == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def judge_maximum(numeric, closed, h, k) -> float:
    """The worst ``checks.maximum_gap`` of numeric maxima (N,) to their closed values (N,).

    Over ``checks.OPTIMIZER_BUDGET`` it raises ``RuntimeError`` naming the worst case, its
    h and k, the gap and the budget.  A case with a non-finite value is left to the
    caller's own refusal.
    """
    finite = np.isfinite(numeric) & np.isfinite(closed)
    gap = np.where(finite, checks.maximum_gap(numeric, closed), 0.0)
    case = int(np.argmax(gap))
    if gap[case] > checks.OPTIMIZER_BUDGET:
        raise RuntimeError(
            f"numeric maximum differs from its closed value in case {case} at h {float(h[case])}"
            f", k {float(k[case])} (gap {float(gap[case])}, budget {checks.OPTIMIZER_BUDGET})"
        )
    return float(gap[case])


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    seed, ensemble = args.seed, args.ensemble
    for flag, value in (("--seed", seed), ("--ensemble", ensemble)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
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
                shown = residual if np.isfinite(residual) else repr(residual)  # JSON has no NaN
                failure = {"residual": shown, "budget": budget}
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
        print(json.dumps({"failures": failures}, allow_nan=False), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    params = ModelParams(h=args.h, k=args.k)
    meas = resolve_povm(args.povm)
    povm = measurement.to_json_obj(meas)
    # the case as a block of one: its weights serve the policy, the run and the payload
    block = protocol.measured_block(ParamsBlock.of([params]), meas.rows[None])
    omega, axes = protocol.optimal_table(params, block.p, block.q)
    report = protocol.run_block(block, omega, axes)
    case = {name: value.tolist()[0] for name, value in vars(report).items()}
    p, q = block.p[:, 0], block.q[:, 0]
    max_eb = case["max_eb_closed"]
    payload = {
        "params": {"h": params.h, "k": params.k, "eps": params.eps},
        "povm": {
            "source": args.povm,
            "sha256": povm_sha256(povm),
            "outcomes": povm["outcomes"],
            "weights": [{"p": p_mu, "q": q_mu} for p_mu, q_mu in zip(p.tolist(), q.tolist())],
        },
        "energies": {
            "E_A_closed": case["e_a_closed"],
            "E_A_bruteforce": case["e_a"],
            "maxE_B_closed": max_eb,
            "E_B_bruteforce": case["e_b"],
            "total_final_energy": case["total_final_energy"],
        },
        "entanglement": {
            "ground_entropy": case["s_ground"],
            "delta_S": case["delta_s"],
            "delta_S_closed": analytic.delta_S_closed(params, p, q),
            "mutual_info": case["mutual_info"],
        },
        "bounds": {
            "c32": case["c32"],
            "c770": case["c770"],
            "bound32": {
                "lhs": case["delta_s"],
                "rhs": case["bound32_rhs"],
                "slack": case["delta_s"] - case["bound32_rhs"],
            },
            "bound770": {
                "lhs": max_eb,
                "rhs": case["bound770_rhs"],
                "slack": max_eb - case["bound770_rhs"],
            },
        },
        "policy": [{"omega": w, "n": n} for w, n in zip(omega[0].tolist(), axes[0].tolist())],
        "per_outcome": [dict(zip(PER_OUTCOME_KEYS, row)) for row in case["per_outcome"]],
    }
    write_json(sys.stdout, payload)
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    start = time.perf_counter()
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    h_values, k_values = parse_range(args.h).tolist(), parse_range(args.k).tolist()
    meas = resolve_povm(args.povm)
    sha = povm_sha256(measurement.to_json_obj(meas))

    # parse_range's values are positive and finite: the rows need no ModelParams check
    block = ParamsBlock.of_rows([params_row(h, k) for h in h_values for k in k_values])
    coeffs = np.broadcast_to(meas.rows, (len(block.h),) + meas.rows.shape)
    # one eigen maximum over policies, and one batched run of its turns, for the whole grid
    numeric, *policy = optimizer.maximize_over_policies(block, coeffs)
    run = protocol.run_many(block, coeffs, *policy)
    closed, delta_s = run.max_eb_closed, run.delta_s
    # one row per cell, in SWEEP_COLUMNS order
    columns = (
        block.h, block.k, run.e_a, closed, numeric, delta_s, run.mutual_info, delta_s,
        run.bound32_rhs, closed, run.bound770_rhs, delta_s / math.log(2.0),
    )
    if not np.isfinite(columns).all():
        raise ArithmeticError("a sweep result is not finite; neither file is written")
    worst_gap = judge_maximum(numeric, closed, block.h, block.k)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", newline="", encoding="ascii") as fh:
        rows = write_csv(fh, SWEEP_COLUMNS, columns, sha)

    meta = {
        "h_range": args.h,
        "k_range": args.k,
        "povm_source": args.povm,
        "povm_sha256": sha,
        "rows": rows,
        "columns": SWEEP_COLUMNS,
        "seedless": True,
        "minqet_version": __version__,
        "numpy_version": np.__version__,
        "worst_rel_gap_numeric_vs_closed": worst_gap,
        "wall_s": time.perf_counter() - start,
    }
    with open(out_dir / "metadata.json", "w", encoding="ascii") as fh:
        write_json(fh, meta)
    print(f"wrote {rows} rows to {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(args) -> int:
    if not 0.0 < args.t_max < np.inf:
        raise ValueError(f"--t-max must be positive and finite, got {args.t_max}")
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    params = ModelParams(h=args.h, k=args.k)
    meas = resolve_povm(args.povm)
    times = np.linspace(0.0, args.t_max, args.points)
    # one row per time, in EVOLVE_COLUMNS order
    columns = protocol.evolve_series(params, meas, times)
    with (open(args.out, "w", newline="", encoding="ascii") if args.out
          else nullcontext(sys.stdout)) as fh:
        rows = write_csv(fh, EVOLVE_COLUMNS, columns, "")
    if args.out:
        print(f"wrote {rows} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# optimize


def cmd_optimize(args) -> int:
    params = ModelParams(h=args.h, k=args.k)
    if args.over == "weights":
        value, p, q = optimizer.maximize_over_weights(params, n_outcomes=args.n_outcomes)
        payload = {
            "over": "weights",
            "params": {"h": params.h, "k": params.k},
            "best_value": value,
            "projective_limit": analytic.f_E(params, 1.0),
            "weights": [{"p": p_mu, "q": q_mu} for p_mu, q_mu in zip(p.tolist(), q.tolist())],
            "converged": True,  # always: the eigen maximum is exact and has no iteration
        }
    else:
        if not args.povm:
            raise ValueError("optimize --over policy needs --povm")
        meas = resolve_povm(args.povm)
        # the case as a block of one
        columns = optimizer.maximize_over_policies(ParamsBlock.of([params]), meas.rows[None])
        value, omega, axes = (column.tolist()[0] for column in columns)
        p, q = measurement.weight_block(meas.rows)
        payload = {
            "over": "policy",
            "params": {"h": params.h, "k": params.k},
            "povm": {"source": args.povm, "sha256": povm_sha256(measurement.to_json_obj(meas))},
            "best_value": value,
            "closed_form_max": analytic.max_EB_closed(params, p, q),
            "policy": [{"omega": w, "n": n} for w, n in zip(omega, axes)],
        }
    closed = payload["closed_form_max" if args.over == "policy" else "projective_limit"]
    judge_maximum(np.array([payload["best_value"]]), np.array([closed]), [params.h], [params.k])
    write_json(sys.stdout, payload)
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

    r = sub.add_parser("report", help="single-run JSON report")
    r.add_argument("--h", type=float, required=True)
    r.add_argument("--k", type=float, required=True)
    r.add_argument("--povm", required=True,
                   help="JSON file or builtin:projective|weak(U)|identity")

    s = sub.add_parser("sweep", help="CSV over an (h, k) grid")
    s.add_argument("--h", required=True, help="MIN:MAX:N[:log] or a single value")
    s.add_argument("--k", required=True, help="MIN:MAX:N[:log] or a single value")
    s.add_argument("--povm", required=True)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility (at least 1); the grid runs in one process")

    e = sub.add_parser("evolve", help="post-measurement energy vs time, CSV")
    e.add_argument("--h", type=float, required=True)
    e.add_argument("--k", type=float, required=True)
    e.add_argument("--povm", required=True)
    e.add_argument("--t-max", type=float, required=True,
                   help="last time sampled, positive and finite; a phase that overflows exits 1")
    e.add_argument("--points", type=int, default=256)
    e.add_argument("--out", default="", help="CSV path (default: stdout)")

    o = sub.add_parser("optimize", help="numeric maximization, JSON report")
    o.add_argument("--h", type=float, required=True)
    o.add_argument("--k", type=float, required=True)
    o.add_argument("--povm", default="",
                   help="measurement for --over policy")
    o.add_argument("--over", choices=("policy", "weights"), default="policy")
    o.add_argument("--n-outcomes", type=int, default=2,
                   help="outcome count for --over weights")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: ``build_parser``'s, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; every call in a process parses with the same parser."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # looked up by name at call time, so a rebound cmd_* attribute is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:  # no verified number
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # no verified number either
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
