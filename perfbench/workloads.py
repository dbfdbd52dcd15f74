"""Seeded inputs and output checks for the four benchmark workloads.

Each workload is a *pass*: a fixed list of CLI calls built from the seed.
A run repeats its pass until the measuring time is used up, so every pass
of a seed does identical work and its failure count repeats exactly.

Workloads and why they were chosen:

- ``ensemble``: ``verify --ensemble 1000``, brute force against closed form
  over random POVMs.  The lab's core traffic; spreads over measurement,
  protocol, entanglement, qmath and analytic.
- ``grid``: the README's 21x21 log ``sweep`` with a seeded two-outcome
  non-projective POVM.  Dominated by the policy optimizer; never calls
  ``measurement.balance_weights``.
- ``design``: ``optimize --over weights --n-outcomes 6`` at seeded (h, k).
  Dominated by ``measurement.balance_weights``; no 4x4 algebra.
- ``query``: a closed loop of single ``report`` calls at h and k in [0.1, 10],
  the domain the package's own checks cover, with measurements of strength
  max |q|/p of at least 0.05.  The N = 1 path.

``query-full`` is ``query`` over the whole physical domain (h/k in
[1e-8, 1e8], scale in [1e-150, 1e150]) with measurements of any strength.
It is not one of the timed workloads: the package fails its own checks on
part of that domain (ROADMAP item 2), and the run reports the failure share
by cause.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ENSEMBLE_SIZE = 1000
ENSEMBLE_CHECKS = 22
GRID_LO, GRID_HI, GRID_SIDE = 0.25, 4.0, 21
DESIGN_OUTCOMES = 6
DESIGN_POINTS = 2
QUERIES = 400
QUERY_FILES_PER_SIZE = 3
# log10 h and log10 k of ``query``; the smallest measurement strength
# max |q|/p, which is U for builtin:weak(U).
QUERY_LOG10_HK = (-1.0, 1.0)
QUERY_MIN_STRENGTH = 0.05

# Budgets of the output checks.  A margin is log10(budget / residual); a
# residual of zero or below counts as a margin of ZERO_RESIDUAL_MARGIN.
OPTIMIZER_REL_BUDGET = 1e-7
CROSS_CHECK_BUDGET = 1e-10
SLACK_BUDGET = 1e-10
ZERO_RESIDUAL_MARGIN = 16.0

WORKLOADS = ("ensemble", "grid", "design", "query")

# What one operation of each workload is; throughput is counted in these.
OPERATION = {
    "ensemble": "member",
    "grid": "cell",
    "design": "search",
    "query": "query",
    "query-full": "query",
}


@dataclass
class Verdict:
    """The judgement of one CLI call."""

    attempted: int
    failed: int = 0
    # Operations counted toward throughput (verified members, good rows, ...).
    passed_items: float = 0
    causes: Counter = field(default_factory=Counter)
    margins: list[float] = field(default_factory=list)


@dataclass
class Call:
    """One CLI call of a pass and the check that judges its output."""

    argv: list[str]
    judge: Callable[[int | None, str, str | None], Verdict]
    prepare: Callable[[], None] = lambda: None


@dataclass
class Plan:
    calls: list[Call]
    size: dict
    # Throughput is a median of per-call rates when each call is a large
    # batch, and of per-pass rates when a pass is many small calls.
    call_is_sample: bool = True


def margin(residual: float, budget: float) -> float:
    """log10(budget / residual); a non-finite residual counts as -16 decades."""
    if not math.isfinite(residual):
        return -ZERO_RESIDUAL_MARGIN
    if residual <= 0.0:
        return ZERO_RESIDUAL_MARGIN
    return math.log10(budget) - math.log10(residual)


def _failed_call(attempted: int, rc: int | None, exc: str | None) -> Verdict | None:
    """Verdict for a call that raised or exited nonzero, else None."""
    if exc is not None:
        return Verdict(attempted, attempted, 0, Counter({exc: attempted}))
    if rc != 0:
        return Verdict(attempted, attempted, 0, Counter({f"exit-{rc}": attempted}))
    return None


# ---------------------------------------------------------------------------
# seeded inputs


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"minqet-perfbench:{workload}:{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def balanced_weights(rng: random.Random, n: int) -> list[dict]:
    """A random valid n-outcome POVM in weights form: sum p = 1, sum q = 0, |q| <= p."""
    raw = [rng.expovariate(1.0) for _ in range(n)]
    total = sum(raw)
    p = [x / total for x in raw]
    u = [rng.uniform(-1.0, 1.0) for _ in range(n)]

    def residual(s: float) -> float:
        return sum(min(1.0, max(-1.0, ui - s)) * pi for ui, pi in zip(u, p))

    lo, hi = -2.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    q = [min(1.0, max(-1.0, ui - s)) * pi for ui, pi in zip(u, p)]
    return [{"p": pi, "q": qi} for pi, qi in zip(p, q)]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="ascii")


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws, one per equal stratum of [lo, hi], in shuffled order."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# ensemble


_CHECK_LINE = ("PASS ", "FAIL ", "SKIP ")


def judge_verify(
    rc: int | None, out: str, exc: str | None, members: int = ENSEMBLE_SIZE
) -> Verdict:
    """Every one of the 22 check lines must read PASS, and the exit code 0."""
    if exc is not None:
        return _failed_call(ENSEMBLE_CHECKS, rc, exc)
    verdict = Verdict(ENSEMBLE_CHECKS)
    n_pass = 0
    for line in out.splitlines():
        if not line.startswith(_CHECK_LINE):
            continue
        fields = line.split()
        if fields[0] != "PASS":
            verdict.causes[fields[1]] += 1
            continue
        n_pass += 1
        if "residual" in fields and "budget" in fields:
            residual = float(fields[fields.index("residual") + 1])
            budget = float(fields[fields.index("budget") + 1])
            verdict.margins.append(margin(residual, budget))
    n_pass = min(n_pass, ENSEMBLE_CHECKS)
    verdict.failed = ENSEMBLE_CHECKS - n_pass
    if rc != 0 and verdict.failed == 0:
        verdict.causes[f"exit-{rc}"] += 1
        verdict.failed = 1
    missing = verdict.failed - sum(verdict.causes.values())
    if missing > 0:
        verdict.causes["missing-check-line"] += missing
    # Members count as verified in the share of the checks that passed.
    verdict.passed_items = members * (ENSEMBLE_CHECKS - verdict.failed) / ENSEMBLE_CHECKS
    return verdict


def plan_ensemble(seed: int, work_dir: Path, members: int = ENSEMBLE_SIZE) -> Plan:
    argv = ["verify", "--seed", str(seed), "--ensemble", str(members)]
    judge = functools.partial(judge_verify, members=members)
    return Plan([Call(argv, judge)], {"ensemble": members, "checks": ENSEMBLE_CHECKS})


# ---------------------------------------------------------------------------
# grid


def grid_axis(side: int) -> list[float]:
    return [GRID_LO * (GRID_HI / GRID_LO) ** (i / (side - 1)) for i in range(side)]


def _grid_index(value: float, axis: list[float]) -> int | None:
    """Index of value on the log-spaced axis, or None if it is not a grid point."""
    i = round((len(axis) - 1) * math.log(value / axis[0]) / math.log(axis[-1] / axis[0]))
    if 0 <= i < len(axis) and math.isclose(value, axis[i], rel_tol=1e-12):
        return i
    return None


def shortfall(slack: float, lhs: float) -> float:
    """How far an inequality lhs >= rhs misses, relative to lhs (0 when it holds)."""
    if slack >= 0.0:
        return 0.0
    return -slack / abs(lhs) if lhs != 0.0 else math.inf


def judge_sweep_rows(
    rc: int | None, csv_text: str | None, exc: str | None, side: int = GRID_SIDE
) -> Verdict:
    """One row per grid cell; numeric max within 1e-7 of closed; both slacks hold."""
    axis = grid_axis(side)
    cells = side * side
    failed = _failed_call(cells, rc, exc)
    if failed is not None:
        return failed
    verdict = Verdict(cells)
    rows = list(csv.DictReader(csv_text.splitlines())) if csv_text else []
    seen = set()
    for row in rows:
        try:
            cell = (_grid_index(float(row["h"]), axis), _grid_index(float(row["k"]), axis))
            numeric = float(row["maxE_B_numeric"])
            closed = float(row["maxE_B_closed"])
            lhs32 = float(row["bound32_lhs"])
            lhs770 = float(row["bound770_lhs"])
            short32 = shortfall(lhs32 - float(row["bound32_rhs"]), lhs32)
            short770 = shortfall(lhs770 - float(row["bound770_rhs"]), lhs770)
        except (KeyError, TypeError, ValueError, OverflowError):
            verdict.causes["bad-row"] += 1
            continue
        rel = abs(numeric - closed) / abs(closed) if closed != 0.0 else abs(numeric)
        if None in cell or cell in seen:
            verdict.causes["off-grid-or-repeated"] += 1
            continue
        seen.add(cell)
        verdict.margins.append(
            min(
                margin(rel, OPTIMIZER_REL_BUDGET),
                margin(short32, SLACK_BUDGET),
                margin(short770, SLACK_BUDGET),
            )
        )
        if not rel <= OPTIMIZER_REL_BUDGET:
            verdict.causes["optimizer-vs-closed"] += 1
        elif not short32 <= SLACK_BUDGET:
            verdict.causes["bound-32"] += 1
        elif not short770 <= SLACK_BUDGET:
            verdict.causes["bound-770"] += 1
        else:
            verdict.passed_items += 1
    if len(seen) < cells:
        verdict.causes["missing-row"] += cells - len(seen)
    verdict.failed = cells - verdict.passed_items
    return verdict


def plan_grid(seed: int, work_dir: Path, side: int = GRID_SIDE) -> Plan:
    rng = _rng("grid", seed)
    p1 = rng.uniform(0.3, 0.7)
    q1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.9) * min(p1, 1.0 - p1)
    povm = work_dir / "grid-povm.json"
    _write_json(povm, {"weights": [{"p": p1, "q": q1}, {"p": 1.0 - p1, "q": -q1}]})
    out_dir = work_dir / "sweep"
    csv_path = out_dir / "sweep.csv"
    grid = f"{GRID_LO}:{GRID_HI}:{side}:log"
    argv = [
        "sweep", "--h", grid, "--k", grid,
        "--povm", str(povm), "--out", str(out_dir), "--jobs", "1",
    ]

    def prepare() -> None:
        csv_path.unlink(missing_ok=True)

    def judge(rc: int | None, out: str, exc: str | None) -> Verdict:
        text = csv_path.read_text(encoding="ascii") if csv_path.exists() else None
        return judge_sweep_rows(rc, text, exc, side)

    size = {"grid": f"{side}x{side}", "cells": side * side,
            "povm": {"p1": p1, "q1": q1}}
    return Plan([Call(argv, judge, prepare)], size)


# ---------------------------------------------------------------------------
# design


def judge_optimize(rc: int | None, out: str, exc: str | None) -> Verdict:
    """converged is true and best_value is the projective limit within 1e-7."""
    failed = _failed_call(1, rc, exc)
    if failed is not None:
        return failed
    try:
        payload = json.loads(out)
        best = float(payload["best_value"])
        limit = float(payload["projective_limit"])
        converged = payload["converged"] is True
    except (KeyError, TypeError, ValueError):
        return Verdict(1, 1, 0, Counter({"bad-output": 1}))
    rel = abs(best - limit) / abs(limit) if limit != 0.0 else abs(best)
    verdict = Verdict(1, margins=[margin(rel, OPTIMIZER_REL_BUDGET)])
    if not converged:
        verdict.causes["not-converged"] += 1
    elif not rel <= OPTIMIZER_REL_BUDGET:
        verdict.causes["best-vs-limit"] += 1
    else:
        verdict.passed_items = 1
    verdict.failed = 1 - verdict.passed_items
    return verdict


def plan_design(
    seed: int,
    work_dir: Path,
    n_outcomes: int = DESIGN_OUTCOMES,
    n_points: int = DESIGN_POINTS,
) -> Plan:
    rng = _rng("design", seed)
    calls = []
    points = []
    for _ in range(n_points):
        h, k = _log_uniform(rng, 0.25, 4.0), _log_uniform(rng, 0.25, 4.0)
        points.append([h, k])
        argv = [
            "optimize", "--h", repr(h), "--k", repr(k),
            "--over", "weights", "--n-outcomes", str(n_outcomes),
        ]
        calls.append(Call(argv, judge_optimize))
    return Plan(calls, {"n_outcomes": n_outcomes, "points": points})


# ---------------------------------------------------------------------------
# query


def judge_report(rc: int | None, out: str, exc: str | None) -> Verdict:
    """Brute force matches closed form within 1e-10 eps; both bounds hold; c770 > 0.

    A failing query is attributed to the first failed check, in the order
    the checks are listed here.
    """
    failed = _failed_call(1, rc, exc)
    if failed is not None:
        return failed
    try:
        payload = json.loads(out)
        eps = float(payload["params"]["eps"])
        energies = payload["energies"]
        e_a_err = abs(float(energies["E_A_bruteforce"]) - float(energies["E_A_closed"]))
        e_b_err = abs(float(energies["E_B_bruteforce"]) - float(energies["maxE_B_closed"]))
        bounds = payload["bounds"]
        c770 = float(bounds["c770"])
        b32, b770 = bounds["bound32"], bounds["bound770"]
        short32 = shortfall(float(b32["slack"]), float(b32["lhs"]))
        short770 = shortfall(float(b770["slack"]), float(b770["lhs"]))
    except (KeyError, TypeError, ValueError):
        return Verdict(1, 1, 0, Counter({"bad-output": 1}))
    checks = [
        ("E_A-routes", e_a_err / eps, CROSS_CHECK_BUDGET),
        ("E_B-routes", e_b_err / eps, CROSS_CHECK_BUDGET),
        ("bound-770", short770, SLACK_BUDGET),
        ("bound-32", short32, SLACK_BUDGET),
    ]
    verdict = Verdict(1, margins=[min(margin(r, b) for _, r, b in checks)])
    for name, residual, budget in checks[:2]:
        if not residual <= budget:
            verdict.causes[name] += 1
            break
    else:
        if not c770 > 0.0:
            verdict.causes["c770-sign"] += 1
        else:
            for name, residual, budget in checks[2:]:
                if not residual <= budget:
                    verdict.causes[name] += 1
                    break
    verdict.failed = 1 if verdict.causes else 0
    verdict.passed_items = 1 - verdict.failed
    return verdict


def plan_query(
    seed: int, work_dir: Path, queries: int = QUERIES, full_domain: bool = False
) -> Plan:
    rng = _rng("query-full" if full_domain else "query", seed)
    min_strength = 0.0 if full_domain else QUERY_MIN_STRENGTH
    files = {}
    for n in range(2, 7):
        for j in range(QUERY_FILES_PER_SIZE):
            weights = balanced_weights(rng, n)
            while max(abs(w["q"]) / w["p"] for w in weights) < min_strength:
                weights = balanced_weights(rng, n)
            path = work_dir / f"povm-{n}-{j}.json"
            _write_json(path, {"weights": weights})
            files[n, j] = str(path)
    if full_domain:
        ratios = _stratified(rng, queries, -8.0, 8.0)
        scales = _stratified(rng, queries, -150.0, 150.0)
        points = [(g + 0.5 * r, g - 0.5 * r) for r, g in zip(ratios, scales)]
        size = {"log10_h_over_k": [-8, 8], "log10_scale": [-150, 150]}
    else:
        points = list(zip(_stratified(rng, queries, *QUERY_LOG10_HK),
                          _stratified(rng, queries, *QUERY_LOG10_HK)))
        size = {"log10_h": list(QUERY_LOG10_HK), "log10_k": list(QUERY_LOG10_HK),
                "min_strength": min_strength}
    calls = []
    for i, (log_h, log_k) in enumerate(points):
        h, k = 10.0 ** log_h, 10.0 ** log_k
        kind = i % 3
        if kind == 0:
            povm = "builtin:projective"
        elif kind == 1:
            povm = f"builtin:weak({rng.uniform(0.05, 1.0):.6f})"
        else:
            povm = files[2 + (i // 3) % 5, (i // 15) % QUERY_FILES_PER_SIZE]
        argv = ["report", "--h", repr(h), "--k", repr(k), "--povm", povm]
        calls.append(Call(argv, judge_report))
    size = {"queries": queries, **size, "povm_files": len(files)}
    return Plan(calls, size, call_is_sample=False)


PLANNERS = {
    "ensemble": plan_ensemble,
    "grid": plan_grid,
    "design": plan_design,
    "query": plan_query,
    "query-full": functools.partial(plan_query, full_domain=True),
}
