"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

They run each workload at a tiny size, check that injected wrong answers
count as failed operations, and check that per-layer self times partition
each root span.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import minqet.cli as cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Tally, call_cli, run_pass  # noqa: E402

TINY = {
    "ensemble": lambda seed, d: workloads.plan_ensemble(seed, d, members=4),
    "grid": lambda seed, d: workloads.plan_grid(seed, d, side=3),
    "design": lambda seed, d: workloads.plan_design(seed, d, n_outcomes=2, n_points=1),
    "query": lambda seed, d: workloads.plan_query(seed, d, queries=9),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_at_tiny_size(workload, tmp_path):
    plan = TINY[workload](3, tmp_path)
    tally = Tally()
    run_pass(cli, plan, (tally,))
    counts = tally.as_dict()
    expected = {"ensemble": 22, "grid": 9, "design": 1, "query": 9}[workload]
    assert counts["attempted"] == expected
    assert counts["failed"] == 0, counts["causes"]
    assert counts["worst_margin_decades"] > 0.0


def test_same_seed_same_inputs(tmp_path):
    argvs = []
    for name in ("a", "b"):
        work_dir = tmp_path / name
        work_dir.mkdir()
        plan = workloads.plan_query(5, work_dir, queries=30)
        argvs.append([[arg.replace(str(work_dir), "") for arg in c.argv] for c in plan.calls])
    assert argvs[0] == argvs[1]
    povm = "povm-4-1.json"
    assert (tmp_path / "a" / povm).read_text() == (tmp_path / "b" / povm).read_text()


@pytest.mark.parametrize("full_domain", (False, True))
def test_query_inputs_lie_in_their_domain(full_domain, tmp_path):
    plan = workloads.plan_query(7, tmp_path, queries=60, full_domain=full_domain)
    lo, hi = (-150.0 - 4.0, 150.0 + 4.0) if full_domain else workloads.QUERY_LOG10_HK
    for call in plan.calls:
        for value in (float(call.argv[2]), float(call.argv[4])):
            assert lo <= math.log10(value) <= hi
    if not full_domain:
        for path in tmp_path.glob("povm-*.json"):
            weights = json.loads(path.read_text())["weights"]
            strength = max(abs(w["q"]) / w["p"] for w in weights)
            assert strength >= workloads.QUERY_MIN_STRENGTH


def test_generated_povms_are_valid(tmp_path):
    workloads.plan_query(11, tmp_path, queries=3)
    for path in tmp_path.glob("povm-*.json"):
        meas = cli.resolve_povm(str(path))
        cli.measurement.validate(meas)


def _good_output(argv):
    rc, out, exc = call_cli(cli, argv)
    assert rc == 0 and exc is None
    return out


def test_perturbed_sweep_cell_fails(tmp_path):
    plan = workloads.plan_grid(2, tmp_path, side=3)
    call = plan.calls[0]
    call.prepare()
    _good_output(call.argv)
    csv_path = tmp_path / "sweep" / "sweep.csv"
    text = csv_path.read_text()
    assert workloads.judge_sweep_rows(0, text, None, side=3).failed == 0

    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[2].split(",")
    col = header.index("maxE_B_numeric")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-6))
    perturbed = lines[:2] + [",".join(cells)] + lines[3:]
    verdict = workloads.judge_sweep_rows(0, "\n".join(perturbed), None, side=3)
    assert verdict.failed == 1
    assert verdict.causes == {"optimizer-vs-closed": 1}

    verdict = workloads.judge_sweep_rows(0, "\n".join(lines[:-1]), None, side=3)
    assert verdict.failed == 1
    assert verdict.causes == {"missing-row": 1}


def test_perturbed_report_value_fails():
    argv = ["report", "--h", "1.0", "--k", "0.7", "--povm", "builtin:weak(0.4)"]
    payload = json.loads(_good_output(argv))
    assert workloads.judge_report(0, json.dumps(payload), None).failed == 0

    payload["energies"]["E_B_bruteforce"] *= 1.0 + 1e-6
    verdict = workloads.judge_report(0, json.dumps(payload), None)
    assert verdict.failed == 1
    assert verdict.causes == {"E_B-routes": 1}


def test_failing_exit_code_or_exception_fails():
    out = _good_output(["verify", "--seed", "0", "--ensemble", "3"])
    assert workloads.judge_verify(0, out, None, members=3).failed == 0
    verdict = workloads.judge_verify(1, out, None, members=3)
    assert verdict.failed == 1 and verdict.causes == {"exit-1": 1}
    failing = out.replace("PASS optimizer-vs-closed", "FAIL optimizer-vs-closed")
    verdict = workloads.judge_verify(1, failing, None, members=22)
    assert verdict.failed == 1 and verdict.causes == {"optimizer-vs-closed": 1}
    assert verdict.passed_items == 21
    # verify --ensemble 0 skips 17 checks, which do not count as passed
    skipped = _good_output(["verify", "--seed", "0", "--ensemble", "0"])
    assert workloads.judge_verify(0, skipped, None).failed == 17
    assert workloads.judge_optimize(2, "", None).failed == 1
    assert workloads.judge_report(None, "", "OverflowError").causes == {"OverflowError": 1}
    assert workloads.judge_sweep_rows(None, None, "RuntimeError", side=3).failed == 9


def test_design_checks_convergence_and_limit():
    good = {"best_value": 0.5, "projective_limit": 0.5, "converged": True}
    assert workloads.judge_optimize(0, json.dumps(good), None).failed == 0
    for bad, cause in (
        ({**good, "converged": False}, "not-converged"),
        ({**good, "best_value": 0.5 * (1 - 1e-6)}, "best-vs-limit"),
    ):
        assert workloads.judge_optimize(0, json.dumps(bad), None).causes == {cause: 1}


def test_self_times_partition_root_spans():
    t = tracer.Tracer()
    t.install()
    try:
        call_cli(cli, ["report", "--h", "1.0", "--k", "2.0", "--povm", "builtin:projective"])
        call_cli(cli, ["report", "--h", "1e200", "--k", "1.0", "--povm", "builtin:projective"])
    finally:
        t.uninstall()
    functions, layer_self, root_s = t.summary()
    assert functions["cli.main"].calls == 2
    assert root_s == pytest.approx(functions["cli.main"].inclusive_s, abs=1e-12)
    assert sum(layer_self.values()) == pytest.approx(root_s, rel=1e-9)
    assert all(v >= 0.0 for v in layer_self.values())
    # aliases imported by name are wrapped as well as module attributes
    assert functions["model.build_hamiltonian"].calls >= 1
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli.build_hamiltonian, "__wrapped__")


def test_tracer_counts_nested_spans_exactly():
    t = tracer.Tracer()

    def leaf():
        return sum(range(1000))

    wrapped_leaf = t.wrap("qmath.leaf", leaf)

    def middle():
        return [wrapped_leaf() for _ in range(3)]

    wrapped_middle = t.wrap("protocol.middle", middle)
    root = t.wrap("cli.root", lambda: wrapped_middle() + [wrapped_leaf()])
    root()
    functions, layer_self, root_s = t.summary()
    assert functions["qmath.leaf"].calls == 4
    assert functions["protocol.middle"].calls == 1
    assert root_s == pytest.approx(sum(layer_self.values()), rel=1e-12)
    assert layer_self["qmath"] == pytest.approx(functions["qmath.leaf"].inclusive_s, rel=1e-12)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
