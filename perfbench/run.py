"""minqet benchmark: four seeded workloads driven through ``minqet.cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs one pass untraced and one traced and prints the per-layer
metrics.  ``--workload all`` runs every workload both ways and prints every
metric by name and unit.  ``--workload query-full`` runs ``query`` over the
whole physical domain, where the package fails some of its own checks; it is
not one of the timed workloads.  Each workload runs in its own fresh,
single-threaded Python process.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a provenance record.  The benchmark exits 2 without a result when the
checkout holds no ``src/minqet`` or a workload process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import OPERATION, PLANNERS, WORKLOADS  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
PROCESS_TIMEOUT_S = 170.0

# Fresh processes run single-threaded, and with -I, so that the caller's
# PYTHONPATH is ignored and only the checkout's src/ is importable as minqet.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# Times the import, then probes the host speed right after it.
SETUP_PROGRAM = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import minqet.cli
minqet.cli.build_parser()
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import hostspeed
print(seconds, statistics.median(hostspeed.probe() for _ in range(15)))
"""

# Per-function metrics of the traced run: (function, statistic).
FUNCTION_METRICS = (
    ("qmath.hermitian_eig", "calls"),
    ("qmath.hermitian_eig", "us_per_call"),
    ("qmath.tensor", "calls"),
    ("model.build_hamiltonian", "calls"),
    ("measurement.random_measurement", "us_per_call"),
    ("measurement.validate", "us_per_call"),
    ("measurement.balance_weights", "calls"),
    ("measurement.balance_weights", "us_per_call"),
    ("protocol.run", "calls"),
    ("protocol.run", "us_per_call"),
    ("entanglement.consumption", "us_per_call"),
    ("analytic.f_E", "calls"),
    ("analytic.max_EB_closed", "us_per_call"),
    ("optimizer.maximize_over_policy", "ms_per_call"),
    ("optimizer.maximize_over_weights", "ms_per_call"),
)

STAT_UNIT = {"calls": "count", "us_per_call": "us", "ms_per_call": "ms"}


class BenchError(Exception):
    """The benchmark could not measure; it prints no result."""


def run_child(argv: list[str], timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, "-I", *argv],
        cwd=ROOT,
        env={**os.environ, **SINGLE_THREAD_ENV},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
        raise BenchError(f"{argv[0]} exited {proc.returncode}: {tail[0]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(deadline: float) -> list[tuple[float, float]]:
    """(seconds, host speed factor) per fresh process that imports
    minqet.cli and builds its parser.

    One extra process runs first and is discarded: it may compile bytecode.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        line = run_child(
            ["-c", SETUP_PROGRAM, str(ROOT / "src"), str(HERE)],
            deadline - time.monotonic(),
        )
        seconds, probe_s = map(float, line.split())
        samples.append((seconds, hostspeed.speed_factor(probe_s)))
    return samples[1:]


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def line_counts() -> dict[str, int]:
    package = ROOT / "src" / "minqet"
    counts = {
        layer: len((package / f"{layer}.py").read_text().splitlines())
        for layer in LAYERS
    }
    counts["src"] = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return counts


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timings(summary: dict, setup: list[float]) -> dict:
    lat = summary["latencies_ms"]
    if not lat:
        raise BenchError("no operation passed its check, so no latency was measured")
    return {
        "throughput": {"value": summary["throughput"], "unit": "ops/s"},
        "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "latency_p95_ms": {"value": percentile(lat, 95), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def end_to_end_metrics(raw: dict, setup: list[tuple[float, float]]) -> dict:
    """Timings at the reference host speed, and peak memory."""
    metrics = timings(raw, [s * factor for s, factor in setup])
    metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB"}
    return metrics


def per_layer_metrics(raw: dict) -> dict:
    lines = line_counts()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = {"value": raw["layer_calls"][layer], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": raw["layer_self_s"][layer], "unit": "s"}
        metrics[f"{layer}.lines"] = {"value": lines[layer], "unit": "lines"}
    metrics["src.lines"] = {"value": lines["src"], "unit": "lines"}
    for name, stat in FUNCTION_METRICS:
        fn = raw["functions"].get(name, {"calls": 0, "inclusive_s": 0.0})
        if stat == "calls":
            value = fn["calls"]
        else:
            scale = 1e6 if stat == "us_per_call" else 1e3
            value = scale * fn["inclusive_s"] / fn["calls"] if fn["calls"] else 0.0
        metrics[f"{name}.{stat}"] = {"value": value, "unit": STAT_UNIT[stat]}
    metrics["optimizer.evaluations"] = {"value": raw["evaluations"], "unit": "count"}
    worst = raw["per_pass"]["worst_margin_decades"]
    metrics["cli.worst_margin_decades"] = {
        "value": worst if worst is not None else 0.0,
        "unit": "decades",
    }
    metrics["trace.overhead_ratio"] = {"value": raw["overhead_ratio"], "unit": "ratio"}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run: (provenance record, result object)."""
    if not (ROOT / "src" / "minqet" / "cli.py").is_file():
        raise BenchError(f"no minqet sources under {ROOT / 'src'}")
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    setup = [] if trace else measure_setup(deadline)
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        line = run_child(
            [
                str(HERE / "worker.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
                "--work-dir", str(work_dir),
            ],
            deadline - time.monotonic(),
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    raw = json.loads(line)
    counts = raw["per_pass"] if trace else raw["total"]
    metrics = per_layer_metrics(raw) if trace else end_to_end_metrics(raw, setup)
    record = {
        "workload": workload,
        "operation": OPERATION[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": raw["size"],
        "calls_per_pass": raw["calls_per_pass"],
        "per_pass": raw["per_pass"],
        "git_sha": git_sha(),
        "python": raw["python"],
        "numpy": raw["numpy"],
        "nproc": raw["cpu_count"],
    }
    if trace:
        record["root_span_s"] = raw["root_s"]
    else:
        record.update(
            passes=raw["passes"],
            measured_s=raw["measured_s"],
            throughput_samples=raw["throughput_samples"],
            latency_samples=raw["latency_samples"],
            causes=raw["total"]["causes"],
            host_probes=raw["host_probes"],
            host_speed=raw["host_speed"],
            as_timed={
                name: m["value"]
                for name, m in timings(raw["raw"], [s for s, _ in setup]).items()
            },
        )
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    return record, result


def print_table(workload: str, result: dict) -> None:
    print(f"# {workload}: attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*PLANNERS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        if args.workload != "all":
            record, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"record": record}))
            print(json.dumps(result))
            return 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                record, result = run_workload(workload, args.seed, args.seconds, trace)
                print(json.dumps({"record": record}))
                print_table(workload, result)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
