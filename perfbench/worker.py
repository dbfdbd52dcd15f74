"""Runs one workload in a fresh Python process and prints its raw measurements.

Started by ``run.py``; not meant to be run by hand.  It drives the public
CLI entry ``minqet.cli.main(argv)`` in process, repeating the workload's
pass until the measuring time is used up (untraced), or runs the pass once
untraced and once traced (``--trace 1``).  The last line of its standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import PLANNERS, Verdict  # noqa: E402


def call_cli(cli, argv: list[str]) -> tuple[int | None, str, str | None]:
    """One in-process CLI call: (exit code, stdout, exception class or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return None, out.getvalue(), type(exc).__name__
    return rc, out.getvalue(), None


class Timed(NamedTuple):
    """What a run keeps of one call: its span and its counts."""

    t0: float
    t1: float
    attempted: int
    failed: int
    passed_items: float


class Tally:
    """Running failure counts, causes and worst margin over judged calls."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.causes: Counter = Counter()
        self.worst_margin: float | None = None

    def add(self, v: Verdict) -> None:
        self.attempted += v.attempted
        self.failed += v.failed
        self.causes.update(v.causes)
        if v.margins:
            worst = min(v.margins)
            if self.worst_margin is None or worst < self.worst_margin:
                self.worst_margin = worst

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "causes": dict(sorted(self.causes.items())),
            "worst_margin_decades": self.worst_margin,
        }


def run_pass(cli, plan, tallies: tuple[Tally, ...]) -> list[Timed]:
    """Execute every call of the pass once, judge it and add it to the tallies.

    Only the compact ``Timed`` record of each call is kept, so that the
    harness's own memory stays out of the peak RSS of long runs.
    """
    calls = []
    for call in plan.calls:
        call.prepare()
        t0 = time.perf_counter()
        rc, out, exc = call_cli(cli, call.argv)
        t1 = time.perf_counter()
        v = call.judge(rc, out, exc)
        for t in tallies:
            t.add(v)
        calls.append(Timed(t0, t1, v.attempted, v.failed, v.passed_items))
    return calls


def pass_seconds(calls: list[Timed]) -> float:
    return sum(c.t1 - c.t0 for c in calls)


def timing_summary(plan, passes, seconds_of) -> dict:
    """Throughput and latencies, with call durations given by seconds_of(t0, t1).

    Throughput is the median of per-call rates when each call is a large
    batch, and of per-pass rates when a pass is many small calls.  Latency
    is taken over the calls in which at least one operation passed.
    """
    if plan.call_is_sample:
        rates = [c.passed_items / seconds_of(c.t0, c.t1) for p in passes for c in p]
    else:
        rates = [
            sum(c.passed_items for c in p) / sum(seconds_of(c.t0, c.t1) for c in p)
            for p in passes
        ]
    latencies_ms = [
        1e3 * seconds_of(c.t0, c.t1) for p in passes for c in p if c.failed < c.attempted
    ]
    return {
        "throughput_samples": len(rates),
        "throughput": statistics.median(rates),
        "latency_samples": len(latencies_ms),
        "latencies_ms": latencies_ms,
    }


def untraced(cli, plan, seconds: float) -> dict:
    """Repeat the pass while another pass is expected to end within ``seconds``."""
    passes = []
    first, total = Tally(), Tally()
    t_start = time.perf_counter()
    with HostSpeed() as host:
        while not passes or (
            time.perf_counter() - t_start
            + statistics.median(pass_seconds(p) for p in passes) <= seconds
        ):
            passes.append(run_pass(cli, plan, (total,) if passes else (first, total)))
    measured_s = time.perf_counter() - t_start

    def at_reference_speed(t0: float, t1: float) -> float:
        net, factor = host.rescale(t0, t1)
        return net * factor

    return {
        "passes": len(passes),
        "measured_s": measured_s,
        "per_pass": first.as_dict(),
        "total": total.as_dict(),
        "host_probes": len(host.durations),
        "host_speed": hostspeed.REFERENCE_S / statistics.median(host.durations),
        "raw": timing_summary(plan, passes, lambda t0, t1: host.rescale(t0, t1)[0]),
        **timing_summary(plan, passes, at_reference_speed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(cli, plan) -> dict:
    plain = pass_seconds(run_pass(cli, plan, ()))
    counts = Tally()
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = run_pass(cli, plan, (counts,))
    finally:
        tracer.uninstall()
    functions, layer_self, root_s = tracer.summary()
    layer_calls = {layer: 0 for layer in LAYERS}
    for name, stats in functions.items():
        layer_calls[name.split(".", 1)[0]] += stats.calls
    return {
        "per_pass": counts.as_dict(),
        "overhead_ratio": pass_seconds(traced_pass) / plain,
        "functions": {
            name: {"calls": s.calls, "inclusive_s": s.inclusive_s}
            for name, s in sorted(functions.items())
        },
        "layer_calls": layer_calls,
        "layer_self_s": layer_self,
        "root_s": root_s,
        "evaluations": tracer.evaluations,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(PLANNERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    import minqet.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"minqet imported from {cli.__file__}, not from {src}")
    import numpy

    plan = PLANNERS[args.workload](args.seed, Path(args.work_dir))
    result = {
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "size": plan.size,
        "calls_per_pass": len(plan.calls),
        "cpu_count": os.cpu_count(),
    }
    if args.trace:
        result.update(traced(cli, plan))
    else:
        result.update(untraced(cli, plan, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
