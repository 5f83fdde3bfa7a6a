"""Measurement loop, metrics and report for one workload run."""

from __future__ import annotations

import gc
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import bargmann_toeplitz

import oracle
import probes
import workloads
from spans import Recorder

SETUP_REPS = 5
MODULES = ("symbols", "spectra", "spaces", "operators", "composition", "cli")
TAIL_BEYOND = 10          # samples required beyond the tail percentile

_SETUP = """
import time
start = time.perf_counter()
import bargmann_toeplitz
from bargmann_toeplitz.spectra import QuadratureSpec, laguerre_nodes
for q in %r:
    laguerre_nodes(QuadratureSpec(q))
print(time.perf_counter() - start)
"""


@dataclass
class Outcome:
    op: oracle.Op
    seconds: float
    verdict: str
    rel_error: float


def execute(op: oracle.Op, rec: Recorder | None = None, op_id: int = 0) -> Outcome:
    """Run and grade one operation.  With a recorder the operation is timed
    by its span, from ``rec.begin`` through ``rec.end``, so the time includes
    what tracing costs."""
    if rec is None:
        start = time.perf_counter()
    else:
        sid = rec.begin(op.layer, op_id)
    try:
        result, exc = op.call(), None
    except Exception as caught:  # graded below: documented refusal or wrong
        result, exc = None, caught
    seconds = time.perf_counter() - start if rec is None else rec.end(sid)
    verdict, err = oracle.grade(op, result, exc)
    return Outcome(op, seconds, verdict, err)


def setup_seconds(node_counts: tuple[int, ...], env: dict) -> list[float]:
    """Import plus the workload's Laguerre rules, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", _SETUP % (node_counts,)],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times


def rounds(workload: workloads.Workload, rng: random.Random, seconds: float, passes: int = 1):
    """Yield fresh rounds: as many as last ``seconds`` on the reference machine
    when each round runs ``passes`` times.  The count is fixed, not timed, so
    every run of a workload holds the same mix and number of operations and
    the tail percentile stays the same; a faster program finishes sooner.  A
    run that takes four times longer than planned stops early."""
    count = max(1, round(seconds / (passes * workload.round_seconds)))
    start = time.perf_counter()
    for _ in range(count):
        ops = workload.build_round(rng)
        gc.collect()                  # collect garbage between rounds, not inside an operation
        yield ops
        if time.perf_counter() - start > 4 * seconds:
            break


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value, percentile and samples beyond, at the highest percentile that
    has TAIL_BEYOND samples beyond it (the largest sample if there are fewer)."""
    ordered = sorted(latencies)
    i = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0     # Linux reports KiB


def run(name: str, seed: int, seconds: float, traced: bool, root: Path, nproc: int) -> int:
    package = Path(bargmann_toeplitz.__file__).resolve()
    if root / "src" not in package.parents:
        print(f"error: bargmann_toeplitz imported from {package}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    env = workloads.cli_env(root)
    workload = workloads.make(name, root)
    setup = [] if traced else setup_seconds(workload.node_counts, env)
    for q in workload.node_counts:                  # the same rules, warm, in this process
        bargmann_toeplitz.laguerre_nodes(bargmann_toeplitz.QuadratureSpec(q))
    rng = random.Random(seed)

    if traced:
        outcomes, metrics = traced_run(workload, rng, seconds, env, root, name, seed)
    else:
        per_round = [[execute(op) for op in ops] for ops in rounds(workload, rng, seconds)]
        outcomes = [o for done in per_round for o in done]
        metrics = end_to_end(per_round, setup, workload.in_process)
    report(name, seed, nproc, outcomes, metrics, setup, traced)
    return 0


def end_to_end(per_round: list[list[Outcome]], setup: list[float], in_process: bool) -> dict:
    """Throughput is the median over rounds of operations per second spent
    inside them; every round holds the same mix, so a burst of outside load
    moves one round, not the result."""
    latencies = [o.seconds for done in per_round for o in done]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(len(done) / sum(o.seconds for o in done)
                                        for done in per_round), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail(latencies)[0] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(in_process), "MB"),
    }


def traced_run(workload, rng, seconds, env, root, name, seed):
    """Every operation runs twice on the same inputs, untraced and traced
    (span plus evaluator timing), the two in alternating order; the replay of
    a composite operation follows.  The ratio of the two totals is the
    tracing overhead.  Evaluator calls are counted over the untraced runs of
    the first round, a fixed set of seeded inputs."""
    rec, meter = Recorder(), workload.meter
    outcomes, traced_outcomes = [], []
    first_round_calls = first_round_ops = None

    def traced(op, op_id):
        meter.timed = True
        try:
            traced_outcomes.append(execute(op, rec, op_id))
        finally:
            meter.timed = False

    for ops in rounds(workload, rng, seconds, passes=3):
        calls = 0
        for op in ops:
            op_id, sid = len(traced_outcomes), len(rec.spans)   # the span traced() opens
            if op_id % 2:
                traced(op, op_id)
            calls_before = meter.calls
            outcomes.append(execute(op))
            calls += meter.calls - calls_before
            if not op_id % 2:
                traced(op, op_id)
            if op.replay is not None:
                try:
                    op.replay(rec, op_id, sid)
                except (ArithmeticError, ValueError):
                    pass                            # the operation itself was refused here
        if first_round_calls is None:
            first_round_calls, first_round_ops = calls, len(ops)
    traced_s = sum(o.seconds for o in traced_outcomes)

    metrics = probes.measure(env)
    self_s = rec.module_self_s()
    for module in MODULES:
        metrics[f"{module}.self_ms_per_op"] = (self_s.get(module, 0.0) * 1e3 / len(traced_outcomes), "ms")
    metrics["symbols.evaluator_calls_per_op"] = (first_round_calls / first_round_ops, "count")
    metrics["symbols.evaluator_busy_share"] = (meter.busy_s / traced_s, "ratio")
    for module in ("operators", "spectra"):
        errors = [o.rel_error for o in outcomes + traced_outcomes
                  if o.op.layer.startswith(module + ".") and o.verdict == oracle.OK]
        metrics[f"{module}.max_rel_error"] = (max(errors, default=0.0), "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / sum(o.seconds for o in outcomes), "ratio")
    rec.dump(root / ".bench_out" / f"spans-{name}-seed{seed}.json")
    return outcomes + traced_outcomes, metrics


def report(name, seed, nproc, outcomes, metrics, setup, traced) -> None:
    failed = [o for o in outcomes if o.verdict != oracle.OK]
    wrong = [o for o in outcomes if o.verdict == oracle.WRONG]
    latencies = [o.seconds for o in outcomes]
    print(f"workload {name}  seed {seed}  trace {int(traced)}  python {platform.python_version()}  "
          f"numpy {numpy.__version__}  scipy {scipy.__version__}  nproc {nproc}")
    verdicts = Counter(o.verdict for o in failed)
    print(f"  operations {len(outcomes)}  failed {len(failed)}  "
          f"error_rate {len(failed) / len(outcomes):.4f} fraction  "
          + "  ".join(f"{v} {verdicts[v]}" for v in (oracle.REFUSED, oracle.INACCURATE, oracle.WRONG)))
    if not traced:
        value, pct, beyond = tail(latencies)
        at = sorted(outcomes, key=lambda o: o.seconds)[len(outcomes) - 1 - beyond].op
        print(f"  setup: median of {len(setup)} fresh processes {sorted(setup)}")
        print(f"  latency_tail_ms is p{pct:.1f} of {len(latencies)} samples ({beyond} beyond), "
              f"at {at.layer} {at.label}")
    for (layer, label, verdict), count in sorted(Counter(
            (o.op.layer, o.op.label, o.verdict) for o in failed).items()):
        print(f"  {verdict:10s} x{count:<4d} {layer} {label}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:44s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
