"""Per-layer timings at fixed arguments, the same in every traced run.

Each probe times one public call of one module.  Warm probes make one untimed
call first (so the Laguerre rules they use are cached) and report the median
of a few calls; cold probes start a fresh interpreter.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import bargmann_toeplitz as bt
from bargmann_toeplitz.spaces import polar_grid
from bargmann_toeplitz.spectra import QuadratureSpec, absolute_moment, laguerre_nodes
from bargmann_toeplitz.symbols import damped_values

from workloads import Meter, cli_main_quietly, enveloped_gamma, run_cli

COLD_NODE_COUNTS = (200, 400, 800, 1600, 3200)
EQUIVALENCE_NS = (12, 24, 40)

CLI_COMMANDS = {
    "demo": ["demo", "--no-timestamp"],
    "spectrum": ["spectrum", "--symbol", "gamma:2", "--n", "20", "--no-timestamp"],
    "classify": ["classify", "--symbol", "gamma:0.6-0.8i", "--no-timestamp"],
    "compose": ["compose", "--a", "gamma:0.6-0.8i", "--b", "gamma:0.6+0.8i", "--no-timestamp"],
    "apply": ["apply", "--symbol", "gamma:2", "--poly", "1,0.5,0,0.25,0,0,0,0.1", "--no-timestamp"],
    "verify": ["verify", "--symbol", "gamma:2", "--n", "12", "--no-timestamp"],
}

_COLD_RULES = """
import json, time
from bargmann_toeplitz.spectra import QuadratureSpec, laguerre_nodes
laguerre_nodes(QuadratureSpec(8))
out = {}
for q in %r:
    start = time.perf_counter()
    laguerre_nodes(QuadratureSpec(q))
    out[q] = time.perf_counter() - start
print(json.dumps(out))
"""


def warm(fn, *args, reps: int = 3) -> float:
    """Median seconds of ``reps`` calls after one untimed call."""
    fn(*args)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_times(env: dict, reps: int = 3) -> tuple[float, float]:
    """Fresh-interpreter import of the package, and the part spent importing
    scipy.linalg, from ``-X importtime`` (cumulative microseconds)."""
    totals, scipys = [], []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bargmann_toeplitz"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        totals.append(cumulative["bargmann_toeplitz"])
        scipys.append(cumulative.get("scipy.linalg", 0.0))
    return statistics.median(totals), statistics.median(scipys)


def cold_rules(env: dict) -> dict[int, float]:
    """First build of each Laguerre rule in a fresh process (after a Q = 8
    rule, so numpy's own first-call costs are not counted)."""
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RULES % (COLD_NODE_COUNTS,)],
        env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return {int(q): t for q, t in json.loads(proc.stdout).items()}


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure(env: dict) -> dict[str, tuple[float, str]]:
    """Every fixed-argument per-layer metric, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    spec = QuadratureSpec(200)
    rng = random.Random(0)

    def dense(degree):
        return bt.FockPolynomial(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                       for _ in range(degree + 1)))

    total, scipy_linalg = import_times(env)
    out["import.total_s"] = (total, "s")
    out["import.scipy_linalg_s"] = (scipy_linalg, "s")
    for q, t in cold_rules(env).items():
        out[f"spectra.laguerre_nodes_cold_ms.q{q}"] = (t * 1e3, "ms")

    meter = Meter()
    twin = enveloped_gamma(1.5, meter)
    wide = enveloped_gamma(0.3 + 0.2j, meter)        # delta = 0.7: classify builds evidence
    nodes, weights = laguerre_nodes(spec)
    mask = weights > 0
    t = nodes[mask]
    log_damp = np.log(weights[mask]) + 16 * np.log(t) - math.lgamma(17)   # phi_16's factors

    ms, us = 1e3, 1e6
    out["spectra.eigen_sequence_ms.closed"] = (warm(bt.eigen_sequence, bt.gamma(1.5), 32) * ms, "ms")
    out["spectra.eigen_sequence_ms.quadrature"] = (warm(bt.eigen_sequence, twin, 16, spec) * ms, "ms")
    out["spectra.quadrature_eigen_ms"] = (warm(bt.quadrature_eigen, twin, 16, spec) * ms, "ms")
    out["spectra.absolute_moment_ms"] = (warm(absolute_moment, wide, 4, spec) * ms, "ms")
    out["symbols.classify_us.gaussian"] = (warm(bt.classify, bt.gamma(1.5)) * us, "us")
    out["symbols.classify_us.enveloped"] = (warm(bt.classify, wide) * us, "us")
    out["symbols.damped_values_us.gaussian"] = (warm(damped_values, bt.gamma(1.5), t, log_damp) * us, "us")
    out["symbols.damped_values_us.enveloped"] = (warm(damped_values, twin, t, log_damp) * us, "us")

    out["spaces.polar_grid_ms"] = (warm(polar_grid, spec, 132) * ms, "ms")
    out["spaces.fock_inner_quadrature_ms"] = (
        warm(bt.fock_inner_quadrature, dense(16), dense(16), spec) * ms, "ms")
    out["spaces.reproduce_at_ms"] = (warm(bt.reproduce_at, dense(8), 1 + 1j, spec) * ms, "ms")
    for n in (10, 20, 30):
        out[f"spaces.resolution_identity_matrix_ms.n{n}"] = (
            warm(bt.resolution_identity_matrix, n, spec) * ms, "ms")

    for degree in (4, 16, 32, 64):
        out[f"operators.toeplitz_apply_ms.d{degree}"] = (
            warm(bt.toeplitz_apply, bt.gamma(1.5), dense(degree), spec) * ms, "ms")
    out["operators.toeplitz_apply_ms.u30"] = (
        warm(bt.toeplitz_apply, bt.gamma(2), bt.basis_polynomial(30), spec) * ms, "ms")
    out["operators.anti_wick_matrix_element_us"] = (
        warm(bt.anti_wick_matrix_element, bt.gamma(1.5), 20, 20, spec) * us, "us")
    eq = [warm(bt.equivalence_report, bt.gamma(2), n) for n in EQUIVALENCE_NS]
    for n, sec in zip(EQUIVALENCE_NS, eq):
        out[f"operators.equivalence_report_ms.n{n}"] = (sec * ms, "ms")
    out["operators.equivalence_report_slope"] = (slope(EQUIVALENCE_NS, eq), "ratio")

    a = bt.gamma(0.6 - 0.8j)
    out["composition.compose_gaussian_us"] = (warm(bt.compose_gaussian, a, a, 16) * us, "us")
    out["composition.compose_radial_ms"] = (
        warm(bt.compose_radial, twin, enveloped_gamma(1.2 - 0.3j, meter), 16, 1e-9, spec) * ms, "ms")

    for name, argv in CLI_COMMANDS.items():
        out[f"cli.run_ms.{name}"] = (warm(cli_main_quietly, argv) * ms, "ms")
    for name, argv in CLI_COMMANDS.items():
        start = time.perf_counter()
        code, _, err = run_cli(argv, env)
        if code != 0:
            raise RuntimeError(f"cli probe {name} exited {code}: {err.strip()}")
        out[f"cli.process_wall_ms.{name}"] = ((time.perf_counter() - start) * ms, "ms")
    return out
