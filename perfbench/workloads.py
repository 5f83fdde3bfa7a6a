"""The four workloads, as rounds of seeded operations.

A round is a fixed mix of operation kinds and sizes; the seed draws the
symbols, coefficients, points and the order.  Every round of a workload costs
about the same, so medians and the tail do not depend on which seed ran, and
the next round draws fresh inputs, so nothing is repeated.

Why each workload exists:

* ``verify_sweep`` -- ``equivalence_report`` over n <= 40.  The grid
  projection in ``operators``/``spaces`` does nearly all the work and grows
  about as n^3; closed-form spectra cost microseconds.  A batched projection
  kernel has to show its gain here.
* ``apply_dense`` -- the same projection layer one input at a time: dense
  ``toeplitz_apply``, single ``anti_wick_matrix_element`` values,
  ``resolution_identity_matrix``, ``fock_inner_quadrature``, ``reproduce_at``.
  A whole-matrix kernel that speeds up ``verify_sweep`` could slow this one.
* ``spectra_blackbox`` -- the quadrature fallback for black-box symbols, where
  the per-node Python loop of ``symbols.damped_values`` does the work and no
  projection runs.
* ``cli_cold`` -- one fresh ``python -m bargmann_toeplitz`` process per
  operation, the only place where import and cold Laguerre rules are not
  amortized.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import bargmann_toeplitz as bt
from bargmann_toeplitz import cli
from bargmann_toeplitz.spaces import angular_count_for, polar_grid
from bargmann_toeplitz.spectra import QuadratureSpec

import oracle
from oracle import Op

DEFAULT_SPEC = QuadratureSpec(200)

# Unit-modulus-type k for which the seed refuses large n with NonConvergent
# even at Q = 800 (0.6-0.8i from n = 24, 0.7+1.5i from n = 28).  They stay in
# the sweep and count as failed operations.
HARD_K = (0.6 - 0.8j, 0.7 + 1.5j)
# Reference k of large argument: 0.8-0.9i is accurate to 1.7e-8 at n = 40,
# while 0.9+1.5i is reported "equivalent" with relative error 7e-4 there.
REFERENCE_K = (0.8 - 0.9j, 0.9 + 1.5j)
# n_max of equivalence_report: a fixed ladder rather than a draw, so every
# round costs the same whatever the seed.
N_LADDER = (8, 12, 16, 20, 24, 28, 32, 36, 40)


# ------------------------------------------------------------- input draws

def draw_real_k(rng: random.Random) -> complex:
    return complex(rng.uniform(1.05, 3.0))


def draw_complex_k(rng: random.Random, hi: float = 2.5) -> complex:
    """|k| in (1, hi] and 0.2 <= |arg k| < arccos(1 / 2|k|): every complex k
    of that size with Re k > 1/2, the class P."""
    modulus = rng.uniform(1.05, hi)
    angle = rng.uniform(0.2, math.acos(0.5 / modulus)) * rng.choice((-1, 1))
    return modulus * cmath.exp(1j * angle)


def draw_half_plane_k(rng: random.Random) -> complex:
    """Re k in (1/2, 2.2], |Im k| <= 2.2: any gamma(k) in P, |k| < 1 included."""
    return complex(rng.uniform(0.5, 2.2), rng.uniform(-2.2, 2.2))


def draw_out_of_p_k(rng: random.Random) -> complex:
    """Re(k) <= 1/2: u_0 leaves the natural domain."""
    return complex(rng.uniform(0.05, 0.45), rng.uniform(-1.0, 1.0))


def draw_poly_symbol(rng: random.Random) -> tuple[complex, ...]:
    """Degree 0..3 radial polynomial with Re p_m > 0, so no phi_n vanishes."""
    return tuple(
        complex(rng.uniform(0.1, 1.0), rng.uniform(-0.3, 0.3))
        for _ in range(rng.randint(1, 4))
    )


def draw_coeffs(rng: random.Random, degree: int) -> tuple[complex, ...]:
    return tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(degree + 1))


def literal(z: complex) -> str:
    """CLI complex literal a+bi, exact for the float it is parsed back into."""
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def rounded(z: complex, digits: int = 6) -> complex:
    return complex(round(z.real, digits), round(z.imag, digits))


# ------------------------------------------------------ black-box evaluator

@dataclass
class Meter:
    """Calls into, and time inside, the benchmark's black-box evaluators."""

    calls: int = 0
    busy_s: float = 0.0
    timed: bool = False


class GammaEvaluator:
    """Black-box r -> k exp((1-k) r^2), counted by a shared ``Meter``."""

    def __init__(self, k: complex, meter: Meter):
        self.k, self.rate, self.meter = complex(k), 1.0 - complex(k), meter

    def __call__(self, r: float) -> complex:
        meter = self.meter
        meter.calls += 1
        if not meter.timed:
            return self.k * cmath.exp(self.rate * (r * r))
        start = time.perf_counter()
        value = self.k * cmath.exp(self.rate * (r * r))
        meter.busy_s += time.perf_counter() - start
        return value


def enveloped_gamma(k: complex, meter: Meter) -> bt.EnvelopedSymbol:
    """Black-box twin of gamma(k) with its exact envelope |k| exp((1-Re k) r^2)."""
    k = complex(k)
    return bt.EnvelopedSymbol(GammaEvaluator(k, meter), abs(k), 1.0 - k.real)


# ------------------------------------------------------ traced-run replays
#
# A replay re-times, at the same arguments, the public calls a composite
# operation makes, as child spans of the operation's span.  It runs after the
# operation, outside its timed interval, and stops where the operation would
# have stopped (a refusal).

def replay_equivalence(sym, n_max: int, spec: QuadratureSpec):
    def replay(rec, op_id: int, parent: int) -> None:
        report = rec.call("symbols.classify", op_id, parent, bt.classify, sym)
        if report.in_p is not bt.Trivalent.YES:
            return
        rec.call("spectra.eigen_sequence", op_id, parent, bt.eigen_sequence, sym, n_max, spec)
        for n in range(n_max + 1):
            angular = angular_count_for(n)
            sid = rec.begin("operators.toeplitz_apply", op_id, parent)
            try:
                bt.toeplitz_apply(sym, bt.basis_polynomial(n), spec)
            finally:
                rec.end(sid)
            rec.call("spaces.polar_grid", op_id, sid, polar_grid, spec, angular)
            rec.call("spaces.polar_grid", op_id, sid, polar_grid, spec.doubled(), angular)

    return replay


def replay_demo_constituents(rec, op_id: int, parent: int, n_show: int, tol: float) -> None:
    """The public calls ``demo`` makes, at its arguments."""
    ks = (2.0 + 0j, complex(math.e), 0.6 - 0.8j, 0.8 - 0.9j)
    for k in ks:
        rec.call("spectra.eigen_sequence", op_id, parent, bt.eigen_sequence, bt.gamma(k), n_show)
        rec.call("symbols.classify", op_id, parent, bt.classify, bt.gamma(k))
    outlier = bt.GaussianRadialSymbol(amplitude=1.0, exponent=0.5 + (math.sqrt(3) / 2) * 1j)
    rec.call("spectra.eigen_sequence", op_id, parent, bt.eigen_sequence, outlier, n_show)
    rec.call("symbols.classify", op_id, parent, bt.classify, outlier)
    rec.call("operators.equivalence_report", op_id, parent, bt.equivalence_report,
             outlier, min(n_show, 4), tol, DEFAULT_SPEC)
    rec.call("spectra.eigen_sequence", op_id, parent, bt.eigen_sequence,
             bt.maxwell_boltzmann(1.0), n_show)
    a = 0.6 - 0.8j
    rec.call("composition.compose_gaussian", op_id, parent, bt.compose_gaussian,
             bt.gamma(a), bt.gamma(a), n_show)
    rec.call("composition.compose_gaussian", op_id, parent, bt.compose_gaussian,
             bt.gamma(a), bt.gamma(a.conjugate()), n_show)


def cli_main_quietly(argv: list[str]) -> int:
    """``cli.main(argv)`` in this process, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def replay_cli(argv: list[str]):
    def replay(rec, op_id: int, parent: int) -> None:
        sid = rec.begin("cli.main", op_id, parent)
        try:
            cli_main_quietly(argv)
        finally:
            rec.end(sid)
        if argv[0] == "demo":
            replay_demo_constituents(rec, op_id, sid, n_show=8, tol=1e-8)

    return replay


# ------------------------------------------------------------ the workloads

@dataclass
class Workload:
    node_counts: tuple[int, ...]          # Laguerre rules the operations use
    round_seconds: float                  # one round on the reference machine
    build_round: Callable[[random.Random], list[Op]]
    in_process: bool = True
    meter: Meter = field(default_factory=Meter)


def verify_round(rng: random.Random) -> list[Op]:
    """Per rung n of the ladder: gamma(k) for real k > 1, for complex |k| > 1,
    a polynomial symbol, one of the two hard k and one of the two reference k
    (each alternating, so that 0.9+1.5i meets n = 40); plus three out-of-P
    symbols at drawn n.  48 operations at the default Q = 200."""
    cases = []
    for i, n in enumerate(N_LADDER):
        cases.append((bt.gamma(draw_real_k(rng)), n))
        cases.append((bt.gamma(draw_complex_k(rng)), n))
        cases.append((bt.PolynomialRadialSymbol(draw_poly_symbol(rng)), n))
        cases.append((bt.gamma(HARD_K[i % 2]), n))
        cases.append((bt.gamma(REFERENCE_K[(i + 1) % 2]), n))
    for _ in range(3):
        cases.append((bt.gamma(draw_out_of_p_k(rng)), rng.choice(N_LADDER)))
    rng.shuffle(cases)
    return [_equivalence_op(sym, n) for sym, n in cases]


def _equivalence_op(sym, n_max: int) -> Op:
    if isinstance(sym, bt.PolynomialRadialSymbol):
        phi, in_p = oracle.polynomial_spectrum(sym.coefficients, n_max), True
    else:
        phi, in_p = oracle.gamma_spectrum(sym.amplitude, n_max), sym.amplitude.real > 0.5
    return Op(
        layer="operators.equivalence_report",
        label=f"n{n_max}",
        call=lambda: bt.equivalence_report(sym, n_max),
        check=lambda report: oracle.check_equivalence(report, phi, in_p),
        replay=replay_equivalence(sym, n_max, DEFAULT_SPEC),
    )


# With nine degrees, 19 operations of a round cost less than a degree-16
# apply and 20 cost more, so the median latency falls among the degree-16
# applies instead of on the edge between two kinds of operation.
APPLY_DEGREES = (4, 8, 16, 24, 32, 40, 48, 56, 64)


def apply_round(rng: random.Random) -> list[Op]:
    """Dense toeplitz_apply at each degree under a real gamma, a complex gamma
    (both Re k > 1/2) and a polynomial symbol; six anti-Wick matrix elements
    (three off the diagonal); resolution_identity_matrix at n = 10, 20, 30;
    three fock_inner_quadrature and three reproduce_at calls.  42 operations.
    Where |k| < 1 or arg k is large the package refuses high degrees, or
    meets only its absolute tolerance; those count as failed operations."""
    ops = []
    for degree in APPLY_DEGREES:
        for sym, phi in (
            _gamma_with_phi(complex(rng.uniform(0.5, 2.2)), degree),
            _gamma_with_phi(draw_half_plane_k(rng), degree),
            _poly_with_phi(draw_poly_symbol(rng), degree),
        ):
            ops.append(_apply_op(sym, phi, draw_coeffs(rng, degree)))
    for i in range(6):
        k = complex(rng.uniform(0.5, 2.2)) if i % 2 else draw_half_plane_k(rng)
        m = rng.randint(0, 40)
        n = m if i < 3 else rng.choice([j for j in range(41) if j != m])
        ops.append(_anti_wick_op(k, m, n))
    for n in (10, 20, 30):
        ops.append(Op(
            layer="spaces.resolution_identity_matrix",
            label=f"n{n}",
            call=lambda n=n: bt.resolution_identity_matrix(n, DEFAULT_SPEC),
            check=_check_identity,
        ))
    for degree in (8, 16, 32):
        f = bt.FockPolynomial(draw_coeffs(rng, degree))
        g = bt.FockPolynomial(draw_coeffs(rng, rng.randint(0, degree)))
        exact = sum(x.conjugate() * y for x, y in zip(f.u_coeffs, g.u_coeffs))
        scale = oracle.norm(f.u_coeffs) * oracle.norm(g.u_coeffs)
        ops.append(Op(
            layer="spaces.fock_inner_quadrature",
            label=f"d{degree}",
            call=lambda f=f, g=g: bt.fock_inner_quadrature(f, g, DEFAULT_SPEC),
            check=lambda v, exact=exact, scale=scale: oracle.check_scalar(v, exact, scale, "inner"),
        ))
    for degree in (4, 8, 16):
        poly = bt.FockPolynomial(draw_coeffs(rng, degree))
        z = rng.uniform(0.0, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        # Cauchy-Schwarz: |psi(z)| <= ||psi|| exp(|z|^2 / 2)
        scale = oracle.norm(poly.u_coeffs) * math.exp(abs(z) ** 2 / 2)
        want = oracle.poly_value(poly.u_coeffs, z)
        ops.append(Op(
            layer="spaces.reproduce_at",
            label=f"d{degree}",
            call=lambda poly=poly, z=z: bt.reproduce_at(poly, z, DEFAULT_SPEC),
            check=lambda v, want=want, scale=scale: oracle.check_scalar(v, want, scale, "kernel"),
        ))
    rng.shuffle(ops)
    return ops


def _gamma_with_phi(k: complex, degree: int):
    return bt.gamma(k), oracle.gamma_spectrum(k, degree)


def _poly_with_phi(coeffs, degree: int):
    return bt.PolynomialRadialSymbol(coeffs), oracle.polynomial_spectrum(coeffs, degree)


def _apply_op(sym, phi, coeffs) -> Op:
    poly = bt.FockPolynomial(coeffs)
    return Op(
        layer="operators.toeplitz_apply",
        label=f"d{len(coeffs) - 1}",
        call=lambda: bt.toeplitz_apply(sym, poly, DEFAULT_SPEC),
        check=lambda image: oracle.check_image(image.u_coeffs, phi, coeffs),
    )


def _anti_wick_op(k: complex, m: int, n: int) -> Op:
    phi = oracle.gamma_spectrum(k, max(m, n))
    want = phi[n] if m == n else 0j
    scale = math.sqrt(abs(phi[m]) * abs(phi[n]))
    return Op(
        layer="operators.anti_wick_matrix_element",
        label="diag" if m == n else "off",
        call=lambda: bt.anti_wick_matrix_element(bt.gamma(k), m, n, DEFAULT_SPEC),
        check=lambda v: oracle.check_scalar(v, want, scale, f"matrix element ({m},{n})"),
    )


def _check_identity(matrix) -> float:
    size = len(matrix)
    err = oracle.worst(
        abs(complex(matrix[i][j]) - (1.0 if i == j else 0.0))
        for i in range(size) for j in range(size)
    )
    return oracle.check_scalar(err, 0j, 1.0, "resolution of the identity")


BLACKBOX_NODES = (100, 200, 400)


def blackbox_round(rng: random.Random, meter: Meter) -> list[Op]:
    """eigen_sequence of enveloped gamma twins at every Q in {100, 200, 400}
    and three n strata in 8..32; quadrature_eigen once per Q; classify of two
    enveloped symbols with 1/2 <= delta < 1; compose_radial of two enveloped
    pairs, one drawn and one with Re(ab) in (0, 1/2].  16 operations."""
    ops = []
    for q in BLACKBOX_NODES:
        spec = QuadratureSpec(q)
        for lo, hi in ((8, 15), (16, 23), (24, 32)):
            k, n_max = draw_complex_k(rng, hi=2.2), rng.randint(lo, hi)
            sym, phi = enveloped_gamma(k, meter), oracle.gamma_spectrum(k, n_max)
            ops.append(Op(
                layer="spectra.eigen_sequence",
                label=f"q{q}",
                call=lambda sym=sym, n_max=n_max, spec=spec: bt.eigen_sequence(sym, n_max, spec),
                check=lambda seq, phi=phi: _check_quadrature_sequence(seq, phi),
            ))
        k, n = draw_complex_k(rng, hi=2.2), rng.randint(8, 32)
        sym, want = enveloped_gamma(k, meter), oracle.gamma_spectrum(k, n)[n]
        ops.append(Op(
            layer="spectra.quadrature_eigen",
            label=f"q{q}",
            call=lambda sym=sym, n=n, spec=spec: bt.quadrature_eigen(sym, n, spec),
            check=lambda v, want=want: oracle.check_scalar(v, want, what="phi_n"),
        ))
    for _ in range(2):
        delta = rng.uniform(0.5, 0.9)
        k = complex(1.0 - delta, rng.uniform(-0.5, 0.5))
        sym = enveloped_gamma(k, meter)
        ops.append(Op(
            layer="symbols.classify",
            label="enveloped",
            call=lambda sym=sym: bt.classify(sym),
            check=oracle.check_undecidable,
        ))
    modulus, angle = rng.uniform(0.9, 1.0), rng.uniform(0.55, 0.65)
    pairs = (
        (draw_complex_k(rng, hi=1.3), draw_complex_k(rng, hi=1.3)),
        (modulus * cmath.exp(1j * angle),) * 2,  # Re(ab) in (0, 1/2]
    )
    for a, b in pairs:
        sa, sb = enveloped_gamma(a, meter), enveloped_gamma(b, meter)
        ops.append(Op(
            layer="composition.compose_radial",
            label=oracle.composition_status(a, b),
            call=lambda sa=sa, sb=sb: bt.compose_radial(sa, sb, 16, spec=DEFAULT_SPEC),
            check=lambda v, a=a, b=b: oracle.check_composition(v, a, b, 16),
        ))
    rng.shuffle(ops)
    return ops


def _check_quadrature_sequence(seq, phi) -> float:
    if seq.method != "quadrature":
        raise oracle.Mismatch(f"black-box spectrum by {seq.method}")
    return oracle.check_sequence(seq.values, phi, "black-box spectrum")


# ------------------------------------------------------------------ cli_cold

def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("BT_DEFAULT_NODES", None)
    return env


def run_cli(argv: list[str], env: dict) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "bargmann_toeplitz", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_round(rng: random.Random, env: dict) -> list[Op]:
    """One fresh process per command.  Five that import and run at the
    default Q = 200: demo, spectrum (closed form), classify, compose, and one
    documented error (exit 2 or exit 1).  Four that first build the cold
    Q = 800 and 1600 rules (--nodes 800): spectrum of an enveloped symbol by
    quadrature, apply twice, verify.  Three rounds give 15 + 12 processes, so
    the median falls on the first kind and the tail (ten samples beyond) on
    the second.  Nine processes."""
    ops = []

    def add(argv, check, label=None):
        ops.append(Op(
            layer="cli.process",
            label=label or argv[0],
            call=lambda: run_cli(argv, env),
            check=lambda out: check(*out),
            replay=replay_cli(argv),
        ))

    def result_check(fn, *args):
        return lambda code, out, err: fn(oracle.cli_report(code, out, err), *args)

    add(["demo", "--no-timestamp"], result_check(oracle.check_demo))

    k, n = rounded(draw_complex_k(rng)), rng.randint(8, 40)
    add(["spectrum", "--symbol", f"gamma:{literal(k)}", "--n", str(n), "--no-timestamp"],
        result_check(oracle.check_cli_spectrum, k, n, "closed_form"))

    k = rounded(complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)))
    add(["classify", "--symbol", f"gamma:{literal(k)}", "--no-timestamp"],
        result_check(oracle.check_cli_classify, k))

    a, b = rounded(draw_complex_k(rng, hi=1.3)), rounded(draw_complex_k(rng, hi=1.3))
    add(["compose", "--a", f"gamma:{literal(a)}", "--b", f"gamma:{literal(b)}", "--no-timestamp"],
        result_check(oracle.check_cli_compose, a, b, 16))

    if rng.random() < 0.5:
        k = rounded(complex(-rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0)))
        add(["spectrum", "--symbol", f"gamma:{literal(k)}"],
            lambda code, out, err: oracle.check_cli_error(code, out, err, (2,)),
            label="error_divergent")
    else:
        add(["classify", "--symbol", f"gamma:{rng.choice(('1+', 'i2', '0.5--1i', 'k'))}"],
            lambda code, out, err: oracle.check_cli_error(code, out, err, (1,)),
            label="error_input")

    k, n = rounded(draw_complex_k(rng, hi=2.2)), rng.randint(6, 12)
    twin = {
        "kind": "enveloped", "envelope_c": abs(k), "envelope_delta": 1.0 - k.real,
        "base": bt.symbol_to_json(bt.gamma(k)),
    }
    add(["spectrum", "--symbol", json.dumps(twin), "--n", str(n), "--nodes", "800",
         "--no-timestamp"],
        result_check(oracle.check_cli_spectrum, k, n, "quadrature"), label="spectrum_q800")

    for lo, hi in ((4, 12), (16, 32)):
        k, coeffs = rounded(draw_complex_k(rng, hi=2.0)), tuple(
            rounded(c) for c in draw_coeffs(rng, rng.randint(lo, hi)))
        # --poly=... keeps a leading minus sign from reading as an option
        add(["apply", "--symbol", f"gamma:{literal(k)}",
             "--poly=" + ",".join(literal(c) for c in coeffs), "--nodes", "800", "--no-timestamp"],
            result_check(oracle.check_cli_apply, k, coeffs), label="apply_q800")

    k = rounded(draw_complex_k(rng))
    add(["verify", "--symbol", f"gamma:{literal(k)}", "--n", "12", "--nodes", "800",
         "--no-timestamp"],
        result_check(oracle.check_cli_verify, k, 12), label="verify_q800")
    rng.shuffle(ops)
    return ops


def make(name: str, root: Path) -> Workload:
    if name == "verify_sweep":
        return Workload((200, 400), 6.9, verify_round)
    if name == "apply_dense":
        return Workload((200, 400), 1.1, apply_round)
    if name == "spectra_blackbox":
        meter = Meter()
        return Workload((100, 200, 400, 800), 0.33, lambda rng: blackbox_round(rng, meter),
                        meter=meter)
    if name == "cli_cold":
        env = cli_env(root)
        return Workload((), 7.0, lambda rng: cli_round(rng, env), in_process=False)
    raise ValueError(f"unknown workload {name!r}")
