"""Oracles for tests.

Exact rational-complex arithmetic: floating-point inputs are exact rationals,
so sequences like k^-n can be computed without any rounding and compared
against the double-precision implementation at machine-level tolerances.

Scalar black-box quadrature: one order at a time, one evaluator call per kept
node and order, the arithmetic the batched moment pass must reproduce bit for
bit.  Counting black-box twins of gamma(k) measure the evaluator calls.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from bargmann_toeplitz import EnvelopedSymbol, NonConvergent, QuadratureSpec, laguerre_nodes


class RationalComplex:
    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def from_complex(cls, z: complex) -> "RationalComplex":
        return cls(Fraction(z.real), Fraction(z.imag))

    @classmethod
    def one(cls) -> "RationalComplex":
        return cls(1)

    def __add__(self, other):
        return RationalComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return RationalComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def reciprocal(self) -> "RationalComplex":
        denom = self.re * self.re + self.im * self.im
        if denom == 0:
            raise ZeroDivisionError("rational complex division by zero")
        return RationalComplex(self.re / denom, -self.im / denom)

    def __truediv__(self, other):
        return self * other.reciprocal()

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"RationalComplex({self.re!r}, {self.im!r})"


def rel_error(value: complex, exact: RationalComplex) -> float:
    """|value - exact| / |exact| with the difference taken in exact arithmetic
    up to the final float conversion."""
    diff = RationalComplex.from_complex(complex(value)) - exact
    num = (diff.re * diff.re + diff.im * diff.im) ** 0.5
    den = (exact.re * exact.re + exact.im * exact.im) ** 0.5
    if den == 0:
        return float(num)
    return float(num / den)


class CountingGamma:
    """Black-box r -> k exp((1-k) r^2) that counts its calls."""

    def __init__(self, k: complex):
        self.k, self.calls = complex(k), 0

    def __call__(self, r: float) -> complex:
        self.calls += 1
        return self.k * cmath.exp((1.0 - self.k) * (r * r))


def counting_twin(k: complex) -> tuple[EnvelopedSymbol, CountingGamma]:
    """Black-box twin of gamma(k) with its exact envelope |k| exp((1-Re k) r^2)."""
    evaluator = CountingGamma(k)
    return EnvelopedSymbol(evaluator, abs(evaluator.k), 1.0 - evaluator.k.real), evaluator


def weighted_node_count(spec: QuadratureSpec) -> int:
    return int(np.count_nonzero(laguerre_nodes(spec)[1] > 0))


def _scalar_sum(sym: EnvelopedSymbol, spec: QuadratureSpec, power: float, shift: float, term):
    """sum_j term(phi(sqrt t_j) w_j t_j^power exp(-shift)) over the kept nodes,
    node by node with the scalar libm exp."""
    nodes, weights = laguerre_nodes(spec)
    mask = weights > 0
    t = nodes[mask]
    log_damp = np.log(weights[mask]) + power * np.log(t) - shift
    bound_log = math.log(sym.envelope_c) + sym.envelope_delta * t
    keep = (log_damp + bound_log > -745.0) & (bound_log < 705.0)
    out = np.zeros(t.shape, dtype=complex)
    for i in np.nonzero(keep)[0]:
        out[i] = sym.value(math.sqrt(t[i])) * math.exp(log_damp[i])
    return np.sum(term(out))


def scalar_quadrature_eigen(sym: EnvelopedSymbol, n: int, spec: QuadratureSpec, tol: float) -> complex:
    """phi_n at 2Q, accepted when within tol of the Q value."""
    coarse, fine = (complex(_scalar_sum(sym, s, n, math.lgamma(n + 1), lambda x: x))
                    for s in (spec, spec.doubled()))
    if not (abs(coarse - fine) <= tol):
        raise NonConvergent(
            f"phi_{n} quadrature at {spec.node_count} and {2 * spec.node_count} nodes differs by "
            f"{abs(coarse - fine):.3g} > tol {tol:.3g}"
        )
    return fine


def scalar_absolute_moment(sym: EnvelopedSymbol, m: int, spec: QuadratureSpec) -> tuple[float, float]:
    """integral |phi(r)| r^m exp(-r^2) dr at 2Q and its gap to the Q value."""
    coarse, fine = (float(_scalar_sum(sym, s, 0.5 * (m - 1), math.log(2.0), np.abs))
                    for s in (spec, spec.doubled()))
    return fine, abs(fine - coarse)
