"""Oracles for tests.

Exact rational-complex arithmetic: floating-point inputs are exact rationals,
so sequences like k^-n can be computed without any rounding and compared
against the double-precision implementation at machine-level tolerances.

Scalar black-box quadrature: one order at a time, one evaluator call per kept
node and order, the arithmetic the batched moment pass must reproduce bit for
bit.  The same scalar product value * math.exp(log_damp) term by term is the
reference for ``EnvelopedSymbol.damped``.  Counting black-box twins of gamma(k)
measure the evaluator calls.

Full-polish Gauss-Laguerre rule: every Golub-Welsch seed Newton-polished and
weighted, including the far tail whose weights underflow; the rule the
package builds must equal its positive-weight part bit for bit.

Allocating projection: the grid projection and Horner evaluation as they were
before the conjugate basis moved into preallocated buffers, one temporary per
array operation; the package must reproduce them bit for bit.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from bargmann_toeplitz import (
    EnvelopedSymbol,
    FockPolynomial,
    NonConvergent,
    QuadratureSpec,
    RadialSymbol,
    laguerre_nodes,
)
from bargmann_toeplitz.spaces import angular_count_for, polar_grid
from bargmann_toeplitz.symbols import radial_values


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


def scalar_damped(sym: EnvelopedSymbol, t: np.ndarray, log_damp: np.ndarray) -> np.ndarray:
    """``sym.damped(t, log_damp)`` term by term: value * math.exp(log_damp) at
    every kept element of a 1-D ``t`` and a ``log_damp`` broadcast against it."""
    log_damp = np.broadcast_to(log_damp, np.broadcast_shapes(t.shape, np.shape(log_damp)))
    bound_log = math.log(sym.envelope_c) + sym.envelope_delta * t
    out = np.zeros(log_damp.shape, dtype=complex)
    for idx in np.ndindex(log_damp.shape):
        j = idx[-1]
        if log_damp[idx] + bound_log[j] > -745.0 and bound_log[j] < 705.0:
            out[idx] = sym.value(math.sqrt(t[j])) * math.exp(log_damp[idx])
    return out


def hex_parts(values: np.ndarray) -> list[tuple[str, str]]:
    """(real.hex(), imag.hex()) of every element, so signed zeros count."""
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in np.ravel(values).tolist()]


def weighted_node_count(spec: QuadratureSpec) -> int:
    return int(np.count_nonzero(laguerre_nodes(spec)[1] > 0))


def _scalar_sum(sym: EnvelopedSymbol, spec: QuadratureSpec, power: float, shift: float, term):
    """sum_j term(phi(sqrt t_j) w_j t_j^power exp(-shift)) over the kept nodes,
    node by node with the scalar libm exp."""
    nodes, weights = laguerre_nodes(spec)
    mask = weights > 0
    t = nodes[mask]
    log_damp = np.log(weights[mask]) + power * np.log(t) - shift
    return np.sum(term(scalar_damped(sym, t, log_damp)))


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


def _scaled_laguerre(order: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l_order and l_{order-1} where l_n(t) = exp(-t/2) L_n(t)."""
    lower = np.exp(-0.5 * t)
    if order == 0:
        return lower, np.zeros_like(t)
    current = (1.0 - t) * lower
    for n in range(1, order):
        lower, current = current, ((2 * n + 1 - t) * current - n * lower) / (n + 1)
    return current, lower


def full_polish_rule(node_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeds, nodes and weights of the Q-node rule with every seed polished."""
    if node_count == 1:
        return np.array([1.0]), np.array([1.0]), np.array([1.0])
    diag = 2.0 * np.arange(node_count) + 1.0
    off = np.arange(1.0, node_count)
    seeds = eigvalsh_tridiagonal(diag, off)
    t = seeds.astype(np.longdouble)
    for _ in range(3):
        lq, lqm = _scaled_laguerre(node_count, t)
        deriv = (node_count * (lq - lqm)) / t - 0.5 * lq
        usable = (deriv != 0) & np.isfinite(deriv) & np.isfinite(lq)
        step = np.where(usable, lq / np.where(usable, deriv, 1.0), 0.0)
        t = t - step
    lnext, _ = _scaled_laguerre(node_count + 1, t)
    damp = np.exp(-t)
    denom = ((node_count + 1) * lnext) ** 2
    usable = (damp > 0) & (denom > 0) & np.isfinite(denom)
    weights = np.where(usable, t * damp / np.where(usable, denom, 1.0), 0.0)
    return seeds, np.asarray(t, dtype=np.float64), np.asarray(weights, dtype=np.float64)


def allocating_evaluate(poly: FockPolynomial, z):
    """``FockPolynomial.evaluate`` with a fresh array per Horner step."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for a in reversed(poly.monomial_coeffs()):
        acc = acc * z + a
    return acc if acc.ndim else complex(acc)


def allocating_projection_coeffs(sym: RadialSymbol, poly: FockPolynomial, spec: QuadratureSpec) -> np.ndarray:
    """``operators._projection_coeffs`` with u_m rebuilt and conjugated per m."""
    grid = polar_grid(spec, angular_count_for(poly.degree))
    symbol = radial_values(sym, np.sqrt(grid.t))
    scaled = (grid.radial_weights * symbol)[:, None] * allocating_evaluate(poly, grid.points)
    out = np.empty(poly.degree + 1, dtype=complex)
    basis = np.ones_like(grid.points)
    for m in range(poly.degree + 1):
        if m > 0:
            basis = basis * grid.points / math.sqrt(m)
        out[m] = np.sum(np.conj(basis) * scaled) / grid.angular_count
    return out
