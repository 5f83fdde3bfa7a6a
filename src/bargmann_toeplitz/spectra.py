"""Eigenvalue sequences of radial symbols.

A radial symbol phi acts diagonally on the occupation basis with eigenvalues

    phi_n = (2/n!) * integral_0^inf phi(r) r^(2n+1) exp(-r^2) dr.

Two routes are provided: an exact closed form for the Gaussian and polynomial
families, and an independent Gauss-Laguerre quadrature after the substitution
t = r^2, which turns the weight into exactly exp(-t):

    phi_n = (1/n!) * integral_0^inf phi(sqrt(t)) t^n exp(-t) dt.

The 1/n! factor is never formed on its own; it is folded into a per-node
log-space factor together with t^n and the quadrature weight, which keeps the
terms bounded for n up to a few hundred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .codec import complex_to_json, sequence_csv
from .errors import NonConvergent
from .symbols import GaussianRadialSymbol, PolynomialRadialSymbol, RadialSymbol, require_moments

DEFAULT_NODE_COUNT = 200
DEFAULT_QUAD_TOL = 1e-10

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Laguerre rule selection by node count."""

    node_count: int = DEFAULT_NODE_COUNT

    def __post_init__(self):
        if int(self.node_count) != self.node_count or self.node_count < 1:
            raise ValueError("node_count must be an integer >= 1")
        object.__setattr__(self, "node_count", int(self.node_count))

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(2 * self.node_count)


@dataclass(frozen=True)
class GeometricTail:
    """values[n+1] = ratio * values[n] for the stored (and implied) entries."""

    ratio: complex
    kind: ClassVar[str] = "geometric"

    def __post_init__(self):
        object.__setattr__(self, "ratio", complex(self.ratio))

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "ratio": complex_to_json(self.ratio)}


@dataclass(frozen=True)
class EigenSequence:
    """Leading eigenvalues phi_0..phi_N of a radial symbol, with provenance."""

    values: tuple[complex, ...]
    method: str
    tail: GeometricTail | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if len(self.values) < 1:
            raise ValueError("an eigenvalue sequence holds at least phi_0")
        if self.method not in (CLOSED_FORM, QUADRATURE):
            raise ValueError(f"unknown method tag {self.method!r}")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> complex:
        return self.values[n]

    def to_json_obj(self) -> dict:
        return {
            "values": [complex_to_json(v) for v in self.values],
            "method": self.method,
            "tail": self.tail.to_json_obj() if self.tail is not None else None,
        }

    def to_csv(self) -> str:
        return sequence_csv(self.values)


def _scaled_laguerre(order: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l_order and l_{order-1} where l_n(t) = exp(-t/2) L_n(t).

    The exp(-t/2) scaling keeps the recurrence within floating-point range on
    the whole node interval, which plain Laguerre evaluation does not.
    """
    lower = np.exp(-0.5 * t)
    if order == 0:
        return lower, np.zeros_like(t)
    current = (1.0 - t) * lower
    for n in range(1, order):
        lower, current = current, ((2 * n + 1 - t) * current - n * lower) / (n + 1)
    return current, lower


@lru_cache(maxsize=32)
def _laguerre_rule(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    if node_count == 1:
        nodes = np.array([1.0])
        weights = np.array([1.0])
    else:
        # Golub-Welsch eigenvalues of the Jacobi matrix seed a Newton polish of
        # the scaled polynomial; weights follow from the (Q+1)-degree value.
        # The recurrence runs in extended precision where the platform has it.
        diag = 2.0 * np.arange(node_count) + 1.0
        off = np.arange(1.0, node_count)
        t = eigvalsh_tridiagonal(diag, off).astype(np.longdouble)
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
        nodes = np.asarray(t, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def laguerre_nodes(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral_0^inf f(t) exp(-t) dt.

    Exact for polynomials up to degree 2*node_count - 1.  Weights in the far
    tail underflow to zero in double precision for large rules; such nodes
    carry no double-precision mass.
    """
    return _laguerre_rule(spec.node_count)


# Orders per batched pass: memory stays O(block x nodes) for any requested order.
_ORDER_BLOCK = 64


def _order_blocks(orders: range):
    for start in range(0, len(orders), _ORDER_BLOCK):
        yield orders[start:start + _ORDER_BLOCK]


def _damped_rows(
    sym: RadialSymbol, powers: np.ndarray, shifts: np.ndarray, spec: QuadratureSpec
) -> np.ndarray:
    """Terms phi(sqrt t_j) w_j t_j^powers[i] exp(-shifts[i]) over the nodes of
    positive weight, one row per i, from a single ``damped`` call.

    Every element is formed with the arithmetic of a one-row call, so a row
    does not depend on the others.
    """
    nodes, weights = laguerre_nodes(spec)
    mask = weights > 0
    t = nodes[mask]
    log_damp = np.log(weights[mask]) + np.multiply.outer(powers, np.log(t)) - shifts[:, None]
    return sym.damped(t, log_damp)


def _moments(sym: RadialSymbol, orders: range, spec: QuadratureSpec) -> list[complex]:
    """Gauss-Laguerre phi_n for every n in ``orders`` from one pass over the rule."""
    shifts = np.array([math.lgamma(n + 1) for n in orders])
    rows = _damped_rows(sym, np.array(orders, dtype=float), shifts, spec)
    return np.sum(rows, axis=1).tolist()


def _accepted_moments(
    sym: RadialSymbol, orders: range, spec: QuadratureSpec, tol: float
) -> list[complex]:
    coarse = _moments(sym, orders, spec)
    fine = _moments(sym, orders, spec.doubled())
    for n, c, f in zip(orders, coarse, fine):
        # inverted comparison so non-finite results cannot slip through
        if not (abs(c - f) <= tol):
            raise NonConvergent(
                f"phi_{n} quadrature at {spec.node_count} and {2 * spec.node_count} nodes "
                f"differs by {abs(c - f):.3g} > tol {tol:.3g}"
            )
    return fine


def quadrature_eigen(
    sym: RadialSymbol, n: int, spec: QuadratureSpec, tol: float = DEFAULT_QUAD_TOL
) -> complex:
    """Gauss-Laguerre value of phi_n, accepted when the rule and its doubling
    agree within tol (absolute)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    require_moments(sym)
    return _accepted_moments(sym, range(n, n + 1), spec, tol)[0]


def absolute_moments(
    sym: RadialSymbol, orders: range, spec: QuadratureSpec
) -> list[tuple[float, float]]:
    """``absolute_moment`` for every m in ``orders``, each rule evaluating the
    symbol once per node."""
    if orders and min(orders) < 0:
        raise ValueError("m must be >= 0")
    out = []
    for block in _order_blocks(orders):
        powers = 0.5 * (np.array(block, dtype=float) - 1)
        shifts = np.full(len(block), math.log(2.0))
        coarse, fine = (
            np.sum(np.abs(_damped_rows(sym, powers, shifts, s)), axis=1)
            for s in (spec, spec.doubled())
        )
        out += zip(fine.tolist(), np.abs(fine - coarse).tolist())
    return out


def absolute_moment(
    sym: RadialSymbol, m: int, spec: QuadratureSpec
) -> tuple[float, float]:
    """Numeric integral_0^inf |phi(r)| r^m exp(-r^2) dr and its Q-vs-2Q gap.

    Evidence helper for classification reports; never a convergence verdict.
    """
    return absolute_moments(sym, range(m, m + 1), spec)[0]


def _rising_product(n: int, m: int) -> float:
    """(n+m)!/n! as a float product, avoiding explicit large factorials."""
    out = 1.0
    for j in range(n + 1, n + m + 1):
        out *= j
    return out


def eigen_sequence(
    sym: RadialSymbol,
    n_max: int,
    spec: QuadratureSpec | None = None,
    tol: float = DEFAULT_QUAD_TOL,
) -> EigenSequence:
    """phi_0..phi_{n_max} by the closed form when one exists.

    Gaussian (c, sigma): phi_n = c * (1-sigma)^-(n+1), built by repeated
    multiplication with the stored geometric ratio (no logarithm branch cuts);
    requires Re(1-sigma) > 0.  Polynomial sum p_m r^(2m): phi_n =
    sum_m p_m (n+m)!/n!.  Black-box symbols fall back to quadrature, which
    evaluates them once per node of each rule for every block of 64 orders.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")

    if isinstance(sym, GaussianRadialSymbol):
        require_moments(sym)
        pole = 1.0 - sym.exponent
        if not pole:  # passes require_moments only for the zero symbol
            return EigenSequence((0j,) * (n_max + 1), CLOSED_FORM, GeometricTail(0j))
        ratio = 1.0 / pole
        values = [sym.amplitude / pole]
        for _ in range(n_max):
            values.append(values[-1] * ratio)
        return EigenSequence(tuple(values), CLOSED_FORM, GeometricTail(ratio))

    if isinstance(sym, PolynomialRadialSymbol):
        values = []
        for n in range(n_max + 1):
            values.append(sum(p * _rising_product(n, m) for m, p in enumerate(sym.coefficients)))
        return EigenSequence(tuple(values), CLOSED_FORM, None)

    spec = spec if spec is not None else QuadratureSpec()
    require_moments(sym)
    values = []
    for block in _order_blocks(range(n_max + 1)):
        values += _accepted_moments(sym, block, spec, tol)
    return EigenSequence(tuple(values), QUADRATURE, None)
