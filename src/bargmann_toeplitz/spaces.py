"""Truncated Segal-Bargmann space and its unitary l2 realization.

The canonical representation of a space element is its coefficient list in the
orthonormal basis u_n(z) = z^n / sqrt(n!); the unitary map onto l2 is then an
exact copy, and Maclaurin (monomial) coefficients are derived views.

Integrals over the complex plane against the Gaussian probability measure are
evaluated on a polar grid: Gauss-Laguerre in t = |z|^2 crossed with a uniform
angular rule, which is exact for the trigonometric polynomials produced by
finite-degree integrands.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .codec import complex_from_json, complex_to_json, sequence_csv
from .errors import NonConvergent
from .spectra import DEFAULT_QUAD_TOL, GeometricTail, QuadratureSpec, laguerre_nodes


def _inv_sqrt_factorial(n: int) -> float:
    return math.exp(-0.5 * math.lgamma(n + 1))


@dataclass(frozen=True)
class FockPolynomial:
    """sum_n u_coeffs[n] * u_n(z) with u_n(z) = z^n / sqrt(n!)."""

    u_coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.u_coeffs)
        if not coeffs:
            coeffs = (0j,)
        object.__setattr__(self, "u_coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.u_coeffs) - 1

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.u_coeffs))

    def monomial_coeffs(self) -> tuple[complex, ...]:
        """Maclaurin coefficients: coefficient of z^n is u_coeffs[n]/sqrt(n!)."""
        return tuple(c * _inv_sqrt_factorial(n) for n, c in enumerate(self.u_coeffs))

    def evaluate(self, z):
        """Value at z (scalar or array), by Horner on the monomial view."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for a in reversed(self.monomial_coeffs()):
            acc = acc * z + a
        return acc if acc.ndim else complex(acc)

    def to_json_obj(self) -> list:
        return [complex_to_json(c) for c in self.u_coeffs]


def basis_polynomial(n: int) -> FockPolynomial:
    """u_n as a truncated element."""
    if n < 0:
        raise ValueError("basis index must be >= 0")
    coeffs = [0j] * (n + 1)
    coeffs[n] = 1.0 + 0j
    return FockPolynomial(tuple(coeffs))


def polynomial_from_json(obj) -> FockPolynomial:
    return FockPolynomial(tuple(complex_from_json(c) for c in obj))


@dataclass(frozen=True)
class L2Sequence:
    """Truncated complex sequence, the l2 realization under the unitary map."""

    entries: tuple[complex, ...]
    tail: GeometricTail | None = None

    def __post_init__(self):
        entries = tuple(complex(c) for c in self.entries)
        if not entries:
            entries = (0j,)
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.entries))

    def inner(self, other: "L2Sequence") -> complex:
        a, b = _zero_pad(self.entries, other.entries)
        return sum(x.conjugate() * y for x, y in zip(a, b))

    def to_json_obj(self) -> list:
        return [complex_to_json(c) for c in self.entries]

    def to_csv(self) -> str:
        return sequence_csv(self.entries)


def _zero_pad(a: tuple[complex, ...], b: tuple[complex, ...]) -> tuple[tuple, tuple]:
    n = max(len(a), len(b))
    return a + (0j,) * (n - len(a)), b + (0j,) * (n - len(b))


def to_sequence(poly: FockPolynomial) -> L2Sequence:
    """The unitary image: entries[n] = (d^n psi)(0)/sqrt(n!) = u_coeffs[n], exactly."""
    return L2Sequence(poly.u_coeffs)


def from_sequence(seq: L2Sequence) -> FockPolynomial:
    """Inverse of ``to_sequence``; round-trips exactly."""
    return FockPolynomial(seq.entries)


def fock_inner(f: FockPolynomial, g: FockPolynomial) -> complex:
    """Inner product, antilinear on the left: sum conj(f_n) g_n."""
    a, b = _zero_pad(f.u_coeffs, g.u_coeffs)
    return sum(x.conjugate() * y for x, y in zip(a, b))


def coherent_overlap(z: complex, w: complex) -> complex:
    """Overlap of the coherent states labeled by conj(z) and w:
    exp(-|z|^2/2) exp(-|w|^2/2) exp(z w)."""
    z, w = complex(z), complex(w)
    return cmath.exp(-0.5 * (abs(z) ** 2 + abs(w) ** 2) + z * w)


@dataclass(frozen=True)
class PolarGrid:
    """Sample points and weights for integrals against the Gaussian measure."""

    t: np.ndarray               # radial nodes in t = |z|^2, positive weights only
    radial_weights: np.ndarray
    points: np.ndarray          # complex grid, shape (len(t), angular_count)
    angular_count: int

    def integrate(self, values: np.ndarray) -> complex:
        """Sum weights * values over the grid; values has the grid's shape."""
        return complex(self.radial_weights @ values.sum(axis=1) / self.angular_count)


def polar_grid(spec: QuadratureSpec, angular_count: int) -> PolarGrid:
    """Gauss-Laguerre x uniform-angle grid for (1/pi) integral f(z) e^{-|z|^2} d^2 z."""
    if angular_count < 1:
        raise ValueError("angular_count must be >= 1")
    nodes, weights = laguerre_nodes(spec)
    mask = weights > 0
    t, w = nodes[mask], weights[mask]
    theta = 2.0 * np.pi * np.arange(angular_count) / angular_count
    points = np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]
    return PolarGrid(t=t, radial_weights=w, points=points, angular_count=angular_count)


def angular_count_for(degree: int) -> int:
    """Angular resolution used for integrands built from degree-N elements."""
    return max(4 * (degree + 1), 16)


def fock_inner_quadrature(f: FockPolynomial, g: FockPolynomial, spec: QuadratureSpec) -> complex:
    """Inner product via the 2D polar quadrature; independent check of the
    coefficient formula."""
    degree = max(f.degree, g.degree)
    grid = polar_grid(spec, angular_count_for(degree))
    return grid.integrate(np.conj(f.evaluate(grid.points)) * g.evaluate(grid.points))


def reproduce_at(
    poly: FockPolynomial,
    z: complex,
    spec: QuadratureSpec,
    tol: float = DEFAULT_QUAD_TOL,
) -> complex:
    """(K_conj(z), psi) by polar quadrature; contract: equals psi(z).

    The kernel exp(z conj(w)) carries every angular harmonic, so the angular
    rule gets a floor of 64 nodes and the acceptance check doubles both the
    radial and angular resolution.  Validated for |z| <= 2 with the default
    rules; outside that disk the doubling check may raise ``NonConvergent``.
    """
    z = complex(z)
    angular = max(angular_count_for(poly.degree), 64)

    def once(s: QuadratureSpec, angular_count: int) -> complex:
        grid = polar_grid(s, angular_count)
        kernel = np.exp(z * np.conj(grid.points))
        return grid.integrate(kernel * poly.evaluate(grid.points))

    coarse = once(spec, angular)
    fine = once(spec.doubled(), 2 * angular)
    if not (abs(coarse - fine) <= tol):  # inverted: NaN must not pass
        raise NonConvergent(
            f"kernel reproduction at {spec.node_count} and {2 * spec.node_count} radial nodes "
            f"differs by {abs(coarse - fine):.3g} > tol {tol:.3g}"
        )
    return fine


def resolution_identity_matrix(n_max: int, spec: QuadratureSpec) -> np.ndarray:
    """Matrix (1/pi) integral <m|z><z|n> d^2 z for m, n <= n_max, by polar
    quadrature; the coherent-state completeness makes it the identity."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    grid = polar_grid(spec, angular_count_for(n_max))
    basis_values = np.empty((n_max + 1,) + grid.points.shape, dtype=complex)
    current = np.ones_like(grid.points)
    basis_values[0] = current
    for n in range(1, n_max + 1):
        current = current * grid.points / math.sqrt(n)
        basis_values[n] = current
    out = np.empty((n_max + 1, n_max + 1), dtype=complex)
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            out[m, n] = grid.integrate(basis_values[m] * np.conj(basis_values[n]))
    return out
