"""Operator realizations of radial symbols.

Two realizations are kept deliberately separate:

* the diagonal operator on l2, multiplying entrywise by the eigenvalue
  sequence, and
* the Toeplitz operator on the Segal-Bargmann side, computed here by genuine
  Bargmann projection on the polar quadrature grid.

Keeping the Toeplitz route numerical (it never consults the eigenvalue
sequence) makes the diagonal-equivalence check non-circular.  Domain decisions
are analytic -- exponent or envelope based -- never "the quadrature happened to
converge": numeric convergence of a truncation must not be mistaken for domain
membership.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, DomainWarning, NonConvergent
from .spectra import (
    DEFAULT_QUAD_TOL,
    EigenSequence,
    GeometricTail,
    QuadratureSpec,
    eigen_sequence,
    laguerre_nodes,
)
from .spaces import (
    FockPolynomial,
    L2Sequence,
    angular_count_for,
    basis_polynomial,
    from_sequence,
    polar_grid,
    to_sequence,
)
from .symbols import RadialSymbol, Trivalent, membership, radial_values, require_moments


@dataclass(frozen=True)
class DiagonalOperator:
    """Entrywise multiplication by an eigenvalue sequence on l2."""

    eigen: EigenSequence


def diagonal_apply(op: DiagonalOperator, seq: L2Sequence) -> L2Sequence:
    """entries[n] = phi_n * psi_n, zero-padding the shorter operand.

    Finite truncations are always defined; the l2 subtlety of the full
    operator surfaces through tail metadata: when both tails are geometric and
    the product ratio has modulus >= 1, a ``DomainWarning`` is emitted.
    """
    phi = op.eigen.values
    psi = seq.entries
    n = max(len(phi), len(psi))
    phi = phi + (0j,) * (n - len(phi))
    psi = psi + (0j,) * (n - len(psi))
    tail = None
    if op.eigen.tail is not None and seq.tail is not None:
        ratio = op.eigen.tail.ratio * seq.tail.ratio
        tail = GeometricTail(ratio)
        if abs(ratio) >= 1.0:
            warnings.warn(
                DomainWarning(
                    f"product tail ratio has modulus {abs(ratio):.6g} >= 1: "
                    "the image sequence leaves l2 beyond the truncation"
                )
            )
    return L2Sequence(tuple(p * q for p, q in zip(phi, psi)), tail)


def anti_wick_matrix_element(
    sym: RadialSymbol,
    m: int,
    n: int,
    spec: QuadratureSpec,
    tol: float = DEFAULT_QUAD_TOL,
) -> complex:
    """Matrix element integral phi(|w|) conj(u_m(w)) u_n(w) dmu(w) by polar
    quadrature; for radial symbols this is diagonal: delta_mn phi_n."""
    if m < 0 or n < 0:
        raise ValueError("basis indices must be >= 0")
    # matrix elements need |phi| r^m integrability, not natural-domain membership
    require_moments(sym)
    angular = angular_count_for(max(m, n))

    def once(s: QuadratureSpec) -> complex:
        t, w = laguerre_nodes(s)
        log_damp = (
            np.log(w)
            + 0.5 * (m + n) * np.log(t)
            - 0.5 * (math.lgamma(m + 1) + math.lgamma(n + 1))
        )
        radial = sym.damped(t, log_damp)
        theta = 2.0 * np.pi * np.arange(angular) / angular
        phases = np.exp(1j * (n - m) * theta)
        return complex(np.sum(radial[:, None] * phases[None, :]) / angular)

    coarse, fine = once(spec), once(spec.doubled())
    if not (abs(coarse - fine) <= tol):  # inverted: NaN must not pass
        raise NonConvergent(
            f"matrix element ({m},{n}) at {spec.node_count} and {2 * spec.node_count} nodes "
            f"differs by {abs(coarse - fine):.3g} > tol {tol:.3g}"
        )
    return fine


def in_natural_domain(sym: RadialSymbol, poly: FockPolynomial) -> Trivalent:
    """Does phi * psi lie in L2 against the Gaussian measure?

    For a radial symbol and a polynomial the angular integral splits the
    condition into finiteness of the |phi|^2 moments present in psi, so the
    decision reduces to the growth exponent: delta < 1/2, decided both ways by
    an exact bound and only certified by a declared one.  The zero element
    always belongs.
    """
    if all(c == 0 for c in poly.u_coeffs):
        return Trivalent.YES
    return membership(sym, 0.5)


def toeplitz_apply(
    sym: RadialSymbol,
    poly: FockPolynomial,
    spec: QuadratureSpec,
    tol: float = DEFAULT_QUAD_TOL,
) -> FockPolynomial:
    """Bargmann projection of phi * psi, coefficient by coefficient.

    Each output coefficient is the quadrature of conj(u_m) phi psi -- the
    diagonal structure is measured, not assumed, so this is the independent
    side of every equivalence check.  Requires the natural-domain membership
    to be certified.
    """
    verdict = in_natural_domain(sym, poly)
    if verdict is not Trivalent.YES:
        raise DomainViolation(
            f"phi * psi not certified square-integrable (membership: {verdict.value})"
        )

    coarse = _projection_coeffs(sym, poly, spec)
    fine = _projection_coeffs(sym, poly, spec.doubled())
    gap = float(np.max(np.abs(coarse - fine)))
    if not (gap <= tol):  # inverted: NaN must not pass
        raise NonConvergent(
            f"projection coefficients at {spec.node_count} and {2 * spec.node_count} nodes "
            f"differ by {gap:.3g} > tol {tol:.3g}"
        )
    return FockPolynomial(tuple(fine))


def _projection_coeffs(sym: RadialSymbol, poly: FockPolynomial, spec: QuadratureSpec) -> np.ndarray:
    grid = polar_grid(spec, angular_count_for(poly.degree))
    symbol = radial_values(sym, np.sqrt(grid.t))
    scaled = (grid.radial_weights * symbol)[:, None] * poly.evaluate(grid.points)
    out = np.empty(poly.degree + 1, dtype=complex)
    cpoints = np.conj(grid.points)
    cbasis = np.ones_like(cpoints)  # conj(u_m) on the grid
    prod = np.empty_like(cpoints)
    for m in range(poly.degree + 1):
        if m > 0:
            np.multiply(cbasis, cpoints, out=cbasis)
            np.multiply(cbasis.view(float), 1.0 / math.sqrt(m), out=cbasis.view(float))
        np.multiply(cbasis, scaled, out=prod)
        out[m] = prod.sum() / grid.angular_count
    return out


def extension_apply(
    sym: RadialSymbol,
    poly: FockPolynomial,
    spec: QuadratureSpec | None = None,
    tol: float = DEFAULT_QUAD_TOL,
) -> FockPolynomial:
    """The extension route: unitary map to l2, diagonal multiplication by the
    eigenvalue sequence, unitary map back.  Defined whenever the eigenvalues
    exist, even when the Toeplitz natural domain excludes the element."""
    eig = eigen_sequence(sym, poly.degree, spec, tol)
    image = diagonal_apply(DiagonalOperator(eig), to_sequence(poly))
    return from_sequence(image)


@dataclass(frozen=True)
class EquivalenceReport:
    """Numerical verdict on Toeplitz-vs-diagonal equivalence for one symbol."""

    symbol_in_p: Trivalent
    max_tested_n: int
    per_n_residual: tuple[float, ...]
    verdict: str
    reason: str
    tolerance: float

    def to_json_obj(self) -> dict:
        return {
            "symbol_in_p": self.symbol_in_p.value,
            "max_tested_n": self.max_tested_n,
            "per_n_residual": list(self.per_n_residual),
            "verdict": self.verdict,
            "reason": self.reason,
            "tolerance": self.tolerance,
        }

    def render_text(self) -> str:
        lines = [
            f"verdict:      {self.verdict}",
            f"reason:       {self.reason}",
            f"symbol in P:  {self.symbol_in_p.value}",
            f"tested n <=:  {self.max_tested_n}",
            f"tolerance:    {self.tolerance:g}",
        ]
        if self.per_n_residual:
            worst = max(self.per_n_residual)
            lines.append(f"residuals:    max {worst:.3e} over {len(self.per_n_residual)} basis elements")
        return "\n".join(lines)


EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNDECIDABLE_VERDICT = "undecidable"


def equivalence_report(
    sym: RadialSymbol,
    n_max: int,
    tol: float = 1e-8,
    spec: QuadratureSpec | None = None,
) -> EquivalenceReport:
    """Check T phi u_n = phi_n u_n for n <= n_max by independent quadrature.

    ``equivalent`` requires certified basis-domain membership plus residuals
    below tol.  When membership fails, only the extension (diagonal operator
    pulled back through the unitary map) is defined, and the report says so.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    spec = spec if spec is not None else QuadratureSpec()

    in_p = membership(sym, 0.5)
    if in_p is Trivalent.NO:
        return EquivalenceReport(
            symbol_in_p=in_p,
            max_tested_n=n_max,
            per_n_residual=(),
            verdict=NOT_EQUIVALENT,
            reason=(
                "u_0 lies outside the natural domain, so the Toeplitz operator is not "
                "defined on the basis; only the extension (unitary pullback of the "
                "diagonal operator) exists"
            ),
            tolerance=tol,
        )
    if in_p is Trivalent.UNDECIDABLE:
        return EquivalenceReport(
            symbol_in_p=in_p,
            max_tested_n=n_max,
            per_n_residual=(),
            verdict=UNDECIDABLE_VERDICT,
            reason="the declared envelope does not certify basis-domain membership either way",
            tolerance=tol,
        )

    eig = eigen_sequence(sym, n_max, spec)
    residuals = []
    for n in range(n_max + 1):
        u_n = basis_polynomial(n)
        image = toeplitz_apply(sym, u_n, spec)
        expected = [eig.values[n] * c for c in u_n.u_coeffs]
        residuals.append(
            math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(image.u_coeffs, expected)))
        )
    worst = max(residuals)
    if worst < tol:
        verdict, reason = EQUIVALENT, (
            f"all basis residuals below {tol:g} (worst {worst:.3e}) with certified domain membership"
        )
    else:
        verdict, reason = NOT_EQUIVALENT, (
            f"residual {worst:.3e} at n = {residuals.index(worst)} exceeds tolerance {tol:g}"
        )
    return EquivalenceReport(
        symbol_in_p=in_p,
        max_tested_n=n_max,
        per_n_residual=tuple(residuals),
        verdict=verdict,
        reason=reason,
        tolerance=tol,
    )
