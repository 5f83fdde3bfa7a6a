"""Composition of radial Toeplitz operators through their l2 sequences.

Composed diagonal operators multiply pointwise, so the composition question
reduces to: is the product sequence again generated by an admissible radial
symbol?  Verdicts are confined to the Gaussian (geometric-spectrum) family --
there is no general inverse from sequences to symbols here, and non-geometric
products are reported as unrecognized rather than guessed at.

The derivative-series product of two radial Gaussians sums in closed form:

    (c1 e^{s1 t}) diamond (c2 e^{s2 t}) = c1 c2 e^{(s1 + s2 - s1 s2) t},

with t = |w|^2, which for the geometric family sends (k=a, k=b) to k = a*b.
``moyal_partial_sum`` evaluates the series term by term and exists solely as
the independent oracle for that closed form.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import DomainViolation
from .spectra import (
    CLOSED_FORM,
    QUADRATURE,
    EigenSequence,
    GeometricTail,
    QuadratureSpec,
    eigen_sequence,
)
from .symbols import GaussianRadialSymbol, RadialSymbol, Trivalent, gamma, membership

CLOSED_IN_P = "closed_in_P"
NOT_TOEPLITZ_IN_P = "not_toeplitz_in_P"
UNRECOGNIZED = "unrecognized"


@dataclass(frozen=True)
class CompositionVerdict:
    """Outcome of composing two radial Toeplitz operators."""

    product_sequence: EigenSequence
    recognized_symbol: GaussianRadialSymbol | None
    status: str
    reason: str

    def __post_init__(self):
        if self.status not in (CLOSED_IN_P, NOT_TOEPLITZ_IN_P, UNRECOGNIZED):
            raise ValueError(f"unknown composition status {self.status!r}")
        if self.status == CLOSED_IN_P:
            if self.recognized_symbol is None:
                raise ValueError("a closed composition must carry its symbol")
            if membership(self.recognized_symbol, 0.5) is not Trivalent.YES:
                raise ValueError("a closed composition's symbol must be in the admissible class")

    def to_json_obj(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "symbol": self.recognized_symbol.to_json_obj() if self.recognized_symbol else None,
            "sequence": self.product_sequence.to_json_obj(),
        }


def compose_sequences(e1: EigenSequence, e2: EigenSequence) -> EigenSequence:
    """Pointwise product of spectra; geometric tails multiply."""
    n = min(len(e1.values), len(e2.values))
    values = tuple(a * b for a, b in zip(e1.values[:n], e2.values[:n]))
    tail = None
    if e1.tail is not None and e2.tail is not None:
        tail = GeometricTail(e1.tail.ratio * e2.tail.ratio)
    method = CLOSED_FORM if e1.method == CLOSED_FORM and e2.method == CLOSED_FORM else QUADRATURE
    return EigenSequence(values, method, tail)


def recognize_gaussian(eig: EigenSequence, tol: float = 1e-12) -> GaussianRadialSymbol | None:
    """Fit values[n] = c * k^-(n+1) by successive-ratio constancy.

    Returns the Gaussian symbol whose eigenvalue sequence reproduces the input,
    or None: fewer than 3 entries, any zero entry, a non-constant ratio (beyond
    the relative tolerance, anchored at the first ratio), or a fitted k with
    Re(k) <= 0 -- no admissible symbol generates such a sequence.
    """
    values = eig.values
    if len(values) < 3 or any(v == 0 for v in values):
        return None
    anchor = values[1] / values[0]
    if anchor == 0:
        return None
    for a, b in zip(values[1:], values[2:]):
        if abs(b / a - anchor) > tol * abs(anchor):
            return None
    k = 1.0 / anchor
    if k.real <= 0:
        return None
    return GaussianRadialSymbol(amplitude=values[0] * k, exponent=1.0 - k)


def compose_gaussian(
    ga: GaussianRadialSymbol, gb: GaussianRadialSymbol, n_max: int = 16
) -> CompositionVerdict:
    """Compose two geometric-family Toeplitz operators.

    Both factors must be in gamma form (exponent = 1 - amplitude) with
    Re(amplitude) > 1/2 so the operators are diagonal on the basis.  The
    product spectrum is {(ab)^-n}; it is generated by the admissible symbol
    gamma(ab) precisely when Re(ab) > 1/2, and by none otherwise.
    """
    for name, sym in (("a", ga), ("b", gb)):
        if not isinstance(sym, GaussianRadialSymbol) or not sym.is_gamma_form:
            raise DomainViolation(
                f"factor {name} is not in the geometric family (exponent = 1 - amplitude)"
            )
        if sym.amplitude.real <= 0.5:
            raise DomainViolation(
                f"factor {name} has Re(k) = {sym.amplitude.real:.6g} <= 1/2: its Toeplitz "
                "operator is not diagonal on the basis polynomials"
            )
    a, b = ga.amplitude, gb.amplitude
    product = compose_sequences(eigen_sequence(ga, n_max), eigen_sequence(gb, n_max))
    c = a * b
    if c.real > 0.5:
        return CompositionVerdict(
            product_sequence=product,
            recognized_symbol=gamma(c),
            status=CLOSED_IN_P,
            reason=f"product spectrum is geometric with Re(ab) = {c.real:.6g} > 1/2",
        )
    return CompositionVerdict(
        product_sequence=product,
        recognized_symbol=None,
        status=NOT_TOEPLITZ_IN_P,
        reason=(
            f"Re(ab) = {c.real:.6g} <= 1/2: the composed operator is well defined on l2, "
            "but no radial symbol with basis-domain membership generates the spectrum "
            f"{{({c.real:.6g}{c.imag:+.6g}i)^-n}}; the composition is not a Toeplitz "
            "operator within the admissible class"
        ),
    )


def compose_radial(
    sa: RadialSymbol,
    sb: RadialSymbol,
    n_max: int = 16,
    tol: float = 1e-9,
    spec: QuadratureSpec | None = None,
) -> CompositionVerdict:
    """General composition verdict through the sequences.

    Both symbols must be certified members of the basis-domain class.  The
    product sequence is fitted against the geometric family; anything else is
    unrecognized (no inverse construction is attempted).
    """
    for name, sym in (("a", sa), ("b", sb)):
        in_p = membership(sym, 0.5)
        if in_p is not Trivalent.YES:
            raise DomainViolation(
                f"factor {name} is not certified in the basis-domain class "
                f"(membership: {in_p.value})"
            )
    product = compose_sequences(
        eigen_sequence(sa, n_max, spec), eigen_sequence(sb, n_max, spec)
    )
    fitted = recognize_gaussian(product, tol)
    if fitted is None:
        return CompositionVerdict(
            product_sequence=product,
            recognized_symbol=None,
            status=UNRECOGNIZED,
            reason="product spectrum is not geometric within tolerance; no inverse attempted",
        )
    if membership(fitted, 0.5) is Trivalent.YES:
        return CompositionVerdict(
            product_sequence=product,
            recognized_symbol=fitted,
            status=CLOSED_IN_P,
            reason=(
                f"product spectrum is geometric and its generating symbol has "
                f"Re(k) = {fitted.gamma_parameter.real:.6g} > 1/2"
            ),
        )
    return CompositionVerdict(
        product_sequence=product,
        recognized_symbol=fitted,
        status=NOT_TOEPLITZ_IN_P,
        reason=(
            f"product spectrum is geometric but its generating symbol has "
            f"Re(exponent) = {fitted.exponent.real:.6g} >= 1/2, outside the admissible class"
        ),
    )


def moyal_gaussian(ga: GaussianRadialSymbol, gb: GaussianRadialSymbol) -> GaussianRadialSymbol:
    """Closed-form derivative-series product of two radial Gaussians:
    amplitude c1*c2, exponent s1 + s2 - s1*s2.  Defined for every pair; for
    gamma-form factors this is exactly gamma(a*b)."""
    s1, s2 = ga.exponent, gb.exponent
    return GaussianRadialSymbol(
        amplitude=ga.amplitude * gb.amplitude,
        exponent=s1 + s2 - s1 * s2,
    )


def moyal_partial_sum(
    ga: GaussianRadialSymbol, gb: GaussianRadialSymbol, terms: int, w: complex
) -> complex:
    """Partial sum of the derivative series at the point w.

    The k-th derivative of c e^{s t} in w is c s^k conj(w)^k e^{s t} (and
    conjugate-symmetrically in conj(w)), so the series collapses to

        c1 c2 e^{(s1+s2) t} * sum_{k<=terms} (-s1 s2 t)^k / k!,   t = |w|^2.

    Converges to the closed-form product evaluated at |w| as terms grows.
    """
    if terms < 0:
        raise ValueError("the series needs at least the zeroth term")
    t = abs(complex(w)) ** 2
    factor = -ga.exponent * gb.exponent * t
    acc = 0j
    term = 1.0 + 0j
    for k in range(terms + 1):
        acc += term
        term *= factor / (k + 1)
    return ga.amplitude * gb.amplitude * cmath.exp((ga.exponent + gb.exponent) * t) * acc
