"""Radial phase-space symbols and their membership in the classical symbol classes.

A radial symbol is a function phi(|w|) on the complex plane.  Three concrete
families are provided:

* ``GaussianRadialSymbol`` -- phi(r) = c * exp(sigma * r^2), the family whose
  Toeplitz operators have geometric eigenvalue sequences,
* ``PolynomialRadialSymbol`` -- phi(r) = sum_m p_m r^(2m), a closed-form test
  family,
* ``EnvelopedSymbol`` -- a black-box evaluator together with a declared bound
  |phi(r)| <= C * exp(delta * r^2).

Every class question reads one fact, the growth bound
|phi(r)| <= C exp(delta r^2) that ``RadialSymbol.growth`` returns:
moment integrability needs delta < 1; the class of symbols whose Toeplitz
operator contains all basis monomials in its natural domain, Folland's growth
class and Coburn's class (phi times every coherent-state kernel
square-integrable) need delta < 1/2.  ``membership`` makes that threshold
decision and ``classify`` reports it for all four classes.  The bound is exact
for the closed-form families and only declared for black boxes, so it decides
their membership from the envelope, never from samples: integrability cannot be
decided from finitely many evaluations, so numeric moment checks are reported
as evidence only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .codec import complex_from_json, complex_to_json, real_from_json
from .errors import DivergentMoment, EnvelopeViolation

# Log-magnitude floor below which a node cannot contribute to a double sum.
_LOG_NEGLIGIBLE = -745.0


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """Elementwise math.exp: libm's exp, which np.exp differs from by an ulp on
    some arguments."""
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


class Trivalent(Enum):
    """Three-valued membership decision; UNDECIDABLE is a value, not an error."""

    YES = "yes"
    NO = "no"
    UNDECIDABLE = "undecidable"


class RadialSymbol:
    """Base class for radial symbols phi(|w|)."""

    def value(self, r: float) -> complex:
        raise NotImplementedError

    def growth(self) -> tuple[float, bool]:
        """(delta, exact): |phi(r)| <= C exp((delta + eps) r^2) for every eps > 0.

        An exact delta is sharp, so it decides class membership both ways; a
        declared delta is only an upper bound, which can certify membership but
        never refute it.
        """
        raise NotImplementedError

    def damped(self, t: np.ndarray, log_damp: np.ndarray) -> np.ndarray:
        """phi(sqrt(t)) * exp(log_damp) on float arrays, fused so growing symbols
        cannot overflow.

        ``t`` holds the nodes.  ``log_damp`` collects the logs of the positive
        quadrature factors (weights, powers of t, inverse factorials) and
        broadcasts against ``t``: it may carry a leading axis of orders, one
        row per moment, and the result has its shape.
        """
        raise NotImplementedError

    def to_json_obj(self) -> dict:
        raise NotImplementedError


def _require_finite(what: str, *values: complex) -> None:
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class GaussianRadialSymbol(RadialSymbol):
    """phi(r) = amplitude * exp(exponent * r^2)."""

    amplitude: complex
    exponent: complex

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "exponent", complex(self.exponent))
        _require_finite("Gaussian amplitude and exponent", self.amplitude, self.exponent)

    def value(self, r: float) -> complex:
        return self.amplitude * cmath.exp(self.exponent * (r * r))

    def growth(self) -> tuple[float, bool]:
        # amplitude 0 is the zero symbol, which lies in every class
        return (self.exponent.real if self.amplitude else -math.inf), True

    def damped(self, t: np.ndarray, log_damp: np.ndarray) -> np.ndarray:
        if not self.amplitude:  # the zero symbol, whose exponent may overflow exp
            return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(log_damp)), dtype=complex)
        # the growth exponent folds into the damping exponential
        return self.amplitude * np.exp(log_damp + self.exponent * t)

    @property
    def gamma_parameter(self) -> complex:
        """k such that phi = k * exp((1-k) r^2) when the symbol is in gamma form."""
        return 1.0 - self.exponent

    @property
    def is_gamma_form(self) -> bool:
        return abs(self.exponent - (1.0 - self.amplitude)) <= 1e-12 * (1.0 + abs(self.amplitude))

    def to_json_obj(self) -> dict:
        return {
            "kind": "gaussian",
            "amplitude": complex_to_json(self.amplitude),
            "exponent": complex_to_json(self.exponent),
        }


def gamma(k: complex) -> GaussianRadialSymbol:
    """The geometric-family symbol k * exp((1-k) r^2)."""
    k = complex(k)
    return GaussianRadialSymbol(amplitude=k, exponent=1.0 - k)


def maxwell_boltzmann(beta: float) -> GaussianRadialSymbol:
    """Thermal-state symbol exp(beta/2) * exp((1 - e^beta) r^2) for inverse
    temperature beta > 0; its eigenvalue sequence is exp(-beta/2) exp(-beta n)."""
    beta = float(beta)
    if not beta > 0:
        raise ValueError("inverse temperature beta must be positive")
    try:
        growth = math.exp(beta)
    except OverflowError:
        raise ValueError(f"inverse temperature beta = {beta!r} overflows exp(beta)") from None
    return GaussianRadialSymbol(amplitude=math.exp(beta / 2.0), exponent=1.0 - growth)


@dataclass(frozen=True)
class PolynomialRadialSymbol(RadialSymbol):
    """phi(r) = sum_m coefficients[m] * r^(2m), trailing zeros stripped."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        coeffs = [complex(c) for c in self.coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0j]
        _require_finite("polynomial coefficients", *coeffs)
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def value(self, r: float) -> complex:
        return self._horner(r * r)

    def growth(self) -> tuple[float, bool]:
        return 0.0, True

    def damped(self, t: np.ndarray, log_damp: np.ndarray) -> np.ndarray:
        return self._horner(t) * np.exp(log_damp)

    def _horner(self, t):
        """sum_m coefficients[m] * t^m for a scalar or an array t."""
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def to_json_obj(self) -> dict:
        return {
            "kind": "polynomial",
            "coefficients": [complex_to_json(c) for c in self.coefficients],
        }


@dataclass(frozen=True)
class EnvelopedSymbol(RadialSymbol):
    """Black-box radial symbol with a declared envelope |phi(r)| <= C exp(delta r^2).

    The envelope is an asserted contract: every evaluation is checked against it
    and a violation raises ``EnvelopeViolation`` (the metadata is inconsistent).
    ``base`` optionally names a concrete symbol providing the evaluator, which
    also makes the symbol JSON-serializable.
    """

    evaluator: Callable[[float], complex] | None
    envelope_c: float
    envelope_delta: float
    base: RadialSymbol | None = None

    def __post_init__(self):
        object.__setattr__(self, "envelope_c", float(self.envelope_c))
        object.__setattr__(self, "envelope_delta", float(self.envelope_delta))
        _require_finite("envelope constants", self.envelope_c, self.envelope_delta)
        if self.envelope_c <= 0:
            raise ValueError("envelope constant C must be positive")
        if self.evaluator is None and self.base is None:
            raise ValueError("an evaluator or a base symbol is required")

    def value(self, r: float) -> complex:
        return self._samples([r])[0]

    def _samples(self, radii: list[float]) -> list[complex]:
        """phi at each radius in turn, each value checked against the envelope
        before the next is asked for."""
        r = np.array(radii, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # silent, like float arithmetic
            bounds = self.envelope_c * _libm_exp(np.minimum(self.envelope_delta * r * r, 709.0))
            limits = bounds * (1.0 + 1e-9)
        evaluator, base = self.evaluator, self.base
        out = []
        for radius, bound, limit in zip(radii, bounds.tolist(), limits.tolist()):
            v = complex(evaluator(radius)) if evaluator is not None else base.value(radius)
            # inverted comparison so non-finite evaluations count as violations
            if not (abs(v) <= limit):
                raise EnvelopeViolation(
                    f"|phi({radius!r})| = {abs(v):.6g} exceeds declared envelope "
                    f"{self.envelope_c:.6g}*exp({self.envelope_delta:.6g}*r^2) = {bound:.6g}"
                )
            out.append(v)
        return out

    def growth(self) -> tuple[float, bool]:
        return self.envelope_delta, False

    def damped(self, t: np.ndarray, log_damp: np.ndarray) -> np.ndarray:
        # Nodes whose envelope bound makes the term negligible are skipped, and
        # so are nodes where the declared bound itself exceeds double range: the
        # black box is never asked for values where it may overflow.  For
        # certified symbols (delta < 1, moderate moment order) the skipped mass
        # is exponentially small; beyond that regime the doubling checks refuse
        # the result.
        # The black box runs once per node that any row keeps.  Each kept term
        # has the bits of the scalar product value * math.exp(log_damp).
        bound_log = math.log(self.envelope_c) + self.envelope_delta * t
        keep = (log_damp + bound_log > _LOG_NEGLIGIBLE) & (bound_log < 705.0)
        rows = keep.reshape(-1, t.size)
        used = np.flatnonzero(rows.any(axis=0))
        phi = np.zeros(t.size, dtype=complex)
        phi[used] = self._samples(np.sqrt(t.reshape(-1)[used]).tolist())
        row, node = np.nonzero(rows)
        x = _libm_exp(np.broadcast_to(log_damp, keep.shape).reshape(rows.shape)[row, node])
        re, im = phi.real[node], phi.imag[node]
        out = np.zeros(rows.shape, dtype=complex)
        # CPython multiplies complex by float as by complex(x, 0.0); numpy's
        # complex-by-real product may fuse, which changes the sign of
        # underflowed zeros.
        out.real[row, node] = re * x - im * 0.0
        out.imag[row, node] = re * 0.0 + im * x
        return out.reshape(keep.shape)

    def to_json_obj(self) -> dict:
        if self.base is None:
            raise ValueError("a black-box evaluator cannot be serialized; construct with base=")
        return {
            "kind": "enveloped",
            "envelope_c": self.envelope_c,
            "envelope_delta": self.envelope_delta,
            "base": self.base.to_json_obj(),
        }


def symbol_to_json(sym: RadialSymbol) -> dict:
    return sym.to_json_obj()


def symbol_from_json(obj: dict) -> RadialSymbol:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("symbol JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "gaussian":
        return GaussianRadialSymbol(
            amplitude=complex_from_json(obj["amplitude"]),
            exponent=complex_from_json(obj["exponent"]),
        )
    if kind == "polynomial":
        return PolynomialRadialSymbol(tuple(complex_from_json(c) for c in obj["coefficients"]))
    if kind == "enveloped":
        if "base" not in obj:
            raise ValueError("enveloped symbol JSON requires a 'base' symbol for evaluation")
        return EnvelopedSymbol(
            evaluator=None,
            envelope_c=real_from_json(obj["envelope_c"]),
            envelope_delta=real_from_json(obj["envelope_delta"]),
            base=symbol_from_json(obj["base"]),
        )
    raise ValueError(f"unknown symbol kind {kind!r}")


def eval_symbol(sym: RadialSymbol, r: float) -> complex:
    """Evaluate phi at radius r >= 0."""
    r = float(r)
    if r < 0 or not math.isfinite(r):
        raise ValueError(f"radius must be finite and nonnegative, got {r!r}")
    return sym.value(r)


def radial_values(sym: RadialSymbol, r: np.ndarray) -> np.ndarray:
    """Vectorized phi(r) on an array of radii: ``damped`` with no damping."""
    r = np.asarray(r, dtype=float)
    return sym.damped(r * r, np.zeros_like(r))


def damped_values(sym: RadialSymbol, t: np.ndarray, log_damp: np.ndarray) -> np.ndarray:
    """phi(sqrt(t)) * exp(log_damp); see ``RadialSymbol.damped``."""
    return sym.damped(np.asarray(t, dtype=float), log_damp)


_MOMENT_TEXT = {
    Trivalent.YES: "< 1: every weighted moment of |phi| is finite",
    Trivalent.NO: ">= 1: every weighted moment of |phi| diverges",
    Trivalent.UNDECIDABLE: ">= 1: the envelope does not certify the weighted moments of |phi|",
}
_DECIDES = {
    Trivalent.YES: "certifies",
    Trivalent.NO: "refutes",
    Trivalent.UNDECIDABLE: "can neither certify nor refute",
}


def _bound_text(sym: RadialSymbol) -> str:
    delta, exact = sym.growth()
    return f"{'exact' if exact else 'declared'} growth exponent delta = {delta:.6g}"


def membership(sym: RadialSymbol, threshold: float) -> Trivalent:
    """Is the growth exponent delta below ``threshold``?

    YES when it is; otherwise NO for an exact bound and UNDECIDABLE for a
    declared one, which cannot refute membership.
    """
    delta, exact = sym.growth()
    if delta < threshold:
        return Trivalent.YES
    return Trivalent.NO if exact else Trivalent.UNDECIDABLE


def require_moments(sym: RadialSymbol) -> None:
    """Raise ``DivergentMoment`` unless delta < 1 certifies every weighted
    moment of |phi|, which eigenvalues and matrix elements need."""
    verdict = membership(sym, 1.0)
    if verdict is not Trivalent.YES:
        raise DivergentMoment(f"{_bound_text(sym)} {_MOMENT_TEXT[verdict]}")


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of ``classify``.

    ``in_l1_inf`` is certified membership in the moment-integrable set, with
    ``l1_verified_moment`` the largest moment order verified (-1 when none).
    The three class decisions are trivalent, and the report enforces the
    inclusion chain Folland => Coburn => basis-domain membership.
    """

    in_l1_inf: bool
    l1_verified_moment: int
    in_p: Trivalent
    in_folland: Trivalent
    in_coburn: Trivalent
    reasons: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.in_folland is Trivalent.YES and self.in_coburn is not Trivalent.YES:
            raise ValueError("inconsistent report: Folland membership implies Coburn membership")
        if self.in_coburn is Trivalent.YES and self.in_p is not Trivalent.YES:
            raise ValueError("inconsistent report: Coburn membership implies basis-domain membership")

    def to_json_obj(self) -> dict:
        return {
            "in_l1_inf": self.in_l1_inf,
            "l1_verified_moment": self.l1_verified_moment,
            "in_p": self.in_p.value,
            "in_folland": self.in_folland.value,
            "in_coburn": self.in_coburn.value,
            "reasons": dict(self.reasons),
        }


def classify(sym: RadialSymbol, m_max: int = 8) -> ClassificationReport:
    """Decide symbol-class membership from ``sym.growth()`` alone.

    Moment integrability holds iff delta < 1; the three operator classes
    coincide for a radial growth bound and hold iff delta < 1/2.  Exact for the
    closed-form families; for a declared envelope with delta >= 1/2 the
    operator classes are undecidable and numeric moments up to ``m_max`` are
    attached as evidence.
    """
    m_max = int(m_max)
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    bound = _bound_text(sym)
    moments = membership(sym, 1.0)
    member = membership(sym, 0.5)
    decides = f"{bound} {_DECIDES[member]}"
    reasons = {
        "l1_inf": f"{bound} {_MOMENT_TEXT[moments]}",
        "p": f"{decides} basis-domain membership: |phi u_n|^2 is integrable for every n when delta < 1/2",
        "folland": f"{decides} Folland's growth condition delta < 1/2",
        "coburn": f"{decides} Coburn's coherent-kernel condition, which also needs delta < 1/2",
    }
    if member is Trivalent.UNDECIDABLE:
        reasons["evidence"] = _moment_evidence(sym, m_max)
    l1 = moments is Trivalent.YES
    return ClassificationReport(l1, m_max if l1 else -1, member, member, member, reasons)


def _moment_evidence(sym: RadialSymbol, m_max: int) -> str:
    # Numeric evidence only; finite samples never decide integrability.
    from .spectra import QuadratureSpec, absolute_moments

    checked = absolute_moments(sym, range(m_max + 1), QuadratureSpec(200))
    worst = max((d for _, d in checked), default=0.0)
    largest = max((v for v, _ in checked), default=0.0)
    return (
        f"numeric |phi| moments m <= {m_max}: largest value {largest:.6g}, worst 200-vs-400-node "
        f"disagreement {worst:.3g} (evidence only, not a verdict)"
    )
