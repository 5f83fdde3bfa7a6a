"""Closed-form oracle for every operation the benchmark runs.

Each check takes what an operation returned and raises ``Mismatch`` when the
result is wrong; otherwise it returns the relative error it measured.  Errors
are relative to the size of the true value (or to a Cauchy-Schwarz scale where
the true value is zero), so a zero image cannot pass where the true spectrum
has decayed below an absolute tolerance.

``grade`` turns one operation's outcome into a verdict:

* ``ok``      -- the oracle accepted the result;
* ``refused`` -- the package raised one of its documented errors where the
  oracle expected a result (for example ``NonConvergent``).  It counts as a
  failed operation, but the package did not return anything wrong;
* ``inaccurate`` -- a value outside the relative bound whose absolute error
  is within ``ABS_TOL``, the package's own default tolerance.  This is the
  known defect of absolute tolerances on decaying spectra: the package says
  the check passed where the comparison could not fail.  It counts as a
  failed operation;
* ``wrong``   -- a value outside both bounds, a wrong verdict or exit code,
  output that is not strict JSON, or an undocumented exception.  It counts as
  a failed operation and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

# Largest relative error accepted from a quadrature or projection route.
# gamma(0.8-0.9i) at n = 40 has 1.7e-8 at the seed; a zero or wrong image
# has relative error of order 1.
REL_BOUND = 1e-6
# The package's default verification tolerance (``equivalence_report``, the
# CLI's --tol).  A value off by more than this, in absolute terms on a unit
# input, is wrong by the package's own standard.
ABS_TOL = 1e-8

OK, REFUSED, INACCURATE, WRONG = "ok", "refused", "inaccurate", "wrong"

# Documented refusals of the package, and the CLI exit codes that carry them.
REFUSAL_TYPES = ("NonConvergent", "DivergentMoment", "DomainViolation")
REFUSAL_EXIT_CODES = (2, 3)


class Mismatch(Exception):
    """The operation's output disagrees with the closed form."""


class Inaccurate(Mismatch):
    """Outside the relative bound, within the absolute tolerance."""


class Refused(Exception):
    """A documented non-answer where the oracle expected a result: a CLI
    exit code of a refusal, or a composition left unrecognized."""


@dataclass
class Op:
    """One operation of a workload: a call into the package and its oracle.

    ``layer`` names the public call as ``module.function``.  ``check`` receives
    the call's return value and returns the relative error.  ``replay``, used
    by the traced run only, re-times the constituent public calls of a
    composite operation at the same arguments.
    """

    layer: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], float]
    replay: Callable[..., None] | None = None


def grade(op: Op, result: Any = None, exc: BaseException | None = None) -> tuple[str, float]:
    """Verdict and relative error for one outcome of ``op``."""
    if exc is not None:
        return (REFUSED if type(exc).__name__ in REFUSAL_TYPES else WRONG), math.inf
    try:
        err = op.check(result)
    except Refused:
        return REFUSED, math.inf
    except Inaccurate:
        return INACCURATE, math.inf
    except Exception:  # Mismatch, or a result the check cannot even read
        return WRONG, math.inf
    return OK, err


# ---------------------------------------------------------------- closed forms

def gamma_spectrum(k: complex, n_max: int) -> list[complex]:
    """Eigenvalues of gamma(k) = k exp((1-k) r^2): phi_n = k^-n."""
    k = complex(k)
    return [k ** -n for n in range(n_max + 1)]


def polynomial_spectrum(coeffs, n_max: int) -> list[complex]:
    """Eigenvalues of sum_m p_m r^(2m): phi_n = sum_m p_m (n+m)!/n!, the
    rising products taken in exact integer arithmetic."""
    return [
        sum(complex(p) * math.perm(n + m, m) for m, p in enumerate(coeffs))
        for n in range(n_max + 1)
    ]


def poly_value(u_coeffs, z: complex) -> complex:
    """psi(z) = sum_n c_n z^n / sqrt(n!), summed directly."""
    z = complex(z)
    return sum(complex(c) * z ** n / math.sqrt(math.factorial(n)) for n, c in enumerate(u_coeffs))


def norm(values) -> float:
    return math.sqrt(sum(abs(complex(v)) ** 2 for v in values))


# -------------------------------------------------------------------- checks

def worst(errors) -> float:
    """Largest of ``errors``, or NaN if any is NaN (``max`` can skip one)."""
    errors = list(errors)
    return math.nan if any(math.isnan(e) for e in errors) else max(errors)


def _within(err: float, abs_err: float, what: str) -> float:
    """Accept a relative error ``err`` within REL_BOUND; otherwise raise
    ``Inaccurate`` if the absolute error ``abs_err`` is within ABS_TOL and
    ``Mismatch`` if not."""
    # inverted comparisons so a NaN error is a mismatch
    if err <= REL_BOUND:
        return err
    message = f"{what}: relative error {err:.3g} > {REL_BOUND:g}, absolute {abs_err:.3g}"
    if abs_err <= ABS_TOL:
        raise Inaccurate(message)
    raise Mismatch(message)


def check_sequence(got, want, what: str = "sequence") -> float:
    """Entrywise relative error of a sequence against its closed form."""
    got = [complex(v) for v in got]
    if len(got) != len(want):
        raise Mismatch(f"{what}: {len(got)} entries, expected {len(want)}")
    err = worst(abs(g - w) / abs(w) for g, w in zip(got, want))
    return _within(err, worst(abs(g - w) for g, w in zip(got, want)), what)


def check_scalar(got, want: complex, scale: float | None = None, what: str = "value") -> float:
    """|got - want| relative to |want|, or to ``scale`` where the true value
    may vanish (a matrix element off the diagonal)."""
    scale = abs(want) if scale is None else scale
    diff = abs(complex(got) - want)
    return _within(diff / scale, diff, what)


def check_image(image_coeffs, phi, coeffs, what: str = "image") -> float:
    """Toeplitz image of sum c_n u_n against phi_n c_n, coefficient by
    coefficient.  Coefficient n is scaled by |phi_n| ||c||: rounding in the
    projection mixes in the other coefficients, so a small c_n alone is not
    the right size for its error.  The absolute error is taken per unit
    ||c||, as the package's residuals are for unit basis vectors."""
    image = [complex(v) for v in image_coeffs]
    if len(image) != len(coeffs):
        raise Mismatch(f"{what}: {len(image)} coefficients, expected {len(coeffs)}")
    size = norm(coeffs)
    diffs = [abs(g - p * complex(c)) / size for g, p, c in zip(image, phi, coeffs)]
    err = worst(d / abs(p) for d, p in zip(diffs, phi))
    return _within(err, worst(diffs), what)


def check_equivalence(report, phi, in_p: bool) -> float:
    """An ``equivalence_report`` against the closed-form spectrum ``phi``.

    In the class P: verdict ``equivalent`` and every residual ||T u_n - phi_n u_n||
    within the relative bound of |phi_n|.  Outside it: ``not_equivalent`` with
    no residuals, because the Toeplitz operator is not defined on u_0.
    """
    if not in_p:
        if report.verdict != "not_equivalent" or report.symbol_in_p.value != "no":
            raise Mismatch(f"out-of-P symbol reported {report.verdict}")
        if report.per_n_residual:
            raise Mismatch("out-of-P report carries residuals")
        return 0.0
    if report.verdict != "equivalent" or report.symbol_in_p.value != "yes":
        raise Mismatch(f"P symbol reported {report.verdict}")
    residuals = report.per_n_residual
    if len(residuals) != len(phi):
        raise Mismatch(f"{len(residuals)} residuals, expected {len(phi)}")
    err = worst(r / abs(p) for r, p in zip(residuals, phi))
    return _within(err, worst(residuals), "equivalence residual")


def composition_status(a: complex, b: complex, fitted: bool = True) -> str:
    """Documented verdict for composing gamma(a) and gamma(b): the product
    spectrum is (ab)^-n, generated by gamma(ab), which is admissible exactly
    when Re(ab) > 1/2.  ``compose_radial`` fits the product and fits no
    symbol with Re(k) <= 0 at all (``fitted``); ``compose_gaussian``, behind
    the CLI's compose, knows the product in closed form."""
    c = complex(a) * complex(b)
    if fitted and c.real <= 0:
        return "unrecognized"
    return "closed_in_P" if c.real > 0.5 else "not_toeplitz_in_P"


def check_composition(verdict, a: complex, b: complex, n_max: int) -> float:
    """``compose_radial`` of the twins of gamma(a) and gamma(b).  The product
    sequence is checked first.  An accurate product that the package leaves
    ``unrecognized`` (its geometric fit is tighter than its quadrature) is a
    documented non-answer, counted as refused; any other status mismatch is
    wrong."""
    status = composition_status(a, b)
    c = complex(a) * complex(b)
    err = check_sequence(verdict.product_sequence.values, gamma_spectrum(c, n_max), "product")
    if verdict.status == "unrecognized" and status != "unrecognized":
        raise Refused(f"product left unrecognized, expected {status}")
    if verdict.status != status:
        raise Mismatch(f"composition {verdict.status}, expected {status}")
    if status != "unrecognized":
        sym = verdict.recognized_symbol
        err = max(err, check_scalar(sym.amplitude, c, what="fitted k"))
        err = max(err, check_scalar(sym.exponent, 1 - c, scale=abs(c), what="fitted exponent"))
    return err


def check_undecidable(report) -> float:
    """``classify`` of an enveloped symbol with 1/2 <= delta < 1: moments are
    certified, the operator classes are undecidable, evidence is attached."""
    got = (report.in_p.value, report.in_folland.value, report.in_coburn.value)
    if got != ("undecidable",) * 3 or report.in_l1_inf is not True:
        raise Mismatch(f"enveloped classification {got}, l1 {report.in_l1_inf}")
    if "evidence" not in report.reasons:
        raise Mismatch("no moment evidence attached")
    return 0.0


# ------------------------------------------------------------------------ CLI

def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON as RFC 8259 allows it: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def cjson(obj) -> complex:
    return complex(obj["re"], obj["im"])


def check_cli_error(returncode: int, stdout: str, stderr: str, codes) -> float:
    """A documented CLI error: the exit code, nothing on stdout, and exactly
    one line of JSON ``{"error": {"type", "message"}}`` on stderr."""
    if returncode not in codes:
        raise Mismatch(f"exit code {returncode}, expected one of {codes}")
    lines = stderr.splitlines()
    if stdout or len(lines) != 1:
        raise Mismatch("error output is not one line on stderr")
    err = strict_json(lines[0])["error"]
    if not {"type", "message"} <= set(err):
        raise Mismatch("error object lacks type or message")
    return 0.0


def cli_report(returncode: int, stdout: str, stderr: str) -> dict:
    """The ``result`` of a successful CLI run, parsed strictly."""
    if returncode in REFUSAL_EXIT_CODES:
        raise Refused(f"exit code {returncode}: {stderr.strip()[:200]}")
    if returncode != 0:
        raise Mismatch(f"exit code {returncode}: {stderr.strip()[:200]}")
    report = strict_json(stdout)
    if report.get("schema") != "bt-report/1" or "generated_at" in report:
        raise Mismatch("report envelope differs from bt-report/1 without timestamp")
    return report["result"]


def check_demo(result: dict) -> float:
    """The bundled walkthrough: geometric spectra, the bounded spectrum whose
    domain excludes constants, the thermal spectrum, and the counterexample."""
    err = 0.0
    for entry in result["geometric_family_sweep"]:
        k = cjson(entry["k"])
        values = [cjson(v) for v in entry["spectrum"]["values"]]
        err = max(err, check_sequence(values, gamma_spectrum(k, len(values) - 1), f"demo k={k}"))
        want_p = "yes" if k.real > 0.5 else "no"
        if entry["classification"]["in_p"] != want_p:
            raise Mismatch(f"demo classification of k={k}")
    outlier = result["bounded_spectrum_outside_class"]
    if outlier["equivalence"]["verdict"] != "not_equivalent":
        raise Mismatch("demo outlier verdict")
    if any(abs(m - 1.0) > REL_BOUND for m in outlier["spectrum_moduli"]):
        raise Mismatch("demo outlier spectrum is not unimodular")
    thermal = result["thermal_density_spectrum"]
    values = [cjson(v) for v in thermal["spectrum"]["values"]]
    want = [math.exp(-0.5 - n) for n in range(len(values))]
    err = max(err, check_sequence(values, want, "demo thermal"))
    counter = result["composition_counterexample"]
    if counter["self_composition"]["status"] != "not_toeplitz_in_P":
        raise Mismatch("demo self composition")
    if counter["conjugate_composition"]["status"] != "closed_in_P":
        raise Mismatch("demo conjugate composition")
    return err


def check_cli_spectrum(result: dict, k: complex, n_max: int, method: str) -> float:
    spectrum = result["spectrum"]
    if spectrum["method"] != method:
        raise Mismatch(f"spectrum by {spectrum['method']}, expected {method}")
    values = [cjson(v) for v in spectrum["values"]]
    return check_sequence(values, gamma_spectrum(k, n_max), "cli spectrum")


def check_cli_classify(result: dict, k: complex) -> float:
    want = "yes" if complex(k).real > 0.5 else "no"
    if result["classification"]["in_p"] != want:
        raise Mismatch(f"cli classify in_p {result['classification']['in_p']}, expected {want}")
    return 0.0


def check_cli_compose(result: dict, a: complex, b: complex, n_max: int) -> float:
    comp = result["composition"]
    status = composition_status(a, b, fitted=False)
    if comp["status"] != status:
        raise Mismatch(f"cli composition {comp['status']}, expected {status}")
    values = [cjson(v) for v in comp["sequence"]["values"]]
    return check_sequence(values, gamma_spectrum(complex(a) * complex(b), n_max), "cli compose")


def check_cli_apply(result: dict, k: complex, coeffs) -> float:
    image = [cjson(v) for v in result["image"]]
    return check_image(image, gamma_spectrum(k, len(coeffs) - 1), coeffs, "cli apply")


def check_cli_verify(result: dict, k: complex, n_max: int) -> float:
    eq = result["equivalence"]
    if eq["verdict"] != "equivalent":
        raise Mismatch(f"cli verify {eq['verdict']}")
    phi = gamma_spectrum(k, n_max)
    residuals = eq["per_n_residual"]
    if len(residuals) != len(phi):
        raise Mismatch("cli verify residual count")
    return _within(worst(r / abs(p) for r, p in zip(residuals, phi)), worst(residuals),
                   "cli verify residual")
