"""Command-line surface.

Commands: classify, spectrum, apply, verify, compose, demo.  Reports are JSON
by default (schema ``bt-report/1``), with CSV available for sequence-like
results and a plain-text rendering for terminals.  Every JSON report embeds
the configuration needed to reproduce it; the timestamp field is suppressible
so identical configurations produce byte-identical reports.

Exit codes: 0 success, 1 invalid input, 2 divergent moment / domain violation,
3 non-convergent quadrature.  Errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .composition import compose_gaussian, compose_radial
from .errors import DivergentMoment, DomainViolation, NonConvergent
from .operators import equivalence_report, toeplitz_apply
from .spaces import FockPolynomial, polynomial_from_json
from .spectra import QuadratureSpec, eigen_sequence
from .symbols import (
    GaussianRadialSymbol,
    RadialSymbol,
    classify,
    gamma,
    maxwell_boltzmann,
    symbol_from_json,
    symbol_to_json,
)

REPORT_SCHEMA = "bt-report/1"
ENV_DEFAULT_NODES = "BT_DEFAULT_NODES"
# Largest rule benchmarked; the rule build is quadratic in the node count.
MAX_NODES = 3200


def parse_complex_literal(text: str) -> complex:
    """Shell-safe complex literal ``a±bi`` with no spaces, e.g. 0.6-0.8i."""
    s = text.strip()
    if not s or " " in s:
        raise ValueError(f"not a complex literal: {text!r}")
    try:
        z = complex(s.replace("i", "j").replace("I", "J"))
    except ValueError:
        raise ValueError(f"not a complex literal: {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"complex literal must be finite: {text!r}")
    return z


def parse_symbol_spec(text: str) -> RadialSymbol:
    """Symbol argument: ``gamma:K``, ``mb:BETA``, inline JSON, or @file."""
    if text.startswith("gamma:"):
        return gamma(parse_complex_literal(text[len("gamma:"):]))
    if text.startswith("mb:"):
        return maxwell_boltzmann(float(text[len("mb:"):]))
    if text.lstrip().startswith("{"):
        return symbol_from_json(json.loads(text))
    if text.startswith("@"):
        return symbol_from_json(json.loads(Path(text[1:]).read_text(encoding="utf-8")))
    raise ValueError(f"unrecognized symbol spec {text!r} (use gamma:K, mb:BETA, JSON, or @file)")


def parse_poly_spec(text: str) -> FockPolynomial:
    """Basis coefficients: JSON array (numbers or {re, im}) or comma-separated
    complex literals, e.g. ``1,0,0.5+0.5i``."""
    if text.startswith("@"):
        return polynomial_from_json(json.loads(Path(text[1:]).read_text(encoding="utf-8")))
    if text.lstrip().startswith("["):
        return polynomial_from_json(json.loads(text))
    return FockPolynomial(tuple(parse_complex_literal(part) for part in text.split(",")))


@dataclass
class RunConfig:
    command: str
    symbol: str | None = None
    a: str | None = None
    b: str | None = None
    poly: str | None = None
    n_max: int = 16
    m_max: int = 8
    nodes: int = 200
    tol: float = 1e-8
    output: str = "-"
    fmt: str = "json"
    timestamp: bool = True

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not 1 <= self.nodes <= MAX_NODES:
            raise ValueError(f"nodes must be between 1 and {MAX_NODES}")
        if self.n_max < 0 or self.m_max < 0:
            raise ValueError("n and m-max must be >= 0")

    def spec(self) -> QuadratureSpec:
        return QuadratureSpec(self.nodes)

    def to_json_obj(self) -> dict:
        obj = {
            "command": self.command,
            "n_max": self.n_max,
            "m_max": self.m_max,
            "nodes": self.nodes,
            "tol": self.tol,
            "format": self.fmt,
        }
        for key in ("symbol", "a", "b", "poly"):
            value = getattr(self, key)
            if value is not None:
                obj[key] = value
        return obj


def build_parser() -> argparse.ArgumentParser:
    default_nodes = int(os.environ.get(ENV_DEFAULT_NODES, "200"))
    parser = argparse.ArgumentParser(
        prog="bargmann-toeplitz",
        description="Radial Toeplitz operators as diagonal operators on l2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, n_default: int = 16):
        p.add_argument("--n", dest="n_max", type=int, default=n_default,
                       help="largest basis index / sequence length - 1")
        p.add_argument("--nodes", type=int, default=default_nodes,
                       help=f"radial quadrature nodes, 1..{MAX_NODES} "
                            f"(default {default_nodes}, env {ENV_DEFAULT_NODES})")
        p.add_argument("--tol", type=float, default=1e-8, help="verification tolerance")
        p.add_argument("--output", default="-", help="output path, - for stdout")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="json")
        p.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                       help="omit the timestamp for byte-identical reports")

    p = sub.add_parser("classify", help="symbol-class membership report")
    p.add_argument("--symbol", required=True)
    p.add_argument("--m-max", dest="m_max", type=int, default=8)
    common(p)

    p = sub.add_parser("spectrum", help="eigenvalue sequence of a radial symbol")
    p.add_argument("--symbol", required=True)
    common(p)

    p = sub.add_parser("apply", help="apply the Toeplitz operator to an element")
    p.add_argument("--symbol", required=True)
    p.add_argument("--poly", required=True)
    common(p)

    p = sub.add_parser("verify", help="Toeplitz-vs-diagonal equivalence report")
    p.add_argument("--symbol", required=True)
    common(p, n_default=12)

    p = sub.add_parser("compose", help="composition verdict for two symbols")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    common(p)

    p = sub.add_parser("demo", help="bundled walkthrough of the reference scenarios")
    common(p, n_default=8)

    return parser


def _result_classify(cfg: RunConfig) -> dict:
    sym = parse_symbol_spec(cfg.symbol)
    report = classify(sym, cfg.m_max)
    return {"symbol": symbol_to_json(sym), "classification": report.to_json_obj()}


def _result_spectrum(cfg: RunConfig) -> dict:
    sym = parse_symbol_spec(cfg.symbol)
    seq = eigen_sequence(sym, cfg.n_max, cfg.spec())
    return {"symbol": symbol_to_json(sym), "spectrum": seq.to_json_obj()}


def _result_apply(cfg: RunConfig) -> dict:
    sym = parse_symbol_spec(cfg.symbol)
    poly = parse_poly_spec(cfg.poly)
    image = toeplitz_apply(sym, poly, cfg.spec(), tol=cfg.tol)
    return {
        "symbol": symbol_to_json(sym),
        "input": poly.to_json_obj(),
        "image": image.to_json_obj(),
    }


def _result_verify(cfg: RunConfig) -> dict:
    sym = parse_symbol_spec(cfg.symbol)
    report = equivalence_report(sym, cfg.n_max, cfg.tol, cfg.spec())
    return {"symbol": symbol_to_json(sym), "equivalence": report.to_json_obj()}


def _result_compose(cfg: RunConfig) -> dict:
    sa, sb = parse_symbol_spec(cfg.a), parse_symbol_spec(cfg.b)
    if (
        isinstance(sa, GaussianRadialSymbol)
        and isinstance(sb, GaussianRadialSymbol)
        and sa.is_gamma_form
        and sb.is_gamma_form
    ):
        verdict = compose_gaussian(sa, sb, cfg.n_max)
    else:
        verdict = compose_radial(sa, sb, cfg.n_max, spec=cfg.spec())
    return {
        "a": symbol_to_json(sa),
        "b": symbol_to_json(sb),
        "composition": verdict.to_json_obj(),
    }


def _result_demo(cfg: RunConfig) -> dict:
    spec = cfg.spec()
    n_show = cfg.n_max

    sweep = []
    for k in (2.0 + 0j, complex(math.e), 0.6 - 0.8j, 0.8 - 0.9j):
        sym = gamma(k)
        seq = eigen_sequence(sym, n_show)
        sweep.append(
            {
                "k": {"re": k.real, "im": k.imag},
                "classification": classify(sym).to_json_obj(),
                "spectrum": seq.to_json_obj(),
            }
        )

    outlier = GaussianRadialSymbol(amplitude=1.0, exponent=0.5 + (math.sqrt(3) / 2) * 1j)
    outlier_seq = eigen_sequence(outlier, n_show)
    outlier_report = {
        "symbol": symbol_to_json(outlier),
        "classification": classify(outlier).to_json_obj(),
        "spectrum_moduli": [abs(v) for v in outlier_seq.values],
        "equivalence": equivalence_report(outlier, min(n_show, 4), cfg.tol, spec).to_json_obj(),
    }

    thermal = maxwell_boltzmann(1.0)
    thermal_seq = eigen_sequence(thermal, n_show)
    thermal_report = {
        "symbol": symbol_to_json(thermal),
        "spectrum": thermal_seq.to_json_obj(),
        "max_error_vs_exp": max(
            abs(v - math.exp(-0.5) * math.exp(-n)) for n, v in enumerate(thermal_seq.values)
        ),
    }

    a = 0.6 - 0.8j
    counterexample = {
        "factor_k": {"re": a.real, "im": a.imag},
        "self_composition": compose_gaussian(gamma(a), gamma(a), n_show).to_json_obj(),
        "conjugate_composition": compose_gaussian(gamma(a), gamma(a.conjugate()), n_show).to_json_obj(),
    }

    return {
        "geometric_family_sweep": sweep,
        "bounded_spectrum_outside_class": outlier_report,
        "thermal_density_spectrum": thermal_report,
        "composition_counterexample": counterexample,
    }


_RESULTS = {
    "classify": _result_classify,
    "spectrum": _result_spectrum,
    "apply": _result_apply,
    "verify": _result_verify,
    "compose": _result_compose,
    "demo": _result_demo,
}


def run(cfg: RunConfig) -> str:
    """Execute the configured command and render the report body."""
    result = _RESULTS[cfg.command](cfg)

    if cfg.fmt == "csv":
        return _render_csv(cfg, result)
    if cfg.fmt == "text":
        return _render_text(cfg, result)

    report = {"schema": REPORT_SCHEMA, "config": cfg.to_json_obj(), "result": result}
    if cfg.timestamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _render_csv(cfg: RunConfig, result: dict) -> str:
    from .codec import sequence_csv
    from .codec import complex_from_json as cfj

    if cfg.command == "spectrum":
        return sequence_csv([cfj(v) for v in result["spectrum"]["values"]])
    if cfg.command == "apply":
        return sequence_csv([cfj(v) for v in result["image"]])
    raise ValueError(f"csv output is not defined for the {cfg.command!r} command")


def _render_text(cfg: RunConfig, result: dict) -> str:
    lines = [f"command: {cfg.command}"]

    def walk(prefix: str, value):
        if isinstance(value, dict):
            if set(value) == {"re", "im"}:
                lines.append(f"{prefix}: {value['re']:+.12g}{value['im']:+.12g}i")
                return
            for key in value:
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, list):
            for idx, item in enumerate(value):
                walk(f"{prefix}[{idx}]", item)
        else:
            lines.append(f"{prefix}: {value}")

    walk("", result)
    return "\n".join(lines) + "\n"


def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = RunConfig(
            command=args.command,
            symbol=getattr(args, "symbol", None),
            a=getattr(args, "a", None),
            b=getattr(args, "b", None),
            poly=getattr(args, "poly", None),
            n_max=args.n_max,
            m_max=getattr(args, "m_max", 8),
            nodes=args.nodes,
            tol=args.tol,
            output=args.output,
            fmt=args.fmt,
            timestamp=args.timestamp,
        )
        body = run(cfg)
    except (DivergentMoment, DomainViolation) as exc:
        _emit_error(exc)
        return 2
    except NonConvergent as exc:
        _emit_error(exc)
        return 3
    except (ValueError, KeyError, TypeError, OSError, RecursionError) as exc:
        _emit_error(exc)
        return 1

    if cfg.output == "-":
        sys.stdout.write(body)
    else:
        Path(cfg.output).write_text(body, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
