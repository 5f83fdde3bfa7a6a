"""Small JSON/CSV helpers for complex-valued data."""

from __future__ import annotations

from collections.abc import Iterable


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def real_from_json(value) -> float:
    """float(value), with a JSON integer beyond double range a ``ValueError``."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError("number is too large for a double-precision float") from None


def complex_from_json(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(real_from_json(obj))
    if not isinstance(obj, dict) or not {"re", "im"} >= set(obj) or "re" not in obj:
        raise ValueError(f"expected a complex object {{re, im}}, got {obj!r}")
    return complex(real_from_json(obj["re"]), real_from_json(obj.get("im", 0.0)))


def sequence_csv(values: Iterable[complex]) -> str:
    """CSV rendering of a complex sequence; columns n, re, im, modulus."""
    lines = ["n,re,im,modulus"]
    for n, v in enumerate(values):
        v = complex(v)
        lines.append(f"{n},{v.real!r},{v.imag!r},{abs(v)!r}")
    return "\n".join(lines) + "\n"
