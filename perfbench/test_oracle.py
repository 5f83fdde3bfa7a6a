"""The oracle counts perturbed results as failures.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bargmann_toeplitz as bt  # noqa: E402

import bench  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def _equivalence(n_max=30):
    op = workloads._equivalence_op(bt.gamma(2), n_max)
    return op, op.call()


def test_true_equivalence_report_passes():
    op, report = _equivalence()
    verdict, err = oracle.grade(op, report)
    assert verdict == oracle.OK and err < oracle.REL_BOUND


def test_zero_image_with_equivalent_verdict_fails():
    # T u_n = 0 gives residual |phi_n|: far above the absolute tolerance at
    # n = 0, so an "equivalent" verdict is wrong.
    op, report = _equivalence()
    zero = dataclasses.replace(
        report, per_n_residual=tuple(abs(p) for p in oracle.gamma_spectrum(2, 30)))
    assert oracle.grade(op, zero)[0] == oracle.WRONG


def test_zero_tail_under_absolute_tolerance_fails():
    # T u_n = 0 for n >= 27 only: every residual is below the package's 1e-8
    # absolute tolerance, so "equivalent" holds by its standard, but the
    # relative bound counts the operation as failed.
    op, report = _equivalence()
    phi = oracle.gamma_spectrum(2, 30)
    tail = tuple(r if n < 27 else abs(phi[n]) for n, r in enumerate(report.per_n_residual))
    assert max(tail) < oracle.ABS_TOL
    assert oracle.grade(op, dataclasses.replace(report, per_n_residual=tail))[0] == oracle.INACCURATE


def test_wrong_verdict_fails():
    op, report = _equivalence()
    assert oracle.grade(op, dataclasses.replace(report, verdict="not_equivalent"))[0] == oracle.WRONG
    out_of_p = workloads._equivalence_op(bt.gamma(0.3), 8)
    assert oracle.grade(out_of_p, dataclasses.replace(report, verdict="equivalent"))[0] == oracle.WRONG


def test_zero_image_and_zero_tail_fail():
    coeffs = tuple(complex(1.0, 0.5) for _ in range(41))
    phi = oracle.gamma_spectrum(2, 40)
    op = workloads._apply_op(bt.gamma(2), phi, coeffs)
    assert oracle.grade(op, op.call())[0] == oracle.OK
    assert oracle.grade(op, bt.FockPolynomial((0j,) * 41))[0] == oracle.WRONG
    tail_dropped = bt.FockPolynomial(tuple(p * c if n < 27 else 0j
                                           for n, (p, c) in enumerate(zip(phi, coeffs))))
    assert oracle.grade(op, tail_dropped)[0] == oracle.INACCURATE
    for n in (0, 40):                       # max() would skip a NaN after the first entry
        nan = bt.FockPolynomial(tuple(float("nan") if m == n else p * c
                                      for m, (p, c) in enumerate(zip(phi, coeffs))))
        assert oracle.grade(op, nan)[0] == oracle.WRONG


def test_refusal_and_inaccuracy_count_as_failed_but_not_wrong():
    op, _ = _equivalence(8)
    assert oracle.grade(op, exc=bt.NonConvergent("gap"))[0] == oracle.REFUSED
    assert oracle.grade(op, exc=TypeError("bug"))[0] == oracle.WRONG
    outcomes = [bench.Outcome(op, 0.1, verdict, 0.0)
                for verdict in (oracle.REFUSED, oracle.OK, oracle.INACCURATE)]
    assert sum(o.verdict != oracle.OK for o in outcomes) == 2


def test_cli_outputs():
    op = oracle.Op("cli.process", "spectrum", lambda: None,
                   lambda out: oracle.check_cli_spectrum(oracle.cli_report(*out), 2, 1, "closed_form"))
    good = {"schema": "bt-report/1", "result": {"spectrum": {
        "method": "closed_form", "values": [{"re": 1.0, "im": 0.0}, {"re": 0.5, "im": 0.0}]}}}
    text = json.dumps(good)
    assert oracle.grade(op, (0, text, ""))[0] == oracle.OK
    assert oracle.grade(op, (0, text.replace("0.5", "NaN"), ""))[0] == oracle.WRONG
    assert oracle.grade(op, (3, "", '{"error": {}}\n'))[0] == oracle.REFUSED
    assert oracle.grade(op, (1, "", '{"error": {}}\n'))[0] == oracle.WRONG

    error_op = oracle.Op("cli.process", "error", lambda: None,
                         lambda out: oracle.check_cli_error(*out, (2,)))
    line = '{"error": {"message": "m", "type": "DivergentMoment"}}\n'
    assert oracle.grade(error_op, (2, "", line))[0] == oracle.OK
    assert oracle.grade(error_op, (1, "", line))[0] == oracle.WRONG
    assert oracle.grade(error_op, (2, "", line + "Traceback\n"))[0] == oracle.WRONG


def test_composition_status_by_route():
    a, b = 0.56 - 0.98j, 0.95 - 0.72j                     # Re(ab) < 0
    assert oracle.composition_status(a, b) == "unrecognized"
    assert oracle.composition_status(a, b, fitted=False) == "not_toeplitz_in_P"
    values = [{"re": z.real, "im": z.imag} for z in oracle.gamma_spectrum(a * b, 16)]
    result = {"composition": {"status": "not_toeplitz_in_P", "sequence": {"values": values}}}
    assert oracle.check_cli_compose(result, a, b, 16) < oracle.REL_BOUND
    result["composition"]["status"] = "closed_in_P"
    with pytest.raises(oracle.Mismatch):
        oracle.check_cli_compose(result, a, b, 16)


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond = bench.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10) and percentile == 90.0
