import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bargmann_toeplitz import (
    ClassificationReport,
    EnvelopedSymbol,
    EnvelopeViolation,
    GaussianRadialSymbol,
    PolynomialRadialSymbol,
    QuadratureSpec,
    Trivalent,
    basis_polynomial,
    classify,
    equivalence_report,
    eval_symbol,
    gamma,
    in_natural_domain,
    laguerre_nodes,
    maxwell_boltzmann,
    symbol_from_json,
    symbol_to_json,
)
from bargmann_toeplitz.symbols import radial_values

from conftest import bounded_boundary_symbol
from support import counting_twin, hex_parts, scalar_damped, weighted_node_count


class TestEvaluation:
    def test_gamma_one_is_identically_one(self):
        assert eval_symbol(gamma(1.0), 3.7) == 1.0

    def test_gamma_two_at_unit_radius(self):
        # hand arithmetic: k * exp((1-k) r^2) = 2 e^{-1}
        assert eval_symbol(gamma(2.0), 1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)

    def test_boundary_symbol_at_origin(self):
        assert eval_symbol(bounded_boundary_symbol(), 0.0) == 1.0

    def test_polynomial_evaluation(self):
        sym = PolynomialRadialSymbol((1.0, 2.0, 0.5j))
        r = 1.5
        t = r * r
        assert eval_symbol(sym, r) == pytest.approx(1.0 + 2.0 * t + 0.5j * t * t, rel=1e-15)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            eval_symbol(gamma(2.0), -1.0)

    def test_enveloped_checks_every_evaluation(self):
        # gamma(2) peaks at 2 > 1, so the declared C = 1 envelope is a lie.
        sym = EnvelopedSymbol(evaluator=None, envelope_c=1.0, envelope_delta=0.0, base=gamma(2.0))
        with pytest.raises(EnvelopeViolation):
            eval_symbol(sym, 0.0)

    def test_enveloped_honest_envelope_passes(self):
        sym = EnvelopedSymbol(evaluator=lambda r: 0.5 * math.exp(-r * r), envelope_c=0.5, envelope_delta=0.0)
        assert eval_symbol(sym, 1.3) == pytest.approx(0.5 * math.exp(-1.69), rel=1e-15)

    def test_non_finite_evaluation_is_a_violation(self):
        sym = EnvelopedSymbol(evaluator=lambda r: float("nan"), envelope_c=1.0, envelope_delta=0.0)
        with pytest.raises(EnvelopeViolation):
            eval_symbol(sym, 1.0)

    def test_enveloped_requires_evaluator_or_base(self):
        with pytest.raises(ValueError):
            EnvelopedSymbol(evaluator=None, envelope_c=1.0, envelope_delta=0.0)


class TestEnvelopedDamped:
    """``EnvelopedSymbol.damped`` equals the scalar value * math.exp(log_damp)
    in every bit of every element, signed zeros included."""

    @staticmethod
    def orders_log_damp(spec, orders):
        t, w = laguerre_nodes(spec)
        shifts = np.array([math.lgamma(n + 1) for n in orders])
        return t, np.log(w) + np.multiply.outer(np.asarray(orders, float), np.log(t)) - shifts[:, None]

    def test_radial_values_match_scalar_product(self):
        sym, _ = counting_twin(0.6 - 0.8j)
        r = np.sqrt(laguerre_nodes(QuadratureSpec(120))[0])
        t = r * r
        assert hex_parts(radial_values(sym, r)) == hex_parts(scalar_damped(sym, t, np.zeros_like(t)))

    def test_rows_keeping_different_nodes_match_scalar_product(self):
        sym, _ = counting_twin(1.5 + 0.4j)
        t, log_damp = self.orders_log_damp(QuadratureSpec(200), [0, 9, 40, 150])
        keep = log_damp + math.log(sym.envelope_c) + sym.envelope_delta * t > -745.0
        assert len({tuple(row) for row in keep}) == 4  # every row keeps other nodes
        assert hex_parts(sym.damped(t, log_damp)) == hex_parts(scalar_damped(sym, t, log_damp))

    def test_negative_values_with_underflowing_terms(self):
        # Terms near exp(-744) underflow to signed zeros whose sign a fused
        # complex multiply gets wrong; the scalar product fixes it.
        sym = EnvelopedSymbol(lambda r: complex(-0.3 - 0.5 * math.sin(r) ** 2, -1e-310 * (1.0 + r)), 1.0, 0.0)
        t = laguerre_nodes(QuadratureSpec(60))[0]
        log_damp = np.linspace(-744.9, -735.0, 7)[:, None] + np.zeros_like(t)
        damped = sym.damped(t, log_damp)
        assert any(math.copysign(1.0, z.imag) < 0 for z in damped.ravel().tolist() if z.imag == 0)
        assert hex_parts(damped) == hex_parts(scalar_damped(sym, t, log_damp))

    @pytest.mark.parametrize(
        "sym",
        [
            EnvelopedSymbol(lambda r: -3, 3.0, 0.0),
            EnvelopedSymbol(lambda r: -0.5 * math.cos(r), 1.0, 0.0),
            EnvelopedSymbol(None, 2.0, 0.3, base=gamma(0.7 - 0.4j)),
        ],
        ids=["int", "float", "base"],
    )
    def test_non_complex_evaluators_and_base_symbols(self, sym):
        t, log_damp = self.orders_log_damp(QuadratureSpec(100), [0, 5, 30])
        assert hex_parts(sym.damped(t, log_damp)) == hex_parts(scalar_damped(sym, t, log_damp))

    @pytest.mark.parametrize("bad", [1e9, float("nan")], ids=["too_large", "nan"])
    def test_violation_at_the_first_violating_node(self, bad):
        calls = []

        def lying(r):
            calls.append(r)
            return bad if r > 3.0 else 0.5

        sym = EnvelopedSymbol(lying, 1.0, 0.0)
        t, log_damp = self.orders_log_damp(QuadratureSpec(80), [0, 12])
        with pytest.raises(EnvelopeViolation) as raised:
            sym.damped(t, log_damp)
        first = calls[-1]
        assert first > 3.0 and all(r <= 3.0 for r in calls[:-1])  # nothing evaluated past it
        assert calls == sorted(calls)
        with pytest.raises(EnvelopeViolation) as scalar:
            sym.value(first)
        assert str(raised.value) == str(scalar.value)

    def test_evaluator_exception_propagates(self):
        class Broken(Exception):
            pass

        def broken(r):
            if r > 2.0:
                raise Broken("evaluator failed")
            return 0.5

        sym = EnvelopedSymbol(broken, 1.0, 0.0)
        t, log_damp = self.orders_log_damp(QuadratureSpec(80), [0, 3])
        with pytest.raises(Broken, match="evaluator failed"):
            sym.damped(t, log_damp)


class TestConstructors:
    def test_gamma_form_invariant(self):
        k = 0.37 - 1.2j
        sym = gamma(k)
        assert sym.amplitude == k
        assert sym.exponent == 1.0 - k
        assert sym.is_gamma_form
        assert sym.gamma_parameter == 1.0 - sym.exponent

    def test_boundary_symbol_is_not_gamma_form(self):
        assert not bounded_boundary_symbol().is_gamma_form

    def test_maxwell_boltzmann_parameters(self):
        sym = maxwell_boltzmann(1.0)
        assert sym.amplitude == pytest.approx(math.exp(0.5))
        assert sym.exponent == pytest.approx(1.0 - math.e)
        with pytest.raises(ValueError):
            maxwell_boltzmann(0.0)

    def test_polynomial_trailing_zeros_stripped(self):
        sym = PolynomialRadialSymbol((1.0, 2.0, 0.0, 0.0))
        assert sym.coefficients == (1.0 + 0j, 2.0 + 0j)
        assert sym.degree == 1
        assert PolynomialRadialSymbol((0.0, 0.0)).coefficients == (0j,)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gamma(complex("nan")),
            lambda: GaussianRadialSymbol(amplitude=1.0, exponent=float("inf")),
            lambda: PolynomialRadialSymbol((1.0, float("nan"))),
            lambda: EnvelopedSymbol(None, float("nan"), 0.0, base=gamma(2.0)),
            lambda: EnvelopedSymbol(None, 1.0, float("inf"), base=gamma(2.0)),
            lambda: maxwell_boltzmann(float("nan")),
            lambda: maxwell_boltzmann(1000.0),
        ],
        ids=["gamma_nan", "gaussian_inf", "polynomial_nan", "envelope_c_nan",
             "envelope_delta_inf", "mb_nan", "mb_overflow"],
    )
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()


class TestClassification:
    def test_coburn_family_member(self):
        report = classify(gamma(0.6 - 0.8j))
        assert report.in_p is Trivalent.YES
        assert report.in_folland is Trivalent.YES
        assert report.in_coburn is Trivalent.YES

    def test_boundary_symbol_integrable_but_not_in_p(self):
        report = classify(bounded_boundary_symbol())
        assert report.in_l1_inf is True
        assert report.in_p is Trivalent.NO

    def test_negative_real_part_not_integrable(self):
        amplitude = -7.0 / 25.0 - 24.0 / 25.0 * 1j
        sym = GaussianRadialSymbol(amplitude=amplitude, exponent=1.0 - amplitude)
        report = classify(sym)
        assert report.in_l1_inf is False
        assert report.l1_verified_moment == -1

    def test_polynomials_belong_everywhere(self):
        report = classify(PolynomialRadialSymbol((2.0, 0.5j, 0.25)), m_max=6)
        assert report.in_l1_inf and report.l1_verified_moment == 6
        assert report.in_p is report.in_folland is report.in_coburn is Trivalent.YES

    def test_enveloped_small_delta_certified(self):
        sym = EnvelopedSymbol(evaluator=None, envelope_c=2.0, envelope_delta=0.3, base=gamma(2.0))
        report = classify(sym)
        assert report.in_p is Trivalent.YES

    def test_certified_envelope_decides_without_evaluating(self):
        def refuse(r):
            raise AssertionError("a certified class decision must not sample the symbol")

        sym = EnvelopedSymbol(evaluator=refuse, envelope_c=1.0, envelope_delta=0.3)
        report = classify(sym)
        assert report.in_p is Trivalent.YES
        assert "evidence" not in report.reasons
        assert in_natural_domain(sym, basis_polynomial(3)) is Trivalent.YES

    def test_enveloped_large_delta_undecidable(self):
        sym = EnvelopedSymbol(evaluator=None, envelope_c=1.0, envelope_delta=0.7, base=gamma(0.5))
        report = classify(sym, m_max=4)
        assert report.in_l1_inf is True  # delta < 1 still certifies the moments
        assert report.in_p is Trivalent.UNDECIDABLE
        assert report.in_folland is Trivalent.UNDECIDABLE
        assert report.in_coburn is Trivalent.UNDECIDABLE
        assert "evidence" in report.reasons

    def test_evidence_evaluates_each_node_once_per_rule(self):
        # delta = 0.7 leaves membership undecidable, so nine moments are sampled
        sym, evaluator = counting_twin(0.3 + 0.2j)
        report = classify(sym)
        assert "evidence" in report.reasons
        spec = QuadratureSpec(200)  # 199 + 319 = 518 weighted nodes at 200 and 400
        assert 0 < evaluator.calls <= weighted_node_count(spec) + weighted_node_count(spec.doubled())

    def test_lying_evaluator_raises_in_evidence(self):
        sym = EnvelopedSymbol(lambda r: 2.0 * math.exp(-r * r), 1.0, 0.7)
        with pytest.raises(EnvelopeViolation):
            classify(sym)

    @pytest.mark.parametrize("exponent", [0.7, 5.0])
    def test_zero_amplitude_is_in_every_class(self, exponent):
        # exp(5 t) overflows on the grid; the zero symbol must not become 0 * inf
        sym = GaussianRadialSymbol(0.0, exponent)
        assert sym.growth() == (-math.inf, True)
        report = classify(sym)
        assert report.in_p is report.in_folland is report.in_coburn is Trivalent.YES
        assert equivalence_report(sym, 6).verdict == "equivalent"

    def test_enveloped_delta_above_one_not_certified(self):
        sym = EnvelopedSymbol(evaluator=None, envelope_c=1.0, envelope_delta=1.2, base=gamma(0.5))
        report = classify(sym, m_max=2)
        assert report.in_l1_inf is False

    def test_implication_chain_over_corpus(self, corpus):
        for label, sym in corpus:
            report = classify(sym)
            if report.in_folland is Trivalent.YES:
                assert report.in_coburn is Trivalent.YES, label
            if report.in_coburn is Trivalent.YES:
                assert report.in_p is Trivalent.YES, label

    def test_chain_enforced_by_report_type(self):
        # Coburn yes with basis-domain no breaks the chain, as does
        # Folland yes with Coburn no.
        with pytest.raises(ValueError):
            ClassificationReport(True, 4, Trivalent.NO, Trivalent.YES, Trivalent.YES, {})
        with pytest.raises(ValueError):
            ClassificationReport(True, 4, Trivalent.YES, Trivalent.YES, Trivalent.NO, {})

    def test_gaussian_exactness_on_1000_samples(self):
        rng = np.random.default_rng(20240817)
        re = rng.uniform(-1.0, 2.0, size=1000)
        im = rng.uniform(-2.0, 2.0, size=1000)
        for k in re + 1j * im:
            report = classify(gamma(k))
            assert (report.in_p is Trivalent.YES) == (k.real > 0.5)
            assert report.in_l1_inf == (k.real > 0.0)

    def test_p_membership_matches_integrand_sign_analysis(self):
        # |phi(r)|^2 r^{2n+1} e^{-r^2} integrates iff its Gaussian exponent
        # 2 Re(1-k) - 1 is negative, independent of n.
        rng = np.random.default_rng(7)
        for k in rng.uniform(-1, 2, 60) + 1j * rng.uniform(-2, 2, 60):
            integrand_exponent = 2.0 * (1.0 - k.real) - 1.0
            finite_for_all_n = integrand_exponent < 0
            assert (classify(gamma(k)).in_p is Trivalent.YES) == finite_for_all_n

    @given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    def test_gaussian_halfplane_property(self, k):
        # k with |Re k| below one ulp of 1 collapses onto the boundary when the
        # exponent 1-k is formed; the half-plane rule applies away from it.
        assume(abs(k.real) > 1e-12)
        report = classify(gamma(k))
        assert (report.in_p is Trivalent.YES) == (k.real > 0.5)
        assert report.in_l1_inf == (k.real > 0.0)

    def test_invalid_m_max(self):
        with pytest.raises(ValueError):
            classify(gamma(2.0), m_max=-1)


class TestSerialization:
    def test_gaussian_round_trip(self):
        sym = gamma(0.8 - 0.9j)
        again = symbol_from_json(json.loads(json.dumps(symbol_to_json(sym))))
        assert again == sym

    def test_polynomial_round_trip(self):
        sym = PolynomialRadialSymbol((2.0, 0.5j, 0.25))
        assert symbol_from_json(symbol_to_json(sym)) == sym

    def test_enveloped_round_trip_through_base(self):
        sym = EnvelopedSymbol(evaluator=None, envelope_c=2.0, envelope_delta=0.0, base=gamma(2.0))
        again = symbol_from_json(symbol_to_json(sym))
        assert isinstance(again, EnvelopedSymbol)
        assert again.envelope_c == 2.0 and again.envelope_delta == 0.0
        assert again.value(1.0) == sym.value(1.0)

    def test_black_box_enveloped_not_serializable(self):
        sym = EnvelopedSymbol(evaluator=lambda r: 1.0, envelope_c=2.0, envelope_delta=0.0)
        with pytest.raises(ValueError):
            symbol_to_json(sym)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            symbol_from_json({"kind": "mystery"})
        with pytest.raises(ValueError):
            symbol_from_json({"no": "kind"})
