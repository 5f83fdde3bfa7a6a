import math

import numpy as np
import pytest

from bargmann_toeplitz import (
    DiagonalOperator,
    DivergentMoment,
    DomainViolation,
    DomainWarning,
    EnvelopedSymbol,
    FockPolynomial,
    GaussianRadialSymbol,
    L2Sequence,
    PolynomialRadialSymbol,
    QuadratureSpec,
    Trivalent,
    anti_wick_matrix_element,
    basis_polynomial,
    classify,
    diagonal_apply,
    eigen_sequence,
    equivalence_report,
    extension_apply,
    gamma,
    in_natural_domain,
    maxwell_boltzmann,
    toeplitz_apply,
)
from bargmann_toeplitz.operators import _projection_coeffs
from bargmann_toeplitz.spectra import GeometricTail

from support import allocating_projection_coeffs, hex_parts

SPEC = QuadratureSpec(200)


def coefficient_distance(f: FockPolynomial, g: FockPolynomial) -> float:
    n = max(len(f.u_coeffs), len(g.u_coeffs))
    a = f.u_coeffs + (0j,) * (n - len(f.u_coeffs))
    b = g.u_coeffs + (0j,) * (n - len(g.u_coeffs))
    return math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(a, b)))


class TestDiagonalApply:
    def test_identity_sequence(self):
        op = DiagonalOperator(eigen_sequence(gamma(1.0), 5))
        seq = L2Sequence((1.0, 2.0j, -0.5, 0.25))
        assert diagonal_apply(op, seq).entries == seq.entries + (0j, 0j)

    def test_geometric_multiplier(self):
        op = DiagonalOperator(eigen_sequence(gamma(2.0), 3))
        out = diagonal_apply(op, L2Sequence((1.0, 1.0, 1.0, 1.0)))
        assert out.entries == (1.0, 0.5, 0.25, 0.125)

    def test_thermal_multiplier_on_basis_deltas(self):
        op = DiagonalOperator(eigen_sequence(maxwell_boltzmann(1.0), 5))
        for n in range(6):
            delta = [0j] * 6
            delta[n] = 1.0
            out = diagonal_apply(op, L2Sequence(tuple(delta)))
            assert out.entries[n] == pytest.approx(math.exp(-0.5) * math.exp(-float(n)), rel=1e-13)

    def test_zero_padding(self):
        op = DiagonalOperator(eigen_sequence(gamma(2.0), 1))
        out = diagonal_apply(op, L2Sequence((1.0, 1.0, 1.0)))
        assert out.entries == (1.0, 0.5, 0j)

    def test_domain_warning_on_growing_product_tail(self):
        op = DiagonalOperator(eigen_sequence(gamma(0.6), 4))  # ratio 1/0.6
        seq = L2Sequence((1.0, 0.9, 0.81), tail=GeometricTail(0.9))
        with pytest.warns(DomainWarning):
            out = diagonal_apply(op, seq)
        assert abs(out.tail.ratio) >= 1.0

    def test_no_warning_on_contracting_tail(self):
        import warnings

        op = DiagonalOperator(eigen_sequence(gamma(2.0), 4))
        seq = L2Sequence((1.0, 0.9, 0.81), tail=GeometricTail(0.9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = diagonal_apply(op, seq)
        assert out.tail.ratio == pytest.approx(0.45)


class TestAntiWickElements:
    def test_off_diagonal_vanishes(self, corpus):
        for label, sym in corpus:
            value = anti_wick_matrix_element(sym, 0, 1, SPEC)
            assert abs(value) < 1e-9, label

    def test_diagonal_matches_closed_form(self):
        value = anti_wick_matrix_element(gamma(2.0), 2, 2, SPEC)
        assert value == pytest.approx(0.25, abs=1e-9)

    def test_polynomial_off_diagonal(self):
        value = anti_wick_matrix_element(PolynomialRadialSymbol((0.0, 1.0)), 3, 1, SPEC)
        assert abs(value) < 1e-9

    def test_requires_integrable_moments(self):
        with pytest.raises(DivergentMoment):
            anti_wick_matrix_element(GaussianRadialSymbol(1.0, 1.2), 0, 0, SPEC)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            anti_wick_matrix_element(gamma(2.0), -1, 0, SPEC)


class TestNaturalDomain:
    def test_boundary_symbol_excludes_constants(self, boundary_symbol):
        assert in_natural_domain(boundary_symbol, basis_polynomial(0)) is Trivalent.NO

    def test_admissible_gaussian_contains_polynomials(self):
        rng = np.random.default_rng(8)
        for k in (2.0, 0.6 - 0.8j, 0.8 - 0.9j):
            poly = FockPolynomial(tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6)))
            assert in_natural_domain(gamma(k), poly) is Trivalent.YES

    def test_trivial_domain_band(self):
        # |k| > 1 with 0 < Re(k) < 1/2: no nonzero polynomial belongs.
        k = 0.3 - 1.2j
        assert abs(k) > 1 and 0 < k.real < 0.5
        assert in_natural_domain(gamma(k), basis_polynomial(0)) is Trivalent.NO
        assert in_natural_domain(gamma(k), basis_polynomial(7)) is Trivalent.NO

    def test_zero_element_always_belongs(self, boundary_symbol):
        zero = FockPolynomial((0j, 0j))
        assert in_natural_domain(boundary_symbol, zero) is Trivalent.YES

    def test_enveloped_decisions(self):
        safe = EnvelopedSymbol(evaluator=None, envelope_c=2.0, envelope_delta=0.3, base=gamma(2.0))
        wide = EnvelopedSymbol(evaluator=None, envelope_c=2.0, envelope_delta=0.7, base=gamma(2.0))
        assert in_natural_domain(safe, basis_polynomial(2)) is Trivalent.YES
        assert in_natural_domain(wide, basis_polynomial(2)) is Trivalent.UNDECIDABLE

    def test_analytic_rule_matches_cutoff_growth(self, boundary_symbol):
        # Independent oracle: partial integrals of |phi u_0|^2 against the
        # Gaussian measure stabilize for domain members and keep growing
        # with the cutoff otherwise.
        from bargmann_toeplitz.symbols import radial_values

        def partial_square_norm(sym, cutoff):
            r = np.linspace(0.0, cutoff, 20000)
            integrand = np.abs(radial_values(sym, r)) ** 2 * np.exp(-r * r) * r
            return 2.0 * float(np.trapezoid(integrand, r))

        cases = [
            (gamma(2.0), True),
            (gamma(0.6 - 0.8j), True),
            (gamma(0.3 - 1.2j), False),
            (boundary_symbol, False),
        ]
        for sym, member in cases:
            grows = partial_square_norm(sym, 9.0) > 2.0 * partial_square_norm(sym, 6.0)
            assert grows == (not member)
            expected = Trivalent.YES if member else Trivalent.NO
            assert in_natural_domain(sym, basis_polynomial(0)) is expected


class TestToeplitzApply:
    def test_identity_symbol_acts_as_identity(self):
        rng = np.random.default_rng(21)
        poly = FockPolynomial(tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
        image = toeplitz_apply(gamma(1.0), poly, SPEC)
        assert coefficient_distance(image, poly) < 1e-10

    def test_basis_eigenvector(self):
        image = toeplitz_apply(gamma(2.0), basis_polynomial(3), SPEC)
        expected = FockPolynomial((0j, 0j, 0j, 0.125))
        assert coefficient_distance(image, expected) < 1e-8

    def test_thermal_eigenvectors(self):
        thermal = maxwell_boltzmann(1.0)
        for n in range(6):
            image = toeplitz_apply(thermal, basis_polynomial(n), SPEC)
            scale = math.exp(-0.5) * math.exp(-float(n))
            expected = FockPolynomial(tuple(scale * c for c in basis_polynomial(n).u_coeffs))
            assert coefficient_distance(image, expected) < 1e-8

    def test_degree_beyond_double_range_refused(self):
        # the identity symbol would return the image 0 for u_330
        with pytest.raises(ValueError):
            toeplitz_apply(gamma(1.0), basis_polynomial(330), SPEC)

    def test_domain_violation_raised(self, boundary_symbol):
        with pytest.raises(DomainViolation):
            toeplitz_apply(boundary_symbol, basis_polynomial(0), SPEC)
        undecidable = EnvelopedSymbol(evaluator=None, envelope_c=1.0, envelope_delta=0.6, base=gamma(0.5))
        with pytest.raises(DomainViolation):
            toeplitz_apply(undecidable, basis_polynomial(0), SPEC)

    def test_linearity_in_the_element(self):
        rng = np.random.default_rng(31)
        f = FockPolynomial(tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
        g = FockPolynomial(tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
        alpha, beta = 1.5 - 0.5j, -0.25j
        combo = FockPolynomial(tuple(alpha * a + beta * b for a, b in zip(f.u_coeffs, g.u_coeffs)))
        sym = gamma(0.8 - 0.9j)
        lhs = toeplitz_apply(sym, combo, SPEC)
        fa = toeplitz_apply(sym, f, SPEC)
        gb = toeplitz_apply(sym, g, SPEC)
        rhs = FockPolynomial(tuple(alpha * a + beta * b for a, b in zip(fa.u_coeffs, gb.u_coeffs)))
        assert coefficient_distance(lhs, rhs) < 1e-9

    def test_scaling_covariance_in_the_symbol(self):
        alpha = 2.0 - 1.0j
        sym = gamma(2.0)
        scaled = GaussianRadialSymbol(alpha * sym.amplitude, sym.exponent)
        poly = basis_polynomial(4)
        lhs = toeplitz_apply(scaled, poly, SPEC)
        base = toeplitz_apply(sym, poly, SPEC)
        rhs = FockPolynomial(tuple(alpha * c for c in base.u_coeffs))
        assert coefficient_distance(lhs, rhs) < 1e-9

    def test_enveloped_symbol_supported(self):
        sym = EnvelopedSymbol(evaluator=None, envelope_c=2.0, envelope_delta=0.0, base=gamma(2.0))
        image = toeplitz_apply(sym, basis_polynomial(2), QuadratureSpec(128))
        assert image.u_coeffs[2] == pytest.approx(0.25, abs=1e-8)


class TestProjectionBits:
    """The buffered projection reproduces the allocating one bit for bit.

    From 256 KiB of grid (16384 points) numpy computes a same-shape product
    with a temporary operand in place, and a temporary right operand then
    becomes the left one, which can move the last bit of a complex product.
    So the degrees sit on both sides of that size: 19 and 20 at Q = 200 (199
    nodes), 11 and 12 at Q = 400 (319 nodes).
    """

    @staticmethod
    def polynomials(degree: int) -> list[FockPolynomial]:
        rng = np.random.default_rng(degree)
        dense = tuple(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
        return [
            FockPolynomial((0j,) * (degree + 1)),
            basis_polynomial(degree),
            FockPolynomial(dense),
            FockPolynomial(dense[:3] + (0j,) * (degree - 2)),
        ]

    @pytest.mark.parametrize("node_count, degree", [(200, 19), (200, 20), (400, 11), (400, 12)])
    def test_coefficients_at_the_elision_size(self, node_count, degree):
        spec = QuadratureSpec(node_count)
        for sym in (gamma(1.7 + 0.4j), gamma(0.7 + 1.5j), PolynomialRadialSymbol((1.0, -0.5j))):
            for poly in self.polynomials(degree):
                assert hex_parts(_projection_coeffs(sym, poly, spec)) == hex_parts(
                    allocating_projection_coeffs(sym, poly, spec)
                )

    def test_toeplitz_apply(self):
        sym = gamma(1.7 + 0.4j)
        for poly in self.polynomials(20):
            image = toeplitz_apply(sym, poly, SPEC)
            assert hex_parts(np.array(image.u_coeffs)) == hex_parts(
                allocating_projection_coeffs(sym, poly, SPEC.doubled())
            )


class TestExtension:
    def test_matches_toeplitz_on_certified_domain(self, corpus):
        rng = np.random.default_rng(17)
        for label, sym in corpus:
            if classify(sym).in_p is not Trivalent.YES:
                continue
            poly = FockPolynomial(tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5)))
            via_projection = toeplitz_apply(sym, poly, SPEC)
            via_sequences = extension_apply(sym, poly, SPEC)
            assert coefficient_distance(via_projection, via_sequences) < 1e-8, label

    def test_defined_beyond_the_natural_domain(self, boundary_symbol):
        # The Toeplitz route refuses u_0; the extension still acts diagonally.
        image = extension_apply(boundary_symbol, basis_polynomial(0))
        expected = eigen_sequence(boundary_symbol, 0).values[0]
        assert image.u_coeffs[0] == pytest.approx(expected, rel=1e-12)


class TestEquivalenceReport:
    def test_geometric_family_equivalent(self):
        report = equivalence_report(gamma(2.0), 6, 1e-8, SPEC)
        assert report.verdict == "equivalent"
        assert report.symbol_in_p is Trivalent.YES
        assert max(report.per_n_residual) < 1e-8

    def test_boundary_symbol_cites_u0(self, boundary_symbol):
        report = equivalence_report(boundary_symbol, 6, 1e-8, SPEC)
        assert report.verdict == "not_equivalent"
        assert "u_0" in report.reason
        assert report.per_n_residual == ()

    def test_large_modulus_admissible_case(self):
        report = equivalence_report(gamma(0.8 - 0.9j), 6, 1e-8, SPEC)
        assert report.verdict == "equivalent"

    def test_unbounded_spectrum_still_equivalent(self):
        # |k| < 1 with Re(k) > 1/2: eigenvalues grow without bound but the
        # operator stays diagonal on the basis.
        k = 0.6 + 0.55j
        assert abs(k) < 1 and k.real > 0.5
        seq = eigen_sequence(gamma(k), 10)
        assert abs(seq.values[10]) > abs(seq.values[0])
        report = equivalence_report(gamma(k), 5, 1e-8, SPEC)
        assert report.verdict == "equivalent"

    def test_undecidable_for_wide_envelope(self):
        sym = EnvelopedSymbol(evaluator=None, envelope_c=1.0, envelope_delta=0.8, base=gamma(0.5))
        report = equivalence_report(sym, 3, 1e-8, SPEC)
        assert report.verdict == "undecidable"

    def test_validation_and_rendering(self):
        with pytest.raises(ValueError):
            equivalence_report(gamma(2.0), -1)
        with pytest.raises(ValueError):
            equivalence_report(gamma(2.0), 2, tol=0.0)
        report = equivalence_report(gamma(2.0), 2, 1e-8, SPEC)
        text = report.render_text()
        assert "equivalent" in text and "residuals" in text
        obj = report.to_json_obj()
        assert obj["verdict"] == "equivalent"
        assert len(obj["per_n_residual"]) == 3

    def test_diagonal_theorem_forward_over_corpus(self, corpus):
        for label, sym in corpus:
            if classify(sym).in_p is not Trivalent.YES:
                continue
            eig = eigen_sequence(sym, 12, SPEC)
            for n in range(13):
                image = toeplitz_apply(sym, basis_polynomial(n), SPEC)
                expected = FockPolynomial(
                    tuple(eig.values[n] * c for c in basis_polynomial(n).u_coeffs)
                )
                assert coefficient_distance(image, expected) < 1e-8, (label, n)
