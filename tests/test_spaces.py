import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargmann_toeplitz import (
    FockPolynomial,
    L2Sequence,
    NonConvergent,
    QuadratureSpec,
    basis_polynomial,
    coherent_overlap,
    fock_inner,
    fock_inner_quadrature,
    from_sequence,
    reproduce_at,
    resolution_identity_matrix,
    to_sequence,
)
from bargmann_toeplitz.spaces import angular_count_for, polar_grid

from support import allocating_evaluate, hex_parts


def random_polynomial(rng, degree):
    return FockPolynomial(tuple(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)))


class TestUnitaryMap:
    def test_basis_vector_maps_to_delta(self):
        assert to_sequence(basis_polynomial(3)).entries == (0j, 0j, 0j, 1.0 + 0j)

    def test_one_plus_z(self):
        poly = FockPolynomial((1.0, 1.0))  # 1 + u_1 = 1 + z
        assert to_sequence(poly).entries == (1.0 + 0j, 1.0 + 0j)
        assert poly.evaluate(0.7 + 0.2j) == pytest.approx(1.7 + 0.2j, rel=1e-15)

    def test_unitarity_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            f = random_polynomial(rng, int(rng.integers(0, 9)))
            g = random_polynomial(rng, int(rng.integers(0, 9)))
            assert to_sequence(f).inner(to_sequence(g)) == fock_inner(f, g)

    def test_from_sequence_examples(self):
        assert from_sequence(L2Sequence((1.0, 0.0, 0.0))).evaluate(0.3 - 0.9j) == pytest.approx(1.0)
        u2 = from_sequence(L2Sequence((0.0, 0.0, 1.0)))
        z = 1.1 - 0.4j
        assert u2.evaluate(z) == pytest.approx(z * z / math.sqrt(2.0), rel=1e-15)

    def test_truncated_geometric_coefficients(self):
        entries = tuple(2.0 ** -n for n in range(11))
        poly = from_sequence(L2Sequence(entries))
        assert poly.u_coeffs == entries

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            seq = L2Sequence(tuple(rng.standard_normal(7) + 1j * rng.standard_normal(7)))
            assert to_sequence(from_sequence(seq)).entries == seq.entries


class TestInnerProduct:
    def test_basis_orthonormality(self):
        for m in range(6):
            for n in range(6):
                value = fock_inner(basis_polynomial(m), basis_polynomial(n))
                assert value == (1.0 if m == n else 0.0)

    def test_positivity(self):
        rng = np.random.default_rng(3)
        poly = random_polynomial(rng, 6)
        assert fock_inner(poly, poly).real > 0
        assert fock_inner(poly, poly).imag == 0
        zero = FockPolynomial((0j,))
        assert fock_inner(zero, zero) == 0

    def test_antilinear_left_linear_right(self):
        rng = np.random.default_rng(4)
        f, g = random_polynomial(rng, 5), random_polynomial(rng, 5)
        alpha = 0.7 - 1.2j
        scaled_g = FockPolynomial(tuple(alpha * c for c in g.u_coeffs))
        scaled_f = FockPolynomial(tuple(alpha * c for c in f.u_coeffs))
        assert fock_inner(f, scaled_g) == pytest.approx(alpha * fock_inner(f, g), rel=1e-13)
        assert fock_inner(scaled_f, g) == pytest.approx(alpha.conjugate() * fock_inner(f, g), rel=1e-13)

    def test_zero_padding_on_mismatched_degrees(self):
        f = FockPolynomial((1.0, 2.0))
        g = FockPolynomial((3.0,))
        assert fock_inner(f, g) == 3.0

    def test_coefficient_formula_matches_quadrature(self):
        rng = np.random.default_rng(12)
        spec = QuadratureSpec(80)
        for _ in range(6):
            f = random_polynomial(rng, 8)
            g = random_polynomial(rng, 8)
            direct = fock_inner(f, g)
            quad = fock_inner_quadrature(f, g, spec)
            assert abs(direct - quad) < 1e-10

    def test_quadrature_matches_allocating_horner_bits(self):
        rng = np.random.default_rng(13)
        spec = QuadratureSpec(200)
        grid = polar_grid(spec, angular_count_for(20))
        f = random_polynomial(rng, 20)
        trailing_zeros = FockPolynomial(random_polynomial(rng, 6).u_coeffs + (0j,) * 14)
        for g in (trailing_zeros, FockPolynomial((0j,) * 3)):
            values = np.conj(allocating_evaluate(f, grid.points)) * allocating_evaluate(g, grid.points)
            expected = grid.integrate(values)
            assert hex_parts(np.array(fock_inner_quadrature(f, g, spec))) == hex_parts(np.array(expected))


class TestCoherentOverlap:
    def test_vacuum_overlap(self):
        w = 0.8 - 1.1j
        assert coherent_overlap(0.0, w) == pytest.approx(cmath.exp(-0.5 * abs(w) ** 2), rel=1e-15)

    def test_self_overlap_is_normalized(self):
        for z in (0.3 + 0.4j, -1.2 + 0.9j, 2.0 - 0.1j):
            assert abs(coherent_overlap(z, z.conjugate())) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100)
    @given(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    )
    def test_squared_modulus_identity(self, z, w):
        # |<conj(z)|w>|^2 = exp(-|conj(z) - w|^2), by expanding the exponents
        lhs = abs(coherent_overlap(z, w)) ** 2
        rhs = math.exp(-abs(z.conjugate() - w) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


class TestReproducingKernel:
    def test_constants_reproduce(self):
        value = reproduce_at(basis_polynomial(0), 1.3 - 0.7j, QuadratureSpec(120))
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_basis_element_reproduces(self):
        z = 0.3 + 0.1j
        value = reproduce_at(basis_polynomial(5), z, QuadratureSpec(200))
        assert value == pytest.approx(z ** 5 / math.sqrt(120.0), abs=1e-8)

    def test_random_polynomials_reproduce(self):
        rng = np.random.default_rng(2024)
        spec = QuadratureSpec(200)
        for _ in range(3):
            poly = random_polynomial(rng, 10)
            for _ in range(10):
                z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                z /= max(1.0, abs(z))
                assert reproduce_at(poly, z, spec) == pytest.approx(poly.evaluate(z), abs=1e-8)

    def test_matches_allocating_horner_bits(self):
        rng = np.random.default_rng(2025)
        spec = QuadratureSpec(200)
        z = 0.6 - 0.3j
        for poly in (random_polynomial(rng, 12), FockPolynomial((0.5j,) + (0j,) * 20)):
            grid = polar_grid(spec.doubled(), 2 * max(angular_count_for(poly.degree), 64))
            kernel = np.exp(z * np.conj(grid.points))
            expected = grid.integrate(kernel * allocating_evaluate(poly, grid.points))
            assert hex_parts(np.array(reproduce_at(poly, z, spec))) == hex_parts(np.array(expected))

    def test_starved_rule_raises(self):
        poly = basis_polynomial(8)
        with pytest.raises(NonConvergent):
            reproduce_at(poly, 2.0 + 0j, QuadratureSpec(3), tol=1e-12)

    def test_resolution_of_identity(self):
        matrix = resolution_identity_matrix(8, QuadratureSpec(64))
        assert np.max(np.abs(matrix - np.eye(9))) < 1e-8


class TestFockPolynomialType:
    def test_norm_and_degree(self):
        poly = FockPolynomial((3.0, 4.0j))
        assert poly.norm() == pytest.approx(5.0)
        assert poly.degree == 1

    def test_monomial_view(self):
        poly = basis_polynomial(4)
        mono = poly.monomial_coeffs()
        assert mono[4] == pytest.approx(1.0 / math.sqrt(24.0), rel=1e-15)
        assert all(c == 0 for c in mono[:4])

    def test_evaluate_at_the_largest_normal_degree(self):
        value = basis_polynomial(300).evaluate(2.0)
        exact = math.exp(300 * math.log(2.0) - 0.5 * math.lgamma(301))
        assert abs(value - exact) <= 1e-12 * exact

    def test_evaluate_refuses_coefficients_beyond_degree_300(self):
        # 1/sqrt(330!) underflows to 0, so u_330(2) would read 0 (true 4.1e-246)
        with pytest.raises(ValueError):
            basis_polynomial(330).evaluate(2.0)
        trailing_zeros = FockPolynomial((1.0,) + (0.0,) * 400)
        assert trailing_zeros.evaluate(2.0) == 1.0

    def test_evaluate_contract(self):
        poly = FockPolynomial((1.0, 0.5j, -0.25))
        for z in (2, 0.5, 1.5 - 0.5j, np.complex128(0.3j), np.array(0.7 + 0.1j)):
            assert type(poly.evaluate(z)) is complex
        grid = np.full((3, 4), 0.5 - 1.0j)
        values = poly.evaluate(grid)
        assert isinstance(values, np.ndarray) and values.shape == (3, 4) and values.dtype == complex
        listed = poly.evaluate([0.5, 1j])
        assert listed.shape == (2,)
        assert listed.tolist() == pytest.approx([poly.evaluate(0.5), poly.evaluate(1j)], rel=1e-15)

    def test_evaluate_matches_allocating_horner_bits(self):
        # numpy scalar arithmetic rounds unlike the ufunc loop, so scalar and
        # 0-d inputs must keep the allocating Horner step
        rng = np.random.default_rng(60)
        points = rng.uniform(-2, 2, 60) + 1j * rng.uniform(-2, 2, 60)
        for degree in (0, 3, 17, 40):
            poly = random_polynomial(rng, degree)
            for z in points.tolist():
                expected = allocating_evaluate(poly, z)
                assert hex_parts(np.array(poly.evaluate(z))) == hex_parts(np.array(expected))
            assert hex_parts(poly.evaluate(points)) == hex_parts(allocating_evaluate(poly, points))
        zero = FockPolynomial((0j,) * 5)
        assert hex_parts(zero.evaluate(points)) == hex_parts(allocating_evaluate(zero, points))

    def test_monomial_view_refuses_coefficients_beyond_degree_300(self):
        # 1/sqrt(314!) underflows to 0, so the monomial coefficient would read 0
        with pytest.raises(ValueError):
            basis_polynomial(314).monomial_coeffs()
        assert basis_polynomial(300).monomial_coeffs()[300].real > 0
        assert FockPolynomial((1.0,) + (0.0,) * 400).monomial_coeffs()[0] == 1.0

    def test_empty_coefficients_normalized(self):
        assert FockPolynomial(()).u_coeffs == (0j,)
        assert L2Sequence(()).entries == (0j,)

    def test_json_views(self):
        assert FockPolynomial((1.0, 0.5j)).to_json_obj() == [
            {"re": 1.0, "im": 0.0},
            {"re": 0.0, "im": 0.5},
        ]
        csv_text = L2Sequence((1.0, 0.5j)).to_csv()
        assert csv_text.startswith("n,re,im,modulus\n0,1.0,0.0,1.0\n")
