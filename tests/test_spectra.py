import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bargmann_toeplitz import (
    DivergentMoment,
    EigenSequence,
    EnvelopedSymbol,
    EnvelopeViolation,
    GaussianRadialSymbol,
    NonConvergent,
    PolynomialRadialSymbol,
    QuadratureSpec,
    eigen_sequence,
    gamma,
    laguerre_nodes,
    maxwell_boltzmann,
    quadrature_eigen,
)
from bargmann_toeplitz import spectra
from bargmann_toeplitz.spectra import CLOSED_FORM, QUADRATURE, absolute_moment, absolute_moments

from conftest import bounded_boundary_symbol
from support import (
    counting_twin,
    full_polish_rule,
    scalar_absolute_moment,
    scalar_quadrature_eigen,
    weighted_node_count,
)


class TestLaguerreRule:
    def test_single_node_rule(self):
        nodes, weights = laguerre_nodes(QuadratureSpec(1))
        assert nodes.tolist() == [1.0]
        assert weights.tolist() == [1.0]

    def test_two_node_rule_matches_quadratic_roots(self):
        # roots of t^2 - 4t + 2, by the quadratic formula
        nodes, _ = laguerre_nodes(QuadratureSpec(2))
        assert sorted(nodes.tolist()) == pytest.approx([2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], rel=1e-14)

    @pytest.mark.parametrize("node_count", [1, 3, 7, 33, 64, 200])
    def test_weights_sum_to_one(self, node_count):
        _, weights = laguerre_nodes(QuadratureSpec(node_count))
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-12)

    def test_degree_exactness_up_to_64_nodes(self):
        for node_count in range(1, 65):
            nodes, weights = laguerre_nodes(QuadratureSpec(node_count))
            powers = np.ones_like(nodes)
            exact = 1.0
            for j in range(2 * node_count):
                if j > 0:
                    powers = powers * nodes
                    exact *= j
                approx = float(weights @ powers)
                assert abs(approx - exact) / exact < 1e-12, (node_count, j)

    def test_nodes_positive_weights_nonnegative_at_scale(self):
        nodes, weights = laguerre_nodes(QuadratureSpec(400))
        assert np.all(nodes > 0)
        assert np.all(weights >= 0)
        assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))

    def test_rule_is_the_weighted_part_of_the_full_polish(self):
        for node_count in (*range(1, 65), 200, 400, 800, 1600):
            seeds, ref_nodes, ref_weights = full_polish_rule(node_count)
            nodes, weights = laguerre_nodes(QuadratureSpec(node_count))
            carried = ref_weights > 0
            assert np.array_equal(nodes, ref_nodes[carried]), node_count
            assert np.array_equal(weights, ref_weights[carried]), node_count
            assert not np.any(ref_weights[seeds >= 800]), node_count

    def test_shipped_tables_are_the_builder_bits(self):
        shipped = {int(p.stem.split("_")[1]) for p in spectra._RULE_TABLES.glob("laguerre_*.npy")}
        assert shipped == {25, 50, 100, 200, 400, 800, 1600, 3200, 6400}
        assert shipped == set(spectra._RULE_LADDER)
        for node_count in spectra._RULE_LADDER:
            nodes, weights = laguerre_nodes(QuadratureSpec(node_count))
            ref_nodes, ref_weights = spectra._build_rule(node_count)
            stale = f"table {node_count} differs from _build_rule: run tools/make_rule_tables.py"
            assert np.array_equal(nodes, ref_nodes), stale
            assert np.array_equal(weights, ref_weights), stale
            assert not nodes.flags.writeable and not weights.flags.writeable

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(0)
        assert QuadratureSpec(4).doubled().node_count == 8


class TestClosedForm:
    def test_geometric_family_k2(self):
        seq = eigen_sequence(gamma(2.0), 3)
        assert seq.values == (1.0, 0.5, 0.25, 0.125)
        assert seq.method == CLOSED_FORM
        assert seq.tail.ratio == 0.5

    def test_identity_symbol_all_ones(self):
        seq = eigen_sequence(gamma(1.0), 5)
        assert seq.values == (1.0,) * 6

    def test_polynomial_r_squared(self):
        seq = eigen_sequence(PolynomialRadialSymbol((0.0, 1.0)), 3)
        assert seq.values == (1.0, 2.0, 3.0, 4.0)
        assert seq.tail is None

    def test_boundary_symbol_unit_modulus_values(self):
        seq = eigen_sequence(bounded_boundary_symbol(), 2)
        base = 0.5 - (math.sqrt(3.0) / 2.0) * 1j
        for n, value in enumerate(seq.values):
            assert value == pytest.approx(base ** -(n + 1), rel=1e-12)
            assert abs(value) == pytest.approx(1.0, abs=1e-12)

    def test_geometric_tail_exact_by_construction(self):
        seq = eigen_sequence(gamma(0.8 - 0.9j), 30)
        for a, b in zip(seq.values, seq.values[1:]):
            assert b == a * seq.tail.ratio  # bitwise: built by this multiplication

    def test_geometric_tail_against_k(self):
        k = 0.8 - 0.9j
        seq = eigen_sequence(gamma(k), 30)
        for a, b in zip(seq.values, seq.values[1:]):
            assert abs(b * k - a) <= 1e-14 * abs(a)

    def test_divergent_moment_raised(self):
        with pytest.raises(DivergentMoment):
            eigen_sequence(gamma(-0.5), 3)
        with pytest.raises(DivergentMoment):
            eigen_sequence(GaussianRadialSymbol(1.0, 1.0), 3)

    def test_zero_symbol_at_the_pole(self):
        # exponent 1 makes the closed form's pole 0; amplitude 0 makes phi = 0
        seq = eigen_sequence(GaussianRadialSymbol(0.0, 1.0), 3)
        assert seq.values == (0j,) * 4

    def test_linearity_on_polynomials(self):
        alpha, beta = 2.0 - 1.0j, 0.5 + 0.25j
        p = PolynomialRadialSymbol((1.0, 0.0, 3.0))
        q = PolynomialRadialSymbol((0.0, 2.0j))
        combo = PolynomialRadialSymbol(
            tuple(alpha * a + beta * b for a, b in zip((1.0, 0.0, 3.0), (0.0, 2.0j, 0.0)))
        )
        sp, sq, sc = (eigen_sequence(s, 8) for s in (p, q, combo))
        for a, b, c in zip(sp.values, sq.values, sc.values):
            assert c == pytest.approx(alpha * a + beta * b, rel=1e-14)

    def test_linearity_on_shared_exponent_gaussians(self):
        sigma = -0.3 + 0.4j
        a = GaussianRadialSymbol(2.0, sigma)
        b = GaussianRadialSymbol(0.5j, sigma)
        summed = GaussianRadialSymbol(2.0 + 0.5j, sigma)
        sa, sb, sc = (eigen_sequence(s, 10) for s in (a, b, summed))
        for x, y, z in zip(sa.values, sb.values, sc.values):
            assert z == pytest.approx(x + y, rel=1e-13)

    def test_invalid_n_max(self):
        with pytest.raises(ValueError):
            eigen_sequence(gamma(2.0), -1)


class TestQuadrature:
    def test_geometric_k2_first_eigenvalue(self):
        value = quadrature_eigen(gamma(2.0), 1, QuadratureSpec(200))
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_polynomial_fifth_moment(self):
        value = quadrature_eigen(PolynomialRadialSymbol((0.0, 1.0)), 4, QuadratureSpec(64))
        assert value == pytest.approx(5.0, abs=1e-10)

    def test_thermal_state_eigenvalue(self):
        value = quadrature_eigen(maxwell_boltzmann(1.0), 2, QuadratureSpec(200))
        assert value == pytest.approx(math.exp(-0.5) * math.exp(-2.0), abs=1e-10)

    def test_oracle_agreement_over_corpus(self, corpus):
        spec = QuadratureSpec(200)
        for label, sym in corpus:
            closed = eigen_sequence(sym, 20)
            if closed.method != CLOSED_FORM:
                continue
            for n in range(21):
                value = quadrature_eigen(sym, n, spec, tol=1e-8)
                assert abs(value - closed.values[n]) < 1e-8, (label, n)

    def test_enveloped_falls_back_to_quadrature(self):
        sym = EnvelopedSymbol(evaluator=None, envelope_c=2.0, envelope_delta=0.0, base=gamma(2.0))
        seq = eigen_sequence(sym, 6, QuadratureSpec(128))
        assert seq.method == QUADRATURE
        reference = eigen_sequence(gamma(2.0), 6)
        for a, b in zip(seq.values, reference.values):
            assert a == pytest.approx(b, abs=1e-10)

    def test_divergence_guards(self):
        with pytest.raises(DivergentMoment):
            quadrature_eigen(gamma(-1.0), 0, QuadratureSpec(64))
        undeclared = EnvelopedSymbol(evaluator=None, envelope_c=1.0, envelope_delta=1.1, base=gamma(0.5))
        with pytest.raises(DivergentMoment):
            quadrature_eigen(undeclared, 0, QuadratureSpec(64))

    def test_non_convergent_raised_for_starved_rule(self):
        # Re(k) near the integrability boundary spreads the integrand far past
        # the reach of an 8-node rule.
        with pytest.raises(NonConvergent):
            quadrature_eigen(gamma(0.02), 0, QuadratureSpec(8))

    def test_black_box_never_evaluated_where_its_bound_overflows(self):
        # growth within a hair of the integrability boundary: the evaluator
        # would overflow near the largest usable nodes if consulted there
        base = GaussianRadialSymbol(1.0, 0.97)
        sym = EnvelopedSymbol(evaluator=None, envelope_c=1.0, envelope_delta=0.97, base=base)
        value = quadrature_eigen(sym, 0, QuadratureSpec(200), tol=1e-3)
        assert value == pytest.approx(1.0 / 0.03, abs=1e-6)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            quadrature_eigen(gamma(2.0), -1, QuadratureSpec(16))


class TestBlackBoxPass:
    def test_each_node_evaluated_once_per_rule(self):
        sym, evaluator = counting_twin(1.5)
        spec = QuadratureSpec(200)
        eigen_sequence(sym, 32, spec)
        assert 0 < evaluator.calls <= weighted_node_count(spec) + weighted_node_count(spec.doubled())

    @pytest.mark.parametrize("k", [1.5, 0.8 - 0.3j, 2.2 + 0.5j])
    @pytest.mark.parametrize("node_count", [64, 200])
    def test_values_equal_scalar_reference(self, k, node_count):
        # 70 orders span two blocks of the pass
        sym, _ = counting_twin(k)
        spec = QuadratureSpec(node_count)
        seq = eigen_sequence(sym, 70, spec, tol=1e-6)
        assert seq.values == tuple(scalar_quadrature_eigen(sym, n, spec, 1e-6) for n in range(71))
        for n in (0, 17, 64):
            assert quadrature_eigen(sym, n, spec, 1e-6) == scalar_quadrature_eigen(sym, n, spec, 1e-6)

    def test_absolute_moments_equal_scalar_reference(self):
        sym, _ = counting_twin(0.3 + 0.2j)
        spec = QuadratureSpec(200)
        expected = [scalar_absolute_moment(sym, m, spec) for m in range(9)]
        assert absolute_moments(sym, range(9), spec) == expected
        assert absolute_moment(sym, 5, spec) == expected[5]

    def test_first_failing_order_named(self):
        # phi_44 is the first order whose gap exceeds 1e-10 at 64 vs 128 nodes
        sym, _ = counting_twin(0.8 - 0.3j)
        spec = QuadratureSpec(64)
        with pytest.raises(NonConvergent) as expected:
            for n in range(71):
                scalar_quadrature_eigen(sym, n, spec, 1e-10)
        with pytest.raises(NonConvergent) as raised:
            eigen_sequence(sym, 70, spec)
        assert str(raised.value) == str(expected.value)

    def test_lying_evaluator_still_raises(self):
        # |phi| reaches 1e9 beyond r = 3 under a declared bound of 1
        sym = EnvelopedSymbol(lambda r: 1.0 if r < 3.0 else 1e9, 1.0, 0.0)
        with pytest.raises(EnvelopeViolation):
            eigen_sequence(sym, 10, QuadratureSpec(50))


class TestEigenSequenceType:
    def test_validation(self):
        with pytest.raises(ValueError):
            EigenSequence((), CLOSED_FORM)
        with pytest.raises(ValueError):
            EigenSequence((1.0,), "guesswork")

    def test_len_and_indexing(self):
        seq = eigen_sequence(gamma(2.0), 4)
        assert len(seq) == 5
        assert seq[2] == 0.25

    def test_csv_export(self):
        text = eigen_sequence(gamma(2.0), 2).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,re,im,modulus"
        assert lines[1] == "0,1.0,0.0,1.0"
        assert lines[3] == "2,0.25,0.0,0.25"

    def test_json_shape(self):
        obj = eigen_sequence(gamma(2.0), 1).to_json_obj()
        assert obj["method"] == CLOSED_FORM
        assert obj["values"] == [{"re": 1.0, "im": 0.0}, {"re": 0.5, "im": 0.0}]
        assert obj["tail"] == {"kind": "geometric", "ratio": {"re": 0.5, "im": 0.0}}


@given(
    st.floats(min_value=0.6, max_value=3.0),
    st.floats(min_value=-1.5, max_value=1.5),
)
def test_quadrature_matches_closed_form_property(re_k, im_k):
    k = complex(re_k, im_k)
    closed = eigen_sequence(gamma(k), 5)
    value = quadrature_eigen(gamma(k), 5, QuadratureSpec(160), tol=1e-8)
    assert abs(value - closed.values[5]) < 1e-8
