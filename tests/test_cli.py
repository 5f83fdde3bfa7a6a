import json
import math

import pytest

from bargmann_toeplitz.cli import main, parse_complex_literal, parse_poly_spec, parse_symbol_spec
from bargmann_toeplitz.symbols import GaussianRadialSymbol


GAUSSIAN_JSON = '{"kind": "gaussian", "amplitude": 2, "exponent": -1}'
NAN_ENVELOPE = (
    '{"kind": "enveloped", "envelope_c": NaN, "envelope_delta": 0.0, "base": %s}' % GAUSSIAN_JSON
)
HUGE = "9" * 400  # an integer beyond double range
HUGE_AMPLITUDE = '{"kind": "gaussian", "amplitude": %s, "exponent": 0}' % HUGE
HUGE_RE = '{"kind": "gaussian", "amplitude": {"re": %s}, "exponent": 0}' % HUGE
DEEP_ENVELOPE = (
    '{"kind": "enveloped", "envelope_c": 2.0, "envelope_delta": 0.0, "base": ' * 1500
    + GAUSSIAN_JSON
    + "}" * 1500
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.6-0.8i", 0.6 - 0.8j),
            ("2", 2.0 + 0j),
            ("-0.8i", -0.8j),
            ("1e-3i", 1e-3j),
            ("2.5+0i", 2.5 + 0j),
            ("i", 1j),
        ],
    )
    def test_complex_literals(self, text, expected):
        assert parse_complex_literal(text) == expected

    @pytest.mark.parametrize("text", ["abc", "1 + 2i", "", "inf", "nan+1i"])
    def test_bad_literals_rejected(self, text):
        with pytest.raises(ValueError):
            parse_complex_literal(text)

    def test_symbol_specs(self, tmp_path):
        sym = parse_symbol_spec("gamma:0.6-0.8i")
        assert isinstance(sym, GaussianRadialSymbol)
        assert sym.amplitude == 0.6 - 0.8j

        thermal = parse_symbol_spec("mb:1.0")
        assert thermal.amplitude == pytest.approx(math.exp(0.5))

        inline = parse_symbol_spec('{"kind": "gaussian", "amplitude": {"re": 2, "im": 0}, "exponent": {"re": -1, "im": 0}}')
        assert inline.amplitude == 2.0

        path = tmp_path / "symbol.json"
        path.write_text(json.dumps({"kind": "polynomial", "coefficients": [{"re": 0, "im": 0}, {"re": 1, "im": 0}]}))
        from_file = parse_symbol_spec(f"@{path}")
        assert from_file.coefficients == (0j, 1.0 + 0j)

        with pytest.raises(ValueError):
            parse_symbol_spec("mystery:1")

    def test_poly_specs(self):
        assert parse_poly_spec("1,0,0.5+0.5i").u_coeffs == (1.0 + 0j, 0j, 0.5 + 0.5j)
        assert parse_poly_spec("[{\"re\": 1, \"im\": 0}, 2]").u_coeffs == (1.0 + 0j, 2.0 + 0j)


class TestCommands:
    def test_classify_membership(self, capsys):
        code, out, err = run_cli(
            ["classify", "--symbol", "gamma:0.6-0.8i", "--no-timestamp"], capsys
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["schema"] == "bt-report/1"
        assert report["result"]["classification"]["in_p"] == "yes"

    def test_spectrum_csv_of_identity_symbol(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--symbol", "gamma:1", "--n", "5", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,re,im,modulus"
        assert len(lines) == 7
        for n, line in enumerate(lines[1:]):
            assert line == f"{n},1.0,0.0,1.0"

    def test_compose_counterexample(self, capsys):
        code, out, _ = run_cli(
            ["compose", "--a", "gamma:0.6-0.8i", "--b", "gamma:0.6-0.8i", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["composition"]["status"] == "not_toeplitz_in_P"

    def test_compose_conjugate_closes(self, capsys):
        code, out, _ = run_cli(
            ["compose", "--a", "gamma:0.6-0.8i", "--b", "gamma:0.6+0.8i", "--no-timestamp"],
            capsys,
        )
        report = json.loads(out)
        assert report["result"]["composition"]["status"] == "closed_in_P"
        symbol = report["result"]["composition"]["symbol"]
        assert symbol["amplitude"]["re"] == pytest.approx(1.0, abs=1e-12)

    def test_apply_scales_basis_element(self, capsys):
        code, out, _ = run_cli(
            ["apply", "--symbol", "gamma:2", "--poly", "0,0,0,1", "--no-timestamp"], capsys
        )
        assert code == 0
        image = json.loads(out)["result"]["image"]
        assert image[3]["re"] == pytest.approx(0.125, abs=1e-8)

    def test_apply_csv_output(self, capsys):
        code, out, _ = run_cli(
            ["apply", "--symbol", "gamma:2", "--poly", "0,0,0,1", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,re,im,modulus"
        assert len(lines) == 5
        assert float(lines[4].split(",")[1]) == pytest.approx(0.125, abs=1e-8)

    def test_verify_equivalent(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--symbol", "gamma:2", "--n", "4", "--no-timestamp"], capsys
        )
        assert code == 0
        assert json.loads(out)["result"]["equivalence"]["verdict"] == "equivalent"

    def test_demo_sections(self, capsys):
        code, out, _ = run_cli(["demo", "--n", "4", "--no-timestamp"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert set(result) == {
            "geometric_family_sweep",
            "bounded_spectrum_outside_class",
            "thermal_density_spectrum",
            "composition_counterexample",
        }
        assert result["composition_counterexample"]["self_composition"]["status"] == "not_toeplitz_in_P"
        assert result["bounded_spectrum_outside_class"]["equivalence"]["verdict"] == "not_equivalent"

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--symbol", "gamma:2", "--n", "2", "--format", "text"], capsys
        )
        assert code == 0
        assert "equivalence.verdict: equivalent" in out


class TestReportContract:
    def test_determinism_without_timestamp(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(
                ["classify", "--symbol", "gamma:2", "--no-timestamp", "--output", str(path)]
            )
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_report_embeds_rerunnable_config(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--symbol", "gamma:2", "--n", "3", "--nodes", "64", "--no-timestamp"],
            capsys,
        )
        config = json.loads(out)["config"]
        assert config["command"] == "spectrum"
        assert config["symbol"] == "gamma:2"
        assert config["n_max"] == 3
        assert config["nodes"] == 64

    def test_timestamp_present_by_default(self, capsys):
        code, out, _ = run_cli(["classify", "--symbol", "gamma:2"], capsys)
        assert "generated_at" in json.loads(out)

    def test_env_var_overrides_default_nodes(self, capsys, monkeypatch):
        monkeypatch.setenv("BT_DEFAULT_NODES", "32")
        code, out, _ = run_cli(
            ["spectrum", "--symbol", "gamma:2", "--n", "2", "--no-timestamp"], capsys
        )
        assert json.loads(out)["config"]["nodes"] == 32


class TestExitCodes:
    def test_invalid_symbol_is_exit_1(self, capsys):
        code, _, err = run_cli(["classify", "--symbol", "nonsense"], capsys)
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--symbol", "mb:nan"],
            ["spectrum", "--symbol", "mb:1000"],
            ["classify", "--symbol", NAN_ENVELOPE],
            ["classify", "--symbol", DEEP_ENVELOPE],
            ["verify", "--symbol", "gamma:2", "--tol", "nan"],
            ["spectrum", "--symbol", HUGE_AMPLITUDE],
            ["spectrum", "--symbol", HUGE_RE],
            ["spectrum", "--symbol", "gamma:2", "--nodes", "3201"],
        ],
        ids=["mb_nan", "mb_overflow", "nan_envelope", "deep_nesting", "nan_tol",
             "huge_int", "huge_re", "nodes_above_bound"],
    )
    def test_bad_input_is_exit_1(self, args, capsys):
        code, out, err = run_cli(args + ["--no-timestamp"], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert set(json.loads(err)["error"]) == {"type", "message"}

    def test_divergent_moment_is_exit_2(self, capsys):
        code, _, err = run_cli(["spectrum", "--symbol", "gamma:-1", "--n", "3"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DivergentMoment"

    def test_domain_violation_is_exit_2(self, capsys):
        boundary = json.dumps(
            {
                "kind": "gaussian",
                "amplitude": {"re": 1, "im": 0},
                "exponent": {"re": 0.5, "im": 0.8660254037844386},
            }
        )
        code, _, err = run_cli(["apply", "--symbol", boundary, "--poly", "1"], capsys)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainViolation"

    def test_non_convergent_is_exit_3(self, capsys):
        wide = json.dumps(
            {
                "kind": "enveloped",
                "envelope_c": 1.0,
                "envelope_delta": 0.95,
                "base": {
                    "kind": "gaussian",
                    "amplitude": {"re": 0.05, "im": 0},
                    "exponent": {"re": 0.95, "im": 0},
                },
            }
        )
        code, _, err = run_cli(
            ["spectrum", "--symbol", wide, "--n", "0", "--nodes", "4"], capsys
        )
        assert code == 3
        assert json.loads(err)["error"]["type"] == "NonConvergent"

    def test_csv_unsupported_for_classify(self, capsys):
        code, _, err = run_cli(
            ["classify", "--symbol", "gamma:2", "--format", "csv"], capsys
        )
        assert code == 1

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["compose", "--a", "gamma:2"]) == 1
        capsys.readouterr()

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
