import json
import subprocess
import sys

import pytest

from opfrob.cli import main
from opfrob.fixtures import builtin_names


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_builtin_constant_passes(self, capsys):
        code, out, _ = run_cli(["builtin", "example52", "--variant",
                                "constant"], capsys)
        assert code == 0
        assert out.count("poisson_bracket_F") == 6
        assert "FAIL" not in out

    def test_builtin_not_closed_fails(self, capsys):
        code, out, _ = run_cli(["builtin", "not-closed"], capsys)
        assert code == 1
        assert "span_closure" in out

    def test_unknown_builtin_is_input_error(self, capsys):
        code, _, err = run_cli(["builtin", "no-such-fixture"], capsys)
        assert code == 2

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["verify-algebra", str(bad)], capsys)
        assert code == 2

    def test_bad_expression_is_input_error(self, tmp_path, capsys):
        doc = {"schema": 1, "dimension": 2,
               "fields": {"K": [["u7", "0"], ["0", "1"]]},
               "basis": ["K", "K"]}
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc))
        code, _, err = run_cli(["verify-algebra", str(f)], capsys)
        assert code == 2
        assert "out of range" in err

    def test_missing_schema_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({"dimension": 2}))
        code, _, _ = run_cli(["verify-algebra", str(f)], capsys)
        assert code == 2

    def test_zero_samples_is_input_error(self, capsys):
        code, out, err = run_cli(["builtin", "example32", "--samples", "0"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == "input error: sample count must be at least 1, got 0\n"

    def test_negative_samples_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "e52.json"
        run_cli(["builtin", "example52", "--emit", str(path)], capsys)
        code, out, err = run_cli(["verify-algebra", str(path), "--samples",
                                  "-3"], capsys)
        assert (code, out) == (2, "")
        assert err == "input error: sample count must be at least 1, got -3\n"

    @pytest.mark.parametrize("hj_points", ["0", "-2"])
    def test_hj_points_below_one_is_input_error(self, hj_points, tmp_path,
                                                capsys):
        path = tmp_path / "e52.json"
        run_cli(["builtin", "example52", "--emit", str(path)], capsys)
        code, out, err = run_cli(["hj", str(path), "--c", "1,0.1,0.1,0.1",
                                  "--samples", "10", "--hj-points",
                                  hj_points], capsys)
        assert (code, out) == (2, "")
        assert err == (f"input error: --hj-points must be at least 1, "
                       f"got {hj_points}\n")


def _run_doc(doc, command, tmp_path, capsys):
    """(exit code, stdout, stderr) of ``command`` on a system document."""
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(doc))
    return run_cli([command, str(f)], capsys)


DIAG2 = {"schema": 1, "dimension": 2,
         "fields": {"I": [["1", "0"], ["0", "1"]],
                    "D": [["u1", "0"], ["0", "u2"]]},
         "basis": ["I", "D"]}


class TestInputChecks:
    """Malformed system files exit 2 with one line on stderr."""

    @staticmethod
    def assert_input_error(result, message):
        code, out, err = result
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert message in err

    def test_non_finite_constant_entry(self, tmp_path, capsys):
        doc = dict(DIAG2, fields={"I": [["1", "0"], ["0", "1"]],
                                  "K": [["1e400*0", "0"], ["0", "2"]]},
                   basis=["I", "K"])
        self.assert_input_error(
            _run_doc(doc, "verify-algebra", tmp_path, capsys),
            "field 'K': entry inf*0 is nan, not a finite number")

    @pytest.mark.parametrize("key,value", [("covector", [float("nan"), 1.0]),
                                           ("xi", [1.0, float("inf")])])
    def test_non_finite_vector(self, key, value, tmp_path, capsys):
        self.assert_input_error(
            _run_doc(dict(DIAG2, **{key: value}), "verify-algebra",
                       tmp_path, capsys),
            f"{key} components must be finite")

    @pytest.mark.parametrize("basis", ["I", [1, 2], {"I": 1}])
    def test_basis_not_a_list_of_names(self, basis, tmp_path, capsys):
        self.assert_input_error(
            _run_doc(dict(DIAG2, basis=basis), "verify-algebra", tmp_path,
                       capsys),
            "basis must be a list of field names")

    @pytest.mark.parametrize("order", ["x", 0, 2.5, True])
    def test_flow_order_not_a_positive_integer(self, order, tmp_path, capsys):
        doc = dict(DIAG2, initial_curve=[[0.5, 1.0], [0.7, 0.3]],
                   flow_order=order)
        self.assert_input_error(_run_doc(doc, "flow", tmp_path, capsys),
                                "flow_order must be an integer of at least 1")

    def test_flow_basis_names_are_checked(self, tmp_path, capsys):
        doc = dict(DIAG2, basis=["I", "M9"],
                   initial_curve=[[0.5, 1.0], [0.7, 0.3]])
        self.assert_input_error(_run_doc(doc, "flow", tmp_path, capsys),
                                "basis names not defined: ['M9']")

    def test_nan_at_a_sampled_point_is_no_traceback(self, tmp_path, capsys):
        # finite constants, NaN values: the xi search rejects every draw
        doc = dict(DIAG2, fields={"I": [["1", "0"], ["0", "1"]],
                                  "D": [["u1*1e400*0", "0"], ["0", "u2"]]})
        code, out, err = _run_doc(doc, "verify-algebra", tmp_path, capsys)
        assert (code, out) == (1, "")
        assert err == "verification error: no generic vector found in " \
                      "32 draws\n"


class TestEmittedFixtures:
    @pytest.mark.parametrize("name", builtin_names())
    def test_emit_and_reload(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.json"
        code, _, _ = run_cli(["builtin", name, "--emit", str(path)], capsys)
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1

    def test_verify_algebra_on_emitted_constant(self, tmp_path, capsys):
        path = tmp_path / "e52.json"
        run_cli(["builtin", "example52", "--emit", str(path)], capsys)
        code, out, _ = run_cli(["verify-algebra", str(path)], capsys)
        assert code == 0

    def test_generate_on_emitted_constant(self, tmp_path, capsys):
        path = tmp_path / "e52.json"
        run_cli(["builtin", "example52", "--emit", str(path)], capsys)
        code, out, _ = run_cli(["generate", str(path)], capsys)
        assert code == 0
        assert "emitted_family" in out

    def test_poisson_check_on_analytic(self, tmp_path, capsys):
        path = tmp_path / "e52a.json"
        run_cli(["builtin", "example52", "--variant", "analytic",
                 "--emit", str(path)], capsys)
        code, out, _ = run_cli(["poisson-check", str(path)], capsys)
        assert code == 0

    def test_inverse_on_analytic(self, tmp_path, capsys):
        path = tmp_path / "e52a.json"
        run_cli(["builtin", "example52", "--variant", "analytic",
                 "--emit", str(path)], capsys)
        code, out, _ = run_cli(["inverse", str(path)], capsys)
        assert code == 0

    def test_generate_on_analytic_uses_chart(self, tmp_path, capsys):
        path = tmp_path / "e52a.json"
        run_cli(["builtin", "example52", "--variant", "analytic",
                 "--emit", str(path)], capsys)
        code, out, _ = run_cli(["generate", str(path), "--tol", "1e-8"],
                               capsys)
        assert code == 0

    def test_dualize_and_symcheck_and_flow_and_hj(self, tmp_path, capsys):
        path = tmp_path / "e52.json"
        run_cli(["builtin", "example52", "--emit", str(path)], capsys)
        assert run_cli(["dualize", str(path)], capsys)[0] == 0
        assert run_cli(["symcheck", str(path)], capsys)[0] == 0
        assert run_cli(["flow", str(path)], capsys)[0] == 0
        assert run_cli(["hj", str(path), "--c", "1,0,0,0.3"], capsys)[0] == 0

    def test_flow_on_nonsymmetric_pair_fails(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        run_cli(["builtin", "nonsymmetric-pair", "--emit", str(path)], capsys)
        code, out, _ = run_cli(["flow", str(path)], capsys)
        assert code == 1
        assert "flow_compatibility_1_2" in out

    def test_centraliser_builtins_pass(self, capsys):
        for name in ("centraliser-diag", "centraliser-jordan"):
            assert run_cli(["builtin", name], capsys)[0] == 0

    def test_nonsymmetric_builtin_fails(self, capsys):
        code, out, _ = run_cli(["builtin", "nonsymmetric-pair"], capsys)
        assert code == 1


class TestDeterminism:
    def test_text_reports_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(["builtin", "example52", "--variant",
                              "constant"], capsys)
        _, out2, _ = run_cli(["builtin", "example52", "--variant",
                              "constant"], capsys)
        assert out1 == out2

    def test_json_reports_are_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "e52a.json"
        run_cli(["builtin", "example52", "--variant", "analytic",
                 "--emit", str(path)], capsys)
        _, out1, _ = run_cli(["poisson-check", str(path), "--json"], capsys)
        _, out2, _ = run_cli(["poisson-check", str(path), "--json"], capsys)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["passed"] is True

    def test_seed_changes_report(self, capsys):
        _, out1, _ = run_cli(["builtin", "example32", "--seed", "1"], capsys)
        _, out2, _ = run_cli(["builtin", "example32", "--seed", "2"], capsys)
        assert out1 != out2


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opfrob.cli", "builtin", "example32"],
            capture_output=True, text=True)
        assert proc.returncode == 0
