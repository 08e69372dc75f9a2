import argparse
import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from opfrob.cli import main
from opfrob.fixtures import builtin_names
from opfrob.frobalg import stacked_jets
from opfrob.opfields import bracket_from_jets
from opfrob.sampling import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    SampleConfig,
    sample_points,
)
from opfrob.symalg import FlatBasis, analytic_symmetry
from opfrob.sysfile import MAX_SAMPLES, load_system_file

from helpers import opfrob_env, run_opfrob


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

    @pytest.mark.parametrize("samples", [10 ** 400, 10 ** 9])
    def test_file_sample_count_above_the_cap_is_input_error(self, samples,
                                                            tmp_path, capsys):
        path = tmp_path / "e52.json"
        run_cli(["builtin", "example52", "--emit", str(path)], capsys)
        doc = json.loads(path.read_text())
        doc["sampling"]["samples"] = samples
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["verify-algebra", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"input error: sample count must be at most 100000, "
                       f"got {samples}\n")

    def test_samples_option_above_the_cap_is_input_error(self, capsys):
        code, out, err = run_cli(["builtin", "example32", "--samples",
                                  "100001"], capsys)
        assert (code, out) == (2, "")
        assert err == ("input error: sample count must be at most 100000, "
                       "got 100001\n")

    def test_sample_count_at_the_cap_is_accepted(self, tmp_path, capsys):
        # the config only; no point is drawn
        path = tmp_path / "e52.json"
        run_cli(["builtin", "example52", "--emit", str(path)], capsys)
        args = argparse.Namespace(seed=None, samples=100_000, guard=None)
        config = load_system_file(str(path)).sample_config(args)
        assert config.count == MAX_SAMPLES == 100_000

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

    def test_inadmissible_c_names_the_first_point(self, tmp_path, capsys):
        # with the basis reversed, c = (1, 0, 0, -1) puts N - Id (N
        # nilpotent) under the square root at every point, and its
        # iteration meets a singular factor
        path = tmp_path / "e52.json"
        run_cli(["builtin", "example52", "--emit", str(path)], capsys)
        doc = json.loads(path.read_text())
        doc["basis"].reverse()
        path.write_text(json.dumps(doc))
        first = sample_points(4, SampleConfig(seed=42, count=50))[0]
        assert run_opfrob("hj", "e52.json", "--c", "1,0,0,-1",
                          cwd=tmp_path) == (
            1, "", f"verification error: dW at {list(map(float, first))}: "
            "iteration hit a singular factor: Singular matrix\n")


    def test_infinite_c_exits_2_without_warnings(self, tmp_path, capsys):
        run_cli(["builtin", "example52", "--emit", str(tmp_path / "e.json")],
                capsys)
        assert run_opfrob("hj", "e.json", "--c", "inf,0,0,0",
                          cwd=tmp_path) == (
            2, "", "input error: invalid --c value 'inf,0,0,0'\n")

    def test_overflowing_c_fails_in_one_line(self, tmp_path, capsys):
        # c_1 M^1 + c_2 M^2 and the square-root iteration overflow; the
        # failure is reported once, with no numpy warning before it
        run_cli(["builtin", "example52", "--emit", str(tmp_path / "e.json")],
                capsys)
        code, out, err = run_opfrob("hj", "e.json", "--c", "1e308,1e308,0,0",
                                    cwd=tmp_path)
        assert (code, out) == (1, "")
        assert err.startswith("verification error: dW at ")
        assert err.count("\n") == 1


def test_dualize_reports_a_non_commuting_basis(tmp_path, capsys):
    doc = {"schema": 1, "dimension": 2, "covector": [1, 0],
           "fields": {"K2": [["0", "1"], ["0", "0"]],
                      "K3": [["1", "0"], ["0", "0"]]},
           "basis": ["K2", "K3"]}
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(["dualize", str(f), "--json"], capsys)
    assert (code, err) == (1, "")
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == [
        "input_mutual_symmetries", "genericity_A1_A2",
        "dual_mutual_symmetries"]
    first = checks[0]
    assert not first["passed"] and first["samples"] == 1
    assert first["detail"] == (f"operators do not commute at "
                               f"{first['worst_point']} (residual 5.000e-01)")


def test_overflowing_symcheck_candidate_fails_without_warnings(tmp_path,
                                                               capsys):
    # the candidate's decomposition overflows: a FAIL, and numpy stays quiet
    path = tmp_path / "c52.json"
    run_cli(["builtin", "example52", "--emit", str(path)], capsys)
    doc = json.loads(path.read_text())
    doc["polynomials"] = [[1e308, 1, 1e308], [], [0, 1e308], []]
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["symcheck", str(path), "--json"], capsys)
    assert (code, err) == (1, "")
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "analytic_candidate.decomposition_in_span"
    assert not check["passed"] and check["samples"] == 50


@pytest.mark.parametrize("degree", [0, 1], ids=["constant", "linear"])
def test_a_1e308_symcheck_coefficient(degree, tmp_path, capsys):
    # 1e308 as a coefficient of polynomial 1.  Linear: the candidate's
    # bracket scale max |V| + max |dV| overflows, so its strong-symmetry
    # residual is NaN, a FAIL (it read |T| / inf = 0).  Constant: the
    # candidate gains 1e308 Id, whose bracket with every field is zero; no
    # scale overflows and the bracket itself is exactly 0, so that PASS does
    # not rest on the large denominator.  numpy stays quiet in both.
    path = tmp_path / "c52.json"
    run_cli(["builtin", "example52", "--emit", str(path)], capsys)
    doc = json.loads(path.read_text())
    doc["polynomials"][0][degree] = 1e308
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["symcheck", str(path), "--json"], capsys)
    assert (code, err) == (degree, "")
    span, strong = json.loads(out)["checks"]
    assert span["passed"] and span["max_residual"] <= 1e-15
    assert strong["name"] == "analytic_candidate.strong_symmetry_vs_basis"
    assert strong["passed"] == (degree == 0) and strong["samples"] == 50
    if degree:
        assert math.isnan(strong["max_residual"])
        return
    assert strong["max_residual"] == 0.0
    sf = load_system_file(str(path))
    flat = FlatBasis([f.eval(np.zeros(4)) for f in sf.basis().fields], sf.xi)
    points = sample_points(4, sf.sample_config(argparse.Namespace(
        seed=None, samples=None, guard=None)))
    V, dV = stacked_jets([analytic_symmetry(flat, sf.polynomials),
                          *sf.basis().fields], points)
    for k in range(1, 5):
        T = bracket_from_jets(V[:, 0], dV[:, 0], V[:, k], dV[:, k])
        assert not np.any(T)


def test_overflowing_sampling_guard_is_quiet(tmp_path, capsys):
    # u1^400 overflows to inf at most draws of a box of 1000: those draws
    # pass the guard, and neither a terminal nor this suite (where numpy's
    # warnings are errors) sees a warning
    path = tmp_path / "e32.json"
    run_cli(["builtin", "example32", "--emit", str(path)], capsys)
    doc = json.loads(path.read_text())
    doc["sampling"].update(box=1000, guards=[{"expr": "u1^400",
                                              "min": 0.001}])
    path.write_text(json.dumps(doc))
    argv = ["verify-algebra", str(path), "--json"]
    code, out, err = run_opfrob(*argv)
    assert (code, err) == (0, "")
    assert run_cli(argv, capsys) == (code, out, err)
    checks = json.loads(out)["checks"]
    assert all(c["passed"] for c in checks)
    assert {c["samples"] for c in checks if "samples" in c} == {50}


OVERFLOW_CURVE = [[0.1, 1, 0.3], [0.2, 1, 0.3], [0.3, 1, 0.3],
                  [0.4, 1, 1e308]]


@pytest.mark.parametrize("edit, code", [
    # the jet overflows to inf, though every coefficient compared is equal
    ({"M1": (2, "1e308")}, 1),
    ({"M1": (3, "1e308")}, 1),
    ({"initial_curve": OVERFLOW_CURVE}, 1),
    # a 1e308 slope whose jet stays finite
    ({"initial_curve": [[0.1, 1e308, 0.3]] + OVERFLOW_CURVE[1:3]
      + [[0.4, 1, 1]]}, 0),
], ids=["M1-column-2", "M1-column-3", "curve", "finite-jet"])
def test_an_overflowed_flow_jet_fails(edit, code, tmp_path, capsys):
    # the constant example52 file (flow_order 4) with one 1e308 entry: in
    # M1's last row at a 1-based column, or in an initial curve; a NaN
    # residual fails each pair, and numpy stays quiet
    path = tmp_path / "c52.json"
    run_cli(["builtin", "example52", "--emit", str(path)], capsys)
    doc = json.loads(path.read_text())
    if "M1" in edit:
        column, value = edit["M1"]
        doc["fields"]["M1"][3][column - 1] = value
    else:
        doc.update(initial_curve=edit["initial_curve"], flow_order=4)
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(["flow", str(path), "--json"], capsys)
    assert (got, err) == (code, "")
    checks = json.loads(out)["checks"]
    assert len(checks) == 6
    for check in checks:
        assert check["passed"] == (code == 0)
        assert check["detail"] == "truncation order 4" + (
            "" if code == 0 else "; the jet or a K_j(u) u_x is not finite")


GRID_COMMANDS = {"poisson-check": [], "inverse": [], "generate": [],
                 "hj": ["--c", "1,0.1,0.1,0.1"]}
# (variant, key, where the text goes, the message after "<key>: "); the
# one-form is constant in both example52 files, the Hamiltonians only in
# the constant one
CONSTANT_GRID_EDITS = [
    (variant, "one_form", (k,), text, f"component {message}")
    for variant in ("constant", "analytic") for k in (0, 3)
    for text, message in [("1e400", "inf is inf, not a finite number"),
                          ("1/0", None), ("10^400", None)]
] + [("constant", "hamiltonians", (0, 1, 2), text, f"entry {message}")
     for text, message in [("1e400", "inf is inf, not a finite number"),
                           ("1/0", None), ("10^400", None)]]
EVAL_ERRORS = {"1/0": "division by zero evaluating 0",
               "10^400": "overflow evaluating 10^400"}


@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
@pytest.mark.parametrize(
    "variant,key,where,text,message", CONSTANT_GRID_EDITS,
    ids=[f"{v}-{k}{list(w)}-{t}" for v, k, w, t, _ in CONSTANT_GRID_EDITS])
def test_a_constant_grid_entry_that_fails_is_an_input_error(
        command, variant, key, where, text, message, tmp_path, capsys):
    """Every command that loads the file exits 2 with one line, as for a
    field: before, a one-form entry of 1e400 crashed generate and hj, 1/0
    and 10^400 gave a verification error there, and the Hamiltonians'
    entries failed checks or gave verification errors."""
    path = tmp_path / "c52.json"
    run_cli(["builtin", "example52", "--variant", variant, "--emit",
             str(path)], capsys)
    doc = json.loads(path.read_text())
    grid = doc[key]
    for k in where[:-1]:
        grid = grid[k]
    grid[where[-1]] = text
    if key == "hamiltonians":   # and the mirrored entry, so it stays symmetric
        doc[key][where[0]][where[2]][where[1]] = text
    path.write_text(json.dumps(doc))
    message = message if text == "1e400" else EVAL_ERRORS[text]
    assert run_cli([command, str(path), *GRID_COMMANDS[command]], capsys) \
        == (2, "", f"input error: {path}: {key}: {message}\n")


@pytest.mark.parametrize("command", ["generate", "hj"])
def test_overflowing_constant_structure_constants_are_one_line(
        command, tmp_path, capsys):
    # finite constant fields whose structure constants overflow: before,
    # the constant forms built from them crashed with a traceback
    path = tmp_path / "c52.json"
    run_cli(["builtin", "example52", "--emit", str(path)], capsys)
    doc = json.loads(path.read_text())
    doc["fields"] = {k: [[f"1e200*({e})" for e in row] for row in g]
                     for k, g in doc["fields"].items()}
    path.write_text(json.dumps(doc))
    assert run_cli([command, str(path), *GRID_COMMANDS[command]], capsys) \
        == (1, "", "verification error: the constant structure constants "
            "a^{ij}_s are not finite\n")


# (owner in the message, where the text goes) of an entry that reads no
# coordinate in a grid of the analytic example52 file that reads some
MIXED_GRID_ENTRIES = [("field 'M2'", ("fields", "M2", 0, 1)),
                      ("hamiltonians", ("hamiltonians", 1, 0, 0))]


@pytest.mark.parametrize("command", ["verify-algebra", "poisson-check",
                                     "inverse"])
@pytest.mark.parametrize("text", ["1/0", "10^400", "1e400"])
@pytest.mark.parametrize("owner,where", MIXED_GRID_ENTRIES,
                         ids=[w[0] for _, w in MIXED_GRID_ENTRIES])
def test_a_constant_entry_beside_coordinates_is_an_input_error(
        command, text, owner, where, tmp_path, capsys):
    """As in an all-constant grid: before, such an entry gave a
    verification error, FAILs or a pass, by command."""
    path = tmp_path / "a52.json"
    run_cli(["builtin", "example52", "--variant", "analytic", "--emit",
             str(path)], capsys)
    doc = json.loads(path.read_text())
    grid = doc
    for k in where[:-1]:
        grid = grid[k]
    grid[where[-1]] = text
    path.write_text(json.dumps(doc))
    message = EVAL_ERRORS.get(text, "entry inf is inf, not a finite number")
    assert run_cli([command, str(path)], capsys) \
        == (2, "", f"input error: {path}: {owner}: {message}\n")


RANK_CHECKS = {"linear_independence", "genericity_A1_A2",
               "pullback_independence"}


@pytest.mark.parametrize("tol", ["0.1", "0.5"])
@pytest.mark.parametrize("argv", [["verify-algebra"], ["dualize"],
                                  ["generate"],
                                  ["hj", "--c", "1,0.1,0.1,0.1"]],
                         ids=lambda argv: argv[0])
def test_a_loose_tol_judges_residuals_and_not_ranks(argv, tol, tmp_path,
                                                    capsys):
    """The rank tests and the xi and (A1)/(A2) searches run at fixed
    thresholds: at a loose --tol every check of the analytic example52 file
    passes with its residual at the default.  Before, --tol 0.1 also
    loosened the rank threshold, so linear_independence and the genericity
    checks failed, and generate and hj found no generic vector."""
    path = tmp_path / "a52.json"
    run_cli(["builtin", "example52", "--variant", "analytic", "--emit",
             str(path)], capsys)
    reports = []
    for extra in ([], ["--tol", tol]):
        code, out, err = run_cli([argv[0], str(path), *argv[1:], *extra,
                                  "--json"], capsys)
        assert (code, err) == (0, "")
        reports.append(json.loads(out)["checks"])
    default, loose = reports
    assert [c["name"] for c in loose] == [c["name"] for c in default]
    assert RANK_CHECKS & {c["name"] for c in loose}
    for d, c in zip(default, loose):
        assert c["passed"] and c["max_residual"] == d["max_residual"]
        if c["name"] in RANK_CHECKS:
            assert c["max_residual"] == 0.0


@pytest.mark.parametrize("quadratic", [1, 1e308])
def test_a_non_generic_initial_curve_is_reported_at_any_size(quadratic,
                                                             tmp_path,
                                                             capsys):
    """u0 and u0' come from the curve's own expansion: the quadratic
    coefficient does not enter them, and before, a 1e308 one made them
    NaN, so the dependent K_i(u0) u0' went unreported."""
    path = tmp_path / "pair.json"
    run_cli(["builtin", "nonsymmetric-pair", "--emit", str(path)], capsys)
    doc = json.loads(path.read_text())
    doc["initial_curve"] = [[1, 1, quadratic], [1, 1]]
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["flow", str(path), "--json"], capsys)
    assert (code, err) == (1, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert set(checks) == {"flow_compatibility_1_2", "generic_initial_curve"}
    assert not checks["generic_initial_curve"]["passed"]


@pytest.mark.parametrize("name", ["example52", "nonsymmetric-pair"])
def test_flow_order_1_is_rejected_before_the_fill(name, tmp_path, capsys,
                                                  monkeypatch):
    """The compatibility residuals need order 2; flow_order 1 used to fill
    the jet and then exit 1 with a verification error."""
    path = tmp_path / "f.json"
    run_cli(["builtin", name, "--emit", str(path)], capsys)
    doc = json.loads(path.read_text())
    doc["flow_order"] = 1
    path.write_text(json.dumps(doc))
    monkeypatch.setattr("opfrob.cli.taylor_flow", None)     # never filled
    assert run_cli(["flow", str(path)], capsys) == (
        2, "", f"input error: {path}: flow needs a flow_order of at least "
        "2, got 1\n")


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

    @pytest.mark.parametrize("entry,message", [
        ("(" * 3000 + "u1" + ")" * 3000, "nested parentheses"),
        ("-" * 3000 + "u1", "expression deeper than"),
        ("+".join(["u1"] * 3000), "expression deeper than"),
    ])
    def test_deeply_nested_entry(self, entry, message, tmp_path, capsys):
        doc = dict(DIAG2, fields={"I": [["1", "0"], ["0", "1"]],
                                  "D": [[entry, "0"], ["0", "u2"]]})
        self.assert_input_error(
            _run_doc(doc, "verify-algebra", tmp_path, capsys), message)

    @pytest.mark.parametrize("command,entries,message", [
        ("flow", {"initial_curve": 5}, "initial_curve must be 2 lists"),
        ("flow", {"initial_curve": [[0, "x"], [1, 1]]},
         "initial_curve must be 2 lists"),
        ("symcheck", {"polynomials": 5}, "polynomials must be 2 lists"),
        ("symcheck", {"polynomials": [[1, "x"], []]},
         "polynomials must be 2 lists"),
        ("symcheck", {"candidate": ["N"]}, "candidate must be a field name"),
        ("generate", {"chart": 5}, "chart must be a list of 2 expressions"),
        ("generate", {"chart": [1, 2]},
         "chart must be a list of 2 expressions"),
        ("generate", {"chart": ["u1 +", "u2"]}, "chart: expected number"),
        ("verify-algebra", {"sampling": "x"}, "sampling must be an object"),
        ("verify-algebra", {"sampling": {"box": "x"}}, "sampling box"),
        ("verify-algebra", {"sampling": {"box": -1}}, "sampling box"),
        ("verify-algebra", {"sampling": {"box": float("nan")}},
         "sampling box"),
        ("verify-algebra", {"sampling": {"seed": "x"}}, "sampling seed"),
        ("verify-algebra", {"sampling": {"seed": -1}}, "sampling seed"),
        ("verify-algebra", {"sampling": {"seed": 1.5}},
         "sampling seed must be an integer of at least 0, got 1.5"),
        ("verify-algebra", {"sampling": {"guards": [{"expr": "u1",
                                                      "min": "x"}]}},
         "min must be a finite number"),
        ("verify-algebra", {"dimension": 2.7},
         "dimension must be an integer of at least 1, got 2.7"),
        ("verify-algebra --seed -1", {}, "--seed must be an integer"),
        ("dualize --seed -1", {}, "--seed must be an integer"),
        ("generate", {"chart": ["u\u00b2", "u2"]},
         "chart: unexpected character 'u' (at offset 0)"),
        ("generate", {"chart": ["u1", "u\u0661"]},
         "chart: unexpected character 'u' (at offset 0)"),
        ("verify-algebra", {"sampling": {"guards": [{"expr": "u\u00b2"}]}},
         "sampling guards: unexpected character 'u' (at offset 0)"),
        ("verify-algebra", {"sampling": {"guards": [{"expr": "1 - u\u0661"}]}},
         "sampling guards: unexpected character 'u' (at offset 4)"),
        ("verify-algebra", {"covector": [False, True]},
         "covector must be a number list"),
        ("verify-algebra", {"covector": ["0", "1"]},
         "covector must be a number list"),
        ("verify-algebra", {"xi": [True, 0.0]}, "xi must be a number list"),
        ("verify-algebra --tol nan", {},
         "--tol must be a finite positive number, got nan"),
        ("dualize --tol -1", {}, "got -1.0"),
        ("symcheck --tol inf", {}, "got inf"),
        ("generate --tol 0", {}, "got 0.0"),
        ("poisson-check --tol nan", {}, "got nan"),
        ("inverse --tol -1", {}, "got -1.0"),
        ("hj --tol inf --c 1,1", {}, "got inf"),
        ("flow --tol 0", {}, "got 0.0"),
        ("verify-algebra --guard nan", {},
         "--guard must be a finite positive number, got nan"),
        ("dualize --guard -1", {},
         "--guard must be a finite positive number, got -1.0"),
        ("generate --guard 0", {},
         "--guard must be a finite positive number, got 0.0"),
        ("verify-algebra", {"sampling": {"guards": [{"expr": "u1",
                                                      "min": 0}]}},
         "sampling guards: min must be a finite number above 0, got 0"),
        ("verify-algebra", {"sampling": {"guards": [{"expr": "u1",
                                                      "min": -0.5}]}},
         "min must be a finite number above 0, got -0.5"),
        ("verify-algebra", {"fields": {"I": [["1", "0"], ["0", "1"]],
                                       "N": [["0", "10^400"], ["1", "0"]]}},
         "field 'N': overflow evaluating 10^400"),
        ("verify-algebra", {"fields": {"I": [["1", "0"], ["0", "1"]],
                                       "N": [["0", "0"], ["2.0^2000", "0"]]}},
         "field 'N': overflow evaluating 2.0^2000"),
        ("symcheck", {"polynomials": [[1, 10 ** 400], []]},
         "polynomials must be 2 lists"),
        ("verify-algebra", {"covector": [0, -10 ** 309]},
         "covector components must be finite"),
        ("hj --c nan,0", {}, "invalid --c value 'nan,0'"),
        ("hj --c=-inf,1", {}, "invalid --c value '-inf,1'"),
        ("hj --c 1,1e400", {}, "invalid --c value '1,1e400'"),
    ])
    def test_malformed_entry_exits_2_with_one_line(self, command, entries,
                                                   message, tmp_path, capsys):
        doc = {"schema": 1, "dimension": 2,
               "fields": {"I": [["1", "0"], ["0", "1"]],
                          "N": [["0", "0"], ["1", "0"]]},
               "basis": ["I", "N"], "xi": [1.0, 0.0], "covector": [0.0, 1.0],
               "one_form": ["0", "1"], **entries}
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc))
        cmd, *options = command.split()
        result = run_cli([cmd, str(f), *options], capsys)
        assert "Traceback" not in result[2]
        self.assert_input_error(result, message)

    def test_builtin_negative_seed_is_input_error(self, capsys):
        self.assert_input_error(
            run_cli(["builtin", "example32", "--seed", "-1"], capsys),
            "--seed must be an integer of at least 0, got -1")

    @pytest.mark.parametrize("emit", [False, True])
    def test_builtin_without_analytic_variant(self, emit, tmp_path, capsys):
        path = tmp_path / "doc.json"
        self.assert_input_error(
            run_cli(["builtin", "centraliser-diag", "--variant", "analytic"]
                    + (["--emit", str(path)] if emit else []), capsys),
            "builtin centraliser-diag has no analytic variant")
        assert not path.exists()

    @pytest.mark.parametrize("option", [["--tol", "1e-3"],
                                        ["--guard", "nan"]])
    def test_builtin_rejects_tol_and_guard(self, option, capsys):
        self.assert_input_error(
            run_cli(["builtin", "example32", *option], capsys),
            "builtin takes no --tol or --guard")

    def test_nan_at_a_sampled_point_is_no_traceback(self, tmp_path, capsys,
                                                     recwarn):
        # finite constants, NaN values: the xi search rejects every draw
        doc = dict(DIAG2, fields={"I": [["1", "0"], ["0", "1"]],
                                  "D": [["u1*1e400*0", "0"], ["0", "u2"]]})
        code, out, err = _run_doc(doc, "verify-algebra", tmp_path, capsys)
        assert (code, out) == (1, "")
        first = sample_points(2, SampleConfig(seed=DEFAULT_SEED,
                                              count=DEFAULT_SAMPLES))[0]
        assert err == "verification error: no generic vector found in " \
                      f"32 draws at {[float(x) for x in first]}\n"
        assert not recwarn.list
        # numpy warnings would be printed by a real process
        assert run_opfrob("verify-algebra", tmp_path / "sys.json") == \
            (code, out, err)

    @pytest.mark.parametrize("field,code,line", [
        ([["10^400", "0"], ["0", "2"]], 2,
         "input error: sys.json: field 'D': overflow evaluating 10^400"),
        ([["u1^2000*1.5^2000", "0"], ["0", "u2"]], 1,
         "verification error: overflow evaluating 1.5^2000"),
    ])
    def test_overflow_is_one_line(self, field, code, line, tmp_path):
        doc = dict(DIAG2, fields={"I": [["1", "0"], ["0", "1"]], "D": field})
        (tmp_path / "sys.json").write_text(json.dumps(doc))
        assert run_opfrob("verify-algebra", "sys.json", cwd=tmp_path) == \
            (code, "", line + "\n")


# the constant algebra R[x]/(x^2) with xi = 1 (a flat basis), and every key
# that some command requires
NIL2 = {"schema": 1, "dimension": 2,
        "fields": {"I": [["1", "0"], ["0", "1"]],
                   "N": [["0", "0"], ["1", "0"]]},
        "basis": ["I", "N"], "xi": [1.0, 0.0], "covector": [0.0, 1.0],
        "one_form": ["0", "1"], "candidate": "N",
        "hamiltonians": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
        "initial_curve": [[0.5, 1.0], [0.7, 0.3]]}
EXHAUSTED = {"guards": [{"expr": "1", "min": 2}]}   # rejects every draw


class TestRequirements:
    """A command on a file without a key it needs exits 2 with one line,
    and the first error of a file with several faults is the command's
    own first check."""

    @staticmethod
    def run(command, tmp_path, capsys, drop=(), **entries):
        doc = {k: v for k, v in dict(NIL2, **entries).items()
               if k not in drop}
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc))
        cmd, *options = command.split()
        code, out, err = run_cli([cmd, str(f), "--samples", "3", *options],
                                 capsys)
        return code, out, err.replace(str(f), "F")

    @pytest.mark.parametrize("command,drop,entries,message", [
        ("dualize", ["covector"], {}, "dualize needs a covector"),
        ("inverse", ["covector"], {}, "inverse needs a covector"),
        ("generate", ["one_form"], {}, "generate needs a one_form"),
        ("hj --c 1,1", ["one_form"], {}, "hj needs a one_form"),
        ("poisson-check", ["hamiltonians"], {},
         "poisson-check needs hamiltonians"),
        ("poisson-check", [], {"hamiltonians": []},
         "poisson-check needs hamiltonians"),
        ("inverse", ["hamiltonians"], {}, "inverse needs hamiltonians"),
        ("inverse", ["hamiltonians", "covector"], {},
         "inverse needs hamiltonians"),
        ("inverse", ["covector"], {"hamiltonians": []},
         "inverse needs hamiltonians"),
        ("flow", ["initial_curve"], {}, "flow needs an initial_curve"),
        ("symcheck", [], {"fields": DIAG2["fields"], "basis": ["I", "D"]},
         "symcheck expects a constant flat basis"),
        ("symcheck", ["xi"], {}, "symcheck needs the designated xi"),
        ("symcheck", ["candidate"], {},
         "symcheck needs polynomials or a candidate field"),
        ("symcheck", [], {"candidate": "M"}, "candidate 'M' not defined"),
    ])
    def test_missing_requirement(self, command, drop, entries, message,
                                 tmp_path, capsys):
        assert self.run(command, tmp_path, capsys, drop, **entries) == \
            (2, "", f"input error: F: {message}\n")

    @pytest.mark.parametrize("command,drop,entries,line", [
        # the keys a command needs come before its options and sampling
        ("hj --c 1", ["one_form"], {"sampling": 5},
         "input error: F: hj needs a one_form"),
        ("dualize", ["covector"], {"sampling": 5},
         "input error: F: dualize needs a covector"),
        ("flow", ["initial_curve", "basis"], {"sampling": 5},
         "input error: F: flow needs an initial_curve"),
        # hj's options come before the sampling object
        ("hj --c 1,nan", [], {"sampling": 5},
         "input error: invalid --c value '1,nan'"),
        ("hj --c 1,1,1", [], {"sampling": 5},
         "input error: --c needs 2 components"),
        ("hj --c 1,1 --hj-points 0", [], {"sampling": 5},
         "input error: --hj-points must be at least 1, got 0"),
        ("hj --c 1,1", [], {"sampling": 5},
         "input error: F: sampling must be an object"),
        # the sampling object comes before the basis
        ("verify-algebra", ["basis"], {"sampling": 5},
         "input error: F: sampling must be an object"),
        ("symcheck", ["xi"], {"sampling": 5},
         "input error: F: sampling must be an object"),
        ("flow", ["basis"], {"sampling": 5},
         "input error: F: sampling must be an object"),
        # verify-algebra and symcheck build the basis before sampling, the
        # others sample first; flow samples no points
        ("verify-algebra", ["basis"], {"sampling": EXHAUSTED},
         "input error: F: no basis listed"),
        ("symcheck", ["xi"], {"sampling": EXHAUSTED},
         "input error: F: symcheck needs the designated xi"),
        ("dualize", ["basis"], {"sampling": EXHAUSTED},
         "verification error: guard rejection exhausted 3000 draws; "
         "guards too tight"),
        ("generate", ["basis"], {"sampling": EXHAUSTED},
         "verification error: guard rejection exhausted 3000 draws; "
         "guards too tight"),
        ("hj --c 1,1", ["basis"], {"sampling": EXHAUSTED},
         "verification error: guard rejection exhausted 3000 draws; "
         "guards too tight"),
        ("flow", ["basis"], {"sampling": EXHAUSTED},
         "input error: F: no basis listed"),
        # symcheck samples before it looks up the candidate
        ("symcheck", [], {"candidate": "M", "sampling": EXHAUSTED},
         "verification error: guard rejection exhausted 3000 draws; "
         "guards too tight"),
    ])
    def test_first_error_of_several(self, command, drop, entries, line,
                                    tmp_path, capsys):
        code, out, err = self.run(command, tmp_path, capsys, drop, **entries)
        assert (code, out, err) == \
            (1 if line.startswith("verification") else 2, "", line + "\n")


EMITTED_SHA256 = {
    "centraliser-diag":
        "27c8c0c5a2fd1205f206924df31bb24e988662d5105a087f6e5d911d0c8f38f9",
    "centraliser-jordan":
        "eb6405211e597801ed05283d60d9f870a936ab469fa48d6c0423c9c5581600ae",
    "example32":
        "9ab0d8e34e80aca0648985bb84661f96ae4583be5ab119de5f5e8a851d3d624e",
    "example52":
        "a4b228af6993ffb9eef22dd8f83abc4ee9a21bb7b34aa905898f33e3018cf13a",
    "example52 analytic":
        "d85c227c55405f04a2d974edb748cbc6fb24192905ff3824645f3e63c57f6adb",
    "nonsymmetric-pair":
        "4c2d4e25bdc296f9b126c2fe1d38dcdf5032d65ac27ace523d238d346ce80220",
    "not-closed":
        "e8fd911c6a251dc418716bc76029d1cc7f0983e4943c3891ea7f0bae6b087c37",
}


class TestEmittedFixtures:
    @pytest.mark.parametrize("name", builtin_names())
    @pytest.mark.parametrize("variant", ["constant", "analytic"])
    def test_emitted_documents_are_pinned(self, name, variant, tmp_path,
                                          capsys):
        """Every ``--emit`` file, byte for byte; only example52 has two
        variants, the other builtins refuse the analytic one.  The
        benchmark's system files are among these."""
        path = tmp_path / "doc.json"
        code, _, err = run_cli(["builtin", name, "--variant", variant,
                                "--emit", str(path)], capsys)
        if variant == "analytic" and name != "example52":
            assert (code, err) == (2, f"input error: builtin {name} has no "
                                      "analytic variant\n")
            assert not path.exists()
            return
        want = EMITTED_SHA256.get(f"{name} {variant}") or EMITTED_SHA256[name]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want

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


class TestDependentPullbacks:
    """Analytic example52 with alpha = 0: the pullback rows M^{i*} alpha
    are dependent at every point, so the chart frame does not exist."""

    @staticmethod
    def run(command, tmp_path, *extra):
        path = tmp_path / "e52a.json"
        main(["builtin", "example52", "--variant", "analytic",
              "--emit", str(path)])
        doc = json.loads(path.read_text())
        doc["one_form"] = doc["chart"] = ["0"] * 4
        path.write_text(json.dumps(doc))
        return subprocess.run(
            [sys.executable, "-m", "opfrob", command, str(path),
             "--samples", "5", *extra], capture_output=True, text=True,
            env=opfrob_env())

    def test_generate_reports_the_singular_chart(self, tmp_path):
        proc = self.run("generate", tmp_path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert any(line.startswith("[FAIL] pullback_independence:")
                   for line in lines)
        (bracket,) = [line for line in lines
                      if "pairwise_poisson_brackets" in line]
        assert bracket.startswith("[FAIL]")
        assert "the pullback rows M^{i*} alpha are dependent at [" in bracket

    def test_hj_exits_with_one_line(self, tmp_path):
        proc = self.run("hj", tmp_path, "--c", "1,0.1,0.1,0.1")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("verification error: the pullback rows")

    def test_constant_case_still_prints_its_report(self, tmp_path, capsys):
        path = tmp_path / "e52.json"
        run_cli(["builtin", "example52", "--emit", str(path)], capsys)
        doc = json.loads(path.read_text())
        doc["one_form"] = ["0"] * 4
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["generate", str(path), "--samples", "5"],
                                 capsys)
        assert (code, err) == (1, "")
        assert "[FAIL] pullback_independence:" in out
        assert "emitted_family" in out


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
    def test_package_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "opfrob", "--help"],
                              capture_output=True, text=True,
                              env=opfrob_env())
        assert proc.returncode == 0
        assert "verify-algebra" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opfrob.cli", "builtin", "example32"],
            capture_output=True, text=True, env=opfrob_env())
        assert proc.returncode == 0
