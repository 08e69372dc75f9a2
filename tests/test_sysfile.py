"""Whole system documents, mutated, through every file subcommand.

The inputs are the emitted example52 documents (constant and analytic)
with keys dropped or retyped, lists cut short or grown, values wrapped,
``NaN``/``Infinity``/``1e400`` literals (which ``json.load`` accepts) and
deep nesting.  Whatever the document, ``cli.main`` returns 0, 1 or 2
without raising, and an input error (2) is one line on stderr.  A
``RuntimeWarning`` that escapes fails the run too (``pytest.ini`` makes it
an error).
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opfrob.cli import main
from opfrob.fixtures import emit_builtin

BASES = {v: emit_builtin("example52", variant=v)
         for v in ("constant", "analytic")}
COMMANDS = [["verify-algebra"], ["dualize"], ["symcheck"], ["generate"],
            ["poisson-check"], ["inverse"], ["hj", "--c", "1,0.1,0.1,0.1"],
            ["flow"]]
# markers that the JSON text holds as these literals
HUGE, LONG, DEEP, DEEP_DICT = ("<1e400>", "<10^5000>", "<[[[...]]]>",
                               "<{{{...}}}>")
LITERALS = {HUGE: "1e400", LONG: "1" + "0" * 5000,
            DEEP: "[" * 5000 + "]" * 5000,
            DEEP_DICT: '{"a": ' * 900 + "1" + "}" * 900}
JUNK = [None, True, False, 0, 1, -1, 2.5, 10 ** 400, -10 ** 400, 1e308,
        float("nan"), float("inf"), -float("inf"), "", "x", "u1", "1/0",
        "u1\n", "\ud800", [], {}, [1.0], [[]], {"expr": "u1"}, HUGE, LONG,
        DEEP, DEEP_DICT]


def children(node):
    if isinstance(node, dict):
        return list(node)
    if isinstance(node, list):
        return list(range(len(node)))
    return []


@st.composite
def documents(draw):
    """A mutated example52 document, as JSON text."""
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        # walk down from the top level to some container and one of its keys
        node = doc
        key = draw(st.sampled_from(children(node)))
        while children(node[key]) and draw(st.booleans()):
            node = node[key]
            key = draw(st.sampled_from(children(node)))
        value = node[key]
        op = draw(st.sampled_from(["drop", "retype", "wrap", "cut", "grow"]))
        if op == "drop":
            del node[key]
        elif op == "retype":
            node[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif op == "wrap":
            node[key] = [value]
        elif op == "cut" and isinstance(value, (list, str)):
            node[key] = value[:draw(st.integers(0, max(len(value) - 1, 0)))]
        elif op == "grow" and isinstance(value, list) and value:
            node[key] = value + value[-1:]
    text = json.dumps(doc)
    for marker, literal in LITERALS.items():
        text = text.replace(json.dumps(marker), literal)
    return text


@settings(max_examples=200, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(text=documents(), command=st.sampled_from(COMMANDS))
def test_mutated_documents_exit_cleanly(text, command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code = main([command[0], str(path), "--samples", "3", *command[1:]])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("input error: ") and err.count("\n") == 1


# Documents that once raised out of ``cli.main`` with a traceback.


@pytest.mark.parametrize("text,reason", [
    ("[" * 100_000 + "]" * 100_000,
     "maximum recursion depth exceeded while decoding a JSON array"),
    ('{"schema": 1, "dimension": 1' + "0" * 5000 + "}",
     "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["deep", "long-integer"])
def test_json_that_python_will_not_load(text, reason, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert main(["verify-algebra", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error: {path}: invalid JSON: {reason}")
    assert err.count("\n") == 1


def test_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"schema": 1, "dimension": "\xff"}')
    assert main(["verify-algebra", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"input error: {path}: invalid JSON: 'utf-8' codec can't decode "
        "byte 0xff in position 28: invalid start byte\n")


@pytest.mark.parametrize("count", [1, 3, 5, 8])
def test_inverse_needs_one_hamiltonian_per_coordinate(count, tmp_path,
                                                      capsys):
    doc = copy.deepcopy(BASES["constant"])
    doc["hamiltonians"] = (doc["hamiltonians"] * 2)[:count]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["inverse", str(path), "--samples", "3"]) == 2
    assert capsys.readouterr() == (
        "", f"input error: {path}: inverse needs 4 hamiltonians, "
        f"got {count}\n")


@pytest.mark.parametrize("command", ["generate", "poisson-check", "flow"])
def test_sampling_box_without_a_finite_width(command, tmp_path, capsys):
    # an input error where points are drawn; flow draws none and runs
    doc = copy.deepcopy(BASES["constant"])
    doc["sampling"]["box"] = 1e308
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, str(path), "--samples", "3"])
    out, err = capsys.readouterr()
    if command == "flow":
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (
            2, "", "input error: sampling box 1e+308 is too large: "
            "[-box, box] has no finite width\n")
