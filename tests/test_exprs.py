import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opfrob import exprs
from opfrob.errors import ExprEvalError, ExprSyntaxError
from opfrob.exprs import (MAX_DEPTH, BinOp, Const, Expression, Neg, Pow,
                          Program, Var, eval_expr, parse_expr, parse_grid)
from opfrob.fields import OperatorField
from opfrob.fixtures import emit_builtin
from opfrob.hydroflow import MultiSeries
from opfrob.numkit import Jet, jet_point, split_jet_matrix

from oracles import central_gradient


class TestParsing:
    def test_basic_tree(self):
        e = parse_expr("u1^2 + 2*u2", 2)
        assert eval_expr(e, [3.0, 1.0]) == 11.0

    def test_variable_out_of_range(self):
        with pytest.raises(ExprSyntaxError, match="variable index out of range"):
            parse_expr("u5", 4)

    def test_zero_dimension(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("u1", 0)

    def test_parenthesized_entry(self):
        e = parse_expr("(u2^2+u3^2)", 4)
        assert eval_expr(e, [0.0, 3.0, 4.0, 0.0]) == 25.0

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("u1 + * u2", 2)
        assert err.value.offset == 5

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("u1 u2", 2)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(u1 + u2", 2)

    def test_exponent_must_be_integer(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("u1^2.5", 2)
        with pytest.raises(ExprSyntaxError):
            parse_expr("u1^u2", 2)

    def test_chained_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("u1^2^3", 2)

    def test_power_binds_tighter_than_negation(self):
        assert eval_expr(parse_expr("-u1^2", 1), [3.0]) == -9.0

    def test_negative_exponent_is_division(self):
        e = parse_expr("u1^-2", 1)
        assert eval_expr(e, [2.0]) == 0.25

    def test_precedence(self):
        assert eval_expr(parse_expr("2+3*4^2", 1), [0.0]) == 50
        assert eval_expr(parse_expr("2*u1/4", 1), [6.0]) == 3.0
        assert eval_expr(parse_expr("2-3-4", 1), [0.0]) == -5

    def test_integer_constants_stay_exact(self):
        e = parse_expr("3", 1)
        assert isinstance(e, Const) and e.value == 3 and isinstance(e.value, int)

    def test_float_and_scientific(self):
        assert eval_expr(parse_expr("0.5 + 1e-3", 1), [0.0]) == 0.5 + 1e-3

    def test_unknown_character(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("u1 $ u2", 2)

    @pytest.mark.parametrize("text,offset", [
        ("u\u00b2", 0), ("u\u0661", 0), ("2*\u00b2", 2), ("1\u0661", 1)])
    def test_only_ascii_digits(self, text, offset):
        with pytest.raises(ExprSyntaxError,
                           match="unexpected character") as err:
            parse_expr(text, 2)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text,offset", [
        ("1" * 5000, 0), ("u" + "1" * 5000, 0), ("u1^" + "2" * 5000, 3)],
        ids=["number", "variable", "exponent"])
    def test_integer_literal_too_long(self, text, offset):
        with pytest.raises(ExprSyntaxError,
                           match="integer literal too long") as err:
            parse_expr(text, 2)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text,value", [
        ("(" * MAX_DEPTH + "u1" + ")" * MAX_DEPTH, 3.0),
        ("-" * (MAX_DEPTH - 1) + "u1", -3.0),
        ("+".join(["u1"] * MAX_DEPTH), 3.0 * MAX_DEPTH),
    ])
    def test_depth_at_the_limit_parses(self, text, value):
        e = parse_expr(text, 1)
        assert eval_expr(e, [3.0]) == value
        assert eval_expr(parse_expr(str(e), 1), [3.0]) == value

    @pytest.mark.parametrize("text", [
        "(" * (MAX_DEPTH + 1) + "u1" + ")" * (MAX_DEPTH + 1),
        "-" * MAX_DEPTH + "u1",
        "+".join(["u1"] * (MAX_DEPTH + 1)),
    ])
    def test_depth_past_the_limit_is_a_syntax_error(self, text):
        with pytest.raises(ExprSyntaxError, match=str(MAX_DEPTH)):
            parse_expr(text, 1)


_D = MAX_DEPTH
_NESTED = "(" * (_D + 1) + "u1" + ")" * (_D + 1)

# (text, dimension, message, offset) of each kind of syntax error
MALFORMED = [
    ("u1 $ u2", 2, "unexpected character '$'", 3),
    ("u1 + * $", 2, "unexpected character '$'", 7),
    ("(" * (_D + 1) + "$", 1, "unexpected character '$'", _D + 1),
    ("ux", 2, "unexpected character 'u'", 0),
    (".5", 1, "unexpected character '.'", 0),
    ("1e+", 1, "unexpected character 'e'", 1),
    ("1.5.2", 1, "unexpected character '.'", 3),
    ("u1\t+ \xa0u2 #", 2, "unexpected character '#'", 9),
    ("u1 u2", 2, "trailing input after expression", 3),
    ("(u1) (u2)", 2, "trailing input after expression", 5),
    ("u1 )", 1, "trailing input after expression", 3),
    ("u1^2^3", 2, "trailing input after expression", 4),
    ("(u1 + u2", 2, "expected ')'", 8),
    ("((u1)", 1, "expected ')'", 5),
    ("(u1 u2)", 2, "expected ')'", 4),
    ("", 1, "expected number, variable or '('", 0),
    ("   ", 1, "expected number, variable or '('", 3),
    ("u1 + * u2", 2, "expected number, variable or '('", 5),
    ("()", 1, "expected number, variable or '('", 1),
    ("-", 1, "expected number, variable or '('", 1),
    ("u1 + )", 1, "expected number, variable or '('", 5),
    ("u1^2.5", 2, "exponent must be an integer literal", 3),
    ("u1^u2", 2, "exponent must be an integer literal", 3),
    ("u1^-", 1, "exponent must be an integer literal", 4),
    ("u1^(2)", 1, "exponent must be an integer literal", 3),
    ("u1^1e2", 1, "exponent must be an integer literal", 3),
    ("u1^--2", 1, "exponent must be an integer literal", 4),
    ("u0", 2, "variable index out of range: u0 with dimension 2", 0),
    ("u1 + u3", 2, "variable index out of range: u3 with dimension 2", 5),
    ("(u1*(2 + u007))", 3, "variable index out of range: u7 with dimension 3",
     9),
    (_NESTED, 1, f"more than {_D} nested parentheses", _D),
    ("u1 + " + _NESTED, 1, f"more than {_D} nested parentheses", _D + 5),
    ("(" * (_D + 1) + "u1", 1, f"more than {_D} nested parentheses", _D),
    ("-" * _D + "u1", 1, f"expression deeper than {_D} levels", _D + 2),
    ("+".join(["u1"] * (_D + 1)), 1, f"expression deeper than {_D} levels",
     3 * _D + 2),
    ("*".join(["u1"] * (_D + 1)), 1, f"expression deeper than {_D} levels",
     3 * _D + 2),
    ("(" + "+".join(["u1"] * (_D + 1)) + ") * 2", 1,
     f"expression deeper than {_D} levels", 3 * _D + 3),
    ("-" * (_D - 1) + "u1^-1", 1, f"expression deeper than {_D} levels",
     _D + 4),
    ("-" * (_D - 1) + "(u1)^2", 1, f"expression deeper than {_D} levels",
     _D + 5),
]


@pytest.mark.parametrize("text,n,message,offset", MALFORMED,
                         ids=[f"{m.split()[0]}-{k}" for k, (_, _, m, _)
                              in enumerate(MALFORMED)])
def test_syntax_error_message_and_offset(text, n, message, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, n)
    assert (str(err.value), err.value.offset) == \
        (f"{message} (at offset {offset})", offset)


@settings(max_examples=300, deadline=None, database=None)
@given(st.text(alphabet="u0123456789.eE+-*/^() \t\xa0\u00b2\u0661",
               max_size=40))
def test_random_text_raises_only_syntax_errors(text):
    try:
        parse_expr(text, 3)
    except ExprSyntaxError:
        pass


def shape(e):
    """The tree as nested tuples, literals with their type."""
    if isinstance(e, Const):
        return "C", type(e.value), e.value
    if isinstance(e, Var):
        return "V", e.index
    if isinstance(e, Neg):
        return "N", shape(e.arg)
    if isinstance(e, BinOp):
        return "B", e.op, shape(e.lhs), shape(e.rhs)
    return "P", shape(e.base), e.exponent


# trees whose printed text spells them: literals are non-negative (the
# printer writes -3 as a negation)
_TREES = st.recursive(
    st.one_of(st.integers(0, 10 ** 6).map(Const),
              st.floats(0.0, 1e300).map(Const),
              st.integers(1, 3).map(Var)),
    lambda sub: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.integers(0, 5))),
    max_leaves=24)


@settings(max_examples=200, deadline=None, database=None)
@given(_TREES)
def test_printed_tree_parses_back_to_itself_with_sharing(tree):
    e = parse_expr(str(tree), 3)
    assert shape(e) == shape(tree)
    ids = {}
    stack = [e]
    while stack:
        node = stack.pop()
        ids.setdefault(shape(node), set()).add(id(node))
        stack.extend(v for v in vars(node).values()
                     if isinstance(v, Expression))
    assert all(len(s) == 1 for s in ids.values())


class TestEvaluation:
    def test_division_by_zero(self):
        e = parse_expr("1/u3", 4)
        with pytest.raises(ExprEvalError, match="division by zero"):
            eval_expr(e, [1.0, 1.0, 0.0, 1.0])

    def test_zero_to_negative_power(self):
        e = parse_expr("u1^-1", 1)
        with pytest.raises(ExprEvalError):
            eval_expr(e, [0.0])

    def test_point_dimension_mismatch(self):
        e = parse_expr("u3", 3)
        with pytest.raises(ExprEvalError):
            eval_expr(e, [1.0, 2.0])

    def test_jet_product_rule(self):
        e = parse_expr("u1*u2", 2)
        out = eval_expr(e, jet_point([2.0, 5.0]))
        assert out.value == 10.0
        assert np.allclose(out.partials, [5.0, 2.0])

    def test_rational_literal_binary64(self):
        assert eval_expr(parse_expr("1/3", 1), [0.0]) == 1.0 / 3.0

    def test_batch_evaluation(self):
        e = parse_expr("u1^2 - u2", 2)
        u1 = np.array([1.0, 2.0, 3.0])
        u2 = np.array([0.0, 1.0, 2.0])
        assert np.allclose(eval_expr(e, [u1, u2]), [1.0, 3.0, 7.0])


EXPR_CORPUS = [
    ("u1^2 + 2*u2", 2),
    ("(u1 - u2) * (u1 + u2) / (1 + u1^2)", 2),
    ("-u1^3 + u2/u1 - 5", 2),
    ("(u2^2+u3^2) / (u1*u3)", 3),
    ("1/2 * u1 - u2^-1", 2),
    ("2.5*u1*u2*u3 - u2^4", 3),
]


class TestJetsAgainstFiniteDifferences:
    @pytest.mark.parametrize("text,n", EXPR_CORPUS)
    def test_gradient_matches_fd(self, text, n):
        e = parse_expr(text, n)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 25:
            u = rng.uniform(0.3, 1.3, n)  # away from the singular loci
            jet = eval_expr(e, jet_point(u))
            fd = central_gradient(lambda x: float(eval_expr(e, list(x))), u)
            assert np.all(np.abs(jet.partials - fd)
                          <= 1e-6 * (1.0 + np.abs(jet.partials)))
            checked += 1


def random_expression(rng, n, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        if rng.random() < 0.5:
            return Const(int(rng.integers(-4, 5)))
        return Var(int(rng.integers(1, n + 1)))
    a = random_expression(rng, n, depth + 1)
    b = random_expression(rng, n, depth + 1)
    op = rng.integers(0, 6)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    if op == 3:
        return a / b
    if op == 4:
        return -a
    return a ** int(rng.integers(0, 4))


class TestPrinterRoundTrip:
    def test_roundtrip_evaluates_identically(self):
        rng = np.random.default_rng(5)
        n = 3
        trees = 0
        while trees < 40:
            e = random_expression(rng, n)
            text = str(e)
            e2 = parse_expr(text, n)
            agreements = 0
            for _ in range(100):
                u = list(rng.uniform(-2.0, 2.0, n))
                try:
                    v1 = eval_expr(e, u)
                except ExprEvalError:
                    continue
                v2 = eval_expr(e2, u)
                assert v2 == v1, f"{text} differs at {u}"
                agreements += 1
            if agreements >= 50:
                trees += 1

    def test_a_deep_chain_prints_in_a_one_line_error(self):
        # 1,500 levels: far beyond the recursion limit of a recursive printer
        e = Var(2)
        for _ in range(1500):
            e = e * 0.5 + Var(1)
        text = "(" * 1499 + "u2*0.5 + u1" + ")*0.5 + u1" * 1499
        assert str(e) == text
        with pytest.raises(ValueError) as exc:
            OperatorField([[e]])
        assert str(exc.value) == \
            f"entry {text} refers to u2 but the field dimension is 1"


class TestFolding:
    """The arithmetic dunders, through which every library builder goes,
    fold constants and identities; the parser keeps the text as written."""

    OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}

    @pytest.mark.parametrize("a,op,b", [
        (1, "*", 0), (1, "/", 3), (2, "-", 5), (0.5, "+", 1), (3, "/", 4.0),
        (2 ** 70, "*", 3), (1e-300, "*", 1e-300)])
    def test_constants_fold_to_the_value_and_type_a_run_gives(self, a, op,
                                                              b):
        folded = self.OPS[op](Const(a), Const(b))
        want, = Program([BinOp(op, Const(a), Const(b))]).run([])
        assert type(folded) is Const
        assert (type(folded.value), folded.value) == (type(want), want)

    def test_an_exact_zero_stays_an_int(self):
        assert repr(Const(1) * Const(0)) == "Const(value=0)"
        assert repr(Const(1) / Const(3)) == f"Const(value={1 / 3!r})"

    @pytest.mark.parametrize("a,op,b,want", [
        (1, "/", 0, "ExprEvalError: division by zero evaluating 0"),
        (10 ** 400, "*", 1.0,
         f"ExprEvalError: overflow evaluating {10 ** 400}*1.0"),
        (1e308, "*", 10, float("inf")),
        (10 ** 200, "*", 10 ** 200, 10 ** 400)],
        ids=["zero-divisor", "int-beyond-float", "inf", "big-int"])
    def test_constants_that_raise_or_overflow_stay_nodes(self, a, op, b,
                                                         want):
        """A zero divisor or an int beyond the float range still raises
        where the node is evaluated; an infinite result has no literal to
        print, and an int beyond the float range stays as written."""
        e = self.OPS[op](Const(a), Const(b))
        assert e == BinOp(op, Const(a), Const(b))
        assert parse_expr(str(e), 1) == e
        assert _outcome(lambda: eval_expr(e, [])) == want

    def test_a_product_with_a_pole_is_kept(self):
        u1, u2 = Var(1), Var(2)
        for e in (0 * (1 / u1), (1 / u1) * 0, 0 * -(u2 / u1),
                  Const(0) * (u2 / u1) ** 2, 0 * (u1 ** -1)):
            assert type(e) is BinOp and e.divides
            assert eval_expr(e, [2.0, 1.0]) == 0.0
            with pytest.raises(ExprEvalError, match="division by zero"):
                eval_expr(e, [0.0, 1.0])

    def test_zero_and_unit_terms_fold(self):
        u1, u2 = Var(1), Var(2)
        assert 0 * u1 == u1 * 0 == Const(0) * (u1 * u2 + 1) == Const(0)
        for e in (u1 * 1, 1 * u1, u1 + 0, 0 + u1, u1 - 0, u1 * 1.0,
                  u1 + Const(0.0), Const(1) * Const(0) + u1):
            assert e is u1
        # not identities: the node stays
        for e in (u1 / 1, 0 - u1, 0 / u1, u1 - u1, u1 ** 1):
            assert type(e) in (BinOp, Pow)
        assert str(2 * (u1 * 1 + 0 * u2) + 3 * 4) == "2*u1 + 12"

    def test_parsed_text_is_not_folded(self):
        for text in ("1*0*u2 + u1*1", "u1 + 0", "0*u1 - 0", "2*3 + u1/1"):
            e = parse_expr(text, 4)
            assert str(e) == text
        e = parse_expr("1*0*u2 + u1*1", 4)
        assert e.lhs.lhs == BinOp("*", Const(1), Const(0))
        assert not e.divides and parse_expr("u1 + 1/u2", 2).divides

    def test_a_deep_build_folds_in_constant_time_per_node(self):
        """10,000 levels, far past the recursion limit: the division flag
        is read from the operands, never found by walking the tree."""
        e, u1, u2 = Var(1), Var(1), Var(2)
        for _ in range(5000):
            e = e * u2 + 1
            assert 0 * e == Const(0)
        q = 1 + e / u1
        for _ in range(5000):
            q = q * u2 + 1
        assert not e.divides and q.divides
        assert type(0 * q) is BinOp


class TestLiteral:
    @pytest.mark.parametrize("v,want", [
        (2.0, 2), (-0.0, 0), (0.0, 0), (0.5, 0.5), (-3, -3),
        (1e300, int(1e300)), (np.float64(4.0), 4),
        (np.float64(0.25), np.float64(0.25))])
    def test_a_finite_number_keeps_its_const(self, v, want):
        """An integral float becomes the exact int, -0.0 included."""
        c = exprs.literal(v)
        assert (type(c.value), c.value) == (type(want), want)

    @pytest.mark.parametrize("v", [float("inf"), -float("inf"), float("nan"),
                                   np.float64("nan")])
    def test_a_non_finite_float_stays_a_float(self, v):
        c = exprs.literal(v)
        assert isinstance(c.value, float)
        assert c.value == v or (np.isnan(v) and np.isnan(c.value))

    def test_a_linear_form_of_non_finite_coefficients(self):
        e = exprs.linear_form([float("inf"), float("nan"), 1.0, 0.0])
        assert str(e) == "inf*u1 + nan*u2 + u3"


# ---------------------------------------------------------------------------
# interned grids and their compiled programs
# ---------------------------------------------------------------------------


def distinct_nodes(roots) -> int:
    seen, stack = {}, list(roots)
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen[id(e)] = e
        stack.extend(v for v in vars(e).values() if isinstance(v, Expression))
    return len(seen)


def unshared(e):
    """A fresh tree equal to ``e`` in which no node is shared."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Var):
        return Var(e.index)
    if isinstance(e, Neg):
        return Neg(unshared(e.arg))
    if isinstance(e, BinOp):
        return BinOp(e.op, unshared(e.lhs), unshared(e.rhs))
    return Pow(unshared(e.base), e.exponent)


class TestInternedGrids:
    def test_int_and_float_literals_stay_distinct(self):
        (a, b), = parse_grid([["u1*1", "u1*1.0"]], 1)
        assert a is not b
        assert a.lhs is b.lhs                       # the shared u1
        assert isinstance(a.rhs.value, int)
        assert isinstance(b.rhs.value, float)
        assert (str(a), str(b)) == ("u1*1", "u1*1.0")
        assert eval_expr(parse_grid([["10^400"]], 1)[0][0], [0.0]) == 10 ** 400

    def test_equal_entry_texts_are_one_node(self):
        grid = parse_grid([["u1 + u2/(1 + u1)", "u1+u2/(1+u1)"],
                           ["(1 + u1)", "u2"]], 2)
        assert grid[0][0] is grid[0][1]
        assert grid[0][0].rhs.rhs is grid[1][0]
        assert str(grid[0][1]) == "u1 + u2/(1 + u1)"

    def test_repeated_group_is_parsed_once(self, monkeypatch):
        calls = []
        parse = exprs._Parser.expr
        monkeypatch.setattr(exprs._Parser, "expr",
                            lambda self: calls.append(1) or parse(self))
        (a, b, c), = parse_grid([["(u1 + 2*u2)*u1", "u2 - (u1 + 2*u2)",
                                  "(u1 + 2*u2)*u1"]], 2)
        assert a.lhs is b.rhs and a is c
        # the first two texts and the group, once each
        assert len(calls) == 3

    def test_group_memo_keeps_the_nesting_limit(self):
        inner = "(" * 50 + "u1" + ")" * 50
        fits = "(" * (MAX_DEPTH - 50) + inner + ")" * (MAX_DEPTH - 50)
        deep = "(" + fits + ")"
        assert parse_grid([[inner, fits]], 1)[0] == [Var(1)] * 2
        with pytest.raises(ExprSyntaxError) as fresh:
            parse_expr(deep, 1)
        with pytest.raises(ExprSyntaxError) as err:
            parse_grid([[inner, deep]], 1)
        assert (str(err.value), err.value.offset) == \
            (str(fresh.value), fresh.value.offset) == \
            (f"more than {MAX_DEPTH} nested parentheses (at offset "
             f"{MAX_DEPTH})", MAX_DEPTH)

    def test_separate_grids_do_not_share(self):
        a = parse_grid([["u1 + 1"]], 1)[0][0]
        b = parse_grid([["u1 + 1"]], 1)[0][0]
        assert a is not b and str(a) == str(b)

    def test_emitted_analytic_grids_are_folded(self):
        """The library builds example52's analytic fields folded: 514
        instructions and 15,728 characters before folding."""
        fields = emit_builtin("example52", "analytic")["fields"]
        grids = [OperatorField.parse(g, 4) for g in fields.values()]
        assert sum(len(f.program.code) for f in grids) <= 40
        assert sum(len(t) for g in fields.values() for r in g for t in r) \
            < 1000

    def test_emitted_analytic_m4_is_small(self):
        grid = emit_builtin("example52", "analytic")["fields"]["M4"]
        field = OperatorField.parse(grid, 4)
        assert distinct_nodes(e for row in field.entries for e in row) <= 227
        assert [[str(e) for e in row] for row in field.entries] == grid

    def test_zero_divisor_message_is_unchanged(self):
        texts = [["u1 + 1/(u1 - u2)", "1"], ["2", "u2*(u1 - u2)^-2"]]
        field = OperatorField.parse(texts, 2)
        with pytest.raises(ExprEvalError) as err:
            field.eval([0.5, 0.5])
        assert str(err.value) == "division by zero evaluating u1 - u2"
        with pytest.raises(ExprEvalError) as ref:
            eval_expr(unshared(field.entries[0][0]), [0.5, 0.5])
        assert str(ref.value) == str(err.value)

    def test_program_reuses_a_register_after_its_last_read(self):
        # 2,000 Horner steps: far deeper than the recursion limit, and a
        # run holds a few values at a time instead of one per step
        u, half = Var(1), Const(0.5)
        e = u
        for _ in range(2000):
            e = e * half + u
        program = exprs.Program([e, u])
        assert len(program.code) == 4001
        assert len(program.registers) <= 6
        want = x = 0.75
        for _ in range(2000):
            want = want * 0.5 + x
        assert program.run([x]) == [want, x]
        assert program.max_variable == 1


_ATOMS = [("u1", Var(1)), ("u2", Var(2)), ("u3", Var(3)), ("1", Const(1)),
          ("2", Const(2)), ("3", Const(3)), ("1.0", Const(1.0)),
          ("0.5", Const(0.5)), ("2.5", Const(2.5))]

# entry text and the tree it spells, built without the parser
_FORMS = [
    ("({a} + {b})", lambda a, b: BinOp("+", a, b)),
    ("({a} - {b})", lambda a, b: BinOp("-", a, b)),
    ("({a})*({b})", lambda a, b: BinOp("*", a, b)),
    ("({a})/({b})", lambda a, b: BinOp("/", a, b)),
    ("-({a})", lambda a, b: Neg(a)),
    ("({a})^2", lambda a, b: Pow(a, 2)),
    ("({a})^-1", lambda a, b: BinOp("/", Const(1), Pow(a, 1))),
    ("({a})^0", lambda a, b: Pow(a, 0)),
]


@st.composite
def grid_entries(draw, n=3):
    """An n x n grid of (text, unshared tree) entries built from a small
    pool of subexpressions, so that entries repeat parts of each other."""
    pool = draw(st.lists(st.sampled_from(_ATOMS), min_size=2, max_size=4))
    for _ in range(draw(st.integers(2, 6))):
        (ta, ea), (tb, eb) = draw(st.sampled_from(pool)), \
            draw(st.sampled_from(pool))
        text, build = draw(st.sampled_from(_FORMS))
        pool.append((text.format(a=ta, b=tb), build(ea, eb)))
    return [[draw(st.sampled_from(pool)) for _ in range(n)]
            for _ in range(n)]


def _bits(x):
    """Exact identity of an evaluation result: float bits, jet value and
    partial bits, series coefficient bits."""
    if isinstance(x, MultiSeries):
        return sorted((k, float(v).hex()) for k, v in x.coeffs.items())
    if isinstance(x, Jet):
        return (np.asarray(x.value, dtype=float).tobytes(),
                x.partials.tobytes())
    return type(x).__name__, np.asarray(x, dtype=float).tobytes()


def _outcome(evaluate):
    try:
        return evaluate()
    except ExprEvalError as exc:
        return f"ExprEvalError: {exc}"


def _same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
    else:
        assert [_bits(x) for x in np.ravel(got)] == \
            [_bits(x) for x in np.ravel(want)]


_ONE = ("1", Const(1))
_ZERO_DIVISOR = ("((1 - 1))^-1", BinOp("/", Const(1),
                                      Pow(BinOp("-", Const(1), Const(1)), 1)))


@settings(max_examples=60, deadline=None, database=None)
@given(entries=grid_entries(), seed=st.integers(0, 2 ** 16))
@example(entries=[[_ONE, _ONE, _ONE], [_ONE, _ZERO_DIVISOR, _ONE],
                  [_ONE, _ONE, _ONE]], seed=0)
def test_grid_evaluation_is_bit_equal_to_per_entry_trees(entries, seed):
    """A grid parsed with one intern table and evaluated by one Program
    gives exactly the per-entry results on unshared trees, over floats,
    jets, batched jets and truncated series."""
    n = 3
    trees = [[unshared(e) for _, e in row] for row in entries]
    rng = np.random.default_rng(seed)
    P = rng.uniform(-1.5, 1.5, (4, n))
    u = list(map(float, P[0]))

    def per_entry(point):
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                out[i, j] = eval_expr(trees[i][j], point)
        return out

    # an all-constant grid is evaluated when it is parsed, so a zero
    # divisor in it raises there, with the per-entry message
    field = _outcome(lambda: OperatorField.parse(
        [[t for t, _ in row] for row in entries], n))
    if isinstance(field, str):
        assert field == _outcome(lambda: per_entry(u))
        return
    assert [[str(e) for e in row] for row in field.entries] == \
        [[str(e) for e in row] for row in trees]

    _same(_outcome(lambda: field.eval(u)),
          _outcome(lambda: per_entry(u).astype(float)))
    _same(_outcome(lambda: field.eval_jet(u)),
          _outcome(lambda: per_entry(jet_point(u))))
    if not field.is_constant:
        _same(_outcome(lambda: split_jet_matrix(field.eval_jet(u), n)),
              _outcome(lambda: split_jet_matrix(per_entry(jet_point(u)), n)))

    def batch_reference():
        coords = [Jet(P[:, i], np.broadcast_to(np.eye(n)[i], P.shape).copy())
                  for i in range(n)]
        cells = per_entry(coords).ravel()
        vals = np.empty((len(P), n * n))
        ders = np.zeros((len(P), n * n, n))
        for k, out in enumerate(cells):
            if isinstance(out, Jet):
                vals[:, k], ders[:, k, :] = out.value, out.partials
            else:
                vals[:, k] = out
        return vals.reshape(-1, n, n), ders.reshape(-1, n, n, n)

    if not field.is_constant:
        _same(_outcome(lambda: field.batch_jet_arrays(P)),
              _outcome(batch_reference))
        # values alone: a run over the float columns, the same bits
        _same(_outcome(lambda: field.batch_jet_arrays(P, False)[0]),
              _outcome(lambda: batch_reference()[0]))

    series = [MultiSeries.constant(x, 2, 3) + MultiSeries.variable(i % 2, 2, 3)
              for i, x in enumerate(u)]
    _same(_outcome(lambda: field.eval_generic(series)),
          _outcome(lambda: per_entry(series)))
