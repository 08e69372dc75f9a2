import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from opfrob.errors import ExprEvalError, ExprSyntaxError
from opfrob.exprs import (BinOp, Const, Expression, Neg, Pow, Var, eval_expr,
                          parse_expr, parse_grid)
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


# ---------------------------------------------------------------------------
# interned grids and the shared evaluation memo
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

    def test_separate_grids_do_not_share(self):
        a = parse_grid([["u1 + 1"]], 1)[0][0]
        b = parse_grid([["u1 + 1"]], 1)[0][0]
        assert a is not b and str(a) == str(b)

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
    """A grid parsed with one intern table and evaluated with one memo per
    point gives exactly the per-entry results on unshared trees, over
    floats, jets, batched jets and truncated series."""
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

    series = [MultiSeries.constant(x, 2, 3) + MultiSeries.variable(i % 2, 2, 3)
              for i, x in enumerate(u)]
    _same(_outcome(lambda: field.eval_generic(series)),
          _outcome(lambda: per_entry(series)))
