"""Scalar arithmetic expressions in coordinates u1..un.

Expressions are immutable trees built from constants, coordinate variables,
negation and the binary operations ``+ - * /`` plus integer powers.  They are
the entry language for every coordinate-dependent quantity in the package
(matrix entries of operator fields, 1-form components, Hamiltonian
coefficients) and evaluate over any scalar type implementing the arithmetic
dunders: plain floats, first-order jets, numpy batches, truncated power
series.

Grammar (``^`` binds tightest; a single integer exponent per atom)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' '-'? integer)?
    atom   := number | 'u' integer | '(' expr ')'

Negative exponents are sugar for division: ``u1^-2`` parses to ``1/u1^2``.
Digits are ASCII ``0-9`` only.  Integer literals are kept exact; decimal
literals become binary64 floats.
Parentheses nest, and parsed trees reach, at most MAX_DEPTH levels, so the
recursive parser, evaluator and printer stay within the recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "parse_expr",
    "parse_grid",
    "eval_expr",
    "const",
    "var",
]


def _coerce(x):
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    return NotImplemented


@dataclass(frozen=True)
class Expression:
    """Base node; subclasses form the tree."""

    def __add__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else BinOp("+", self, other)

    def __radd__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else BinOp("+", other, self)

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else BinOp("-", self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else BinOp("-", other, self)

    def __mul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else BinOp("*", self, other)

    def __rmul__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else BinOp("*", other, self)

    def __truediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else BinOp("/", self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else BinOp("/", other, self)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("expression exponents must be integers")
        if exponent < 0:
            return BinOp("/", Const(1), Pow(self, -exponent))
        return Pow(self, exponent)

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return _print(self, 0)

    # --- queries -----------------------------------------------------------

    def max_variable(self, memo=None) -> int:
        """Largest coordinate index appearing in the tree (0 if constant).

        ``memo`` (a dict) may be shared by the expressions of one grid, so
        that each distinct node is visited once over all of them."""
        return _max_var(self, {} if memo is None else memo)

    def is_constant(self) -> bool:
        return self.max_variable() == 0

    def evaluate(self, point):
        return eval_expr(self, point)


@dataclass(frozen=True)
class Const(Expression):
    value: object  # int (exact) or float


@dataclass(frozen=True)
class Var(Expression):
    index: int  # 1-based


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class BinOp(Expression):
    op: str  # one of + - * /
    lhs: Expression
    rhs: Expression


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int  # >= 0; negatives are stored as divisions


def const(value) -> Const:
    return Const(value)


def var(index: int) -> Var:
    if index < 1:
        raise ValueError("variable index must be >= 1")
    return Var(index)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

MAX_DEPTH = 100

_TOKEN = re.compile(r"u[0-9]+|[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?"
                    r"|[-+*/^()]")
_SCAN = re.compile(_TOKEN.pattern + r"|(\S)")   # group 1: a stray character
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Parser:
    """Operator-precedence parser over the tokens of one text.

    The intern table maps each node's key to the node and the node's id to
    its tree depth.  It also maps (dimension, tokens) of each parenthesised
    group parsed with it to the group's node, so a group repeated within a
    text or across the texts of a grid is parsed once."""

    def __init__(self, text: str, dimension: int, table: dict):
        toks = _TOKEN.findall(text)
        if "".join(toks) != "".join(text.split()):
            m = next(m for m in _SCAN.finditer(text) if m.group(1))
            raise ExprSyntaxError(f"unexpected character {m.group(1)!r}",
                                  m.start())
        self.text, self.dimension, self.table = text, dimension, table
        self.toks = (*toks, "")         # "" ends the text
        self.i = self.nesting = 0
        # each matched '(' -> its ')' and the group's own nesting
        self.groups, opens = {}, []
        for j, t in enumerate(toks):
            if t == "(":
                opens.append([j, 1])
            elif t == ")" and opens:
                i, nest = opens.pop()
                self.groups[i] = (j, nest)
                if opens and opens[-1][1] <= nest:
                    opens[-1][1] = nest + 1

    def fail(self, message: str, i=None):
        """Raise ``message`` at the offset of token ``i`` (default: the
        current token); offsets are found only here."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        starts.append(len(self.text))
        raise ExprSyntaxError(message, starts[self.i if i is None else i])

    def node(self, key, cls, *fields) -> Expression:
        """The node ``cls(*fields)``, built once per intern table.

        Children are interned already, so ``key`` holds them by identity.
        A literal is keyed by its type and bits: Const(1) == Const(1.0),
        but the int computes exactly and prints differently."""
        node = self.table.get(key)
        if node is None:
            depth = 1 + max([self.table[id(f)] for f in fields
                             if isinstance(f, Expression)], default=0)
            if depth > MAX_DEPTH:
                self.fail(f"expression deeper than {MAX_DEPTH} levels")
            node = self.table[key] = cls(*fields)
            self.table[id(node)] = depth
        return node

    def parse(self) -> Expression:
        try:
            e = self.expr()
        except ValueError:  # int() of the token just taken: too many digits
            self.fail("integer literal too long", self.i - 1)
        if self.toks[self.i]:
            self.fail("trailing input after expression")
        return e

    def expr(self) -> Expression:
        """Operands joined by left-associative binary operators."""
        stack = []      # (left operand, operator, its level), rising
        while True:
            e = self.operand()
            op = self.toks[self.i]
            level = _PRECEDENCE.get(op, 0)
            while stack and stack[-1][2] >= level:
                lhs, o, _ = stack.pop()
                e = self.node((BinOp, o, id(lhs), id(e)), BinOp, o, lhs, e)
            if not level:
                return e
            stack.append((e, op, level))
            self.i += 1

    def operand(self) -> Expression:
        """Leading minus signs, then an atom with an optional exponent."""
        toks, i, signs = self.toks, self.i, 0
        while toks[i] == "-":       # counted, not recursed into
            i += 1
            signs += 1
        t = toks[i]
        self.i = i + 1
        if t == "(":
            e = self.group(i)
        elif t[:1] == "u":
            k = int(t[1:])
            if not 1 <= k <= self.dimension:
                self.fail(f"variable index out of range: u{k} with "
                          f"dimension {self.dimension}", i)
            e = self.node((Var, k), Var, k)
        elif t[:1].isdigit():
            v = int(t) if t.isdigit() else float(t)
            e = self.node((Const, int, v) if type(v) is int
                          else (Const, float, v.hex()), Const, v)
        else:
            self.fail("expected number, variable or '('", i)
        if toks[self.i] == "^":
            j = self.i + 1 + (toks[self.i + 1] == "-")
            if not toks[j].isdigit():
                self.fail("exponent must be an integer literal", j)
            self.i = j + 1
            k = int(toks[j])
            if toks[j - 1] == "-" and k:
                one = self.node((Const, int, 1), Const, 1)
                p = self.node((Pow, id(e), k), Pow, e, k)
                e = self.node((BinOp, "/", id(one), id(p)), BinOp, "/", one, p)
            else:
                e = self.node((Pow, id(e), k), Pow, e, k)
        for _ in range(signs):
            e = self.node((Neg, id(e)), Neg, e)
        return e

    def group(self, i: int) -> Expression:
        """The group opened at token ``i``: one memo lookup when it was
        parsed before and still fits within MAX_DEPTH nested parentheses
        here, else parsed (and raising what a first parse raises)."""
        if self.nesting >= MAX_DEPTH:
            self.fail(f"more than {MAX_DEPTH} nested parentheses", i)
        key = None
        if i in self.groups:
            j, nest = self.groups[i]
            if self.nesting + nest <= MAX_DEPTH:
                key = (self.dimension, self.toks[i:j + 1])
                e = self.table.get(key)
                if e is not None:
                    self.i = j + 1
                    return e
        self.nesting += 1
        e = self.expr()
        self.nesting -= 1
        if self.toks[self.i] != ")":
            self.fail("expected ')'")
        self.i += 1
        if key is not None:
            self.table[key] = e
        return e


def parse_expr(text: str, dimension: int, table=None) -> Expression:
    """Parse ``text`` into an Expression over coordinates u1..u<dimension>.

    Every node is interned in ``table`` (a dict, fresh when None), so
    structurally identical subexpressions -- within the text and across
    the texts parsed with the same table -- are one node object.  The
    table also remembers each text and each parenthesised group it has
    parsed, so a repeated one costs one lookup.  Interning neither folds
    constants nor reassociates: the tree is the one the text spells, and
    it prints back the same.

    Raises ExprSyntaxError with a character offset on malformed input,
    variable indices outside [1, dimension], or non-positive dimension.
    """
    if dimension < 1:
        raise ExprSyntaxError("dimension must be a positive integer", 0)
    if table is None:
        table = {}
    key = (dimension, text)
    e = table.get(key)
    if e is None:
        e = table[key] = _Parser(text, dimension, table).parse()
    return e


def parse_grid(rows, dimension: int) -> list:
    """Parse rows of entry texts into rows of expressions that share one
    intern table, so that a subexpression common to several entries of the
    grid is one node, evaluated once by a grid evaluation's shared memo."""
    table = {}
    return [[parse_expr(s, dimension, table) for s in row] for row in rows]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _divisor_is_zero(x) -> bool:
    v = x
    # unwrap jets / series to the part that controls invertibility
    if hasattr(v, "value"):
        v = v.value
    elif hasattr(v, "constant_term"):
        v = v.constant_term()
    if isinstance(v, np.ndarray):
        return bool(np.any(v == 0))
    return v == 0


def eval_expr(e: Expression, point, memo=None):
    """Evaluate ``e`` at ``point`` (a sequence of scalars of uniform type).

    Over jets the result carries exact first partials with respect to all
    coordinates.  Raises ExprEvalError on division by zero at the point.
    Shared subtrees (expression DAGs built by matrix algebra, interned
    grids) are evaluated once per ``memo``: a dict keyed by node identity,
    fresh when None, which the evaluation of one grid at one point shares
    across its entries.  Results held in the memo are never mutated.
    """
    n = len(point)
    return _eval(e, point, n, {} if memo is None else memo)


def _eval(e, point, n, memo):
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Const):
        out = e.value
    elif isinstance(e, Var):
        if e.index > n:
            raise ExprEvalError(
                f"variable u{e.index} out of range for point of dimension {n}"
            )
        out = point[e.index - 1]
    elif isinstance(e, Neg):
        out = -_eval(e.arg, point, n, memo)
    elif isinstance(e, BinOp):
        a = _eval(e.lhs, point, n, memo)
        b = _eval(e.rhs, point, n, memo)
        if e.op == "+":
            out = a + b
        elif e.op == "-":
            out = a - b
        elif e.op == "*":
            out = a * b
        else:
            if _divisor_is_zero(b):
                raise ExprEvalError(f"division by zero evaluating {e.rhs}")
            out = a / b
    elif isinstance(e, Pow):
        base = _eval(e.base, point, n, memo)
        if e.exponent == 0:
            out = 1
        else:
            if e.exponent < 0 and _divisor_is_zero(base):
                raise ExprEvalError(
                    f"zero base raised to negative power in {e}")
            out = base ** e.exponent
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[key] = out
    return out


def _max_var(e, memo) -> int:
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Const):
        out = 0
    elif isinstance(e, Var):
        out = e.index
    elif isinstance(e, Neg):
        out = _max_var(e.arg, memo)
    elif isinstance(e, BinOp):
        out = max(_max_var(e.lhs, memo), _max_var(e.rhs, memo))
    elif isinstance(e, Pow):
        out = _max_var(e.base, memo)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _print(e, parent_level) -> str:
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, int):
            s = str(v)
        else:
            s = repr(float(v))
        if v < 0:
            return s if parent_level <= _LEVEL_ADD else f"({s})"
        return s
    if isinstance(e, Var):
        return f"u{e.index}"
    if isinstance(e, Neg):
        inner = _print(e.arg, _LEVEL_NEG)
        s = f"-{inner}"
        return s if parent_level < _LEVEL_NEG else f"({s})"
    if isinstance(e, BinOp):
        # the right operand is always bumped one level so the printed text
        # preserves the tree's association exactly (floating-point addition
        # and multiplication are not associative)
        level = _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
        lhs = _print(e.lhs, level)
        rhs = _print(e.rhs, level + 1)
        s = f"{lhs} {e.op} {rhs}" if e.op in "+-" else f"{lhs}{e.op}{rhs}"
        return s if level >= parent_level else f"({s})"
    if isinstance(e, Pow):
        base = _print(e.base, _LEVEL_ATOM)
        s = f"{base}^{e.exponent}"
        return s if parent_level <= _LEVEL_POW else f"({s})"
    raise TypeError(f"not an expression node: {e!r}")
