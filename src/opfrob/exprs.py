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
Integer literals are kept exact; decimal literals become binary64 floats.
Parentheses nest, and parsed trees reach, at most MAX_DEPTH levels, so the
recursive parser, evaluator and printer stay within the recursion limit.
"""

from __future__ import annotations

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

_OPS = set("+-*/^()")
MAX_DEPTH = 100


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c in _OPS:
                self.tokens.append((c, c, i))
                i += 1
                continue
            if c == "u" and i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("var", int(text[i + 1 : j]), i))
                i = j
                continue
            if c.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                is_float = False
                if j < n and text[j] == ".":
                    is_float = True
                    j += 1
                    while j < n and text[j].isdigit():
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        is_float = True
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                lit = text[i:j]
                self.tokens.append(("num", float(lit) if is_float else int(lit), i))
                i = j
                continue
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


class _Parser:
    def __init__(self, text: str, dimension: int, table: dict):
        self.toks = _Tokenizer(text)
        self.dimension = dimension
        self.table = table
        self.nesting = 0

    def _node(self, cls, *fields) -> Expression:
        """The node ``cls(*fields)``, built once per intern table.

        Children are interned already, so they are keyed by identity.  A
        literal is keyed by its type and bits: Const(1) == Const(1.0), but
        the int computes exactly and prints differently.  The table also
        holds each node's tree depth, keyed by the node's id."""
        if cls is Const:
            v = fields[0]
            key = (Const, type(v), v.hex() if type(v) is float else v)
        else:
            key = (cls, *[id(f) if isinstance(f, Expression) else f
                          for f in fields])
        node = self.table.get(key)
        if node is None:
            if cls is BinOp:
                depth = 1 + max(self.table[id(fields[1])],
                                self.table[id(fields[2])])
            else:
                depth = 1 + (self.table[id(fields[0])]
                             if cls is Neg or cls is Pow else 0)
            if depth > MAX_DEPTH:
                raise ExprSyntaxError(f"expression deeper than {MAX_DEPTH} "
                                      "levels", self.toks.peek()[2])
            node = self.table[key] = cls(*fields)
            self.table[id(node)] = depth
        return node

    def parse(self) -> Expression:
        e = self._expr()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input after expression", pos)
        return e

    def _expr(self) -> Expression:
        e = self._term()
        while self.toks.peek()[0] in ("+", "-"):
            op, _, _ = self.toks.next()
            e = self._node(BinOp, op, e, self._term())
        return e

    def _term(self) -> Expression:
        e = self._factor()
        while self.toks.peek()[0] in ("*", "/"):
            op, _, _ = self.toks.next()
            e = self._node(BinOp, op, e, self._factor())
        return e

    def _factor(self) -> Expression:
        signs = 0   # leading minus signs are counted, not recursed into
        while self.toks.peek()[0] == "-":
            self.toks.next()
            signs += 1
        e = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            sign = 1
            if self.toks.peek()[0] == "-":
                self.toks.next()
                sign = -1
            kind, value, pos = self.toks.next()
            if kind != "num" or not isinstance(value, int):
                raise ExprSyntaxError("exponent must be an integer literal", pos)
            k = sign * value
            e = self._node(BinOp, "/", self._node(Const, 1),
                           self._node(Pow, e, -k)) if k < 0 \
                else self._node(Pow, e, k)
        while signs:
            e = self._node(Neg, e)
            signs -= 1
        return e

    def _atom(self) -> Expression:
        kind, value, pos = self.toks.next()
        if kind == "num":
            return self._node(Const, value)
        if kind == "var":
            if value < 1 or value > self.dimension:
                raise ExprSyntaxError(
                    f"variable index out of range: u{value} with dimension "
                    f"{self.dimension}",
                    pos,
                )
            return self._node(Var, value)
        if kind == "(":
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                raise ExprSyntaxError(f"more than {MAX_DEPTH} nested "
                                      "parentheses", pos)
            e = self._expr()
            self.nesting -= 1
            kind2, _, pos2 = self.toks.next()
            if kind2 != ")":
                raise ExprSyntaxError("expected ')'", pos2)
            return e
        raise ExprSyntaxError(f"expected number, variable or '('", pos)


def parse_expr(text: str, dimension: int, table=None) -> Expression:
    """Parse ``text`` into an Expression over coordinates u1..u<dimension>.

    Every node is interned in ``table`` (a dict, fresh when None), so
    structurally identical subexpressions -- within the text and across
    the texts parsed with the same table -- are one node object.  Interning
    neither folds constants nor reassociates: the tree is the one the text
    spells, and it prints back the same.

    Raises ExprSyntaxError with a byte offset on malformed input, variable
    indices outside [1, dimension], or non-positive dimension.
    """
    if dimension < 1:
        raise ExprSyntaxError("dimension must be a positive integer", 0)
    return _Parser(text, dimension, {} if table is None else table).parse()


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
