"""Scalar arithmetic expressions in coordinates u1..un.

Expressions are immutable trees built from constants, coordinate variables,
negation and the binary operations ``+ - * /`` plus integer powers.  They are
the entry language for every coordinate-dependent quantity in the package
(matrix entries of operator fields, 1-form components, Hamiltonian
coefficients).  A grid of them is compiled once into a straight-line
Program, which evaluates over any scalar type implementing the arithmetic
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
recursive parser stays within the recursion limit; printing, compiling and
running a Program never recurse, so trees built by matrix algebra may be
deeper.
"""

from __future__ import annotations

import contextlib
import math
import operator
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
    "Program",
]


def _operator(op: str, reflected: bool = False):
    """The dunder building ``self op other`` (``other op self`` when
    reflected), folded: Const op Const is what Program.run computes unless
    that raises or is not finite; p + 0, 0 + p, p - 0, 1*p and p*1 are p;
    0*p and p*0 are the 0 unless p divides, so a pole still raises."""

    def build(self, other):
        if isinstance(other, (int, float)):
            other = Const(other)
        elif not isinstance(other, Expression):
            return NotImplemented
        a, b = (other, self) if reflected else (self, other)
        x = a.value if type(a) is Const else None
        y = b.value if type(b) is Const else None
        if x is not None and y is not None:
            with contextlib.suppress(ArithmeticError):  # raised when run
                v = _BINARY[op](x, y)
                if math.isfinite(v):
                    return Const(v)
        elif y == 0 and op in "+-" or y == 1 and op == "*":
            return a
        elif x == 0 and op == "+" or x == 1 and op == "*":
            return b
        elif op == "*" and 0 in (x, y) and not (b if x == 0 else a).divides:
            return a if x == 0 else b
        return BinOp(op, a, b)
    return build


@dataclass(frozen=True)
class Expression:
    """Base node; subclasses form the tree."""

    divides = False     # whether the tree holds a division; O(1) to read
    __add__, __radd__ = _operator("+"), _operator("+", True)
    __sub__, __rsub__ = _operator("-"), _operator("-", True)
    __mul__, __rmul__ = _operator("*"), _operator("*", True)
    __truediv__, __rtruediv__ = _operator("/"), _operator("/", True)

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

    def is_constant(self) -> bool:
        return Program([self]).max_variable == 0


@dataclass(frozen=True)
class Const(Expression):
    value: object  # int (exact) or float


@dataclass(frozen=True)
class Var(Expression):
    index: int  # 1-based


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression

    def __post_init__(self):
        object.__setattr__(self, "divides", self.arg.divides)


@dataclass(frozen=True)
class BinOp(Expression):
    op: str  # one of + - * /
    lhs: Expression
    rhs: Expression

    def __post_init__(self):
        object.__setattr__(self, "divides", self.op == "/" or
                           self.lhs.divides or self.rhs.divides)


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int  # >= 0; negatives are stored as divisions

    def __post_init__(self):
        object.__setattr__(self, "divides", self.base.divides)


def literal(v) -> Const:
    """The Const of the number ``v``, an integral float as an exact int
    (a non-finite float stays a float)."""
    return Const(int(v) if isinstance(v, float) and v.is_integer() else v)


def linear_form(coeffs) -> Expression:
    """sum_m coeffs[m] u(m+1), left to right, folded: no zero term or unit
    coefficient, and Const(0) when all vanish."""
    return sum((literal(float(c)) * Var(m + 1) for m, c in enumerate(coeffs)),
               Const(0))


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
    grid is one node, computed once by the grid's Program."""
    table = {}
    return [[parse_expr(s, dimension, table) for s in row] for row in rows]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _invertible(x):
    # a jet or a series is invertible where its value / constant term is
    v = x.value if hasattr(x, "value") else \
        x.constant_term() if hasattr(x, "constant_term") else x
    if np.any(v == 0) if isinstance(v, np.ndarray) else v == 0:
        raise ZeroDivisionError
    return x


def _load(point, k):
    if k > len(point):
        raise ExprEvalError(
            f"variable u{k} out of range for point of dimension {len(point)}")
    return point[k - 1]


def _div(a, b):
    return a / _invertible(b)


def _power(a, k):
    return (_invertible(a) if k < 0 else a) ** k if k else 1


def _neg(a, _):
    return -a


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div}


class Program:
    """Straight-line code for a list of expressions, its roots.

    Compiling walks the distinct nodes (by identity) without recursion and
    emits one instruction per node in the order in which a recursive
    evaluation that reuses values would finish them: roots in order,
    operands first, left before right.  So every value and the first
    ExprEvalError are those of evaluating each root alone.  A register is
    reused after its last read, so a run holds only the live values.
    ``max_variable`` is the largest coordinate index read (0 if none), and
    ``constant[k]`` whether root k reads none.
    """

    def __init__(self, roots):
        self.roots = roots = list(roots)
        registers = [None]      # register 0 holds the point
        value = {}              # id(node) -> its register, or ~instruction
        ops = []                # (function, operand, operand, node)
        last = []               # instruction -> the last one reading it
        fixed = set()           # the instructions that read no coordinate
        self.max_variable = 0
        for root in roots:
            stack = [root]
            while stack:
                e = stack.pop()
                if id(e) in value:
                    continue
                t = type(e)
                if t is BinOp:
                    a, b = value.get(id(e.lhs)), value.get(id(e.rhs))
                    if a is None or b is None:     # operands first
                        stack += (e, e.rhs, e.lhs)
                        continue
                    fn = _BINARY[e.op]
                elif t is Const:
                    value[id(e)] = len(registers)
                    registers.append(e.value)
                    continue
                elif t is Var:
                    self.max_variable = max(self.max_variable, e.index)
                    fn, a, b = _load, 0, len(registers)
                    registers.append(e.index)
                elif t is Neg or t is Pow:
                    arg = e.arg if t is Neg else e.base
                    a = value.get(id(arg))
                    if a is None:
                        stack += (e, arg)
                        continue
                    fn, b = (_neg, a) if t is Neg else (_power, len(registers))
                    if t is Pow:
                        registers.append(e.exponent)
                else:
                    raise TypeError(f"not an expression node: {e!r}")
                if a < 0:
                    last[~a] = len(ops)
                if b < 0:
                    last[~b] = len(ops)
                if fn is not _load and (a >= 0 or ~a in fixed) \
                        and (b >= 0 or ~b in fixed):
                    fixed.add(len(ops))
                value[id(e)] = ~len(ops)
                last.append(len(ops))
                ops.append((fn, a, b, e))

        # an instruction's result takes a register freed by an earlier
        # last read; the roots' values are kept to the end
        outputs = [value[id(e)] for e in roots]
        for v in outputs:
            if v < 0:
                last[~v] = len(ops)
        where, free, self.code = [], [], []
        for i, (fn, a, b, e) in enumerate(ops):
            if a < 0:
                if last[~a] == i:
                    last[~a] = len(ops)         # one free if b is a too
                    free.append(where[~a])
                a = where[~a]
            if b < 0:
                if last[~b] == i:
                    free.append(where[~b])
                b = where[~b]
            where.append(free.pop() if free else len(registers))
            if where[i] == len(registers):
                registers.append(None)
            self.code.append((fn, where[i], a, b, e))
        self.registers = registers
        self.outputs = [where[~v] if v < 0 else v for v in outputs]
        self.constant = [v >= 0 or ~v in fixed for v in outputs]

    def run(self, point) -> list:
        """The roots' values at ``point``, a sequence of scalars of one type
        (floats, jets, jet batches, series), by that type's operators;
        ExprEvalError at a zero divisor or an overflow."""
        r = self.registers.copy()
        r[0] = point
        try:
            for fn, dst, a, b, e in self.code:
                r[dst] = fn(r[a], r[b])
        except ZeroDivisionError:
            raise ExprEvalError(
                f"division by zero evaluating {e.rhs}" if type(e) is BinOp
                else f"zero base raised to negative power in {e}") from None
        except OverflowError:
            raise ExprEvalError(f"overflow evaluating {e}") from None
        return [r[k] for k in self.outputs]


def eval_expr(e: Expression, point):
    """Evaluate ``e`` at ``point`` (a sequence of scalars of uniform type)
    as a one-root Program.

    Over jets the result carries exact first partials with respect to all
    coordinates.  Raises ExprEvalError on division by zero at the point.
    """
    return Program([e]).run(point)[0]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _print(e, parent_level) -> str:
    """The text of ``e`` as an operand at ``parent_level``.  Each node's
    text and precedence follow from its operands' in a post-order walk
    over an explicit stack, so a tree of any depth prints; an operand is
    parenthesised where its place binds tighter than it does."""
    done, todo = {}, [e]        # id(node) -> (text, precedence)

    def operand(k, level):
        text, own = done[id(k)]
        return f"({text})" if level > own else text
    while todo:
        node = todo.pop()
        kids = (node.arg,) if isinstance(node, Neg) else (
            (node.lhs, node.rhs) if isinstance(node, BinOp) else
            (node.base,) if isinstance(node, Pow) else ())
        missing = [k for k in kids if id(k) not in done]
        if missing:
            todo += [node, *missing]
        elif isinstance(node, Const):
            v = node.value
            done[id(node)] = (str(v) if isinstance(v, int) else repr(float(v)),
                              _LEVEL_ADD if v < 0 else _LEVEL_ATOM)
        elif isinstance(node, Var):
            done[id(node)] = f"u{node.index}", _LEVEL_ATOM
        elif isinstance(node, Neg):     # bare as a factor, not under - or ^
            done[id(node)] = f"-{operand(node.arg, _LEVEL_NEG)}", _LEVEL_MUL
        elif isinstance(node, BinOp):
            # the right operand is always bumped one level so the printed
            # text preserves the tree's association exactly (floating-point
            # addition and multiplication are not associative)
            level = _LEVEL_ADD if node.op in "+-" else _LEVEL_MUL
            op = f" {node.op} " if node.op in "+-" else node.op
            done[id(node)] = (f"{operand(node.lhs, level)}{op}"
                              f"{operand(node.rhs, level + 1)}", level)
        elif isinstance(node, Pow):
            done[id(node)] = (f"{operand(node.base, _LEVEL_ATOM)}^"
                              f"{node.exponent}", _LEVEL_POW)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return operand(e, parent_level)
