"""Truncated multi-time Taylor jets for the hierarchy u_{t_j} = K_j(u) u_x.

A solution jet is a vector of truncated power series in (x - x0, t_1..t_m)
filled order by order: the coefficient at t-multi-index beta is produced by
the evolution equation of the first flow with beta_j > 0, so each equation
is exact along its own time axis and any incompatibility between flows i
and j shows up as a mismatch of the mixed coefficients computed via the two
evolution routes.  For families of mutual symmetries the mismatch vanishes
to rounding; for non-symmetric pairs it is order one already at degree 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ExprEvalError, OpfrobError
from .numkit import mat_rank

__all__ = ["MultiSeries", "JetSolution", "taylor_flow",
           "flow_compatibility_residual"]

DEFAULT_MAX_ORDER = 6


class MultiSeries:
    """Dense-by-dict multivariate power series truncated at a total degree."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars, order, coeffs=None):
        self.nvars = nvars
        self.order = order
        self.coeffs = {} if coeffs is None else coeffs

    @classmethod
    def constant(cls, value, nvars, order):
        s = cls(nvars, order)
        if value != 0:
            s.coeffs[(0,) * nvars] = float(value)
        return s

    @classmethod
    def variable(cls, index, nvars, order):
        s = cls(nvars, order)
        key = [0] * nvars
        key[index] = 1
        s.coeffs[tuple(key)] = 1.0
        return s

    def copy(self):
        return MultiSeries(self.nvars, self.order, dict(self.coeffs))

    def constant_term(self) -> float:
        return self.coeffs.get((0,) * self.nvars, 0.0)

    def coefficient(self, key) -> float:
        return self.coeffs.get(tuple(key), 0.0)

    def max_abs(self, max_degree=None) -> float:
        vals = [abs(v) for k, v in self.coeffs.items()
                if max_degree is None or sum(k) <= max_degree]
        return max(vals, default=0.0)

    def _like(self, coeffs):
        return MultiSeries(self.nvars, self.order, coeffs)

    def _check(self, other):
        if self.nvars != other.nvars or self.order != other.order:
            raise ValueError("series shape mismatch")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            out = dict(self.coeffs)
            key = (0,) * self.nvars
            out[key] = out.get(key, 0.0) + float(other)
            if out[key] == 0.0:
                del out[key]
            return self._like(out)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, 0.0) + v
            if s == 0.0:
                out.pop(k, None)
            else:
                out[k] = s
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiSeries) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                return MultiSeries(self.nvars, self.order)
            return self._like({k: v * float(other)
                               for k, v in self.coeffs.items()})
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._check(other)
        out = {}
        order = self.order
        for k1, v1 in self.coeffs.items():
            d1 = sum(k1)
            for k2, v2 in other.coeffs.items():
                if d1 + sum(k2) > order:
                    continue
                key = tuple(a + b for a, b in zip(k1, k2))
                s = out.get(key, 0.0) + v1 * v2
                if s == 0.0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return self._like(out)

    __rmul__ = __mul__

    def reciprocal(self):
        c0 = self.constant_term()
        if c0 == 0.0:
            raise ExprEvalError("series reciprocal with zero constant term")
        # geometric series in the nilpotent part: 1/(c0 + x) = sum (-x/c0)^k / c0
        x = self - c0
        term = MultiSeries.constant(1.0, self.nvars, self.order)
        acc = MultiSeries.constant(1.0, self.nvars, self.order)
        for _ in range(self.order):
            term = term * x * (-1.0 / c0)
            acc = acc + term
        return acc * (1.0 / c0)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("series divided by zero scalar")
            return self * (1.0 / float(other))
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self.reciprocal() * float(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.reciprocal() ** (-k)
        acc = MultiSeries.constant(1.0, self.nvars, self.order)
        base = self
        e = k
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def diff(self, var) -> "MultiSeries":
        out = {}
        for k, v in self.coeffs.items():
            if k[var] == 0:
                continue
            key = list(k)
            key[var] -= 1
            out[tuple(key)] = v * k[var]
        return self._like(out)

    def __repr__(self):
        terms = sorted(self.coeffs.items())
        return f"MultiSeries({terms!r})"


@dataclass
class JetSolution:
    """Taylor coefficients of u(x, t_1..t_m) about (x0, 0) to total degree
    ``order``; series variables are ordered (x - x0, t_1, .., t_m)."""

    dimension: int
    nflows: int
    order: int
    x0: float
    series: list
    fields: list = field(default_factory=list, repr=False)
    generic_warning: bool = False

    def coefficient(self, component: int, exponents) -> float:
        return self.series[component].coefficient(exponents)


def _eval_fields_on_series(fld, u_series):
    return fld.eval_generic(list(u_series))


def _matvec_series(K, v):
    n = len(v)
    out = []
    for i in range(n):
        s = K[i, 0] * v[0]
        for j in range(1, n):
            s = s + K[i, j] * v[j]
        out.append(s)
    return out


def taylor_flow(fields, initial_curve, order, x0: float = 0.0,
                max_order: int = DEFAULT_MAX_ORDER) -> JetSolution:
    """Fill the Taylor jet of the multi-flow solution with initial curve
    u(x, 0) given by polynomial coefficients (ascending powers of x).

    ``fields`` is a list of m operator fields in dimension n (m <= n); the
    jet then lives in 1 + m variables.  A non-generic initial curve (the
    vectors K_i(u0) u0' dependent) only triggers a warning flag.
    """
    if order > max_order:
        raise OpfrobError(
            f"truncation order {order} exceeds the configured cap {max_order}"
        )
    m = len(fields)
    n = fields[0].dimension
    nvars = 1 + m

    # initial data: u0_i(x0 + x) via Horner over the series ring
    xvar = MultiSeries.variable(0, nvars, order)
    u = []
    for coeffs in initial_curve:
        coeffs = [float(c) for c in coeffs]
        s = MultiSeries.constant(0.0, nvars, order)
        for c in reversed(coeffs):
            s = s * (xvar + x0) + c
        u.append(s)
    if len(u) != n:
        raise OpfrobError(f"initial curve needs {n} components, got {len(u)}")

    u0_val = [sum(c * x0 ** k for k, c in enumerate(map(float, comp)))
              for comp in initial_curve]
    du0 = [sum(k * c * x0 ** (k - 1) for k, c in enumerate(map(float, comp))
               if k > 0) for comp in initial_curve]
    cols = np.column_stack(
        [f.eval(u0_val) @ np.asarray(du0, dtype=float) for f in fields])
    warning = mat_rank(cols) < m

    # order-by-order fill; min-flow-index routing for mixed coefficients
    for level in range(order):
        rhs = []
        ux = [s.diff(0) for s in u]
        for f in fields:
            K = _eval_fields_on_series(f, u)
            rhs.append(_matvec_series(K, ux))
        for key_t in _t_multi_indices(m, level + 1):
            j = next(idx for idx, b in enumerate(key_t) if b > 0)
            src_t = list(key_t)
            src_t[j] -= 1
            for k in range(order - level):
                key = (k,) + key_t
                src = (k,) + tuple(src_t)
                for i in range(n):
                    c = rhs[j][i].coefficient(src) / key_t[j]
                    if c != 0.0:
                        u[i].coeffs[key] = c
    return JetSolution(dimension=n, nflows=m, order=order, x0=x0,
                       series=u, fields=list(fields),
                       generic_warning=warning)


def _t_multi_indices(m, total):
    if m == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _t_multi_indices(m - 1, total - first):
            yield (first,) + rest


def _rhs_series(sol: JetSolution, flow: int):
    ux = [s.diff(0) for s in sol.series]
    K = _eval_fields_on_series(sol.fields[flow], sol.series)
    return _matvec_series(K, ux)


def flow_compatibility_residual(sol: JetSolution, i: int, j: int) -> float:
    """Max coefficient discrepancy between d_{t_i} d_{t_j} u computed via
    the two evolution routes (d_{t_i} of flow j's right-hand side against
    d_{t_j} of flow i's), compared up to total degree order - 2.  Flow
    indices are 0-based."""
    if sol.order < 2:
        raise OpfrobError("compatibility needs truncation order >= 2")
    rhs_i = _rhs_series(sol, i)
    rhs_j = _rhs_series(sol, j)
    limit = sol.order - 2
    diffs = []
    for comp in range(sol.dimension):
        a = rhs_j[comp].diff(1 + i)   # d/dt_i of flow-j evolution
        b = rhs_i[comp].diff(1 + j)   # d/dt_j of flow-i evolution
        diffs.extend(abs(a.coefficient(k) - b.coefficient(k))
                     for k in set(a.coeffs) | set(b.coeffs) if sum(k) <= limit)
    return float(np.max(diffs, initial=0.0))
