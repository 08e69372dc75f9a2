import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opfrob import hydroflow
from opfrob.errors import (
    ExprEvalError,
    GenericityError,
    OpfrobError,
    SingularMatrixError,
)
from opfrob.fields import OperatorField
from opfrob.fixtures import (
    demo4_constant_basis,
    demo4_tilde_basis,
    nonsymmetric_pair_fields,
)
from opfrob.frobalg import OperatorBasis, well_conditioned_xi
from opfrob.hydroflow import (
    MultiSeries,
    flow_compatibility_residual,
    taylor_flow,
)
from opfrob.opfields import DualFamily
from opfrob.sampling import sample_points

from helpers import guarded_config
from oracles import loop_dual, value_array


class TestMultiSeries:
    def test_mul_truncates(self):
        x = MultiSeries.variable(0, 1, 3)
        p = (1 + x) ** 3
        assert p.coefficient((3,)) == 1.0
        q = p * p     # degree 6 terms dropped
        assert q.coefficient((3,)) == 20.0
        assert q.coefficient((2,)) == 15.0

    def test_reciprocal(self):
        x = MultiSeries.variable(0, 1, 5)
        s = 2.0 + x
        inv = s.reciprocal()
        for k in range(6):
            assert np.isclose(inv.coefficient((k,)),
                              (-1.0) ** k / 2.0 ** (k + 1))
        prod = s * inv
        assert np.isclose(prod.constant_term(), 1.0)
        assert prod.max_abs(max_degree=5) <= 1.0 + 1e-12

    def test_reciprocal_zero_constant_term_fails(self):
        x = MultiSeries.variable(0, 1, 3)
        with pytest.raises(ExprEvalError):
            x.reciprocal()

    def test_diff(self):
        x = MultiSeries.variable(0, 2, 4)
        t = MultiSeries.variable(1, 2, 4)
        s = x * x * t
        d = s.diff(0)
        assert d.coefficient((1, 1)) == 2.0

    def test_pow_negative(self):
        x = MultiSeries.variable(0, 1, 4)
        s = (1.0 + x) ** -2
        for k in range(5):
            assert np.isclose(s.coefficient((k,)), (-1.0) ** k * (k + 1))


# dict reference for the dense series: {exponent tuple: coefficient}, with
# the product and derivative the series had before its array form


def ref_mul(a, b, order):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            if sum(k1) + sum(k2) <= order:
                key = tuple(x + y for x, y in zip(k1, k2))
                out[key] = out.get(key, 0.0) + v1 * v2
    return out


def ref_diff(a, var):
    out = {}
    for k, v in a.items():
        if k[var]:
            key = list(k)
            key[var] -= 1
            out[tuple(key)] = v * k[var]
    return out


def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return out


def ref_scale(a, f):
    return {k: v * f for k, v in a.items()}


def ref_reciprocal(a, nvars, order):
    one = {(0,) * nvars: 1.0}
    c0 = a[(0,) * nvars]
    x = ref_add(a, {(0,) * nvars: -c0})
    term, acc = one, one
    for _ in range(order):
        term = ref_scale(ref_mul(term, x, order), -1.0 / c0)
        acc = ref_add(acc, term)
    return ref_scale(acc, 1.0 / c0)


def ref_pow(a, k, nvars, order):
    base = ref_reciprocal(a, nvars, order) if k < 0 else a
    acc = {(0,) * nvars: 1.0}
    for _ in range(abs(k)):
        acc = ref_mul(acc, base, order)
    return acc


def from_dict(d, nvars, order):
    s = MultiSeries(nvars, order)
    exps = s.layout.exps
    for key, v in d.items():
        s.c[np.flatnonzero((exps == key).all(axis=1))[0]] += v
    return s


def assert_matches(series, ref):
    got = series.coeffs
    assert all(sum(k) <= series.layout.order for k in got)
    scale = max([1.0] + [abs(v) for v in ref.values()])
    for k in set(got) | set(ref):
        assert abs(got.get(k, 0.0) - ref.get(k, 0.0)) <= 1e-12 * scale, k


@st.composite
def sparse_series(draw, nvars, order, unit_constant=False):
    """A dict series with a few terms; exponents are clipped so that the
    total degree stays within ``order``."""
    out = {}
    for _ in range(draw(st.integers(1, 8))):
        room, key = order, []
        for e in draw(st.lists(st.integers(0, order), min_size=nvars,
                               max_size=nvars)):
            key.append(min(e, room))
            room -= key[-1]
        out[tuple(key)] = draw(st.floats(-2.0, 2.0))
    if unit_constant:
        out[(0,) * nvars] = draw(st.sampled_from([-1.5, -1.0, 0.5, 1.25]))
    return out


SHAPES = [(1, 3), (2, 4), (3, 4), (5, 6)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dense_series_match_the_dict_reference(data):
    nvars, order = data.draw(st.sampled_from(SHAPES))
    a = data.draw(sparse_series(nvars, order, unit_constant=True))
    b = data.draw(sparse_series(nvars, order))
    sa, sb = from_dict(a, nvars, order), from_dict(b, nvars, order)
    assert_matches(sa * sb, ref_mul(a, b, order))
    var = data.draw(st.integers(0, nvars - 1))
    assert_matches(sb.diff(var), ref_diff(b, var))
    assert_matches(sa.reciprocal(), ref_reciprocal(a, nvars, order))
    k = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    assert_matches(sa ** k, ref_pow(a, k, nvars, order))


class TestLayout:
    def test_sizes_and_products_at_nine_variables(self):
        tracemalloc.start()
        try:
            lay = hydroflow._Layout(9, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (order + 1)^nvars table, even of bytes, would exceed this
        assert peak < 7 ** 9
        assert lay.size == 5005 and len(lay.left) == 134596
        assert len({tuple(e) for e in lay.exps.tolist()}) == lay.size
        assert np.all(np.diff(lay.deg) >= 0) and lay.deg[-1] == 6
        target = np.repeat(np.arange(lay.size),
                           np.diff(np.append(lay.starts, len(lay.left))))
        assert np.array_equal(lay.exps[lay.left] + lay.exps[lay.right],
                              lay.exps[target])

    def test_no_layout_is_built_at_import(self):
        saved = dict(vars(hydroflow))
        try:
            importlib.reload(hydroflow)
            assert hydroflow._layout.cache_info().currsize == 0
        finally:
            vars(hydroflow).clear()
            vars(hydroflow).update(saved)


class TestTaylorFlow:
    def test_constant_diag_transport(self):
        K = OperatorField.constant(np.diag([1.0, 2.0]))
        sol = taylor_flow([K], [[0, 1], [0, 1]], order=5)
        assert sol.coefficient(0, (1, 0)) == 1.0
        assert sol.coefficient(0, (0, 1)) == 1.0
        assert sol.coefficient(1, (0, 1)) == 2.0
        assert sum(abs(v) for s in sol.series for k, v in s.coeffs.items()
                   if sum(k) > 1) == 0.0

    def test_identity_translates(self):
        # u(x, t) = u0(x + t) to truncation order
        K = OperatorField.identity(1)
        coeffs = [2.0, -1.0, 0.5, 3.0]
        sol = taylor_flow([K], [coeffs], order=3)
        for k in range(4):
            for m in range(4 - k):
                want = coeffs[k + m] * math.comb(k + m, m)
                assert np.isclose(sol.coefficient(0, (k, m)), want)

    def test_demo4_compatibility(self):
        basis = demo4_constant_basis()
        sol = taylor_flow(basis.fields,
                          [[0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]],
                          order=4)
        assert not sol.generic_warning
        worst = max(flow_compatibility_residual(sol, i, j)
                    for i in range(4) for j in range(i + 1, 4))
        assert worst <= 1e-12

    def test_nonsymmetric_control_has_residual(self):
        K1, K2 = nonsymmetric_pair_fields()
        sol = taylor_flow([K1, K2], [[0, 1], [1, 1]], order=4)
        assert flow_compatibility_residual(sol, 0, 1) >= 1e-3

    def test_nonsymmetric_control_mismatch_at_degree_two(self):
        K1, K2 = nonsymmetric_pair_fields()
        sol = taylor_flow([K1, K2], [[0, 1], [1, 1]], order=2)
        assert flow_compatibility_residual(sol, 0, 1) == 1.0

    def test_non_finite_coefficient_fails(self):
        K1, K2 = nonsymmetric_pair_fields()
        sol = taylor_flow([K1, K2], [[0, 1], [1, 1]], order=3)
        sol.series[0].c[1] = np.nan
        assert np.isnan(flow_compatibility_residual(sol, 0, 1))

    def test_dual_family_flows_are_compatible(self):
        basis = OperatorBasis([
            OperatorField.identity(2),
            OperatorField.parse([["u1", "0"], ["0", "u2"]], 2),
        ])
        pts = sample_points(2, guarded_config(2, seed=21, count=5))
        family = DualFamily(basis, [1.0, 0.0])
        sol = taylor_flow(family.fields, [[1.0, 0.25], [2.0, 0.5]], order=4)
        assert flow_compatibility_residual(sol, 0, 1) <= 1e-9

    def test_x0_shift(self):
        K = OperatorField.identity(1)
        sol = taylor_flow([K], [[0.0, 0.0, 1.0]], order=3, x0=2.0)
        # u0(x) = x^2 about x0 = 2: constant term 4, slope 4
        assert np.isclose(sol.coefficient(0, (0, 0)), 4.0)
        assert np.isclose(sol.coefficient(0, (1, 0)), 4.0)

    def test_order_cap(self):
        K = OperatorField.identity(1)
        with pytest.raises(OpfrobError, match="cap"):
            taylor_flow([K], [[0, 1]], order=7)

    def test_degenerate_initial_curve_warns(self):
        K = OperatorField.identity(2)
        sol = taylor_flow([K], [[1.0], [1.0]], order=2)
        assert sol.generic_warning

    def test_compatibility_needs_order_two(self):
        K1, K2 = nonsymmetric_pair_fields()
        sol = taylor_flow([K1, K2], [[0, 1], [1, 1]], order=1)
        with pytest.raises(OpfrobError):
            flow_compatibility_residual(sol, 0, 1)

    def test_rational_field_series_evaluation(self):
        # field with a denominator: series evaluation goes through the
        # reciprocal; works away from the singular locus
        K = OperatorField.parse([["1/u1", "0"], ["0", "1"]], 2)
        sol = taylor_flow([K, OperatorField.identity(2)],
                          [[2.0, 1.0], [0.0, 1.0]], order=3)
        assert flow_compatibility_residual(sol, 0, 1) <= 1e-9


def series_point(base, nvars, order, seed):
    """Truncated series u_i = base_i + a linear and a quadratic part with
    seeded coefficients in [-0.3, 0.3]."""
    rng = np.random.default_rng(seed)
    t = [MultiSeries.variable(v, nvars, order) for v in range(nvars)]
    return [b + sum(float(c) * x for c, x in zip(rng.uniform(-0.3, 0.3,
                                                             nvars), t))
            + float(rng.uniform(-0.3, 0.3)) * t[0] * t[-1] for b in base]


def pair_basis():
    return OperatorBasis([OperatorField.identity(2),
                          OperatorField.parse([["u1", "0"], ["0", "u2"]], 2)])


SERIES_CASES = {
    # (basis, covector, constant terms, variables, order)
    "example52": (demo4_tilde_basis, [1.0, 0.0, 0.0, 0.0],
                  [0.6, -0.3, 0.5, 0.4], 5, 6),
    "pair": (pair_basis, [1.0, 0.3], [0.7, -0.4], 2, 4),
}


class TestSeriesDual:
    @pytest.mark.parametrize("case", sorted(SERIES_CASES))
    def test_equals_the_loop_dual(self, case):
        make, covector, base, nvars, order = SERIES_CASES[case]
        basis, seed = make(), 3
        point = series_point(base, nvars, order, seed)
        got = DualFamily(basis, covector, seed=seed).eval_generic(point)
        mats = basis.eval_generic(point)
        xi = well_conditioned_xi(value_array(mats), seed)
        want = loop_dual(mats, xi, covector)[3]
        got, want = point[0].dense(got), point[0].dense(want)
        assert got.shape == want.shape == (len(base),) * 3 + (
            point[0].layout.size,)
        assert np.max(np.abs(got - want)) \
            <= 1e-12 * (1.0 + np.max(np.abs(want)))

    def test_degenerate_form_names_the_covector(self):
        # with the covector (1, 0) the form is diag(1, -u1 u2)
        point = series_point([0.0, 0.5], 2, 3, 1)
        with pytest.raises(SingularMatrixError,
                           match=r"Frobenius form is degenerate for covector "
                                 r"\[1\.0, 0\.0\]"):
            DualFamily(pair_basis(), [1.0, 0.0]).eval_generic(point)

    def test_non_generic_constant_term(self):
        # at u1 = u2 the basis values Id, diag(u1, u2) are dependent
        point = series_point([0.5, 0.5], 2, 3, 1)
        with pytest.raises(GenericityError):
            DualFamily(pair_basis(), [1.0, 0.3]).eval_generic(point)
