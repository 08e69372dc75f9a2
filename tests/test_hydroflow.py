import importlib
import json
import math
import operator
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opfrob import hydroflow
from opfrob.cli import load_system_file, main as cli_main
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
from oracles import full_jet_rhs, full_taylor_flow, loop_dual, value_array

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


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
        # a coefficient sums its pairs by ascending left factor
        assert np.all(np.diff(lay.left)[target[1:] == target[:-1]] > 0)

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
        sol = taylor_flow([K1, K2], [[0, np.nan], [1, 1]], order=3)
        assert np.isnan(flow_compatibility_residual(sol, 0, 1))

    def test_overflow_is_quiet_and_fails(self):
        """A 1e308 curve coefficient overflows the jet to inf: no numpy
        warning (an error under this suite's settings), and a NaN residual,
        though every coefficient compared is equal."""
        fields = demo4_constant_basis().fields
        curve = [[0.1, 1, 0.3], [0.2, 1, 0.3], [0.3, 1, 0.3], [0.4, 1, 1e308]]
        sol = taylor_flow(fields, curve, order=4)
        assert not sol.is_finite() and np.isinf(sol.rhs).any()
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


# ---------------------------------------------------------------------------
# the level fill against the whole-product fill, bit for bit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def flow_series(tmp_path_factory):
    """The benchmark's flow-series input at a seed: (fields, initial curve,
    order), the analytic example52 fields at order 6."""
    @lru_cache(maxsize=None)
    def load(seed):
        workdir = tmp_path_factory.mktemp(f"flow-series-{seed}")
        workloads.prepare("flow-series", seed, workdir)
        sf = load_system_file(str(workdir / "flow-series.json"))
        return sf.basis_fields(), sf.initial_curve, sf.flow_order
    return load


def division_fields():
    return [OperatorField.parse([["u1/(2+u2)", "u2"],
                                 ["1", "u1^2/(3-u1)"]], 2),
            OperatorField.parse([["u2", "1/(1+u1^2)"], ["0", "u1*u2"]], 2)]


FILL_CASES = {
    # (fields, initial curve, order, x0)
    "rational": (lambda: [OperatorField.parse([["1/u1", "0"], ["0", "1"]], 2),
                          OperatorField.identity(2)],
                 [[2.0, 1.0], [0.0, 1.0]], 3, 0.0),
    "nonsymmetric-pair": (nonsymmetric_pair_fields, [[0, 1], [1, 1]], 4, 0.0),
    "dual-family": (lambda: DualFamily(pair_basis(), [1.0, 0.0]).fields,
                    [[1.0, 0.25], [2.0, 0.5]], 4, 0.0),
    "two-of-four-flows": (lambda: demo4_tilde_basis().fields[:2],
                          [[0.6, 0.2], [-0.3, 0.5], [0.5, -0.1], [0.4, 0.3]],
                          5, 0.0),
    "x0-shift": (nonsymmetric_pair_fields, [[0.2, 1.0, 0.5], [1.0, 1.0]], 4,
                 0.7),
}


def assert_fill_is_the_oracle(fields, curve, order, x0=0.0):
    """Every coefficient of the jet, and ``rhs`` (degrees below ``order``,
    zeros at ``order``), equal the whole-product fill's bit for bit."""
    sol = taylor_flow(fields, curve, order, x0=x0)
    U = full_taylor_flow(fields, curve, order, x0)
    assert np.stack([s.c for s in sol.series]).tobytes() == U.tobytes()
    rhs = full_jet_rhs(fields, U, order)
    assert sol.rhs.shape == rhs.shape
    assert sol.rhs.tobytes() == rhs.tobytes()


class TestLevelFill:
    @pytest.mark.parametrize("seed", [42, 7])
    def test_flow_series(self, flow_series, seed):
        assert_fill_is_the_oracle(*flow_series(seed))

    @pytest.mark.parametrize("case", sorted(FILL_CASES))
    def test_fields(self, case):
        make, curve, order, x0 = FILL_CASES[case]
        assert_fill_is_the_oracle(make(), curve, order, x0)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_orders(self, order):
        assert_fill_is_the_oracle(division_fields(),
                                  [[0.5, 1.0, 0.25], [0.3, -0.7]], order)

    def test_a_nan_coefficient_reaches_rhs_as_in_the_oracle(self):
        fields, curve = nonsymmetric_pair_fields(), [[0, np.nan], [1, 1]]
        sol = taylor_flow(fields, curve, 3)
        U = full_taylor_flow(fields, curve, 3)
        assert np.isnan(sol.rhs).any()
        assert sol.rhs.tobytes() == full_jet_rhs(fields, U, 3).tobytes()
        assert np.isnan(flow_compatibility_residual(sol, 0, 1))

    def test_products_gather_only_the_pairs_read(self, flow_series,
                                                 monkeypatch):
        """No product of ``taylor_flow`` is whole.  The initial curve's
        Horner products, one per curve coefficient, gather the 28 pairs of
        t-level 0, where u0(x0 + x) lives.  Level d's table holds the pairs
        of the t-levels below d at degrees below ``order``: 7,098 over the
        six levels, where whole products take 6 x 8,008.  Its series
        products gather all of it, the entries times u_x the sources' part.
        ``rhs``, filled by the levels, gathers nothing."""
        fields, curve, order = flow_series(42)
        lay = hydroflow._layout(1 + len(fields), order)
        gathered, mul = [], hydroflow._Layout.mul

        def counted(self, a, b, pairs=None):
            gathered.append(None if pairs is None else pairs[1])   # left
            return mul(self, a, b, pairs)

        monkeypatch.setattr(hydroflow._Layout, "mul", counted)
        sol = taylor_flow(fields, curve, order)
        assert all(left is not None for left in gathered)
        horner = sum(map(len, curve))
        assert len({id(left) for left in gathered[:horner]}) == 1
        assert {len(left) for left in gathered[:horner]} == {28}
        tables = {}     # a level's table of left factors -> pairs gathered
        for left in gathered[horner:]:
            table = left if left.base is None else left.base
            tables.setdefault(id(table), (len(table), set()))[1].add(
                len(left))
        sizes = [size for size, _ in tables.values()]
        assert sizes == [21, 141, 501, 1221, 2211, 3003]
        assert sum(sizes) == 7098 and len(lay.left) == 8008
        assert all(max(counts) == size and len(counts) <= 2
                   for size, counts in tables.values())
        gathered.clear()
        sol.rhs
        assert not gathered

    def test_peak_memory_within_the_oracle(self, flow_series):
        """The pair tables, each built at its level, keep the traced peak
        of the fill, ``rhs`` included, within that of the whole-product
        fill."""
        fields, curve, order = flow_series(42)
        taylor_flow(fields, curve, order).rhs      # the layout, cached

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        level = peak(lambda: taylor_flow(fields, curve, order).rhs)
        whole = peak(lambda: full_jet_rhs(
            fields, full_taylor_flow(fields, curve, order), order))
        assert level <= whole


def oracle_residual(fields, curve, order, i, j):
    """``flow_compatibility_residual`` of the whole-product fill."""
    rhs = full_jet_rhs(fields, full_taylor_flow(fields, curve, order), order)
    lay = hydroflow._layout(1 + len(fields), order)
    gap = lay.diff(rhs[j], 1 + i) - lay.diff(rhs[i], 1 + j)
    return float(np.max(np.abs(gap)[:, lay.deg <= order - 2], initial=0.0))


@pytest.mark.parametrize("seed, job", [(42, "flow"), (7, "flow"),
                                       (42, "flow-nonsymmetric-pair")])
def test_flow_command_reports_the_oracle_residuals(seed, job, tmp_path,
                                                   capsys):
    """``opfrob flow --json`` on the benchmark's flow-series files reports,
    for every pair of flows, the residual of the whole-product fill."""
    (argv,) = [j.argv for j in workloads.prepare(
        "flow-series", seed, tmp_path).jobs if j.id == job]
    code = cli_main(argv)
    checks = json.loads(capsys.readouterr().out)["checks"]
    sf = load_system_file(argv[1])
    fields = sf.basis_fields()
    pairs = [(i, j) for i in range(len(fields))
             for j in range(i + 1, len(fields))]
    assert code == (0 if job == "flow" else 1)
    assert [c["name"] for c in checks] == [
        f"flow_compatibility_{i + 1}_{j + 1}" for i, j in pairs]
    for check, (i, j) in zip(checks, pairs):
        assert check["max_residual"] == oracle_residual(
            fields, sf.initial_curve, sf.flow_order, i, j)


@pytest.mark.parametrize("nvars, order", [(1, 6), (3, 4), (5, 6)])
def test_pair_tables_give_the_whole_products_coefficients(nvars, order):
    """``mul`` over ``pairs_at(at)`` is the whole product at ``at``, bit
    for bit, NaN and inf included; an empty ``at`` gives no coefficient."""
    lay = hydroflow._layout(nvars, order)
    rng = np.random.default_rng(nvars)
    a, b = rng.uniform(-2.0, 2.0, (2, 3, lay.size))
    a[0, rng.integers(lay.size, size=2)] = np.nan
    a[1, rng.integers(lay.size, size=2)] = np.inf
    b[1:, rng.integers(lay.size, size=2)] = -np.inf
    tlevel = lay.exps[:, 1:].sum(axis=1)
    targets = [[lay.size // 2],                               # one
               np.flatnonzero(tlevel == min(1, nvars - 1)),   # a t-level
               np.flatnonzero(lay.deg < order),               # below order
               np.arange(1, lay.size, 2),
               rng.permutation(lay.size),                     # any order
               np.arange(lay.size)]
    with np.errstate(invalid="ignore"):     # inf - inf
        whole = [lay.mul(a, b), lay.mul(a[0], b[2])]
        for at in targets:
            at = np.asarray(at)
            pairs = lay.pairs_at(at)
            assert lay.mul(a, b, pairs).tobytes() \
                == whole[0][..., at].tobytes()
            assert lay.mul(a[0], b[2], pairs).tobytes() \
                == whole[1][at].tobytes()
    assert np.isnan(whole[0]).any() and np.isinf(whole[0]).any()
    at, left, right, starts = lay.pairs_at(np.array([], dtype=np.intp))
    assert len(at) == len(left) == len(right) == len(starts) == 0
    assert lay.mul(a, b, (at, left, right, starts)).shape == (3, 0)


# ---------------------------------------------------------------------------
# truncation at a lower set, a ring homomorphism
# ---------------------------------------------------------------------------

TRUNCATIONS = [(nvars, order, level) for nvars, order in [(1, 6), (3, 4),
                                                          (5, 6)]
               for level in range(order)]


def lower_set(lay, level):
    """The coefficients of t-level at most ``level`` below the order, the
    set at which ``taylor_flow``'s level ``level + 1`` runs its programs."""
    return np.flatnonzero((lay.exps[:, 1:].sum(axis=1) <= level)
                          & (lay.deg < lay.order))


@pytest.mark.parametrize("nvars, order, level", TRUNCATIONS)
def test_lower_sets_are_closed_under_divisors(nvars, order, level):
    lay = hydroflow._layout(nvars, order)
    inside = np.zeros(lay.size, dtype=bool)
    inside[lower_set(lay, level)] = True
    divides = (lay.exps[:, None] <= lay.exps[None]).all(axis=-1)
    assert inside[0] and not (divides[:, inside] & ~inside[:, None]).any()


SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, 5e-324]


def bits(c) -> bytes:
    """The bytes of c with every NaN the one quiet NaN.  The sign of a NaN
    made from two NaNs of opposite sign is the position's, not the
    operation's: numpy's elementwise loops keep one operand's NaN in their
    vector body and the other's in their scalar tail, so the same pair of
    coefficients gives either sign by where it lands in a gathered array."""
    return np.where(np.isnan(c), np.nan, c).tobytes()


def outcome(op, *args):
    """The coefficients of op(*args), or None at a zero constant term."""
    try:
        return op(*args).c
    except ExprEvalError:
        return None


@pytest.mark.parametrize("nvars, order, level", TRUNCATIONS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-2, 4),
       specials=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 461),
                                   st.sampled_from(SPECIALS)), max_size=4))
def test_truncation_is_a_ring_homomorphism(nvars, order, level, seed, k,
                                           specials):
    """``*``, ``reciprocal`` and ``**`` of series truncated at a lower set
    S, in any order, are the whole operations at S bit for bit, inf and
    signed zeros included, NaN where NaN (see ``bits``), and the results
    hold zeros off S (a reciprocal, whose last step scales by 1 / c0,
    where 1 / c0 is finite)."""
    rng = np.random.default_rng(seed)
    whole = [MultiSeries(nvars, order) for _ in range(2)]
    lay = whole[0].layout
    for s in whole:
        s.c[:] = rng.uniform(-2.0, 2.0, lay.size)
    for which, at, value in specials:
        whole[which].c[at % lay.size] = value
    S = rng.permutation(lower_set(lay, level))
    off = np.setdiff1d(np.arange(lay.size), S)
    pairs = lay.pairs_at(S)
    a, b = (s.truncated(pairs) for s in whole)
    ops = [(operator.mul, (b,)), (MultiSeries.reciprocal, ()),
           (operator.pow, (k,))]
    with np.errstate(all="ignore"):
        c0_inv = 1.0 / np.float64(a.c[0])
        for op, args in ops:
            want = outcome(op, whole[0], *[whole[1] if x is b else x
                                           for x in args])
            got = outcome(op, a, *args)
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert bits(got[S]) == bits(want[S])
            if op is not MultiSeries.reciprocal or np.isfinite(c0_inv):
                assert np.all(got[off] == 0.0)


def test_mixed_truncations_fail_loudly():
    """Series truncated at different sets, or one of them whole, do not
    add or multiply, as series of different layouts do not."""
    x = MultiSeries.variable(0, 3, 4)
    lay = x.layout
    a, b = (x.truncated(lay.pairs_at(lower_set(lay, level)))
            for level in (0, 1))
    for op in (operator.add, operator.sub, operator.mul):
        for u, v in ((a, b), (a, x), (x, b)):
            with pytest.raises(ValueError, match="different sets"):
                op(u, v)
        with pytest.raises(ValueError, match="shape mismatch"):
            op(x, MultiSeries.variable(0, 3, 3))
    assert (a * a).trunc is a.trunc and (a + 1.0).trunc is a.trunc
