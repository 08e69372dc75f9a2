from collections import Counter

import numpy as np
import pytest

from opfrob.errors import NonCommutingError, OneFormNotClosedError
from opfrob.exprs import parse_expr
from opfrob.fields import OneFormField, OperatorField
from opfrob.fixtures import (
    demo4_constant_basis,
    demo4_matrices,
    demo4_tilde_basis,
    nonsymmetric_pair_fields,
    run_builtin,
)
from opfrob.frobalg import OperatorBasis, stacked_jets
from opfrob.numkit import batch_max_abs
from opfrob.opfields import (
    DualFamily,
    bracket,
    bracket_from_jets,
    bracket_residuals,
    conservation_law_check,
    dualize_family,
    is_strong_symmetry,
    is_symmetry,
    nijenhuis_torsion_report,
    symmetry_coefficient_check,
)
from opfrob.sampling import SampleConfig, sample_points

from helpers import guarded_config

CFG10 = SampleConfig(seed=2, count=10)


def diag_field(*texts):
    n = len(texts)
    grid = [["0"] * n for _ in range(n)]
    for i, t in enumerate(texts):
        grid[i][i] = t
    return OperatorField.parse(grid, n)


def random_poly_field(n, seed, degree=2):
    rng = np.random.default_rng(seed)
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = ["{:.3f}".format(rng.uniform(-1, 1))]
            for _ in range(degree):
                v = int(rng.integers(1, n + 1))
                terms.append("{:.3f}*u{}^{}".format(
                    rng.uniform(-1, 1), v, int(rng.integers(1, 3))))
            row.append(" + ".join(terms))
        grid.append(row)
    return OperatorField.parse(grid, n)


class TestBracket:
    def test_identity_is_strong_symmetry_of_anything(self):
        n = 3
        L = random_poly_field(n, 7)
        I = OperatorField.identity(n)
        pts = sample_points(n, CFG10)
        for u in pts:
            T = bracket(I, L, u)
            assert np.max(np.abs(T)) <= 1e-12

    def test_constant_fields_have_zero_bracket(self):
        A = OperatorField.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        B = OperatorField.constant(np.array([[5.0, 2.0], [3.0, 0.0]]))
        # these do not commute, so restrict to a commuting constant pair
        C = OperatorField.constant(np.array([[2.0, 0.0], [0.0, 2.0]]))
        T = bracket(A, C, [0.3, 0.4])
        assert np.max(np.abs(T)) == 0.0
        with pytest.raises(NonCommutingError):
            bracket(A, B, [0.3, 0.4])

    def test_non_commuting_error_names_the_first_point(self):
        # [diag(u1, 0), E12] = u1 E12 with residual |u1| / (1 + |u1|):
        # zero at the first point, largest at the last
        L = diag_field("u1", "0")
        N = OperatorField.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonCommutingError) as err:
            is_symmetry(L, N, [[0.0, 0.3], [0.1, 0.2], [2.0, 0.5]])
        assert err.value.index == 1
        assert str(err.value) == ("operators do not commute at [0.1, 0.2] "
                                  "(residual 9.091e-02)")

    def test_bracket_table_names_the_first_point_of_any_pair(self):
        N = OperatorField.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
        P = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0]])
        V, dV = stacked_jets(
            [N, diag_field("u1", "0"), diag_field("0", "u2")], P)
        with pytest.raises(NonCommutingError) as err:
            bracket_residuals(V, dV, [(0, 1), (0, 2)], P, 1e-9, False)
        assert err.value.index == 1
        assert "at [0.0, 0.5] " in str(err.value)

    def test_hand_value_diag_u2_u1(self):
        L = diag_field("u2", "u1")
        T = bracket(L, L, [1.0, 2.0])
        # torsion component T^1_{12} = u2 - u1
        assert np.isclose(T[0, 0, 1], 1.0, atol=1e-12)
        assert np.isclose(T[0, 1, 0], -1.0, atol=1e-12)

    def test_structural_antisymmetry_with_self(self):
        M = random_poly_field(3, 13)
        u = [0.4, -0.2, 0.9]
        T = bracket(M, M, u)
        assert np.array_equal(T, -T.transpose(0, 2, 1))

    def test_bilinearity_over_constants(self):
        n = 2
        L = diag_field("u1", "u2")
        M1 = diag_field("u1^2", "u2^2")
        M2 = diag_field("1+u1", "1+u2")
        c1, c2 = 0.7, -1.3
        combo = M1.scaled(c1) + M2.scaled(c2)
        pts = sample_points(n, CFG10)
        for u in pts:
            T = bracket(L, combo, u)
            T1 = bracket(L, M1, u)
            T2 = bracket(L, M2, u)
            assert np.max(np.abs(T - c1 * T1 - c2 * T2)) <= 1e-9

    def test_against_fd_oracle(self):
        from oracles import fd_bracket_tensor
        n = 2
        L = OperatorField.parse([["u1", "u2^2"], ["0", "u1+u2"]], n)
        M = OperatorField.parse([["u1", "0"], ["0", "u1"]], n)
        # M is a scalar field times Id, commutes with everything
        pts = sample_points(n, SampleConfig(seed=4, count=5))
        for u in pts:
            T = bracket(M, M, u)
            T_fd = fd_bracket_tensor(M.eval, M.eval, u)
            assert np.max(np.abs(T - T_fd)) <= 1e-6 * (1 + np.max(np.abs(T)))


class TestSymmetryChecks:
    def test_identity_always_passes(self):
        L = random_poly_field(3, 17)
        pts = sample_points(3, CFG10)
        c = is_symmetry(OperatorField.identity(3), L, pts)
        assert c.passed

    def test_demo4_pairs_pass(self):
        basis = demo4_constant_basis()
        pts = sample_points(4, CFG10)
        for i in range(4):
            for j in range(i + 1, 4):
                assert is_symmetry(basis.fields[i], basis.fields[j], pts).passed

    def test_nonsymmetric_control_fails(self):
        K1, K2 = nonsymmetric_pair_fields()
        pts = sample_points(2, CFG10)
        assert not is_symmetry(K1, K2, pts).passed

    def test_torsion_of_tilde_fields_vanishes(self):
        basis = demo4_tilde_basis()
        pts = sample_points(4, CFG10)
        for f in basis.fields:
            c = nijenhuis_torsion_report(f, pts)
            assert c.passed and c.residual <= 1e-9

    def test_torsion_of_control_is_nonzero(self):
        _, K2 = nonsymmetric_pair_fields()
        pts = sample_points(2, CFG10)
        assert not nijenhuis_torsion_report(K2, pts).passed

    def test_diag_u1_u2_is_nijenhuis(self):
        assert nijenhuis_torsion_report(diag_field("u1", "u2"),
                                        sample_points(2, CFG10)).passed

    @pytest.mark.parametrize("scale", [1.0, 1e307, 1e308])
    def test_an_overflowed_scale_reads_nan(self, scale):
        # K1 of the nonsymmetric pair scaled: at 1e308 its scale max |V| +
        # max |dV| overflows at most points, and the pair reads NaN there, a
        # FAIL, where |T| / inf read 0; a finite denominator divides as
        # before, and numpy's warnings are errors in this suite
        K1, K2 = nonsymmetric_pair_fields()
        P = np.asarray(sample_points(2, CFG10))
        V, dV = stacked_jets([K1, K2], P)
        V[:, 0] *= scale
        dV[:, 0] *= scale
        for sym in (True, False):
            got = bracket_residuals(V, dV, [(0, 1)], P, 1e-9, sym)[0]
            T = bracket_from_jets(V[:, 0], dV[:, 0], V[:, 1], dV[:, 1])
            T = T + T.swapaxes(-1, -2) if sym else T
            with np.errstate(over="ignore"):
                den = 1.0 + np.prod([batch_max_abs(V[:, k])
                                     + batch_max_abs(dV[:, k])
                                     for k in (0, 1)], axis=0)
            want = np.where(np.isfinite(den), batch_max_abs(T) / den, np.nan)
            assert got.tobytes() == want.tobytes()
            assert np.isnan(got).any() == (scale == 1e308)
            assert np.nanmax(got) > 0.1
        grid = [[f"{scale!r}*u1", "0"], ["0", f"{scale!r}*u2"]]
        c = is_symmetry(OperatorField.parse(grid, 2), K2, P)
        assert not c.passed and np.isnan(c.residual) == (scale == 1e308)

    def test_no_point_fails_instead_of_raising(self):
        K1, K2 = nonsymmetric_pair_fields()
        for c in (is_symmetry(K1, K2, []), is_strong_symmetry(K1, K2, []),
                  nijenhuis_torsion_report(K2, [])):
            assert not c.passed and c.samples == 0
            assert c.detail == "no point evaluated"


def test_example52_analytic_evaluates_each_field_once(monkeypatch):
    """The four torsions and six pairwise brackets of the analytic example52
    builtin come from one bracket table."""
    calls = Counter()
    clean = OperatorField.batch_jet_arrays

    def counted(self, points, *args):
        calls[id(self)] += 1
        return clean(self, points, *args)

    monkeypatch.setattr(OperatorField, "batch_jet_arrays", counted)
    report = run_builtin("example52", SampleConfig(seed=42, count=10),
                         "analytic")
    assert report.passed
    assert sorted(calls.values()) == [1, 1, 1, 1]


class TestConservationLaws:
    def test_identity_pullback(self):
        alpha = OneFormField.constant([1.0, 0.0])
        c = conservation_law_check(OperatorField.identity(2), alpha,
                                   sample_points(2, CFG10))
        assert c.passed

    def test_demo4_du4(self):
        basis = demo4_constant_basis()
        alpha = OneFormField.constant([0.0, 0.0, 0.0, 1.0])
        pts = sample_points(4, CFG10)
        for f in basis.fields:
            assert conservation_law_check(f, alpha, pts).passed

    def test_curl_failure(self):
        M = diag_field("u2", "u1")
        alpha = OneFormField.constant([1.0, 0.0])
        c = conservation_law_check(M, alpha, sample_points(2, CFG10))
        assert not c.passed

    def test_non_closed_alpha_is_an_error(self):
        alpha = OneFormField.parse(["u2", "0"], 2)
        with pytest.raises(OneFormNotClosedError):
            conservation_law_check(OperatorField.identity(2), alpha,
                                   sample_points(2, CFG10))

    def test_common_laws_force_symmetry(self):
        # two commuting fields with n independent common conservation laws
        # are symmetries of each other; realized on diagonal and triangular
        # fixtures carrying du1, du2 as common laws
        pts = sample_points(2, guarded_config(2, seed=5, count=10))
        for second in (diag_field("u1", "u2"),
                       OperatorField.parse([["u1", "0"], ["u2", "u1"]], 2)):
            fields = [OperatorField.identity(2), second]
            for alpha in (OneFormField.constant([1.0, 0.0]),
                          OneFormField.constant([0.0, 1.0])):
                for f in fields:
                    assert conservation_law_check(f, alpha, pts).passed
            assert is_symmetry(fields[0], fields[1], pts).passed


class TestDualizeFamily:
    def test_diag_pair_dual_values(self):
        basis = OperatorBasis([OperatorField.identity(2),
                               diag_field("u1", "u2")])
        pts = sample_points(2, guarded_config(2, seed=6, count=10))
        family, report = dualize_family(basis, [1.0, 0.0], pts)
        assert report.passed
        for u in pts:
            M2 = family.eval(u)[1]
            want = np.diag([-1.0 / u[1], -1.0 / u[0]])
            assert np.max(np.abs(M2 - want)) <= 1e-9 * (1 + np.max(np.abs(want)))

    def test_companion_pair_value(self):
        L = OperatorField.parse([["u1", "1"], ["u2", "0"]], 2)
        basis = OperatorBasis([OperatorField.identity(2), L])
        family = DualFamily(basis, [1.0, 0.0])
        M2 = family.eval([1.0, 2.0])[1]
        assert np.allclose(M2, [[0.5, 0.5], [1.0, 0.0]], atol=1e-12)

    def test_trivial_one_dim(self):
        basis = OperatorBasis.from_matrices([np.eye(1)])
        family, report = dualize_family(basis, [1.0], sample_points(1, CFG10))
        assert report.passed
        assert np.allclose(family.eval([0.3])[0], np.eye(1))

    def test_nan_partials_in_a_dual_field_fail(self):
        basis = OperatorBasis([OperatorField.identity(2),
                               diag_field("u1", "u2")])
        pts = sample_points(2, guarded_config(2, seed=6, count=5))
        family = DualFamily(basis, [1.0, 0.0])
        clean = family.jet_data

        def poisoned(points):
            return self._poisoned(clean(points), points, pts[2])

        family.jet_data = poisoned
        for check in (is_symmetry, is_strong_symmetry):
            c = check(family.field(0), family.field(1), pts)
            assert not c.passed
            assert np.isnan(c.residual)

    @staticmethod
    def _poisoned(jets, points, bad_point):
        """The stacked jets with a NaN partial of the first field at every
        row of ``points`` equal to ``bad_point``."""
        val, der = jets
        bad = np.all(np.asarray(points) == bad_point, axis=1)
        der = der.copy()
        der[bad, 0, 0, 0, 0] = np.nan
        return val, der

    @classmethod
    def _poison_dual_partials(cls, monkeypatch, bad_point):
        """Every DualFamily returns a NaN partial of its first field at
        ``bad_point``."""
        clean = DualFamily.jet_data

        def poisoned(self, points, *args):
            return cls._poisoned(clean(self, points, *args), points,
                                 bad_point)

        monkeypatch.setattr(DualFamily, "jet_data", poisoned)

    def test_nan_partials_fail_the_dual_mutual_symmetries(self, monkeypatch):
        basis = OperatorBasis([OperatorField.identity(2),
                               diag_field("u1", "u2")])
        pts = sample_points(2, guarded_config(2, seed=6, count=5))
        self._poison_dual_partials(monkeypatch, pts[2])
        _, report = dualize_family(basis, [1.0, 0.0], pts,
                                   check_inputs=False)
        (c,) = report.checks
        assert c.name == "dual_mutual_symmetries"
        assert not c.passed
        assert np.isnan(c.residual)
        assert c.worst_point == list(pts[2])

    def test_nan_partials_fail_the_conservation_law(self, monkeypatch):
        basis = OperatorBasis([OperatorField.identity(2),
                               diag_field("u1", "u2")])
        pts = sample_points(2, guarded_config(2, seed=6, count=5))
        self._poison_dual_partials(monkeypatch, pts[2])
        family = DualFamily(basis, [1.0, 0.0])
        c = conservation_law_check(family.field(0),
                                   OneFormField.parse(["1", "0"], 2), pts)
        assert not c.passed
        assert np.isnan(c.residual)
        assert c.samples == 5

    def test_degenerate_form_counts_the_points_reached(self):
        # covector (1, 0): the form diag(1, -u1 u2) is degenerate on u1 = 0
        basis = OperatorBasis([OperatorField.identity(2),
                               diag_field("u1", "u2")])
        pts = sample_points(2, guarded_config(2, seed=6, count=5))
        P = np.vstack([pts[:2], [[0.0, 0.5]], pts[2:]])
        _, report = dualize_family(basis, [1.0, 0.0], P)
        c = report.checks[-1]
        assert c.name == "dual_mutual_symmetries" and not c.passed
        assert c.samples == 3 and c.worst_point == [0.0, 0.5]

    def test_error_naming_no_point_counts_none(self):
        basis = OperatorBasis([OperatorField.identity(2),
                               diag_field("1/u1", "u2")])
        pts = sample_points(2, guarded_config(2, seed=6, count=5))
        P = np.vstack([pts[:2], [[0.0, 0.5]], pts[2:]])
        _, report = dualize_family(basis, [1.0, 0.0], P, check_inputs=False)
        (c,) = report.checks
        assert not c.passed and "division by zero" in c.detail
        assert c.samples == 0 and c.worst_point is None

    def test_theorem_conclusion_on_demo4(self):
        basis = demo4_constant_basis()
        pts = sample_points(4, CFG10)
        family, report = dualize_family(basis, [0.0, 0.0, 0.0, 1.0], pts)
        assert report.passed
        duals = family.eval(np.zeros(4))
        M1, M2, M3, M4 = demo4_matrices()
        for got, want in zip(duals, [M4, M2, M3, M1]):
            assert np.allclose(got, want, atol=1e-12)


class TestSymmetryCoefficients:
    def test_constant_coefficients_pass(self):
        basis = demo4_constant_basis()
        h = [parse_expr(s, 4) for s in ("1", "2", "0", "-3")]
        assert symmetry_coefficient_check(
            basis, h, sample_points(4, CFG10)).passed

    def test_flat_coordinates_give_canonical_symmetry(self):
        basis = demo4_constant_basis()
        h = [parse_expr(f"u{i}", 4) for i in (1, 2, 3, 4)]
        c = symmetry_coefficient_check(basis, h, sample_points(4, CFG10))
        assert c.passed

    def test_failing_coefficients(self):
        basis = OperatorBasis([OperatorField.identity(2),
                               diag_field("u1", "u2")])
        h = [parse_expr("u2", 2), parse_expr("0", 2)]
        pts = sample_points(2, guarded_config(2, seed=8, count=10))
        assert not symmetry_coefficient_check(basis, h, pts).passed

    def test_square_of_diag_is_common_symmetry(self):
        # D^2 = -u1*u2*Id + (u1+u2)*D satisfies the coefficient identity
        basis = OperatorBasis([OperatorField.identity(2),
                               diag_field("u1", "u2")])
        h = [parse_expr("-u1*u2", 2), parse_expr("u1+u2", 2)]
        pts = sample_points(2, guarded_config(2, seed=9, count=10))
        assert symmetry_coefficient_check(basis, h, pts).passed

    def test_conservation_crosscheck_of_dual(self):
        # when the coefficient identity holds, dh with h = a_s h^s is a
        # common conservation law of the dual family and (M^i)^* dh = dh^i
        basis = OperatorBasis([OperatorField.identity(2),
                               diag_field("u1", "u2")])
        a = [1.0, 0.0]
        h_exprs = [parse_expr("-u1*u2", 2), parse_expr("u1+u2", 2)]
        pts = sample_points(2, guarded_config(2, seed=10, count=10))
        family = DualFamily(basis, a)
        # h = a_s h^s = -u1*u2; dh = (-u2, -u1)
        halpha = OneFormField.parse(["-u2", "-u1"], 2)
        for i in range(2):
            assert conservation_law_check(family.field(i), halpha, pts).passed
        hform = OneFormField(h_exprs)
        for u in pts:
            duals = family.eval(u)
            dh_val = halpha.eval(u)
            _, (dh_all,) = hform.batch_jet_arrays([u])  # rows: grad h^j
            for i in range(2):
                pullback = dh_val @ duals[i]
                assert np.max(np.abs(pullback - dh_all[i])) <= 1e-8
