import json
from collections import Counter

import numpy as np
import pytest

from opfrob.errors import OpfrobError
from opfrob.exprs import BinOp, Const, Expression
from opfrob.fields import OperatorField
from opfrob.frobalg import OperatorBasis
from opfrob.fixtures import (demo4_flat_basis, demo4_matrices,
                             demo4_polynomial_tuples, emit_builtin,
                             segre_algebra)
from opfrob.opfields import conservation_law_check, is_strong_symmetry
from opfrob.fields import OneFormField
from opfrob.sampling import SampleConfig, sample_points
from opfrob.symalg import (
    FlatBasis,
    analytic_symmetry,
    canonical_symmetry_U,
    sym_membership,
)

from helpers import run_opfrob

CFG = SampleConfig(seed=3, count=12)
E1 = np.array([1.0, 0.0])


def nilpotent_flat():
    N = np.zeros((2, 2)); N[1, 0] = 1.0
    return FlatBasis([np.eye(2), N], xi=E1)


class TestFlatBasis:
    def test_demo4_valid(self):
        flat = demo4_flat_basis()
        assert flat.dimension == 4

    def test_wrong_xi_rejected(self):
        with pytest.raises(OpfrobError, match="normalized flat form"):
            FlatBasis(demo4_matrices(), xi=np.array([0.0, 0.0, 0.0, 1.0]))

    def test_a_normalization_within_tol_is_accepted(self):
        # M xi = 1 + 8e-10 passes the normalization at tol 1e-9; reading a
        # off M M xi would leave that error in the closure residual
        flat = FlatBasis([np.array([[2.0]])], xi=np.array([0.5000000004]))
        assert flat.structure.shape == (1, 1, 1)
        assert abs(flat.structure[0, 0, 0] - 2.0) < 1e-15

    def test_noncommuting_rejected(self):
        # normalization M^i e1 = e_i holds but M^2, M^3 do not commute
        M1 = np.eye(3)
        M2 = np.zeros((3, 3)); M2[1, 0] = 1.0; M2[2, 1] = 1.0
        M3 = np.zeros((3, 3)); M3[2, 0] = 1.0; M3[0, 1] = 1.0
        with pytest.raises(OpfrobError, match="commute"):
            FlatBasis([M1, M2, M3], xi=np.array([1.0, 0.0, 0.0]))


class TestCanonicalSymmetry:
    def test_demo4_pattern(self):
        U = canonical_symmetry_U(demo4_flat_basis())
        u = [1.5, -2.0, 0.5, 3.0]
        want = np.array([
            [1.5, 0.0, 0.0, 0.0],
            [-2.0, 1.5, 0.0, 0.0],
            [0.5, 0.0, 1.5, 0.0],
            [3.0, -2.0, 0.5, 1.5],
        ])
        assert np.allclose(U.eval(u), want)

    def test_one_dim(self):
        flat = FlatBasis([np.eye(1)], xi=np.array([1.0]))
        U = canonical_symmetry_U(flat)
        assert np.allclose(U.eval([2.5]), [[2.5]])

    def test_nilpotent_pair(self):
        U = canonical_symmetry_U(nilpotent_flat())
        assert np.allclose(U.eval([1.0, 2.0]), [[1.0, 0.0], [2.0, 1.0]])

    def test_is_strong_symmetry_of_basis(self):
        flat = demo4_flat_basis()
        U = canonical_symmetry_U(flat)
        basis = flat.operator_basis()
        pts = sample_points(4, CFG)
        for f in basis.fields:
            assert is_strong_symmetry(U, f, pts).passed

    def test_restriction_to_ray_is_scalar(self):
        # U(t*xi) = t * Id along the distinguished ray
        flat = demo4_flat_basis()
        U = canonical_symmetry_U(flat)
        for t in np.linspace(-2.0, 2.0, 9):
            val = U.eval(t * flat.xi)
            assert np.max(np.abs(val - t * np.eye(4))) <= 1e-12


class TestAnalyticSymmetry:
    def test_unit_tuple_gives_identity(self):
        flat = demo4_flat_basis()
        M = analytic_symmetry(flat, [[1], [], [], []])
        assert np.allclose(M.eval([0.3, 0.1, -0.2, 0.7]), np.eye(4))

    def test_linear_tuple_gives_U(self):
        flat = demo4_flat_basis()
        M = analytic_symmetry(flat, [[0, 1], [], [], []])
        U = canonical_symmetry_U(flat)
        u = [0.4, -1.2, 2.0, 0.9]
        assert np.allclose(M.eval(u), U.eval(u))

    def test_square_tuple_gives_U_squared(self):
        flat = demo4_flat_basis()
        M = analytic_symmetry(flat, [[0, 0, 1], [], [], []])
        U = canonical_symmetry_U(flat)
        u = [0.4, -1.2, 2.0, 0.9]
        Uv = U.eval(u)
        assert np.allclose(M.eval(u), Uv @ Uv)
        u1, u2, u3, u4 = u
        want = np.array([
            [u1**2, 0, 0, 0],
            [2*u1*u2, u1**2, 0, 0],
            [2*u1*u3, 0, u1**2, 0],
            [u2**2 + u3**2 + 2*u1*u4, 2*u1*u2, 2*u1*u3, u1**2],
        ])
        assert np.allclose(M.eval(u), want)

    def test_second_slot_tuple(self):
        flat = demo4_flat_basis()
        M = analytic_symmetry(flat, [[], [0, 1], [], []])
        u = [0.4, -1.2, 2.0, 0.9]
        u1, u2 = u[0], u[1]
        want = np.zeros((4, 4))
        want[1, 0] = u1
        want[3, 0] = u2
        want[3, 1] = u1
        assert np.allclose(M.eval(u), want)

    def test_general_element_shape(self):
        # arbitrary polynomial tuple stays lower-triangular with equal
        # diagonal entries (the shape of the symmetry algebra)
        flat = demo4_flat_basis()
        rng = np.random.default_rng(0)
        tup = [list(rng.uniform(-1, 1, 4)) for _ in range(4)]
        M = analytic_symmetry(flat, tup)
        v = M.eval([0.3, 0.8, -0.5, 0.2])
        assert np.max(np.abs(np.triu(v, 1))) <= 1e-12
        assert np.allclose(np.diag(v), v[0, 0])


def unfolded_arithmetic(monkeypatch):
    """Make the Expression dunders build every BinOp, unfolded."""
    def raw(op, reflected):
        def build(self, other):
            other = Const(other) if isinstance(other, (int, float)) else other
            return BinOp(op, other, self) if reflected else \
                BinOp(op, self, other)
        return build
    for op, name in zip("+-*/", ("add", "sub", "mul", "truediv")):
        monkeypatch.setattr(Expression, f"__{name}__", raw(op, False))
        monkeypatch.setattr(Expression, f"__r{name}__", raw(op, True))


@pytest.mark.parametrize("blocks", [None, (2, 1), (3,), (1, 1, 1, 1)])
def test_folded_fields_evaluate_as_unfolded_ones(blocks, monkeypatch):
    """Folding drops only exact zero and unit terms, so the folded fields
    give the unfolded ones' values and partials at sampled points (equal
    as floats: a dropped zero term can only change the sign of a zero)."""
    if blocks is None:
        flat, tuples = demo4_flat_basis(), demo4_polynomial_tuples()
    else:
        matrices, _, unit = segre_algebra(list(blocks))
        flat, n = FlatBasis(matrices, unit), len(matrices)
        tuples = [[[1, 0.25 * i, 0, -2][:2 + i % 3] if j == i else []
                   for j in range(n)] for i in range(n)]
    folded = [analytic_symmetry(flat, t) for t in tuples]
    with monkeypatch.context() as m:
        unfolded_arithmetic(m)
        unfolded = [analytic_symmetry(flat, t) for t in tuples]
    P = sample_points(flat.dimension, SampleConfig(seed=5, count=50))
    for f, g in zip(folded, unfolded):
        assert len(f.program.code) < len(g.program.code)
        for a, b in zip(f.batch_jet_arrays(P), g.batch_jet_arrays(P)):
            assert np.array_equal(a, b)
        assert np.array_equal(f.batch_jet_arrays(P, False)[0],
                              g.batch_jet_arrays(P)[0])


class TestMembership:
    def test_identity_member(self):
        flat = demo4_flat_basis()
        basis = flat.operator_basis()
        rep = sym_membership(basis, OperatorField.identity(4),
                             sample_points(4, CFG))
        assert rep.passed

    def test_constructed_member(self):
        flat = demo4_flat_basis()
        basis = flat.operator_basis()
        M = analytic_symmetry(flat, [[], [0, 1], [], []])
        rep = sym_membership(basis, M, sample_points(4, CFG))
        assert rep.passed

    def test_candidate_and_basis_are_evaluated_once(self, monkeypatch):
        calls = Counter()
        clean = OperatorField.batch_jet_arrays

        def counted(self, points, *partials):
            calls[id(self)] += 1
            return clean(self, points, *partials)

        flat = demo4_flat_basis()
        basis = flat.operator_basis()
        M = analytic_symmetry(flat, [[], [0, 1], [], []])
        monkeypatch.setattr(OperatorField, "batch_jet_arrays", counted)
        assert sym_membership(basis, M, sample_points(4, CFG)).passed
        assert calls == {id(f): 1 for f in (M, *basis.fields)}

    def test_non_commuting_basis_counts_the_points_reached(self):
        # A = diag(1, -1) and B = [[0, 1], [1, 0]] anticommute; the
        # candidate A decomposes exactly but fails to commute with B at
        # the first point
        A, B = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        pts = sample_points(2, CFG)
        rep = sym_membership(OperatorBasis.from_matrices([A, B]),
                             OperatorField.constant(A), pts)
        decomposition, strong = rep.checks
        assert decomposition.passed and not strong.passed
        assert strong.samples == 1 and strong.worst_point == list(pts[0])
        assert strong.detail.startswith("operators do not commute at ")

    def test_padded_diag_fails(self):
        flat = demo4_flat_basis()
        basis = flat.operator_basis()
        grid = [["u2", "0", "0", "0"], ["0", "u1", "0", "0"],
                ["0", "0", "0", "0"], ["0", "0", "0", "0"]]
        rep = sym_membership(basis, OperatorField.parse(grid, 4),
                             sample_points(4, CFG))
        assert not rep.passed

    @pytest.mark.parametrize("seed", range(5))
    def test_products_of_members_are_members(self, seed):
        flat = demo4_flat_basis()
        basis = flat.operator_basis()
        rng = np.random.default_rng(200 + seed)
        tup_f = [list(np.round(rng.uniform(-1, 1, 3), 3)) for _ in range(4)]
        tup_g = [list(np.round(rng.uniform(-1, 1, 3), 3)) for _ in range(4)]
        F = analytic_symmetry(flat, tup_f)
        G = analytic_symmetry(flat, tup_g)
        rep = sym_membership(basis, F @ G, sample_points(4, CFG))
        assert rep.passed

    def test_common_conservation_laws_extend_to_members(self):
        flat = demo4_flat_basis()
        alpha = OneFormField.constant([0.0, 0.0, 0.0, 1.0])
        pts = sample_points(4, CFG)
        rng = np.random.default_rng(77)
        for _ in range(3):
            tup = [list(np.round(rng.uniform(-1, 1, 3), 3)) for _ in range(4)]
            M = analytic_symmetry(flat, tup)
            assert conservation_law_check(M, alpha, pts).passed


def test_degree_300_polynomial_is_no_recursion_error(tmp_path):
    """Horner at degree 300 builds entry trees about 1,500 levels deep;
    compiling and running their programs never recurses."""
    doc = emit_builtin("example52")
    doc["polynomials"] = [[1] * 301, [], [], []]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_opfrob("symcheck", path, "--samples", "5")
    assert (code, err) == (0, "")
    assert "-- 2 checks: OK" in out
