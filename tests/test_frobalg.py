import numpy as np
import pytest

from opfrob.errors import GenericityError, SingularMatrixError
from opfrob.fields import OperatorField
from opfrob.fixtures import (
    centraliser_jordan_matrices,
    demo4_constant_basis,
    demo4_matrices,
    jordan_symmetry_field,
    not_closed_matrices,
)
from opfrob.frobalg import (
    OperatorBasis,
    algebra_report,
    check_generic_covector,
    check_generic_vector,
    dual_basis,
    find_well_conditioned_vector,
    is_generic_covector,
    is_generic_vector,
    point_data,
    structure_constants,
    structure_constants_at,
    well_conditioned_xi,
)
from opfrob.numkit import mat_solve, split_jet_matrix
from opfrob.sampling import SampleConfig, sample_points

from helpers import admissible_covector, guarded_config, random_power_basis
from oracles import (
    loop_well_conditioned_vector,
    lstsq_structure_constants,
    pairwise_structure_constants,
)

ORIGIN4 = np.zeros(4)


def nilpotent_pair_basis():
    N = np.zeros((2, 2)); N[1, 0] = 1.0
    return OperatorBasis.from_matrices([np.eye(2), N])


class TestGenericity:
    def test_demo4_e4_rejected(self):
        mats = demo4_matrices()
        assert not is_generic_vector(mats, [0.0, 0.0, 0.0, 1.0])

    def test_demo4_e1_accepted(self):
        assert is_generic_vector(demo4_matrices(), [1.0, 0.0, 0.0, 0.0])

    def test_demo4_covector_e4_accepted(self):
        assert is_generic_covector(demo4_matrices(), [0.0, 0.0, 0.0, 1.0])

    def test_demo4_covector_e1_rejected(self):
        assert not is_generic_covector(demo4_matrices(), [1.0, 0.0, 0.0, 0.0])

    def test_identity_one_dim(self):
        basis = OperatorBasis.from_matrices([np.eye(1)])
        assert is_generic_vector([np.eye(1)], [0.7])
        assert check_generic_vector(basis, [0.0], seed=1) is not None
        assert check_generic_covector(basis, [0.0], seed=1) is not None

    def test_search_is_seeded(self):
        basis = demo4_constant_basis()
        a = check_generic_vector(basis, ORIGIN4, seed=9)
        b = check_generic_vector(basis, ORIGIN4, seed=9)
        assert np.array_equal(a, b)

    def test_search_failure_returns_none(self):
        # fields that annihilate every vector direction needed for rank n
        Z = np.zeros((2, 2)); Z[0, 0] = 1.0
        basis = OperatorBasis.from_matrices([np.eye(2) * 0 + Z, 2 * Z + 0])
        assert check_generic_vector(basis, [0.0, 0.0], samples=8) is None


class TestStructureConstants:
    def test_demo4_frozen_values(self):
        data = structure_constants(demo4_constant_basis(), ORIGIN4)
        a = np.asarray(data.structure, dtype=float)
        assert np.isclose(a[1, 1, 3], 1.0)          # M2*M2 = M4
        assert np.allclose(a[1, 2], 0.0)            # M2*M3 = 0
        assert np.isclose(a[2, 2, 3], 1.0)          # M3*M3 = M4
        assert np.allclose(a[0, 2], [0, 0, 1, 0])   # Id*M3 = M3
        assert data.closure_residual <= 1e-12
        assert data.associativity_residual <= 1e-12
        assert data.symmetry_residual <= 1e-12

    def test_nilpotent_pair(self):
        data = structure_constants(nilpotent_pair_basis(), np.zeros(2))
        a = np.asarray(data.structure, dtype=float)
        assert np.allclose(a[0, 0], [1, 0])
        assert np.allclose(a[0, 1], [0, 1])
        assert np.allclose(a[1, 1], [0, 0])

    def test_identity_alone(self):
        basis = OperatorBasis.from_matrices([np.eye(1)])
        data = structure_constants(basis, [0.0])
        assert np.isclose(np.asarray(data.structure, float)[0, 0, 0], 1.0)

    def test_not_closed_has_residual(self):
        a, resid = structure_constants_at(not_closed_matrices(),
                                          np.array([0.7, 0.4]))
        assert resid > 1e-2

    @pytest.mark.parametrize("seed", range(10))
    def test_lstsq_oracle_agreement_3x3(self, seed):
        # random commutative spans from the 3x3 Jordan-block centraliser
        rng = np.random.default_rng(100 + seed)
        if seed % 2:
            L = jordan_symmetry_field(3)
            u = rng.uniform(0.3, 1.0, 3)
            powers = [np.eye(3), L.eval(u), L.eval(u) @ L.eval(u)]
        else:
            powers = centraliser_jordan_matrices(3)
        while True:
            T = rng.uniform(-1, 1, (3, 3))
            if abs(np.linalg.det(T)) > 0.2:
                break
        mats = [sum(T[i, j] * powers[j] for j in range(3)) for i in range(3)]
        xi = None
        rng2 = np.random.default_rng(seed)
        while xi is None:
            cand = rng2.uniform(-1, 1, 3)
            xi = cand if is_generic_vector(mats, cand) else None
        a_solve, resid = structure_constants_at(mats, xi)
        a_ls, resid_ls = lstsq_structure_constants(mats)
        assert resid <= 1e-9
        assert resid_ls <= 1e-9
        assert np.max(np.abs(np.asarray(a_solve, float) - a_ls)) <= 1e-9


class TestDualBasis:
    def test_nilpotent_pair_dual(self):
        basis = nilpotent_pair_basis()
        data = dual_basis(basis, [0.0, 1.0], np.zeros(2))
        b = np.asarray(data.form, float)
        assert np.allclose(b, [[0, 1], [1, 0]])
        N = np.zeros((2, 2)); N[1, 0] = 1.0
        assert np.allclose(np.asarray(data.dual[0], float), N)
        assert np.allclose(np.asarray(data.dual[1], float), np.eye(2))
        assert data.duality_residual <= 1e-12
        assert data.identity_residual <= 1e-12

    def test_companion_field_dual(self):
        # basis {Id, L}, L = [[u1,1],[u2,0]], a = (1,0), at u = (1,2)
        L = OperatorField.parse([["u1", "1"], ["u2", "0"]], 2)
        basis = OperatorBasis([OperatorField.identity(2), L])
        data = dual_basis(basis, [1.0, 0.0], [1.0, 2.0])
        assert np.allclose(np.asarray(data.form, float), np.diag([1.0, 2.0]))
        assert np.allclose(np.asarray(data.dual[1], float),
                           [[0.5, 0.5], [1.0, 0.0]])

    def test_identity_alone_dual(self):
        basis = OperatorBasis.from_matrices([np.eye(1)])
        data = dual_basis(basis, [1.0], [0.0])
        assert np.allclose(np.asarray(data.dual[0], float), np.eye(1))

    def test_degenerate_covector_raises(self):
        basis = demo4_constant_basis()
        with pytest.raises(SingularMatrixError):
            dual_basis(basis, [1.0, 0.0, 0.0, 0.0], ORIGIN4)

    def test_demo4_dual_reorders_basis(self):
        data = dual_basis(demo4_constant_basis(), [0.0, 0.0, 0.0, 1.0],
                          ORIGIN4)
        M1, M2, M3, M4 = demo4_matrices()
        duals = [np.asarray(D, float) for D in data.dual]
        for got, want in zip(duals, [M4, M2, M3, M1]):
            assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("kind,n,seed", [
    ("diag", 2, 0), ("diag", 3, 1), ("diag", 4, 2),
    ("jordan", 2, 3), ("jordan", 3, 4), ("jordan", 4, 5),
    ("diag", 3, 6), ("jordan", 4, 7), ("diag", 4, 8), ("jordan", 3, 9),
])
class TestDualityInvolution:
    def test_involution_recovers_basis(self, kind, n, seed):
        basis, rng = random_power_basis(kind, n, seed)
        points = sample_points(n, guarded_config(n, seed=seed + 50, count=6))
        a = admissible_covector(basis, points, rng)
        for u in points:
            values = basis.eval(u)
            data = point_data(values, covector=a,
                              rng=np.random.default_rng(0))
            duals = [np.asarray(D, float) for D in data.dual]
            back = point_data(duals, covector=data.identity_coords,
                              rng=np.random.default_rng(0))
            scale = 1.0 + max(np.max(np.abs(V)) for V in values)
            for got, want in zip(back.dual, values):
                assert np.max(np.abs(np.asarray(got, float) - want)) \
                    <= 1e-9 * scale


class TestRaisedStructureConstants:
    @pytest.mark.parametrize("kind,seed", [("diag", 11), ("jordan", 12)])
    def test_index_raising_identity(self, kind, seed):
        # a^{ij}_k = b^{j beta} a_{k beta}^i at random points
        n = 3
        basis, rng = random_power_basis(kind, n, seed)
        points = sample_points(n, guarded_config(n, seed=seed, count=5))
        a_cov = admissible_covector(basis, points, rng)
        for u in points:
            values = basis.eval(u)
            data = point_data(values, covector=a_cov,
                              rng=np.random.default_rng(0))
            a = np.asarray(data.structure, float)
            binv = np.asarray(data.form_inv, float)
            duals = [np.asarray(D, float) for D in data.dual]
            a_dual, resid = structure_constants_at(duals, data.xi)
            assert resid <= 1e-8
            raised = np.einsum("jb,kbi->ijk", binv, a)
            assert np.max(np.abs(np.asarray(a_dual, float) - raised)) <= 1e-9


class TestAlgebraReport:
    def test_demo4_passes(self):
        basis = demo4_constant_basis()
        points = sample_points(4, SampleConfig(seed=1, count=10))
        rep = algebra_report(basis, points, covector=[0, 0, 0, 1.0])
        assert rep.passed

    def test_not_closed_fails_closure(self):
        basis = OperatorBasis.from_matrices(not_closed_matrices())
        points = sample_points(2, SampleConfig(seed=1, count=10))
        rep = algebra_report(basis, points)
        assert not rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["span_closure"].passed
        assert not by_name["pairwise_commutativity"].passed

    def test_checks_that_evaluated_no_point_fail(self):
        # u1^100000 underflows to 0 in the box, so K_2 = 0 and no point is
        # generic: every residual check is skipped at every point
        big = OperatorField.parse([["u1^100000", "0"], ["0", "u1^100000"]], 2)
        basis = OperatorBasis([OperatorField.identity(2), big])
        points = sample_points(2, SampleConfig(seed=1, count=10, box=0.9))
        rep = algebra_report(basis, points, covector=[1.0, 0.0])
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["genericity_A1_A2"].passed
        for name in ("span_closure", "structure_symmetry", "associativity",
                     "form_nondegenerate", "duality_pairing",
                     "identity_in_span"):
            assert not by_name[name].passed, name
            assert by_name[name].samples == 0, name


class TestBatchedSearchAndSolve:
    """The stacked ξ search and the one-elimination structure constants
    reproduce the one-draw and one-product loops bit for bit."""

    @staticmethod
    def _families(seed):
        rng = np.random.default_rng(seed)
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
        for k in range(80):
            n = int(rng.integers(1, 6))
            mats = list(rng.standard_normal((n, n, n)))
            if k % 4 == 1 and n > 1:
                mats[1] = 2.0 * mats[0]          # no draw has full rank
            elif k % 4 == 2:
                mats = list(np.round(mats))
            elif k % 4 == 3:
                # a I + b J acts as a complex number, so every draw has the
                # same condition number up to rounding: the choice among
                # the draws rests on the last bits of the columns
                a, b, c, d = rng.uniform(-1.0, 1.0, 4)
                mats = [a * np.eye(2) + b * J, c * np.eye(2) + d * J]
            yield mats, int(rng.integers(0, 2 ** 16))

    @pytest.mark.parametrize("samples", [0, 1, 32])
    def test_xi_search_matches_the_draw_loop(self, samples):
        for mats, seed in self._families(samples):
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = find_well_conditioned_vector(mats, samples, got_rng)
            want = loop_well_conditioned_vector(mats, samples, want_rng)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert got_rng.random() == want_rng.random()

    def test_xi_search_takes_the_first_of_tied_draws(self):
        # in dimension 1 every draw has condition number exactly 1
        rng = np.random.default_rng(3)
        first = np.random.default_rng(3).uniform(-1.0, 1.0, 1)
        assert find_well_conditioned_vector([np.array([[2.0]])], 32,
                                            rng).tolist() == first.tolist()
        assert find_well_conditioned_vector([np.zeros((1, 1))], 32,
                                            rng) is None

    def test_nan_values_give_genericity_error(self):
        mats = [np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])]
        with pytest.raises(GenericityError):
            well_conditioned_xi(mats, seed=0)

    def test_structure_constants_match_per_pair_solves_over_floats(self):
        for mats, seed in self._families(11):
            xi = np.random.default_rng(seed).uniform(-1.0, 1.0, len(mats))
            try:
                want = pairwise_structure_constants(mats, xi, mat_solve)
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError):
                    structure_constants_at(mats, xi)
                continue
            got, _ = structure_constants_at(mats, xi)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind,n,seed", [("diag", 3, 0), ("jordan", 3, 1),
                                             ("jordan", 4, 2)])
    def test_structure_constants_match_per_pair_solves_over_jets(self, kind,
                                                                 n, seed):
        basis, rng = random_power_basis(kind, n, seed)
        jets = basis.eval_jet(rng.uniform(0.3, 1.0, n))
        xi = well_conditioned_xi(jets, seed)
        got, _ = structure_constants_at(jets, xi)
        want = pairwise_structure_constants(jets, xi, mat_solve)
        for g, w in zip(split_jet_matrix(got, n), split_jet_matrix(want, n)):
            assert g.tobytes() == w.tobytes()
