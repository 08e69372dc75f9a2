import json

import numpy as np
import pytest

from opfrob import frobalg, numkit
from opfrob.cli import main
from opfrob.errors import GenericityError, SingularMatrixError
from opfrob.fields import OperatorField
from opfrob.fixtures import (
    demo4_constant_basis,
    demo4_matrices,
    emit_builtin,
    not_closed_matrices,
    segre_algebra,
)
from opfrob.frobalg import (
    OperatorBasis,
    algebra_report,
    batch_generic_search,
    batch_well_conditioned_xi,
    find_generic_covector,
    find_generic_vector,
    find_well_conditioned_vector,
    point_data,
    structure_constants_at,
    well_conditioned_xi,
)
from opfrob.numkit import mat_rank, split_jet_matrix
from opfrob.sampling import SampleConfig, sample_points

from helpers import (
    admissible_covector,
    canonical_field,
    guarded_config,
    random_power_basis,
)
from oracles import (
    basis_jets,
    is_generic_covector,
    is_generic_vector,
    loop_mat_rank,
    loop_solve,
    loop_structure_constants,
    loop_well_conditioned_vector,
    lstsq_structure_constants,
    pairwise_structure_constants,
    svd_best_draw,
    value_array,
)

ORIGIN4 = np.zeros(4)


def search_at(basis, point, seed=0):
    """The batched (A1)/(A2) search at one point: (xi, covector), each None
    where the search found nothing."""
    _, V = basis.values([point])
    return tuple(None if np.isnan(v[0]).any() else v[0]
                 for v in batch_generic_search(V, seed))


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
        xi, a = search_at(basis, [0.0], seed=1)
        assert xi is not None
        assert a is not None

    def test_search_is_seeded(self):
        basis = demo4_constant_basis()
        a = search_at(basis, ORIGIN4, seed=9)[0]
        b = search_at(basis, ORIGIN4, seed=9)[0]
        assert np.array_equal(a, b)

    def test_search_failure_returns_none(self, monkeypatch):
        # fields that annihilate every vector direction needed for rank n
        Z = np.zeros((2, 2)); Z[0, 0] = 1.0
        basis = OperatorBasis.from_matrices([np.eye(2) * 0 + Z, 2 * Z + 0])
        monkeypatch.setattr(frobalg, "GENERIC_DRAWS", 8)
        assert search_at(basis, [0.0, 0.0])[0] is None


class TestStructureConstants:
    def test_demo4_frozen_values(self):
        data = demo4_constant_basis().point_data([ORIGIN4])
        a = data.structure[0]
        assert np.isclose(a[1, 1, 3], 1.0)          # M2*M2 = M4
        assert np.allclose(a[1, 2], 0.0)            # M2*M3 = 0
        assert np.isclose(a[2, 2, 3], 1.0)          # M3*M3 = M4
        assert np.allclose(a[0, 2], [0, 0, 1, 0])   # Id*M3 = M3
        assert data.closure_residual[0] <= 1e-12
        assert data.associativity_residual[0] <= 1e-12
        assert data.symmetry_residual[0] <= 1e-12

    def test_nilpotent_pair(self):
        data = nilpotent_pair_basis().point_data([np.zeros(2)])
        a = data.structure[0]
        assert np.allclose(a[0, 0], [1, 0])
        assert np.allclose(a[0, 1], [0, 1])
        assert np.allclose(a[1, 1], [0, 0])

    def test_identity_alone(self):
        basis = OperatorBasis.from_matrices([np.eye(1)])
        data = basis.point_data([[0.0]])
        assert np.isclose(data.structure[0, 0, 0, 0], 1.0)

    def test_not_closed_has_residual(self):
        a, resid = structure_constants_at(not_closed_matrices(),
                                          np.array([0.7, 0.4]))
        assert resid > 1e-2

    @pytest.mark.parametrize("seed", range(10))
    def test_lstsq_oracle_agreement_3x3(self, seed):
        # random commutative spans from the 3x3 Jordan-block centraliser
        rng = np.random.default_rng(100 + seed)
        if seed % 2:
            L = canonical_field("jordan", 3)
            u = rng.uniform(0.3, 1.0, 3)
            powers = [np.eye(3), L.eval(u), L.eval(u) @ L.eval(u)]
        else:
            powers = segre_algebra([3])[0]
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
        data = basis.point_data([np.zeros(2)], [0.0, 1.0])
        b = data.form[0]
        assert np.allclose(b, [[0, 1], [1, 0]])
        N = np.zeros((2, 2)); N[1, 0] = 1.0
        assert np.allclose(data.dual[0, 0], N)
        assert np.allclose(data.dual[0, 1], np.eye(2))
        assert data.duality_residual[0] <= 1e-12
        assert data.identity_residual[0] <= 1e-12

    def test_companion_field_dual(self):
        # basis {Id, L}, L = [[u1,1],[u2,0]], a = (1,0), at u = (1,2)
        L = OperatorField.parse([["u1", "1"], ["u2", "0"]], 2)
        basis = OperatorBasis([OperatorField.identity(2), L])
        data = basis.point_data([[1.0, 2.0]], [1.0, 0.0])
        assert np.allclose(data.form[0], np.diag([1.0, 2.0]))
        assert np.allclose(data.dual[0, 1], [[0.5, 0.5], [1.0, 0.0]])

    def test_identity_alone_dual(self):
        basis = OperatorBasis.from_matrices([np.eye(1)])
        data = basis.point_data([[0.0]], [1.0])
        assert np.allclose(data.dual[0, 0], np.eye(1))

    def test_degenerate_covector_raises(self):
        basis = demo4_constant_basis()
        with pytest.raises(SingularMatrixError):
            basis.point_data([ORIGIN4], [1.0, 0.0, 0.0, 0.0])

    def test_demo4_dual_reorders_basis(self):
        data = demo4_constant_basis().point_data([ORIGIN4],
                                                 [0.0, 0.0, 0.0, 1.0])
        M1, M2, M3, M4 = demo4_matrices()
        duals = data.dual[0]
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
            data = basis.point_data([u], covector=a)
            back = point_data(data.dual, [u],
                              covector=data.identity_coords[0])
            scale = 1.0 + max(np.max(np.abs(V)) for V in values)
            for got, want in zip(back.dual[0], values):
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
            data = basis.point_data([u], covector=a_cov)
            a = data.structure[0]
            binv = data.form_inv[0]
            duals = list(data.dual[0])
            a_dual, resid = structure_constants_at(duals, data.xi[0])
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

    @staticmethod
    def loop_first_hit(mats, samples, rng, covector, tol):
        """One draw at a time: (the first draw whose vectors K_j v, or rows
        v K_j, have full rank, its index), or (None, None)."""
        values = [np.asarray(M, dtype=float) for M in mats]
        n = values[0].shape[0]
        for k in range(samples):
            v = rng.uniform(-1.0, 1.0, n)
            prods = np.vstack([v @ V for V in values]) if covector \
                else np.column_stack([V @ v for V in values])
            if loop_mat_rank(prods, tol=tol) == len(values):
                return v, k
        return None, None

    @pytest.mark.parametrize("covector", [False, True])
    @pytest.mark.parametrize("samples", [0, 1, 32])
    def test_first_hit_search_matches_the_draw_loop(self, covector, samples):
        # with [Id, N] the draws whose first (vector) or second (covector)
        # component is small against the other fail the rank test at a
        # coarse tolerance; [Id, 2 Id] fails every draw
        N = np.array([[0.0, 0.0], [1.0, 0.0]])
        find = find_generic_covector if covector else find_generic_vector
        seen = set()
        for mats, tol in (([np.eye(2), N], 1e-9), ([np.eye(2), N], 0.9),
                          ([np.eye(2), 2.0 * np.eye(2)], 1e-9)):
            for seed in range(40):
                got_rng = np.random.default_rng(seed)
                want_rng = np.random.default_rng(seed)
                got = find(mats, samples, got_rng, tol)
                want, k = self.loop_first_hit(mats, samples, want_rng,
                                              covector, tol)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.tobytes() == want.tobytes()
                assert got_rng.random() == want_rng.random()
                seen.add("miss" if k is None else "first" if k == 0
                         else "later")
        assert seen == ({"first", "later", "miss"} if samples > 1
                        else {"first", "miss"} if samples else {"miss"})

    def test_xi_search_takes_the_first_of_tied_draws(self):
        # in dimension 1 every draw has condition number exactly 1
        rng = np.random.default_rng(3)
        first = np.random.default_rng(3).uniform(-1.0, 1.0, 1)
        assert find_well_conditioned_vector([np.array([[2.0]])], 32,
                                            rng).tolist() == first.tolist()
        assert find_well_conditioned_vector([np.zeros((1, 1))], 32,
                                            rng) is None

    @staticmethod
    def mixed_stack(n, seed):
        """A (24, n, n, n) stack of bases: random ones, rank-deficient ones
        (K_2 = 2 K_1, or all zero), ones with a NaN or an infinite entry,
        ones so large that some draws overflow and others do not, ones
        whose draws tie exactly (K_j = e_j e_1^T gives the columns
        xi_1 Id, of condition number 1), and nearly scalar ones
        (K_j = c_j Id + eps R_j), whose best-conditioned draw can fail a
        coarse rank test that a later draw passes; each kind drawn twice,
        the random basis also repeated and the nearly scalar one at four
        eps."""
        rng = np.random.default_rng(seed)
        ties = np.zeros((n, n, n))
        ties[np.arange(n), np.arange(n), 0] = 1.0
        kinds = []
        for _ in range(2):
            random = rng.standard_normal((n, n, n))
            deficient = random.copy()
            deficient[-1] = 2.0 * deficient[0]
            nan, inf = random.copy(), random.copy()
            nan[0, 0, -1], inf[-1, -1, 0] = np.nan, -np.inf
            huge = np.clip(rng.standard_normal((n, n, n)), -1.0, 1.0) * 1e308
            near = [np.eye(n) * rng.uniform(-1.0, 1.0, (n, 1, 1))
                    + eps * rng.standard_normal((n, n, n))
                    for eps in (0.03, 0.1, 0.2, 0.3)]
            kinds += [random, random, deficient, np.zeros((n, n, n)), nan,
                      inf, huge, ties * rng.uniform(0.5, 2.0), *near]
        return np.array(kinds)

    @staticmethod
    def ranked_draws(mats, samples, seed, tol):
        """How many draws the search must rank: none without a draw of
        finite condition number, else the best-conditioned one (the
        earliest on ties), and all of them when that one is not of full
        rank."""
        xis = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                                  (samples, len(mats)))
        cols = [np.column_stack([V @ xi for V in mats]) for xi in xis]
        with np.errstate(all="ignore"):
            conds = [np.linalg.cond(c) if np.isfinite(c).all() else np.inf
                     for c in cols]
        order = sorted((c, k) for k, c in enumerate(conds) if c < np.inf)
        if not order:
            return 0
        full = loop_mat_rank(cols[order[0][1]], tol=tol) == len(mats)
        return 1 if full else 1 + samples

    @pytest.mark.parametrize("tol", [1e-9, 0.05, 0.3])
    def test_xi_search_ranks_only_each_basis_best_draw(self, tol,
                                                       monkeypatch):
        # at the coarse tolerances the best-conditioned draw often fails
        # the rank test, and then all the basis's draws are ranked
        ranked = []

        def counted(A, tol):
            ranked.append(len(np.reshape(A, (-1, *np.shape(A)[-2:]))))
            return mat_rank(A, tol=tol)

        monkeypatch.setattr(frobalg, "mat_rank", counted)
        monkeypatch.setattr(numkit, "RANK_TOL", tol)    # batched searches
        seen = set()
        for n in (1, 2, 3, 4):
            for seed in range(2):
                V = self.mixed_stack(n, seed)
                P = np.arange(len(V) * 2.0).reshape(-1, 2)
                with np.errstate(all="ignore"):
                    want = [loop_well_conditioned_vector(
                        list(mats), 32, np.random.default_rng(seed), tol)
                        for mats in V]
                    need = [self.ranked_draws(list(mats), 32, seed, tol)
                            for mats in V]
                for b, mats in enumerate(V):
                    ranked.clear()
                    with np.errstate(all="ignore"):
                        got = find_well_conditioned_vector(
                            list(mats), 32, np.random.default_rng(seed), tol)
                    assert (got is None) == (want[b] is None)
                    if got is not None:
                        assert got.tobytes() == want[b].tobytes()
                    assert sum(ranked) == need[b] and len(ranked) <= 2
                    seen.add((need[b], got is None))
                ok = [b for b, w in enumerate(want) if w is not None]
                ranked.clear()
                with np.errstate(all="ignore"):
                    xi = batch_well_conditioned_xi(V[ok], P[ok], seed)
                assert xi.tobytes() == np.array([want[b]
                                                 for b in ok]).tobytes()
                assert sum(ranked) == sum(need[b] for b in ok)
                assert len(ranked) <= 2
                miss = min(set(range(len(V))) - set(ok))
                with pytest.raises(GenericityError) as exc, \
                        np.errstate(all="ignore"):
                    batch_well_conditioned_xi(V, P, seed)
                assert exc.value.index == miss
        # no finite draw; the best draw of full rank; all draws ranked,
        # with a full-rank one among them (at the coarse tolerances) or none
        assert seen == {(0, True), (1, False), (33, True)} | (
            {(33, False)} if tol > 1e-3 else set())

    @staticmethod
    def assert_svd_pick(V, xis, tol=1e-9):
        """The screened search picks the draws of the all-SVD search."""
        got = frobalg._best_draw(V, xis, tol)
        assert got.tolist() == svd_best_draw(V, xis, tol).tolist()
        return got

    @staticmethod
    def draws(n, seed, samples=32):
        return np.random.default_rng(seed).uniform(-1.0, 1.0, (samples, n))

    @pytest.mark.parametrize("seed", [42, 7, 0])
    def test_screen_picks_the_svd_draws_of_the_benchmark_jobs(
            self, seed, tmp_path, monkeypatch, capsys):
        # the commands of the analytic52 and constant52 benchmark workloads
        # (bench/workloads.py), each search recorded
        searched, search = [], frobalg._best_draw

        def recorded(V, xis, tol):
            searched.append((V.copy(), xis.copy(), tol))
            return search(V, xis, tol)

        monkeypatch.setattr(frobalg, "_best_draw", recorded)
        for variant, options in (("analytic", []),
                                 ("constant", ["--samples", "200"])):
            path = tmp_path / f"{variant}52.json"
            path.write_text(json.dumps(emit_builtin("example52", variant)))
            options += ["--seed", str(seed), "--json"]
            for argv in (["verify-algebra"], ["dualize"], ["symcheck"],
                         ["generate"], ["poisson-check"], ["inverse"],
                         ["hj", "--c", "1,0.1,0.1,0.1", "--hj-points",
                          "200"]):
                if variant == "constant" or argv[0] not in ("symcheck", "hj"):
                    main(argv[:1] + [str(path)] + argv[1:] + options)
            main(["builtin", "example52", "--variant", variant] + options)
        main(["builtin", "not-closed"] + options)
        capsys.readouterr()
        monkeypatch.undo()
        assert [V.shape[0] for V, _, _ in searched] == [50] * 5 + [1] * 9
        for V, xis, tol in searched:
            self.assert_svd_pick(V, xis, tol)

    @pytest.mark.parametrize("tol", [1e-9, 0.05, 0.3])
    def test_screen_picks_the_svd_draws_of_mixed_stacks(self, tol):
        for n in range(1, 7):
            for seed in range(2):
                self.assert_svd_pick(self.mixed_stack(n, seed),
                                     self.draws(n, seed), tol)

    @pytest.mark.parametrize("blocks", [[1] * 4, [2, 1, 1], [4], [1] * 8,
                                        [4, 3, 2, 1, 1, 1], [12], [1] * 16],
                             ids=lambda b: "-".join(map(str, b)))
    def test_screen_picks_the_svd_draws_of_segre_frames(self, blocks):
        # the Segre algebra conjugated by 6 random frames P, P M P^{-1}
        M = np.array(segre_algebra(blocks)[0])
        n = len(M)
        P = np.random.default_rng(n).standard_normal((6, n, n))
        V = P[:, None] @ M @ np.linalg.inv(P)[:, None]
        self.assert_svd_pick(V, self.draws(n, len(blocks)))

    def test_screen_keeps_the_first_of_exactly_tied_draws(self):
        # cols(-xi) = -cols(xi) and cols(2 xi) = 2 cols(xi) exactly, so
        # draws 3, 5 and 9 share one condition number and 3 must win
        V = np.random.default_rng(5).standard_normal((40, 4, 4, 4))
        xis = self.draws(4, 5)
        xis[5], xis[9] = -xis[3], 2.0 * xis[3]
        assert (self.assert_svd_pick(V, xis) == 3).any()

    @pytest.mark.parametrize("eps,tol", [(1e-4, 1e-9), (1e-8, 1e-9),
                                         (1e-12, 1e-9), (0.0, 1e-9),
                                         (1e-13, 1e-15), (1e-14, 1e-15)])
    def test_screen_picks_the_svd_draws_of_near_dependent_bases(self, eps,
                                                                tol):
        # K_4 = 2 K_1 + eps K_4: no draw has full rank where eps < tol.  At
        # tol 1e-15 draws of condition number near 1e14 win, whose computed
        # condition numbers err by more than the screen's slack; only the
        # cap on the cut keeps the pick there
        V = np.random.default_rng(6).standard_normal((50, 4, 4, 4))
        V[:, 3] = 2.0 * V[:, 0] + eps * V[:, 3]
        picked = self.assert_svd_pick(V, self.draws(4, 6), tol)
        assert (picked < 0).all() == (eps < tol)

    def test_screen_takes_few_svds_of_a_generic_stack(self, monkeypatch):
        # at most 2 SVDs per basis on average: the screen must not fall back
        # to the SVD of every draw
        V = np.random.default_rng(7).standard_normal((50, 4, 4, 4))
        taken, cond = [], np.linalg.cond

        def counted(A, p=None):
            taken.append(len(A))
            return cond(A, p)

        monkeypatch.setattr(np.linalg, "cond", counted)
        picked = frobalg._best_draw(V, self.draws(4, 7), 1e-9)
        monkeypatch.undo()
        assert picked.tolist() == svd_best_draw(V, self.draws(4, 7)).tolist()
        assert 0 < sum(taken) <= 2 * len(V)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_xi_search_is_warning_free(self, n):
        # no outer errstate: under pytest.ini a RuntimeWarning is an error,
        # and the 1e308 bases overflow in the draws and in the bounds
        V = self.mixed_stack(n, 0)
        P = np.arange(len(V) * 2.0).reshape(-1, 2)
        found = frobalg._best_draw(V, self.draws(n, 0), 1e-9) >= 0
        batch_well_conditioned_xi(V[found], P[found])
        with pytest.raises(GenericityError):
            batch_well_conditioned_xi(V, P)

    def test_nan_values_give_genericity_error(self):
        mats = [np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]])]
        with pytest.raises(GenericityError):
            well_conditioned_xi(mats, seed=0)

    def test_structure_constants_match_per_pair_solves_over_floats(self):
        for mats, seed in self._families(11):
            xi = np.random.default_rng(seed).uniform(-1.0, 1.0, len(mats))
            try:
                want = pairwise_structure_constants(mats, xi, loop_solve)
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
        jets = basis_jets(basis, rng.uniform(0.3, 1.0, n))
        xi = well_conditioned_xi(value_array(jets), seed)
        got, _ = loop_structure_constants(jets, xi)
        want = pairwise_structure_constants(jets, xi, loop_solve)
        for g, w in zip(split_jet_matrix(got, n), split_jet_matrix(want, n)):
            assert g.tobytes() == w.tobytes()
