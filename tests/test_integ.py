import tracemalloc

import numpy as np
import pytest

from opfrob.errors import OpfrobError, SqrtConvergenceError
from opfrob.fields import OneFormField
from opfrob.fixtures import (
    demo4_chart_strings,
    demo4_constant_basis,
    demo4_matrices,
    demo4_one_form,
    demo4_rational_guards,
    demo4_rational_hamiltonians,
    demo4_system_basis,
    demo4_target_family,
    demo4_tilde_basis,
)
from opfrob import integ
from opfrob.frobalg import OperatorBasis, checked_inv
from opfrob.integ import (
    QuadraticHamiltonian,
    _momentum_nondegeneracy,
    generate_system,
    hj_differential,
    inverse_verify,
    killing_tensors,
    poisson_bracket,
    verify_commuting_family,
)
from opfrob.sampling import SampleConfig, sample_points

from oracles import fd_poisson_bracket, loop_momentum_nondegeneracy

CFG = SampleConfig(seed=6, count=10)
GUARDED = SampleConfig(seed=6, count=10, guards=demo4_rational_guards())


def ham(grid, n):
    return QuadraticHamiltonian.parse(grid, n)


P1SQ = QuadraticHamiltonian.constant(np.diag([1.0, 0.0]))
U1P2SQ = ham([["0", "0"], ["0", "u1"]], 2)


class TestQuadraticHamiltonian:
    def test_structural_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticHamiltonian.parse([["0", "u1"], ["u2", "0"]], 2)

    def test_value_and_coeffs(self):
        H = ham([["u1", "1"], ["1", "0"]], 2)
        assert H.value([2.0, 0.0], [1.0, 3.0]) == 2.0 + 2 * 3.0

    def test_coeff_jets(self):
        H = U1P2SQ
        (A,), (dA,) = H.coeff_jets([[0.7, 0.1]])
        assert np.isclose(A[1, 1], 0.7)
        assert np.isclose(dA[1, 1, 0], 1.0)


class TestPoissonBracket:
    def test_reference_family_pair(self):
        F = QuadraticHamiltonian.constant(demo4_target_family()[0])
        G = QuadraticHamiltonian.constant(demo4_target_family()[3])
        rng = np.random.default_rng(0)
        for _ in range(10):
            u, p = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
            assert poisson_bracket(F, G, u, p) == 0.0

    def test_hand_value(self):
        # {p1^2, u1 p2^2} = 2 p1 p2^2
        u = [0.9, -0.4]
        p = [1.0, 1.0]
        assert np.isclose(poisson_bracket(P1SQ, U1P2SQ, u, p), 2.0)

    def test_antisymmetry_and_self(self):
        rng = np.random.default_rng(1)
        H1 = ham([["u1^2", "u2"], ["u2", "1+u2^2"]], 2)
        H2 = ham([["u2", "0"], ["0", "u1"]], 2)
        for _ in range(10):
            u, p = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            assert poisson_bracket(H1, H1, u, p) == 0.0
            assert np.isclose(poisson_bracket(H1, H2, u, p),
                              -poisson_bracket(H2, H1, u, p))

    def test_against_fd_oracle(self):
        hams = demo4_rational_hamiltonians()
        pts = sample_points(4, GUARDED)
        rng = np.random.default_rng(2)
        for u in pts[:5]:
            p = rng.uniform(-1, 1, 4)
            for i in range(4):
                for j in range(i + 1, 4):
                    mine = poisson_bracket(hams[i], hams[j], u, p)
                    ref = fd_poisson_bracket(hams[i].value, hams[j].value,
                                             u, p)
                    assert abs(mine - ref) <= 1e-5 * (1.0 + abs(mine))

    def test_leibniz_rule_via_oracle(self):
        # {F, G*H} = {F,G} H + G {F,H} checked with the FD oracle on the
        # product as a black-box function
        F, G, H = (demo4_rational_hamiltonians())[:3]
        pts = sample_points(4, GUARDED)
        rng = np.random.default_rng(3)
        for u in pts[:3]:
            p = rng.uniform(-1, 1, 4)
            gh = lambda uu, pp: G.value(uu, pp) * H.value(uu, pp)
            lhs = fd_poisson_bracket(F.value, gh, u, p)
            rhs = (fd_poisson_bracket(F.value, G.value, u, p) * H.value(u, p)
                   + G.value(u, p) * fd_poisson_bracket(F.value, H.value, u, p))
            assert abs(lhs - rhs) <= 1e-4 * (1.0 + abs(lhs))


class TestVerifyCommutingFamily:
    def test_decoupled_family(self):
        hams = [QuadraticHamiltonian.constant(np.diag([1.0, 0.0])),
                QuadraticHamiltonian.constant(np.diag([0.0, 1.0]))]
        pts = sample_points(2, CFG)
        rng = np.random.default_rng(4)
        p = rng.uniform(-1, 1, (len(pts), 2))
        assert verify_commuting_family(hams, pts, p).passed

    def test_noncommuting_family_fails(self):
        pts = sample_points(2, CFG)
        rng = np.random.default_rng(4)
        p = rng.uniform(-1, 1, (len(pts), 2))
        c = verify_commuting_family([P1SQ, U1P2SQ], pts, p)
        assert not c.passed

    def test_rational_family_passes(self):
        hams = demo4_rational_hamiltonians()
        pts = sample_points(4, GUARDED)
        rng = np.random.default_rng(5)
        p = rng.uniform(-1, 1, (len(pts), 4))
        c = verify_commuting_family(hams, pts, p, tol=1e-8)
        assert c.passed


class TestGenerateSystem:
    def test_nilpotent_pair(self):
        N = np.zeros((2, 2)); N[1, 0] = 1.0
        basis = OperatorBasis.from_matrices([np.eye(2), N])
        alpha = OneFormField.constant([0.0, 1.0])
        pts = sample_points(2, CFG)
        system, report = generate_system(basis, alpha, pts)
        assert report.passed
        grids = [H.coeff(np.zeros(2)) for H in system.hamiltonians]
        assert np.allclose(grids[0], np.diag([1.0, 0.0]))   # ptilde_1^2
        assert np.allclose(grids[1], [[0.0, 1.0], [1.0, 0.0]])  # 2 pt1 pt2
        # chart is (u2, u1)
        J = system.chart_rows([np.zeros(2)])[0]
        assert np.allclose(J, [[0.0, 1.0], [1.0, 0.0]])

    def test_one_dimensional(self):
        basis = OperatorBasis.from_matrices([np.eye(1)])
        alpha = OneFormField.constant([1.0])
        pts = sample_points(1, CFG)
        system, report = generate_system(basis, alpha, pts)
        assert report.passed
        assert np.allclose(system.hamiltonians[0].coeff([0.0]), [[1.0]])

    def test_demo4_constant(self):
        basis = demo4_constant_basis()
        pts = sample_points(4, CFG)
        system, report = generate_system(basis, demo4_one_form(), pts)
        assert report.passed
        assert system.hamiltonians is not None

    def test_requires_chart_for_nonconstant(self):
        basis = demo4_tilde_basis()
        pts = sample_points(4, GUARDED)
        with pytest.raises(OpfrobError, match="chart"):
            generate_system(basis, demo4_one_form(), pts)

    def test_tilde_basis_with_chart_matches_rational_family(self):
        basis = demo4_tilde_basis()
        pts = sample_points(4, GUARDED)
        system, report = generate_system(
            basis, demo4_one_form(), pts, chart=demo4_chart_strings(),
            bracket_tol=1e-8)
        assert report.passed
        # push the chart-frame grids back to original momenta and match the
        # printed rational family (reversal permutation)
        hams = demo4_rational_hamiltonians()
        for u in pts[:4]:
            J = system.chart_rows([u])[0]
            Jinv = np.linalg.inv(J)
            grids = system.coefficient_grids([u])[0]
            gen = [Jinv @ A @ Jinv.T for A in grids]
            want = [H.coeff(u) for H in hams]
            for G, W in zip(gen, want[::-1]):
                assert np.max(np.abs(G - W)) <= 1e-8 * (1 + np.max(np.abs(W)))

    def test_singular_pullback_counts_the_points_reached(self):
        # alpha = d((u4 - 1/2)^2 / 2) vanishes at P[2] only, so the
        # pullback rows are dependent there and the brackets stop
        P = np.asarray(sample_points(4, GUARDED))[:5]
        P[2, 3] = 0.5
        alpha = OneFormField.parse(["0", "0", "0", "u4 - 0.5"], 4)
        _, report = generate_system(demo4_tilde_basis(), alpha, P,
                                    chart=demo4_chart_strings())
        c = {c.name: c for c in report.checks}["pairwise_poisson_brackets"]
        assert not c.passed and "pullback rows" in c.detail
        assert c.samples == 3 and c.worst_point == list(P[2])

    def test_rejects_wrong_chart(self):
        basis = demo4_tilde_basis()
        pts = sample_points(4, GUARDED)
        bad_chart = ["u1", "u2", "u3", "u4"]
        system, report = generate_system(basis, demo4_one_form(), pts,
                                         chart=bad_chart, bracket_tol=1e-8)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["chart_validation"].passed


class TestKillingTensors:
    def test_demo4_system_killing(self):
        basis = demo4_system_basis()
        pts = sample_points(4, CFG)
        system, _ = generate_system(basis, demo4_one_form(), pts)
        per_point, report = killing_tensors(system, pts, tol=1e-10)
        assert report.passed
        M1, M2, M3, M4 = demo4_matrices()
        Ks = system.killing_at([np.zeros(4)])[0]
        assert np.allclose(Ks[0], np.eye(4))
        for got, want in zip(Ks, [np.eye(4), M2, M3, M4]):
            assert np.allclose(got, want, atol=1e-12)

    def test_singular_h1_counts_the_points_reached(self):
        # h_1 of the constant example52 system is singular, so the first
        # point stops the loop; the other checks cover the points before it
        pts = sample_points(4, CFG)
        system, _ = generate_system(demo4_constant_basis(), demo4_one_form(),
                                    pts)
        per_point, report = killing_tensors(system, pts)
        assert len(per_point) == 0
        by_name = {c.name: c for c in report.checks}
        assert list(by_name) == ["h1_invertible",
                                 "killing_pairwise_commutation",
                                 "basis_self_adjointness", "killing_duality"]
        assert by_name["h1_invertible"].samples == 1
        assert by_name["h1_invertible"].worst_point == list(pts[0])
        for name in list(by_name)[1:]:
            c = by_name[name]
            assert not c.passed and c.samples == 0
            assert c.detail == "no point evaluated"

    def test_checks_over_no_point_fail(self):
        none = np.empty((0, 4))
        _, report = generate_system(demo4_constant_basis(), demo4_one_form(),
                                    none)
        checks = report.checks + \
            demo4_constant_basis().validate(none).checks
        by_name = {c.name: c for c in checks}
        for name in ("pullback_independence", "momentum_nondegeneracy",
                     "linear_independence"):
            c = by_name[name]
            assert not c.passed and c.samples == 0, name
            assert c.detail == "no point evaluated", name
        assert not any(c.passed for c in checks)


def _momentum_case(seed, n=None, count=4):
    """(n, points, symmetric grids), n drawn when None; at seeds 1 mod 3
    every bound is 0 (the draws are skipped), at seeds 2 mod 3 the second
    point's grids are NaN (NaN ratios are ignored)."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 6))
    points = [tuple(rng.uniform(-1.0, 1.0, n)) for _ in range(count)]
    grids = {}
    for k, u in enumerate(points):
        g = rng.standard_normal((n, n, n))
        g = g + g.transpose(0, 2, 1)
        if seed % 3 == 1:
            g[0] = 0.0
        elif seed % 3 == 2 and k == 1:
            g[1] = np.nan
        grids[u] = list(g)
    return n, points, grids


class TestMomentumNondegeneracy:
    """The draws stacked a chunk of points at a time reproduce the
    one-momentum loop."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_matches_the_draw_loop(self, seed):
        n, points, grids = _momentum_case(seed)
        got = _momentum_nondegeneracy(np.array([grids[u] for u in points]),
                                      np.array(points), seed)
        worst, worst_pt = loop_momentum_nondegeneracy(grids.get, points, n,
                                                      seed)
        assert np.float64(got.residual).tobytes() == np.float64(
            worst).tobytes()
        assert got.worst_point == worst_pt
        assert got.passed == (worst > 1e-9)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_matches_the_per_row_products(self, n, seed):
        """Against rows formed one gemv each, 2 A_s @ p: equal up to
        rounding, with the same zero-bound and NaN rules.  30 points are
        1 to 2 points a chunk."""
        _, points, grids = _momentum_case(seed, n, count=30)
        got = _momentum_nondegeneracy(np.array([grids[u] for u in points]),
                                      np.array(points), seed)
        worst, worst_pt = loop_momentum_nondegeneracy(
            grids.get, points, n, seed, per_draw=True)
        assert got.residual == pytest.approx(worst, rel=1e-12, abs=0.0)
        # bit for bit the point-by-point products, over chunks of points
        assert got.residual == loop_momentum_nondegeneracy(
            grids.get, points, n, seed)[0]
        assert got.worst_point == worst_pt
        # skipped or NaN draws leave the point's best at 0
        assert got.passed == (seed % 3 == 0) == (worst > 1e-9)

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("B", [50, 200, 800])
    def test_memory_stays_within_three_grid_stacks(self, B, n):
        rng = np.random.default_rng(B + n)
        G = rng.standard_normal((B, n, n, n))
        G = G + G.swapaxes(2, 3)
        P = rng.uniform(-1.0, 1.0, (B, n))
        tracemalloc.start()
        try:
            _momentum_nondegeneracy(G, P, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * G.nbytes


class TestHamiltonJacobi:
    def _system(self):
        basis = demo4_system_basis()
        pts = sample_points(4, CFG)
        system, _ = generate_system(basis, demo4_one_form(), pts)
        return system, pts

    def test_identity_level(self):
        # c weighting only Id: dW = alpha
        system, pts = self._system()
        c = [0.0, 0.0, 0.0, 1.0]
        for u in pts[:5]:
            dW = system.hj_differential([u], c)[0]
            assert np.allclose(dW, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_nilpotent_shift(self):
        # c = (eps, 0, 0, 1): dW = alpha + eps/2 * M4^T alpha
        system, pts = self._system()
        eps = 0.25
        dW = system.hj_differential([pts[0]], [eps, 0.0, 0.0, 1.0])[0]
        want = np.array([eps / 2.0, 0.0, 0.0, 1.0])
        assert np.max(np.abs(dW - want)) <= 1e-10

    def test_level_consistency_random_c(self):
        system, pts = self._system()
        rng = np.random.default_rng(9)
        for _ in range(10):
            c = rng.uniform(-0.4, 0.4, 4)
            c[3] = rng.uniform(0.6, 1.4)   # keep the spectrum positive
            for u in pts[:3]:
                dW = system.hj_differential([u], c)[0]
                grids = system.coefficient_grids([u])[0]
                vals = [float(dW @ A @ dW) for A in grids]
                assert np.max(np.abs(np.array(vals) - c)) <= 1e-8

    def test_inadmissible_c_raises(self):
        system, pts = self._system()
        with pytest.raises(SqrtConvergenceError, match=r"^dW at \[") as exc:
            system.hj_differential(pts[:3], [1.0, 0.0, 0.0, -1.0])
        assert exc.value.index == 0

    def test_constant_chart_is_inverted_once(self, monkeypatch):
        # a constant system has one chart Jacobian at every point: its frame
        # is inverted once and equals, byte for byte, the frame from
        # inverting the Jacobian at each point
        system, pts = self._system()
        assert system.is_constant
        P = np.asarray(pts, dtype=float)
        _, V = system.basis.values(P)
        J = system.chart_rows(P)
        Jinv = checked_inv(J, P, "singular")
        want = (J[:, None] @ V @ Jinv[:, None],
                (system.alpha.batch_jet_arrays(P)[0][:, None] @ Jinv)[:, 0])
        rows = []

        def counted(A, *args):
            rows.append(len(A))
            return checked_inv(A, *args)

        monkeypatch.setattr(integ, "checked_inv", counted)
        got = system.chart_frame_basis(P)
        assert rows == [1]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_raw_helper(self):
        mats = [np.eye(2)]
        with pytest.raises(TypeError):
            hj_differential(mats, [1.0, 0.0])  # c is required


class TestInverseVerify:
    def test_rational_family_passes(self):
        hams = demo4_rational_hamiltonians()
        pts = sample_points(4, GUARDED)
        report, family = inverse_verify(hams, [1.0, 0.0, 0.0, 0.0], pts,
                                        tol=1e-8)
        assert report.passed
        assert family is not None

    def test_noncommuting_fails_first_hypothesis(self):
        pts = sample_points(2, CFG)
        report, family = inverse_verify([P1SQ, U1P2SQ], [1.0, 0.0], pts,
                                        tol=1e-8)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert not by_name["pairwise_poisson_brackets"].passed
        assert family is None

    @pytest.mark.parametrize("bump", [np.nan, 1e-3])
    def test_bad_partials_fail_the_rebuilt_operator_checks(self, bump,
                                                           monkeypatch):
        """A NaN or a finite 1e-3 error in one partial of the second rebuilt
        operator at one point fails its torsion and its strong symmetries
        there (the first is Id here, whose torsion ignores its partials)."""
        hams = demo4_rational_hamiltonians()
        pts = sample_points(4, GUARDED)
        clean = integ.ReconstructedFamily.jet_data

        def poisoned(self, points, *args):
            V, dV = clean(self, points, *args)
            dV = dV.copy()
            dV[np.all(points == pts[3], axis=1), 1, 0, 0, 1] += bump
            return V, dV

        monkeypatch.setattr(integ.ReconstructedFamily, "jet_data", poisoned)
        report, _ = inverse_verify(hams, [1.0, 0.0, 0.0, 0.0], pts, tol=1e-8)
        by_name = {c.name: c for c in report.checks}
        for name in ("reconstructed_nijenhuis_torsion",
                     "reconstructed_strong_symmetries"):
            c = by_name[name]
            assert not c.passed and c.samples == len(pts), name
            assert c.worst_point == list(pts[3]), name
            assert np.isnan(c.residual) if np.isnan(bump) \
                else c.residual > 1e-6, name
        assert [c.name for c in report.checks if not c.passed] == [
            "reconstructed_nijenhuis_torsion",
            "reconstructed_strong_symmetries"]

    def test_one_dimensional_trivial(self):
        H = QuadraticHamiltonian.constant(np.array([[1.0]]))
        pts = sample_points(1, CFG)
        report, family = inverse_verify([H], [1.0], pts, tol=1e-8)
        assert report.passed
        assert np.allclose(family.killing_values([0.2])[0], np.eye(1))
        assert np.allclose(family.eval([0.2])[0], np.eye(1))


class TestSelfConsistency:
    def test_generated_system_passes_family_check(self):
        basis = demo4_constant_basis()
        pts = sample_points(4, CFG)
        system, _ = generate_system(basis, demo4_one_form(), pts)
        rng = np.random.default_rng(8)
        p = rng.uniform(-1, 1, (len(pts), 4))
        assert verify_commuting_family(system.hamiltonians, pts, p,
                                       tol=1e-12).passed

    def test_generated_tilde_system_passes_family_check(self):
        basis = demo4_tilde_basis()
        pts = sample_points(4, GUARDED)
        system, _ = generate_system(basis, demo4_one_form(), pts,
                                    chart=demo4_chart_strings(),
                                    bracket_tol=1e-8)
        rng = np.random.default_rng(8)
        p = rng.uniform(-1, 1, (len(pts), 4))
        assert verify_commuting_family(system.forms(), pts, p,
                                       tol=1e-8).passed


class TestSquareIdentity:
    def test_n15_on_demo4_system(self):
        basis = demo4_system_basis()
        pts = sample_points(4, CFG)
        system, _ = generate_system(basis, demo4_one_form(), pts)
        rng = np.random.default_rng(12)
        for u in pts:
            p = rng.uniform(-1, 1, 4)
            assert system.n15_residual([u], [p])[0] <= 1e-9

    def test_n15_on_tilde_system(self):
        basis = demo4_tilde_basis()
        pts = sample_points(4, GUARDED)
        system, _ = generate_system(basis, demo4_one_form(), pts,
                                    chart=demo4_chart_strings(),
                                    bracket_tol=1e-8)
        rng = np.random.default_rng(13)
        for u in pts[:5]:
            p = rng.uniform(-1, 1, 4)
            assert system.n15_residual([u], [p])[0] <= 1e-9
