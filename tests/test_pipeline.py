"""The float Frobenius pipeline over sample batches (frobalg.point_data and
the batched searches) against the lone-point routines it replaced on the
certify paths, and a guard that no per-point float work is left there."""

import contextlib
import importlib
import io
import json
import sys
from collections import Counter
from itertools import product

import numpy as np
import pytest

from opfrob import frobalg, integ, numkit, opfields
from opfrob.cli import main
from opfrob.errors import (NonCommutingError, OpfrobError, SingularMatrixError,
                           SqrtConvergenceError)
from opfrob.fields import OneFormField, OperatorField
from opfrob.fixtures import (
    demo4_chart_strings,
    demo4_constant_basis,
    demo4_matrices,
    demo4_one_form,
    demo4_rational_guards,
    demo4_rational_hamiltonians,
    demo4_tilde_basis,
)
from opfrob.frobalg import (
    OperatorBasis,
    algebra_report,
    batch_generic_search,
    checked_inv,
    find_generic_covector,
    find_generic_vector,
    point_data,
    structure_constants_at,
    well_conditioned_xi,
)
from opfrob.integ import QuadraticHamiltonian, generate_system, inverse_verify
from opfrob.numkit import (batch_solve, distinct_rows, on_distinct_rows,
                           sqrt_near_identity)
from opfrob.opfields import bracket_residuals, dualize_family
from opfrob.sampling import SampleConfig, sample_points

from helpers import random_power_basis
from oracles import dict_distinct_rows, frobenius_dual, loop_inv, loop_solve

SEED = 42


def analytic_points(count=20):
    cfg = SampleConfig(seed=SEED, count=count, guards=demo4_rational_guards())
    return np.asarray(sample_points(4, cfg))


def stacked(per_point, P):
    return np.stack([np.asarray(per_point(u)) for u in P])


class TestBatchValues:
    """Batch evaluation reproduces the lone-point evaluators bit for bit."""

    def test_operator_basis(self):
        basis, P = demo4_tilde_basis(), analytic_points()
        want = stacked(lambda u: np.stack(basis.eval(u)), P)
        assert basis.batch_jet_arrays(P)[0].tobytes() == want.tobytes()

    def test_rational_hamiltonian(self):
        P = analytic_points()
        for H in demo4_rational_hamiltonians():
            assert H.coeff_jets(P)[0].tobytes() == \
                stacked(H.coeff, P).tobytes()

    def test_one_form(self):
        P = analytic_points()
        alpha = OneFormField.parse(["u2*u3", "1/u1", "u4^2 - u1", "3"], 4)
        assert alpha.batch_jet_arrays(P)[0].tobytes() == \
            stacked(alpha.eval, P).tobytes()


CASES = {
    "example52": lambda: (demo4_tilde_basis(), analytic_points(),
                          np.array([1.0, 0.0, 0.0, 0.0])),
    "power-basis": lambda: (random_power_basis("diag", 3, 7)[0],
                            np.random.default_rng(7).uniform(0.2, 1.0,
                                                             (10, 3)),
                            np.array([0.3, -0.8, 0.5])),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_point_data_matches_the_lone_point_routines(case):
    basis, P, covector = CASES[case]()
    data = basis.point_data(P, covector, seed=SEED)
    for b, u in enumerate(P):
        mats = basis.eval(u)
        xi = well_conditioned_xi(mats, SEED)
        assert data.xi[b].tobytes() == xi.tobytes()
        a, closure = structure_constants_at(mats, xi)
        form, form_inv, dual = frobenius_dual(a, covector, mats)
        for got, want in ((data.structure[b], a), (data.form[b], form),
                          (data.form_inv[b], form_inv),
                          (data.dual[b], np.stack(dual))):
            assert np.max(np.abs(got - want)) \
                <= 1e-12 * (1.0 + np.max(np.abs(want)))
        assert abs(data.closure_residual[b] - closure) <= 1e-15


def test_batch_solve_is_the_lone_elimination():
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        A = rng.standard_normal((40, n, n))
        A[::4] = np.round(A[::4] * 2.0)
        R = rng.standard_normal((40, n, 7))
        X = batch_solve(A, R)
        P = np.zeros((40, 1))
        try:
            inv = checked_inv(A, P, "singular")
        except SingularMatrixError:
            inv = None
        for k in range(40):
            try:
                want = loop_solve(A[k], R[k])
            except SingularMatrixError:
                continue
            assert X[k].tobytes() == want.tobytes()
            if inv is not None:
                assert inv[k].tobytes() == loop_inv(A[k]).tobytes()


def test_batched_search_is_the_vector_then_covector_loop(monkeypatch):
    # at the coarse tolerance [Id, N] misses the draws whose first (vector)
    # or second (covector) component is small against the other; [Id, 2 Id]
    # misses every draw, [E11, E12] every vector and [E11, E21] every
    # covector
    monkeypatch.setattr(numkit, "RANK_TOL", 0.9)
    N, E11 = np.array([[0.0, 0.0], [1.0, 0.0]]), np.diag([1.0, 0.0])
    V = np.array([[np.eye(2), N], [np.eye(2), 2.0 * np.eye(2)],
                  [E11, N.T], [E11, N], [np.eye(2), N]])
    seen = set()
    for seed in range(40):
        xi, a = batch_generic_search(V, seed)
        draws = np.random.default_rng(seed).uniform(-1.0, 1.0, (64, 2))
        for b, mats in enumerate(V):
            rng = np.random.default_rng(seed)
            want = (find_generic_vector(list(mats), 32, rng, 0.9),
                    find_generic_covector(list(mats), 32, rng, 0.9))
            for got, w in zip((xi[b], a[b]), want):
                assert np.isnan(got).all() if w is None \
                    else got.tobytes() == w.tobytes()
            kv, kc = (None if w is None else
                      int(np.flatnonzero((draws == w).all(axis=1))[0])
                      for w in want)
            seen.add("vector miss" if kv is None else
                     "vector at 0" if kv == 0 else "vector later")
            seen.add("covector miss" if kc is None else
                     "covector after all vector draws" if kv is None else
                     "covector next" if kc == kv + 1 else "covector later")
    assert seen == {"vector at 0", "vector later", "vector miss",
                    "covector next", "covector later", "covector miss",
                    "covector after all vector draws"}


def diag_pair():
    return OperatorBasis([OperatorField.identity(2),
                          OperatorField.parse([["u1", "0"], ["0", "u2"]], 2)])


def test_a_degenerate_form_is_named_at_its_point():
    # with the covector (1, 0) the form is diag(1, -u1 u2): degenerate on
    # u1 = 0
    P = np.array([[0.3, 0.7], [-0.6, 0.2], [0.0, 0.5], [0.4, -0.9]])
    with pytest.raises(SingularMatrixError, match=r"at \[0\.0, 0\.5\]") \
            as exc:
        diag_pair().point_data(P, [1.0, 0.0])
    assert "Frobenius form is degenerate" in str(exc.value)
    assert exc.value.index == 2


def test_a_degenerate_form_keeps_the_structure_of_one_search(monkeypatch):
    """``verify-algebra`` with that covector searches and solves once: the
    structure checks read the one solve's data, and the form check the
    error ``point_data`` raises with the covector."""
    P = np.array([[0.3, 0.7], [-0.6, 0.2], [0.0, 0.5], [0.4, -0.9]])
    calls, search = [], frobalg.batch_well_conditioned_xi
    monkeypatch.setattr(frobalg, "batch_well_conditioned_xi",
                        lambda *args: calls.append(1) or search(*args))
    report = algebra_report(diag_pair(), P, [1.0, 0.0], seed=SEED)
    assert len(calls) == 1
    monkeypatch.undo()
    _, V = diag_pair().values(P)
    with pytest.raises(SingularMatrixError) as exc:
        point_data(V, P, [1.0, 0.0], SEED)
    data = point_data(V, P, None, SEED)
    checks = {c.name: c for c in report.checks}
    assert list(checks)[-1] == "form_nondegenerate"
    assert not checks["form_nondegenerate"].passed
    assert checks["form_nondegenerate"].detail == str(exc.value)
    for name, res in (("span_closure", data.closure_residual),
                      ("structure_symmetry", data.symmetry_residual),
                      ("associativity", data.associativity_residual)):
        assert checks[name].passed
        assert checks[name].residual == np.max(res)


class TestDistinctRows:
    """The float pipeline runs once per distinct basis of a batch and
    gathers the results back to every point."""

    @staticmethod
    def interleaved():
        # bases A, B, A, C, B at five points, then A's values with C's
        # partials: the tangent functions key on both together
        basis, P, covector = CASES["power-basis"]()
        V, dV = basis.batch_jet_arrays(P[:3])
        V, dV = V[[0, 1, 0, 2, 1, 0]], dV[[0, 1, 0, 2, 1, 2]]
        return V, dV, P[:6], covector

    def test_rows_are_keyed_by_their_bytes_in_first_occurrence_order(self):
        V = np.array([[1.0], [0.0], [1.0], [-0.0], [0.0]])
        first, which = distinct_rows(V)
        assert first.tolist() == [0, 1, 3]
        assert which.tolist() == [0, 1, 0, 2, 1]
        first, which = distinct_rows(V, np.arange(5.0))
        assert first.tolist() == which.tolist() == [0, 1, 2, 3, 4]

    def test_each_row_is_its_lone_result_bit_for_bit(self):
        V, dV, P, covector = self.interleaved()
        for cov, partials in product((None, covector), (None, dV)):
            data = point_data(V, P, cov, SEED, dV=partials)
            for b in range(len(P)):
                one = point_data(V[b:b + 1], P[b:b + 1], cov, SEED,
                                 dV=None if partials is None
                                 else partials[b:b + 1])
                for name, value in vars(one).items():
                    got = getattr(data, name)
                    assert (got is None) == (value is None), name
                    if value is not None:
                        assert got[b].tobytes() == value[0].tobytes(), name

    def test_the_tangents_add_nothing_to_the_values(self):
        V, dV, P, covector = self.interleaved()
        plain = point_data(V, P, covector, SEED)
        data = point_data(V, P, covector, SEED, dV=dV)
        for name, value in vars(plain).items():
            if value is not None:
                assert getattr(data, name).tobytes() == value.tobytes(), name
        assert plain.structure_tangent is plain.dual_tangent is None
        # with a covector only the dual tangents are kept
        assert data.structure_tangent is None
        assert point_data(V, P, None, SEED, dV=dV).dual_tangent is None

    @pytest.mark.parametrize("layout, first", [("HFHF", 1), ("HHFHF", 2)])
    def test_the_first_failing_point_is_named(self, layout, first):
        # with the covector (1, 0) the form diag(1, -u1 u2) is degenerate at
        # F = (0, 0.5); its basis sorts after that at H = (-0.6, 0.2), and
        # in "HHFHF" its row among the distinct ones is not its point
        P = np.array([{"H": [-0.6, 0.2], "F": [0.0, 0.5]}[c] for c in layout])
        V, dV = diag_pair().batch_jet_arrays(P)
        assert tuple(V[first].ravel()) > tuple(V[0].ravel())
        for call in (lambda: point_data(V, P, [1.0, 0.0]),
                     lambda: point_data(V, P, [1.0, 0.0], dV=dV)):
            with pytest.raises(SingularMatrixError,
                               match=r"at \[0\.0, 0\.5\]") as exc:
                call()
            assert exc.value.index == first

    def test_a_batch_of_no_point_passes_through(self):
        V, dV, _, covector = self.interleaved()
        P = np.empty((0, 3))
        assert [len(x) for x in distinct_rows(V[:0], dV[:0])] == [0, 0]
        data = point_data(V[:0], P, covector)
        assert data.dual.shape == (0, 3, 3, 3)
        assert data.closure_residual.shape == (0,)
        assert point_data(V[:0], P, dV=dV[:0]).structure_tangent.shape \
            == (0, 3, 3, 3, 3)
        data = point_data(V[:0], P, covector, dV=dV[:0])
        assert data.dual.shape == data.dual_tangent.shape[:-1] \
            == (0, 3, 3, 3)


def nans(*payloads):
    """Quiet NaNs with the given payloads, one per row."""
    bits = np.array(payloads, dtype=np.uint64) | np.uint64(0x7FF8 << 48)
    return bits.view(float).reshape(-1, 1)


def colliding_rows():
    """Two distinct rows of words (x, y) and (x + c, y - 1), whose hashes
    c x + c^2 y (mod 2^64) in ``distinct_rows`` agree."""
    c = numkit.ROW_HASH_BASE
    return np.array([[1, 5], [1 + c, 4]], dtype=np.uint64).view(float)


# (B, ...) stacks with their rows in every relation the keys must tell apart
STACKS = {
    "all-equal": lambda: (np.broadcast_to(np.arange(6.0).reshape(2, 3),
                                          (5, 2, 3)).copy(),),
    "all-distinct": lambda: (np.arange(30.0).reshape(5, 2, 3),),
    "repeats": lambda: (np.arange(12.0).reshape(4, 3)[
        [2, 0, 2, 3, 0, 0, 1, 3]],),
    "strided": lambda: (np.arange(40.0).reshape(5, 8)[[0, 1, 0, 2, 1], ::2],),
    "signed-zeros": lambda: (np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0],
                                       [-0.0, 1.0]]),),
    "nan-payloads": lambda: (nans(1, 2, 1, 2, 2),),
    "no-row": lambda: (np.empty((0, 2, 3)), np.empty((0, 4))),
    "one-row": lambda: (np.ones((1, 2, 2)), np.zeros((1, 3))),
    "values-equal-partials-not": lambda: (
        np.ones((4, 2, 2)), np.array([[0.0], [1.0], [0.0], [2.0]])),
    "values-repeat-partials-not": lambda: (
        np.array([[1.0], [2.0], [1.0], [2.0]]),
        np.array([[0.0], [0.0], [5.0], [0.0]])),
    "values-differ-partials-equal": lambda: (
        np.arange(4.0).reshape(4, 1), np.zeros((4, 3))),
    "hash-collision": lambda: (colliding_rows(),),
    "odd-row-width": lambda: (np.arange(12, dtype=np.float32).reshape(4, 3)[
        [0, 1, 0, 3]],),
}


class TestDistinctStages:
    """The stages that read only the basis run once per distinct row of a
    batch: each result equals the call on the whole stack bit for bit, and
    an error names the first occurrence of its row."""

    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_distinct_rows_is_the_dict_reference(self, case):
        stacks = STACKS[case]()
        for got, want in zip(distinct_rows(*stacks),
                             dict_distinct_rows(*stacks)):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()

    @staticmethod
    def whole(monkeypatch):
        """Make every routed stage run on the whole stack."""
        def plain(fn, stacks, points, *args):
            return fn(*stacks, points, *args)
        for module in (frobalg, integ, opfields):
            monkeypatch.setattr(module, "on_distinct_rows", plain)

    @staticmethod
    def repeated():
        """Analytic example52 at seven points, four of them repeats."""
        return analytic_points(4)[[0, 1, 0, 2, 1, 3, 0]]

    def test_bracket_tables(self, monkeypatch):
        P = self.repeated()
        V, dV = demo4_tilde_basis().batch_jet_arrays(P)
        pairs = [(0, 0), (0, 1), (1, 3), (2, 2), (2, 3)]
        got = [bracket_residuals(V, dV, pairs, P, 1e-9, sym).tobytes()
               for sym in (True, False)]
        self.whole(monkeypatch)
        assert got == [bracket_residuals(V, dV, pairs, P, 1e-9,
                                         sym).tobytes()
                       for sym in (True, False)]

    @pytest.mark.parametrize("basis", [demo4_tilde_basis, diag_pair])
    def test_validation_and_pullback_rank(self, basis, monkeypatch):
        P = self.repeated()[:, :basis().dimension]
        reports = [lambda: basis().validate(P)]
        if basis is demo4_tilde_basis:
            reports.append(lambda: generate_system(
                basis(), demo4_one_form(), P, chart=demo4_chart_strings(),
                seed=SEED)[1])
        def checks():     # every field, residuals compared exactly
            return [[vars(c) for c in r().checks] for r in reports]
        got = checks()
        self.whole(monkeypatch)
        assert got == checks()

    @pytest.mark.parametrize("constant", [True, False])
    def test_hj_differentials(self, constant, monkeypatch):
        P = self.repeated()
        system = generate_system(
            demo4_constant_basis() if constant else demo4_tilde_basis(),
            demo4_one_form(), P, chart=None if constant
            else demo4_chart_strings(), seed=SEED)[0]
        c = [1.0, 0.1, 0.1, 0.1]
        got = system.hj_differential(P, c).tobytes()
        self.whole(monkeypatch)
        assert got == system.hj_differential(P, c).tobytes()

    def test_a_constant_system_serves_its_origin_row(self):
        P = self.repeated()
        basis = demo4_constant_basis()
        system = generate_system(basis, demo4_one_form(), P, seed=SEED)[0]
        got = system.batch_data(P)[1]
        want = frobalg._point_data(basis.values(P)[1], None, P, None, SEED)
        for name, value in vars(want).items():
            assert (value is None) == (getattr(got, name) is None), name
            if value is not None:
                assert getattr(got, name).tobytes() == value.tobytes(), name

    def test_a_non_commuting_row_is_named_at_its_first_point(self):
        # commuting rows A, a non-commuting row N: A A N A N
        A = np.stack([np.eye(2), np.diag([1.0, 2.0])])
        N = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        N[0] = np.array([[1.0, 0.0], [0.0, 2.0]])
        V = np.stack([A, A, N, A, N])
        P = np.arange(10.0).reshape(5, 2)
        dV = np.zeros(V.shape + (2,))
        with pytest.raises(NonCommutingError, match=r"at \[4\.0, 5\.0\]") \
                as exc:
            bracket_residuals(V, dV, [(0, 1)], P, 1e-9, False)
        assert exc.value.index == 2

    def test_a_failing_square_root_is_named_at_its_first_point(self):
        system = generate_system(demo4_constant_basis(), demo4_one_form(),
                                 np.zeros((1, 4)), seed=SEED)[0]
        # c = e_1 takes the square root of M^1: Id at rows 0, 1, 3 and
        # -Id, with no principal root, at rows 2 and 4
        M = np.zeros((5, 4, 4, 4))
        M[:, 0] = np.eye(4) * np.array([1.0, 1.0, -1.0, 1.0, -1.0])[
            :, None, None]
        system.chart_frame_basis = lambda P: (M, np.ones((len(P), 4)))
        P = np.arange(20.0).reshape(5, 4) / 20.0
        with pytest.raises(SqrtConvergenceError,
                           match=r"^dW at \[0\.4, 0\.45, 0\.5, 0\.55\]") \
                as exc:
            system.hj_differential(P, [1.0, 0.0, 0.0, 0.0])
        assert exc.value.index == 2
        with pytest.raises(SqrtConvergenceError) as exc:
            on_distinct_rows(lambda S, _: sqrt_near_identity(S),
                             (M[:, 0],), P)
        assert exc.value.index == 2

    def test_an_error_without_an_index_passes_through(self):
        error = OpfrobError("not about a point")

        def fails(V, points):
            raise error

        V = np.zeros((3, 2, 2))
        with pytest.raises(OpfrobError) as exc:
            on_distinct_rows(fails, (V,), np.zeros((3, 2)))
        assert exc.value is error and exc.value.index is None
        assert str(exc.value) == "not about a point"


class TestGenericityHonesty:
    # the columns xi, diag(u1, u2) xi are dependent on u1 = u2
    P = np.array([[0.3, 0.7], [-0.6, 0.2], [0.5, 0.5], [0.4, -0.9]])

    def test_no_point_is_no_pass(self):
        none = np.zeros((0, 4))
        basis = OperatorBasis.from_matrices(demo4_matrices())
        checks = [algebra_report(basis, none).checks[2],
                  dualize_family(basis, [0.0, 0.0, 0.0, 1.0],
                                 none)[1].checks[1]]
        for c in checks:
            assert c.name == "genericity_A1_A2"
            assert not c.passed and c.samples == 0

    def test_dualize_stops_at_the_first_failing_point(self):
        _, report = dualize_family(diag_pair(), [1.0, 1.0], self.P)
        c = report.checks[1]
        assert c.name == "genericity_A1_A2" and not c.passed
        assert c.samples == 3 and c.worst_point == [0.5, 0.5]
        assert c.detail == "no generic vector at [0.5, 0.5]"

    def test_verify_algebra_counts_every_point(self):
        by_name = {c.name: c for c in
                   algebra_report(diag_pair(), self.P, [1.0, 1.0]).checks}
        c = by_name["genericity_A1_A2"]
        assert not c.passed and c.samples == 4
        assert c.worst_point == [0.5, 0.5]
        assert c.detail == "no generic vector at [0.5, 0.5]"
        assert by_name["span_closure"].samples == 3


@pytest.mark.parametrize("h1,h2,points,counts,detail", [
    # h_1 = diag(1, u1) is singular at the third point
    ("u1", ["u2", "u1*u1"], [[0.3, 0.5], [0.7, -0.2], [0.0, 0.4], [0.5, 0.5]],
     [2, 2, 2, 2], "h_1 is singular at [0.0, 0.4]: "),
    # K_2 = diag(u1, u2) is scalar, so no vector is generic, at (0.6, 0.6)
    ("1", ["u1", "u2"], [[0.3, 0.5], [0.6, 0.6], [0.1, 0.4], [0.5, 0.5]],
     [2, 2, 1, 1], "no generic vector at [0.6, 0.6]"),
    # with the covector (1, 0) the form degenerates on u1 = 0
    ("1", ["u1", "u2"], [[0.3, 0.5], [0.0, 0.6], [0.1, 0.4]], [2, 2, 1, 1],
     "Frobenius form is degenerate for covector [1.0, 0.0] at [0.0, 0.6]: "),
])
def test_inverse_hypotheses_stop_at_the_first_failing_point(h1, h2, points,
                                                           counts, detail):
    hams = [QuadraticHamiltonian.parse([["1", "0"], ["0", h1]], 2),
            QuadraticHamiltonian.parse([[h2[0], "0"], ["0", h2[1]]], 2)]
    report, family = inverse_verify(hams, [1.0, 0.0], np.array(points))
    checks = report.checks[2:]
    assert [c.name for c in checks] == [
        "killing_pairwise_commutation", "killing_self_adjointness",
        "frobenius_span", "form_duality"]
    assert [c.samples for c in checks] == counts
    assert not checks[2].passed and checks[2].detail.startswith(detail)
    assert family is None


def emitted_family(path):
    """(exit code, emitted_family line) of ``generate`` on a system file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["generate", str(path), "--samples", "10"])
    (line,) = [x for x in out.getvalue().splitlines()
               if "emitted_family" in x]
    return code, line


@pytest.mark.parametrize("seed", range(3))
def test_conjugated_constant_basis_gives_the_same_family(seed, tmp_path):
    """Constant example52 conjugated by a random G in GL(4): the same
    structure constants and the same emitted family."""
    G = np.random.default_rng(seed).uniform(-1.0, 1.0, (4, 4))
    mats = [G @ M @ np.linalg.inv(G) for M in demo4_matrices()]
    P = np.asarray(sample_points(4, SampleConfig(seed=SEED, count=10)))
    a = OperatorBasis.from_matrices(demo4_matrices()).point_data(P).structure
    conj = OperatorBasis.from_matrices(mats)
    assert np.max(np.abs(conj.point_data(P).structure - a)) <= 1e-12
    _, report = generate_system(conj, demo4_one_form(), P)
    assert report.passed, report.render()

    path = tmp_path / "e52.json"
    main(["builtin", "example52", "--emit", str(path)])
    original = emitted_family(path)
    doc = json.loads(path.read_text())
    doc["fields"] = {f"M{i + 1}": [[repr(float(x)) for x in row] for row in M]
                     for i, M in enumerate(mats)}
    path.write_text(json.dumps(doc))
    assert emitted_family(path) == original == (0, original[1])


# the lone-point routines left for truncated series and the flat basis
COUNTED = ("frobalg.structure_constants_at", "frobalg.well_conditioned_xi",
           "numkit.mat_solve")


@pytest.mark.parametrize("variant", ["constant", "analytic"])
def test_per_point_float_work_does_not_grow_with_the_samples(
        variant, tmp_path, monkeypatch, capsys):
    counts = Counter()
    modules = [m for name, m in list(sys.modules.items())
               if name == "opfrob" or name.startswith("opfrob.")]
    for qualname in COUNTED:
        mod, name = qualname.split(".")
        orig = getattr(importlib.import_module(f"opfrob.{mod}"), name)

        def counted(*args, _orig=orig, _name=qualname, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    monkeypatch.setattr(m, attr, counted)

    path = str(tmp_path / "e52.json")
    main(["builtin", "example52", "--variant", variant, "--emit", path])
    seen = []
    for samples in ("5", "40"):
        counts.clear()
        codes = [main([cmd, path, "--samples", samples, *extra])
                 for cmd, *extra in (["verify-algebra"], ["dualize"],
                                     ["symcheck"], ["generate"], ["inverse"],
                                     ["hj", "--c", "1,0.1,0.1,0.1"])]
        seen.append((codes, dict(counts)))
    capsys.readouterr()
    assert seen[0] == seen[1]


def test_each_command_solves_each_stack_once(tmp_path, monkeypatch, capsys):
    """``generate``, ``hj``, ``inverse`` and the analytic builtin each solve
    one stack of bases (the basis, or the Killing tensors) and run the xi
    search once for it; ``hj``'s points begin the batch that its
    ``generate`` solved.  ``inverse_verify`` evaluates each Hamiltonian's
    coefficient jets once.  Nothing is kept from one command to the next:
    ``verify-algebra`` and ``dualize`` solve the same stack, and both
    search.  ``generate``, ``hj``, ``dualize`` and ``verify-algebra``
    evaluate each basis field once, and ``generate`` and ``hj`` each 1-form
    (alpha, the chart) once: the system keeps alpha's values with the batch
    it solved, for the chart frame of the Poisson brackets and of dW."""
    searched, evaluated, fields, forms = [], Counter(), Counter(), Counter()
    search = frobalg.batch_well_conditioned_xi
    coeff_jets = QuadraticHamiltonian.coeff_jets
    field_jets = OperatorField.batch_jet_arrays
    form_jets = OneFormField.batch_jet_arrays

    def counted_search(V, points, *args):
        searched.append(hash((V.tobytes(), np.asarray(points).tobytes())))
        return search(V, points, *args)

    def counted_jets(self, points):
        evaluated[id(self)] += 1
        return coeff_jets(self, points)

    def counted_field(self, *args):
        fields[id(self)] += 1
        return field_jets(self, *args)

    def counted_form(self, *args):
        forms[id(self)] += 1
        return form_jets(self, *args)

    monkeypatch.setattr(frobalg, "batch_well_conditioned_xi", counted_search)
    monkeypatch.setattr(QuadraticHamiltonian, "coeff_jets", counted_jets)
    monkeypatch.setattr(OperatorField, "batch_jet_arrays", counted_field)
    monkeypatch.setattr(OneFormField, "batch_jet_arrays", counted_form)
    path = str(tmp_path / "e52.json")
    main(["builtin", "example52", "--variant", "analytic", "--emit", path])
    seen = {}
    for argv in (["generate", path], ["hj", path, "--c", "1,0.1,0.1,0.1"],
                 ["inverse", path],
                 ["builtin", "example52", "--variant", "analytic"],
                 ["verify-algebra", path], ["dualize", path]):
        for counter in (searched, evaluated, fields, forms):
            counter.clear()
        assert main([*argv, "--samples", "10"]) == 0
        seen[argv[0]] = (list(searched), sorted(evaluated.values()),
                         sorted(fields.values()), sorted(forms.values()))
    capsys.readouterr()
    for command in ("generate", "hj", "inverse", "builtin"):
        assert len(seen[command][0]) == 1, command
    # the builtin's own bracket check evaluates the jets once more
    assert seen["inverse"][1] == [1] * 4
    assert seen["builtin"][1] == [2] * 4
    assert seen["verify-algebra"][0] == seen["dualize"][0] != []
    for command in ("generate", "hj", "dualize", "verify-algebra"):
        assert seen[command][2] == [1] * 4, command
    for command in ("generate", "hj"):
        assert seen[command][3] == [1, 1], command


def test_a_constant_system_solves_each_basis_once(tmp_path, monkeypatch,
                                                  capsys):
    """On the emitted constant example52 file ``generate``, ``hj`` and
    ``inverse`` each run the xi search once, and the constant builtin twice,
    once for each of its two bases: a constant system serves every batch
    from the row it solved at the origin."""
    searched = []
    search = frobalg.batch_well_conditioned_xi

    def counted_search(V, points, *args):
        searched.append(hash((V.tobytes(), np.asarray(points).tobytes())))
        return search(V, points, *args)

    monkeypatch.setattr(frobalg, "batch_well_conditioned_xi", counted_search)
    path = str(tmp_path / "e52.json")
    main(["builtin", "example52", "--emit", path])
    seen = {}
    for argv in (["generate", path], ["hj", path, "--c", "1,0.1,0.1,0.1"],
                 ["inverse", path], ["builtin", "example52"]):
        searched.clear()
        assert main([*argv, "--samples", "10"]) == 0
        seen[argv[0]] = list(searched)
    capsys.readouterr()
    assert {command: len(s) for command, s in seen.items()} == {
        "generate": 1, "hj": 1, "inverse": 1, "builtin": 2}
    assert len(set(seen["builtin"])) == 2
