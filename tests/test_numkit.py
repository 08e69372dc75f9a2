import numpy as np
import pytest

from opfrob.errors import SingularMatrixError, SqrtConvergenceError
from opfrob.exprs import eval_expr, parse_expr
from opfrob.fixtures import demo4_matrices
from opfrob.numkit import (
    Jet,
    jet_point,
    mat_rank,
    mat_solve,
    split_jet_matrix,
    sqrt_near_identity,
)

from oracles import fd_matrix_derivatives, loop_inv, loop_mat_rank, loop_solve


class TestSolve:
    def test_identity(self):
        B = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(mat_solve(np.eye(2), B), B)

    def test_swap_inverse(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        X = mat_solve(A, np.eye(2))
        assert np.allclose(X, A)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            mat_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2))

    def test_vector_rhs(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = mat_solve(A, np.array([3.0, 4.0]))
        assert np.allclose(A @ x, [3.0, 4.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_recovers_solution_well_conditioned(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        A = np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n))
        X = rng.uniform(-1, 1, (n, n))
        rec = mat_solve(A, A @ X)
        assert np.max(np.abs(rec - X)) <= 1e-10 * (1 + np.max(np.abs(X)))

    def test_jet_solve_carries_derivatives(self):
        # A(u) x = b with A = [[u1, 1], [0, u2]]: x2 = b2/u2 has known grads
        u = [2.0, 4.0]
        jp = jet_point(u)
        A = np.empty((2, 2), dtype=object)
        A[0, 0] = jp[0]; A[0, 1] = 1.0; A[1, 0] = 0.0; A[1, 1] = jp[1]
        b = np.array([1.0, 1.0], dtype=object)
        x = loop_solve(A, b)
        assert np.isclose(x[1].value, 0.25)
        assert np.allclose(x[1].partials, [0.0, -1.0 / 16.0])


class TestRank:
    def test_full_rank_identity(self):
        assert mat_rank(np.eye(4)) == 4

    def test_rank_deficient(self):
        assert mat_rank(np.array([[1.0, 0.0], [0.0, 0.0]])) == 1

    def test_demo4_columns_at_e4(self):
        mats = demo4_matrices()
        xi = np.array([0.0, 0.0, 0.0, 1.0])
        cols = np.column_stack([M @ xi for M in mats])
        assert mat_rank(cols) == 1

    def test_demo4_columns_at_e1(self):
        mats = demo4_matrices()
        xi = np.array([1.0, 0.0, 0.0, 0.0])
        cols = np.column_stack([M @ xi for M in mats])
        assert mat_rank(cols) == 4

    def test_zero_matrix(self):
        assert mat_rank(np.zeros((3, 3))) == 0

    def test_tolerance_flag(self):
        A = np.diag([1.0, 1e-12])
        assert mat_rank(A, tol=1e-9) == 1
        assert mat_rank(A, tol=1e-14) == 2


def _rank_stacks(seed):
    """Random (B, r, c) stacks: generic, rank-deficient, containing zero
    matrices, NaN or inf entries, tied magnitudes, wide and tall."""
    rng = np.random.default_rng(seed)
    for k in range(240):
        r, c = (int(x) for x in rng.integers(1, 7, 2))
        B = int(rng.integers(1, 6))
        A = rng.standard_normal((B, r, c))
        kind = k % 6
        if kind == 1:
            m = int(rng.integers(0, min(r, c) + 1))
            A = rng.standard_normal((B, r, m)) @ rng.standard_normal((B, m, c))
        elif kind == 2:
            A[rng.integers(0, B)] = 0.0
        elif kind == 3:
            A.flat[rng.integers(0, A.size, 2)] = np.nan
        elif kind == 4:
            A.flat[rng.integers(0, A.size, 2)] = rng.choice([np.inf, -np.inf])
        elif kind == 5:
            A = np.round(A)
        yield A, (1e-9, 1e-14, 0.3)[k % 3]


class TestStackedRank:
    @pytest.mark.parametrize("seed", range(3))
    def test_stack_equals_one_matrix_at_a_time(self, seed):
        for A, tol in _rank_stacks(seed):
            want = [loop_mat_rank(M, tol=tol) for M in A]
            assert mat_rank(A, tol=tol).tolist() == want
            assert [mat_rank(M, tol=tol) for M in A] == want

    def test_pivot_at_the_threshold_skips_its_column(self):
        A = np.array([[[1.0, 0.0], [0.0, 0.25]], [[1.0, 0.0], [0.0, 0.5]]])
        assert mat_rank(A, tol=0.25).tolist() == [1, 2]

    def test_nan_entry_never_skips_a_column(self):
        # the threshold is NaN, and no pivot compares below a NaN
        A = np.array([[0.0, 1.0], [np.nan, 0.0], [0.0, 0.0]])
        assert mat_rank(A) == loop_mat_rank(A) == 2
        assert mat_rank(np.stack([A, np.zeros((3, 2))])).tolist() == [2, 0]

    def test_shapes(self):
        assert type(mat_rank(np.eye(3))) is int
        assert mat_rank(np.ones((2, 3, 4, 5))).tolist() == [[1] * 3] * 2
        assert mat_rank(np.zeros((0, 3, 3))).shape == (0,)
        assert mat_rank(np.zeros((0, 3))) == 0


class TestSqrt:
    def test_identity(self):
        assert np.allclose(sqrt_near_identity(np.eye(3)), np.eye(3))

    def test_scalar(self):
        assert np.allclose(sqrt_near_identity(np.array([[4.0]])), [[2.0]])

    def test_nilpotent_shift(self):
        # (Id + N/2)^2 = Id + N for N^2 = 0
        N = demo4_matrices()[3]
        R = sqrt_near_identity(np.eye(4) + N)
        assert np.max(np.abs(R - (np.eye(4) + 0.5 * N))) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_near_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        R = np.eye(n) + rng.uniform(-1, 1, (n, n)) * (0.29 / n)
        S = R @ R
        rec = sqrt_near_identity(S)
        assert np.max(np.abs(rec - R)) <= 1e-9 * (1 + np.max(np.abs(R)))
        assert np.max(np.abs(rec @ rec - S)) <= 1e-10 * max(1, np.max(np.abs(S)))

    def test_negative_spectrum_fails(self):
        with pytest.raises(SqrtConvergenceError):
            sqrt_near_identity(-np.eye(2))

    def test_singular_fails(self):
        with pytest.raises(SqrtConvergenceError):
            sqrt_near_identity(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_roots_are_the_lone_roots(self):
        # Id converges in one step, diag(100, 0.01, 1) in seven; each
        # matrix leaves the stacked iteration at its own step
        rng = np.random.default_rng(4)
        S = [np.eye(3), np.diag([100.0, 0.01, 1.0]), np.eye(3) + np.diag(
            [1.0, 1.0], 1)]
        for scale in (0.01, 0.1, 0.3):
            R = np.eye(3) + rng.uniform(-scale, scale, (3, 3))
            S.append(R @ R)
        S = np.stack(S)
        roots = sqrt_near_identity(S)
        for k in range(len(S)):
            assert roots[k].tobytes() == sqrt_near_identity(S[k]).tobytes()
        stacked = sqrt_near_identity(S.reshape(2, 3, 3, 3))
        assert stacked.tobytes() == roots.tobytes()
        assert sqrt_near_identity(np.empty((0, 3, 3))).shape == (0, 3, 3)

    def test_stack_names_its_first_failing_matrix(self):
        # -Id fails at the second step and the singular matrix at the
        # first, but -Id comes first in the stack
        S = np.stack([np.eye(2), 4.0 * np.eye(2), -np.eye(2), np.eye(2),
                      np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(SqrtConvergenceError,
                           match="singular factor") as exc:
            sqrt_near_identity(S)
        assert exc.value.index == 2
        with pytest.raises(SqrtConvergenceError) as exc:
            sqrt_near_identity(S[[0, 4, 2]])
        assert exc.value.index == 1


class TestJetMatrixProducts:
    def test_product_rule_against_fd(self):
        n = 3
        A_field = [["u1^2", "u2", "1"], ["u3", "u1*u3", "0"],
                   ["u2^2", "1", "u1+u2"]]
        B_field = [["u3", "u1", "u2"], ["0", "u2^2", "u1"],
                   ["u1*u2", "2", "u3^2"]]
        A_ex = [[parse_expr(s, n) for s in row] for row in A_field]
        B_ex = [[parse_expr(s, n) for s in row] for row in B_field]

        def eval_grid(grid, u):
            return np.array([[float(eval_expr(e, list(u))) for e in row]
                             for row in grid])

        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.uniform(0.2, 1.0, n)
            jp = jet_point(u)
            A = np.array([[eval_expr(e, jp) for e in row] for row in A_ex],
                         dtype=object)
            B = np.array([[eval_expr(e, jp) for e in row] for row in B_ex],
                         dtype=object)
            val, der = split_jet_matrix(A @ B, n)
            fd = fd_matrix_derivatives(
                lambda x: eval_grid(A_ex, x) @ eval_grid(B_ex, x), u)
            assert np.all(np.abs(der - fd) <= 1e-6 * (1.0 + np.abs(der)))

    def test_mat_inv_object(self):
        jp = jet_point([2.0, 3.0])
        A = np.empty((2, 2), dtype=object)
        A[0, 0] = jp[0]; A[0, 1] = 0.0; A[1, 0] = 0.0; A[1, 1] = jp[1]
        inv = loop_inv(A)
        assert np.isclose(inv[0, 0].value, 0.5)
        assert np.allclose(inv[0, 0].partials, [-0.25, 0.0])


class TestJetScalar:
    def test_pow_negative(self):
        x = Jet(2.0, np.array([1.0]))
        y = x ** -2
        assert np.isclose(y.value, 0.25)
        assert np.allclose(y.partials, [-2.0 * 2.0 ** -3])

    def test_division_by_zero_jet(self):
        x = Jet(0.0, np.array([1.0]))
        with pytest.raises(ZeroDivisionError):
            _ = 1.0 / x

    def test_rsub_rdiv(self):
        x = Jet(4.0, np.array([1.0]))
        assert np.isclose((3.0 - x).value, -1.0)
        assert np.allclose((3.0 - x).partials, [-1.0])
        assert np.isclose((2.0 / x).value, 0.5)
        assert np.allclose((2.0 / x).partials, [-2.0 / 16.0])
