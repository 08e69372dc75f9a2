"""Regular representations of Segre type (``fixtures.segre_algebra``) at
n in {2, 3, 5, 6, 8, 12}: the generator itself, the round trips of the
constant and analytic bases through the commands' library calls, and
metamorphic checks (conjugation, the dual of the dual, seed independence).

n = 2 has only the two Segre types [2] and [1 1]; n from 3 to 8 runs
[n], [1 .. 1] and a mixed type; n = 12 runs two mixed types, [4 3 2 1 1 1]
and [6 6].
"""

from functools import lru_cache

import numpy as np
import pytest

from opfrob.fields import OneFormField
from opfrob.fixtures import segre_algebra
from opfrob.frobalg import OperatorBasis, algebra_report, point_data
from opfrob.integ import (
    generate_system,
    inverse_verify,
    verify_commuting_family,
)
from opfrob.opfields import dualize_family
from opfrob.sampling import SampleConfig, sample_points
from opfrob.symalg import FlatBasis, analytic_symmetry, canonical_symmetry_U

SEED = 42
TYPES = [[2], [1, 1],
         [3], [1, 1, 1], [2, 1],
         [5], [1] * 5, [2, 3],
         [6], [1] * 6, [3, 2, 1],
         [8], [1] * 8, [4, 4],
         [4, 3, 2, 1, 1, 1], [6, 6]]
by_type = pytest.mark.parametrize(
    "blocks", TYPES, ids=lambda b: "-".join(map(str, b)))


def points(n, seed=SEED, count=20):
    return sample_points(n, SampleConfig(seed=seed, count=count))


def system_basis(blocks):
    """The Segre basis reordered for ``generate``: [top_1, the non-top
    elements, top_j - top_1 for the later blocks].  Its first dual
    coordinate is then the block-top covector, so h_1 is nondegenerate.
    Returns (basis, top covector)."""
    matrices, top, _ = segre_algebra(blocks)
    tops = list(np.cumsum(blocks) - 1)
    first = matrices[tops[0]]
    mats = [first] + [M for i, M in enumerate(matrices) if i not in tops] \
        + [matrices[t] - first for t in tops[1:]]
    return OperatorBasis.from_matrices(mats), top


@lru_cache(maxsize=None)
def analytic_basis(blocks):
    """Fields K_i = (Id + c_i U) M^i from ``analytic_symmetry`` with seeded
    |c_i| <= 0.3, so Id + c_i U stays invertible on the unit box."""
    matrices, _, unit = segre_algebra(blocks)
    flat = FlatBasis(matrices, unit)
    rng = np.random.default_rng(SEED)
    n = len(matrices)
    fields = []
    for i in range(n):
        tup = [[] for _ in range(n)]
        tup[i] = [1.0, float(np.round(rng.uniform(-0.3, 0.3), 3))]
        fields.append(analytic_symmetry(flat, tup))
    return OperatorBasis(fields)


class TestGenerator:
    def test_diagonal_and_jordan_types(self):
        eye = np.eye(4)
        J = np.eye(4, k=-1)
        diag, top, unit = segre_algebra([1, 1, 1, 1])
        for i, M in enumerate(diag):
            assert M.tobytes() == np.diag(eye[i]).tobytes()
        assert top.tolist() == unit.tolist() == [1.0] * 4
        jordan, top, unit = segre_algebra([4])
        for k, M in enumerate(jordan):
            assert M.tobytes() == np.linalg.matrix_power(J, k).tobytes()
        assert top.tolist() == [0.0, 0.0, 0.0, 1.0]
        assert unit.tolist() == [1.0, 0.0, 0.0, 0.0]

    @by_type
    def test_unit_gives_the_normalized_flat_form(self, blocks):
        matrices, top, unit = segre_algebra(blocks)
        n = sum(blocks)
        flat = FlatBasis(matrices, unit)
        assert flat.dimension == n
        assert np.array_equal(np.stack(matrices) @ unit, np.eye(n))
        # the top covector pairs the algebra nondegenerately
        form = np.einsum("k,ikj->ij", top, np.stack(matrices))
        assert abs(np.linalg.det(form)) == 1.0

    def test_canonical_symmetries_of_the_centralisers(self):
        u = np.array([0.3, -0.7, 0.2])
        diag = canonical_symmetry_U(FlatBasis(*segre_algebra([1, 1, 1])[::2]))
        assert np.array_equal(diag.eval(u), np.diag(u))
        jordan = canonical_symmetry_U(FlatBasis(*segre_algebra([3])[::2]))
        want = sum(u[k] * np.eye(3, k=-k) for k in range(3))
        assert np.array_equal(jordan.eval(u), want)


class TestRoundTrip:
    @by_type
    def test_constant_basis(self, blocks):
        """generate, the pairwise Poisson brackets of its Hamiltonians,
        then the inverse verifier on them with a seeded covector."""
        n = sum(blocks)
        basis, top = system_basis(blocks)
        P = points(n)
        system, report = generate_system(basis, OneFormField.constant(top),
                                         P, seed=SEED)
        assert report.passed, report.render()
        p_draws = np.random.default_rng(SEED + 1).uniform(-1.0, 1.0, (20, n))
        check = verify_commuting_family(system.hamiltonians, P, p_draws,
                                        tol=1e-8)
        assert check.passed, check.render()
        covector = np.random.default_rng(SEED).uniform(-1.0, 1.0, n)
        report, family = inverse_verify(system.hamiltonians, covector, P,
                                        tol=1e-8, seed=SEED)
        assert report.passed, report.render()
        assert family is not None

    @by_type
    def test_analytic_basis(self, blocks):
        """verify-algebra and dualize on a non-constant basis of the
        symmetry algebra, with the block-top covector."""
        n = sum(blocks)
        basis = analytic_basis(tuple(blocks))
        _, top, _ = segre_algebra(blocks)
        P = points(n, count=10)
        report = algebra_report(basis, P, covector=top, tol=1e-9, seed=SEED)
        assert report.passed, report.render()
        _, report = dualize_family(basis, top, P, tol=1e-9, seed=SEED)
        assert report.passed, report.render()


class TestSize:
    @pytest.mark.parametrize("n", [4, 8])
    def test_analytic_bases_compile_small(self, n):
        """The analytic bases are built folded: on the diagonal type each
        field K_i = (1 + c_i u_i) E_ii takes 3 instructions (16,960 in all
        at n = 8 unfolded), and no type needs more than 5 n^2."""
        def size(blocks):
            return sum(len(f.program.code)
                       for f in analytic_basis(tuple(blocks)).fields)
        assert size([1] * n) <= 3 * n
        for blocks in ([n], [n // 2] * 2, [n - 3, 2, 1]):
            assert size(blocks) <= 5 * n * n


class TestMetamorphic:
    @by_type
    def test_conjugation_keeps_the_structure_constants(self, blocks):
        n = sum(blocks)
        matrices, _, _ = segre_algebra(blocks)
        G = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        conj = [G @ M @ np.linalg.inv(G) for M in matrices]
        P = points(n, count=5)
        a = OperatorBasis.from_matrices(matrices).point_data(P, seed=SEED)
        b = OperatorBasis.from_matrices(conj).point_data(P, seed=SEED)
        scale = 1.0 + np.max(np.abs(a.structure))
        assert np.max(np.abs(b.structure - a.structure)) <= 1e-12 * scale

    @by_type
    def test_dual_of_the_dual_is_the_basis(self, blocks):
        n = sum(blocks)
        basis = analytic_basis(tuple(blocks))
        _, top, _ = segre_algebra(blocks)
        P = points(n, seed=SEED + 1, count=5)
        _, V = basis.values(P)
        data = point_data(V, P, covector=top, seed=SEED)
        for b, u in enumerate(P):
            back = point_data(data.dual[b:b + 1], [u],
                              covector=data.identity_coords[b], seed=SEED)
            scale = 1.0 + np.max(np.abs(V[b]))
            assert np.max(np.abs(back.dual[0] - V[b])) <= 1e-9 * scale

    @by_type
    def test_verdicts_do_not_depend_on_the_seed(self, blocks):
        n = sum(blocks)
        basis, top = system_basis(blocks)
        alpha = OneFormField.constant(top)

        def verdicts(seed):
            # in this basis the top covector is the first dual coordinate
            P = points(n, seed=seed, count=10)
            checks = algebra_report(basis, P, covector=np.eye(n)[0],
                                    seed=seed).checks
            checks += generate_system(basis, alpha, P, seed=seed)[1].checks
            return [(c.name, c.passed) for c in checks]

        first = verdicts(42)
        assert all(passed for _, passed in first)
        assert verdicts(7) == first == verdicts(13)
