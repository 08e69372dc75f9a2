"""The batched tensor contractions of the certificate paths against their
einsum references in ``oracles``: brackets and torsions, conservation laws,
the Frobenius tangents and dual basis of ``point_data``, Killing jets,
phase-space jets and chart-frame structure tangents.

The library runs each contraction as batched matrix products, which sum
in another order than einsum, so every result must agree with its
reference to 1e-13 of its scale, over dimensions n in {1, 2, 3, 5, 8} and
batches of B in {0, 1, 7} points; torsions stay exactly antisymmetric.
"""

import numpy as np
import pytest

from opfrob.fields import OneFormField, OperatorField
from opfrob.frobalg import OperatorBasis, point_data
from opfrob.integ import (
    IntegrableSystem,
    _chart_inverse,
    _killing_jets,
    _phase_jets,
    _pullback_rows,
)
from opfrob.opfields import bracket_from_jets, conservation_law_residuals
from oracles import (
    einsum_associativity,
    einsum_bracket,
    einsum_chart_tangent,
    einsum_dual,
    einsum_dual_tangent,
    einsum_killing_tangent,
    einsum_phase_jets,
    einsum_pullback_derivative,
    einsum_structure_tangent,
)

REL = 1e-13
SIZES = pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
BATCHES = pytest.mark.parametrize("B", [0, 1, 7])


def assert_close(got, want, scale=None):
    """|got - want| <= 1e-13 * scale, scale defaulting to 1 + max |want|."""
    assert got.shape == want.shape
    if scale is None:
        scale = 1.0 + np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= REL * scale


def draws(n, B, *shapes):
    rng = np.random.default_rng(100 * n + B)
    return [rng.uniform(-1.0, 1.0, (B,) + shape) for shape in shapes]


def magnitude(*arrays):
    return max(np.max(np.abs(x), initial=0.0) for x in arrays)


@SIZES
@BATCHES
class TestContractions:
    def test_bracket(self, n, B):
        Lv, Ld, Mv, Md = draws(n, B, (n, n), (n, n, n), (n, n), (n, n, n))
        scale = 1.0 + magnitude(Lv, Ld) * magnitude(Mv, Md)
        assert_close(bracket_from_jets(Lv, Ld, Mv, Md),
                     einsum_bracket(Lv, Ld, Mv, Md), scale)

    def test_torsion_is_exactly_antisymmetric(self, n, B):
        Mv, Md = draws(n, B, (n, n), (n, n, n))
        T = bracket_from_jets(Mv, Md, Mv, Md)
        assert np.array_equal(T, -T.swapaxes(-1, -2))
        assert_close(T, einsum_bracket(Mv, Md, Mv, Md),
                     1.0 + magnitude(Mv, Md) ** 2)

    def test_conservation_law_residuals(self, n, B):
        m = 3
        V, dV, a, da = draws(n, B, (m, n, n), (m, n, n, n), (n,), (n, n))
        da = da + da.swapaxes(1, 2)           # a closed alpha
        table = conservation_law_residuals(V, dV, a, da, np.zeros((B, n)))
        assert table.shape == (m, B)
        for k in range(m):
            bder = einsum_pullback_derivative(V[:, k], dV[:, k], a, da)
            scale = 1.0 + (np.max(np.abs(a), axis=1, initial=0.0)
                           + np.max(np.abs(da), axis=(1, 2), initial=0.0)) \
                * (np.max(np.abs(V[:, k]), axis=(1, 2), initial=0.0)
                   + np.max(np.abs(dV[:, k]), axis=(1, 2, 3), initial=0.0))
            curl = np.max(np.abs(bder - bder.swapaxes(1, 2)), axis=(1, 2),
                          initial=0.0)
            assert_close(table[k], curl / scale, 1.0)

    def test_point_data(self, n, B):
        V, dV, P = draws(n, B, (n, n, n), (n, n, n, n), (n,))
        covector = np.random.default_rng(n).uniform(0.5, 1.0, n)
        plain = point_data(V, P, None, seed=3, dV=dV)
        a, Cinv = plain.structure, plain.columns_inv
        assert_close(plain.associativity_residual, np.max(np.abs(
            einsum_associativity(a)), axis=(1, 2, 3, 4), initial=0.0))
        da = einsum_structure_tangent(V, dV, plain.xi, a, Cinv)
        assert_close(plain.structure_tangent, da)
        dual = point_data(V, P, covector, seed=3, dV=dV)
        assert_close(dual.dual, einsum_dual(dual.form_inv, V))
        assert_close(dual.dual_tangent, einsum_dual_tangent(
            V, dV, dual.form_inv, plain.structure_tangent, covector))

    def test_killing_jets(self, n, B):
        H, dH = draws(n, B, (n, n, n), (n, n, n, n))
        H[:, 0] += 2.0 * np.eye(n)            # h_1 well conditioned
        K, dK, h1_inv = _killing_jets(H, dH, np.zeros((B, n)))
        assert_close(dK, einsum_killing_tangent(K, dH, h1_inv))

    def test_phase_jets(self, n, B):
        A, dA, p = draws(n, B, (n, n), (n, n, n), (n,))
        for got, want in zip(_phase_jets(A, dA, p),
                             einsum_phase_jets(A, dA, p)):
            assert_close(got, want)

    def test_chart_frame_structure_tangents(self, n, B):
        """``IntegrableSystem.structure_jets_at`` on affine fields
        K_i = E_i + sum_k u^k F_ik and a constant alpha."""
        E, F, alpha, P = draws(n, max(B, 1), (n, n, n), (n, n, n, n), (n,),
                               (n,))
        E, F = E[0].tolist(), F[0].tolist()
        fields = [OperatorField.parse([[" + ".join([repr(E[i][r][c])] + [
            f"({F[i][r][c][k]!r})*u{k + 1}" for k in range(n)])
            for c in range(n)] for r in range(n)], n) for i in range(n)]
        system = IntegrableSystem(OperatorBasis(fields),
                                  OneFormField.constant(alpha[0] + 2.0),
                                  chart=[])
        P = 0.5 * P[:B]
        a_val, a_chart = system.structure_jets_at(P)
        V, data = system.batch_data(P, tangents=True)
        Jinv = _chart_inverse(_pullback_rows(
            system.alpha.batch_jet_arrays(P)[0], V), P)
        assert_close(a_chart, einsum_chart_tangent(data.structure_tangent,
                                                   Jinv))
