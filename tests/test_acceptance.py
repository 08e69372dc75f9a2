"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks the criterion failed.
"""

import time

import numpy as np

from opfrob.exprs import eval_expr
from opfrob.fields import OperatorField
from opfrob.fixtures import (
    demo4_constant_basis,
    demo4_matrices,
    demo4_one_form,
    demo4_rational_guards,
    demo4_rational_hamiltonians,
    demo4_system_basis,
    demo4_target_family,
    demo4_tilde_basis,
    demo4_flat_basis,
    nonsymmetric_pair_fields,
    segre_algebra,
)
from opfrob.frobalg import point_data, structure_constants_at
from opfrob.hydroflow import flow_compatibility_residual, taylor_flow
from opfrob.integ import (
    generate_system,
    inverse_verify,
    killing_tensors,
    poisson_bracket,
    verify_commuting_family,
)
from opfrob.numkit import jet_point
from opfrob.opfields import bracket, dualize_family, is_strong_symmetry
from opfrob.sampling import SampleConfig, sample_points
from opfrob.symalg import analytic_symmetry, sym_membership

from helpers import (
    admissible_covector,
    canonical_field,
    guarded_config,
    random_power_basis,
)
from oracles import (
    central_gradient,
    is_generic_vector,
    lstsq_structure_constants,
)

SEED = 42


def _announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_constant_family_generation():
    """generate on the constant 4-dim basis with alpha = du4 reproduces the
    reference family up to permutation/relabeling; 6 brackets <= 1e-12 at 50
    seeded phase points; runtime < 1 s."""
    t0 = time.perf_counter()
    basis = demo4_constant_basis()
    alpha = demo4_one_form()
    points = sample_points(4, SampleConfig(seed=SEED, count=50))
    system, report = generate_system(basis, alpha, points, seed=SEED)
    assert report.passed

    J = system.chart_rows([np.zeros(4)])[0]
    Jinv = np.linalg.inv(J)
    generated = [Jinv @ H.coeff(np.zeros(4)) @ Jinv.T
                 for H in system.hamiltonians]
    targets = [T.copy() for T in demo4_target_family()]
    matched = set()
    for G in generated:
        hit = next(t for t in range(4) if t not in matched
                   and np.max(np.abs(G - targets[t])) <= 1e-12)
        matched.add(hit)
    assert matched == {0, 1, 2, 3}

    rng = np.random.default_rng(SEED + 1)
    p_draws = rng.uniform(-1.0, 1.0, (50, 4))
    hams = system.hamiltonians
    for i in range(4):
        for j in range(i + 1, 4):
            worst = max(abs(poisson_bracket(hams[i], hams[j], u, p))
                        for u, p in zip(points, p_draws))
            assert worst <= 1e-12
    wall = time.perf_counter() - t0
    assert wall < 1.0, f"runtime {wall:.2f}s exceeds 1 s"
    _announce(1, f"constant family reproduced, 6 brackets <= 1e-12, "
                 f"{wall * 1000:.0f} ms")


def test_criterion_2_rational_poisson_check():
    """poisson-check on the four rational Hamiltonians passes at 1e-8 over
    50 guarded seeded points; runtime < 2 s."""
    t0 = time.perf_counter()
    cfg = SampleConfig(seed=SEED, count=50, guards=demo4_rational_guards())
    points = sample_points(4, cfg)
    assert all(abs(u[0]) >= 0.2 and abs(u[2]) >= 0.2
               and u[1] ** 2 + u[2] ** 2 >= 0.1 for u in points)
    hams = demo4_rational_hamiltonians()
    rng = np.random.default_rng(SEED + 1)
    p_draws = rng.uniform(-1.0, 1.0, (50, 4))
    check = verify_commuting_family(hams, points, p_draws, tol=1e-8)
    wall = time.perf_counter() - t0
    assert check.passed, check.render()
    assert wall < 2.0, f"runtime {wall:.2f}s exceeds 2 s"
    _announce(2, f"rational family commutes (residual {check.residual:.2e}), "
                 f"{wall * 1000:.0f} ms")


def test_criterion_3_nijenhuis_fixtures():
    """Torsion of the four analytic-variant fields vanishes <= 1e-9 at 50
    points; pairwise strong symmetries pass; the control field reports
    T^1_12 = u2 - u1 within 1e-9 at 20 points."""
    basis = demo4_tilde_basis()
    points = sample_points(4, SampleConfig(seed=SEED, count=50))
    for f in basis.fields:
        c = is_strong_symmetry(f, f, points, tol=1e-9)
        assert c.passed, c.render()
    for i in range(4):
        for j in range(i + 1, 4):
            assert is_strong_symmetry(basis.fields[i], basis.fields[j],
                                      points, tol=1e-9).passed
    _, control = nonsymmetric_pair_fields()
    for u in sample_points(2, SampleConfig(seed=SEED + 1, count=20)):
        T = bracket(control, control, u)
        assert abs(T[0, 0, 1] - (u[1] - u[0])) <= 1e-9
    _announce(3, "torsion-free analytic fields, control torsion matches "
                 "u2 - u1")


def test_criterion_4_duality_involution():
    """(K*_a)*_a = K to 1e-9 on 10 randomized centraliser fixtures with Id
    in span, and the dual families verify the mutual-symmetry conclusion."""
    fixtures = [("diag", 2, 0), ("diag", 3, 1), ("diag", 4, 2),
                ("jordan", 2, 3), ("jordan", 3, 4), ("jordan", 4, 5),
                ("diag", 3, 6), ("jordan", 4, 7), ("diag", 4, 8),
                ("jordan", 3, 9)]
    for kind, n, seed in fixtures:
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
        _, rep = dualize_family(basis, a, points, tol=1e-8)
        assert rep.passed, f"{kind}-{n}-{seed}: {rep.render()}"
    _announce(4, "involution holds on 10 centraliser fixtures; dual "
                 "families are mutual symmetries")


def test_criterion_5_symmetry_algebra_suite():
    """20 random polynomial tuples of degree <= 3 give members of the
    symmetry algebra; products of two members are members."""
    flat = demo4_flat_basis()
    basis = flat.operator_basis()
    points = sample_points(4, SampleConfig(seed=SEED, count=20))
    rng = np.random.default_rng(SEED)
    members = []
    for _ in range(20):
        tup = [list(np.round(rng.uniform(-1.0, 1.0, 4), 3)) for _ in range(4)]
        M = analytic_symmetry(flat, tup)
        members.append(M)
        rep = sym_membership(basis, M, points, tol=1e-9)
        assert rep.passed, rep.render()
    for k in range(10):
        rep = sym_membership(basis, members[2 * k] @ members[2 * k + 1],
                             points, tol=1e-9)
        assert rep.passed, rep.render()
    _announce(5, "20 polynomial symmetries and 10 products pass membership")


def test_criterion_6_killing_and_duality_identities():
    """K_4 = M_4 exactly on the constant system; basis duality and the
    square identity hold to 1e-10 at 50 points; the rational Hamiltonians
    pass the inverse verifier including the reconstruction torsion checks."""
    basis = demo4_system_basis()
    points = sample_points(4, SampleConfig(seed=SEED, count=50))
    system, _ = generate_system(basis, demo4_one_form(), points[:10],
                                seed=SEED)
    K4 = system.killing_at([np.zeros(4)])[0, 3]
    assert np.array_equal(K4, demo4_matrices()[3])

    _, kill_report = killing_tensors(system, points, tol=1e-10)
    assert kill_report.passed, kill_report.render()
    rng = np.random.default_rng(SEED + 2)
    for u in points:
        p = rng.uniform(-1.0, 1.0, 4)
        assert system.n15_residual([u], [p])[0] <= 1e-10

    guarded = sample_points(4, SampleConfig(seed=SEED, count=50,
                                            guards=demo4_rational_guards()))
    report, family = inverse_verify(demo4_rational_hamiltonians(),
                                    [1.0, 0.0, 0.0, 0.0], guarded, tol=1e-8)
    assert report.passed, report.render()
    assert family is not None
    _announce(6, "K_4 = M_4 exactly; duality and square identity at 1e-10; "
                 "inverse verifier green on the rational family")


def test_criterion_7_hamilton_jacobi_consistency():
    """For 20 admissible random c, F_s(u, dW(u, c)) = c_s to 1e-8 and dW is
    curl-free to 1e-6 under finite differences."""
    basis = demo4_system_basis()
    points = sample_points(4, SampleConfig(seed=SEED, count=10))
    system, _ = generate_system(basis, demo4_one_form(), points, seed=SEED)
    rng = np.random.default_rng(SEED + 3)
    for _ in range(20):
        c = rng.uniform(-0.4, 0.4, 4)
        c[3] = rng.uniform(0.6, 1.4)
        for u in points[:3]:
            dW = system.hj_differential([u], c)[0]
            grids = system.coefficient_grids([u])[0]
            vals = np.array([float(dW @ A @ dW) for A in grids])
            assert np.max(np.abs(vals - c)) <= 1e-8
        u0 = points[0]
        h = 1e-6
        n = 4
        curl = np.zeros((n, n))
        dWs = {}
        for s in range(n):
            for sign in (+1, -1):
                up = u0.copy(); up[s] += sign * h
                dWs[(s, sign)] = system.hj_differential([up], c)[0]
        for j in range(n):
            for k in range(n):
                d_j_Wk = (dWs[(j, 1)][k] - dWs[(j, -1)][k]) / (2 * h)
                d_k_Wj = (dWs[(k, 1)][j] - dWs[(k, -1)][j]) / (2 * h)
                curl[j, k] = d_j_Wk - d_k_Wj
        assert np.max(np.abs(curl)) <= 1e-6
    _announce(7, "level consistency at 1e-8 and curl-free dW for 20 random c")


def test_criterion_8_oracle_agreement():
    """200 jet gradients match central differences within 1e-6 relative;
    structure constants from the generic-vector solve match the dense
    least-squares oracle to 1e-9 on 10 random 3x3 fixtures."""
    exprs = []
    for f in demo4_tilde_basis().fields:
        exprs.extend(e for row in f.entries for e in row
                     if not e.is_constant())
    for H in demo4_rational_hamiltonians():
        exprs.extend(e for row in H.entries for e in row
                     if not e.is_constant())
    cfg = SampleConfig(seed=SEED + 4, count=50,
                       guards=demo4_rational_guards())
    points = sample_points(4, cfg)
    rng = np.random.default_rng(SEED + 5)
    probes = 0
    while probes < 200:
        e = exprs[int(rng.integers(0, len(exprs)))]
        u = points[int(rng.integers(0, len(points)))]
        jet = eval_expr(e, jet_point(u))
        fd = central_gradient(lambda x: float(eval_expr(e, list(x))), u)
        assert np.all(np.abs(jet.partials - fd)
                      <= 1e-6 * (1.0 + np.abs(jet.partials)))
        probes += 1

    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        if seed % 2:
            L = canonical_field("jordan", 3)
            u = rng.uniform(0.3, 1.0, 3)
            Lv = L.eval(u)
            powers = [np.eye(3), Lv, Lv @ Lv]
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
        assert resid <= 1e-9 and resid_ls <= 1e-9
        assert np.max(np.abs(np.asarray(a_solve, float) - a_ls)) <= 1e-9
    _announce(8, "200 FD gradient probes and 10 least-squares structure "
                 "fixtures agree")


def test_criterion_9_flow_compatibility():
    """Flow residual <= 1e-8 at truncation degree 4 for three
    mutual-symmetry fixtures and >= 1e-3 for the non-symmetric control."""
    rng = np.random.default_rng(SEED + 6)

    def random_curve(n, around):
        return [[around[i]] + list(np.round(rng.uniform(-0.5, 0.5, 3), 3))
                for i in range(n)]

    demo = demo4_constant_basis()
    fixtures = [
        (demo.fields, random_curve(4, [0.1, 0.2, 0.3, 0.4])),
        ([OperatorField.identity(2),
          OperatorField.parse([["u1", "0"], ["0", "u2"]], 2)],
         random_curve(2, [1.0, 2.0])),
        ([OperatorField.identity(2),
          OperatorField.parse([["u1", "0"], ["u2", "u1"]], 2)],
         random_curve(2, [1.0, 2.0])),
    ]
    for fields, curve in fixtures:
        sol = taylor_flow(fields, curve, order=4)
        assert not sol.generic_warning
        worst = max(flow_compatibility_residual(sol, i, j)
                    for i in range(len(fields))
                    for j in range(i + 1, len(fields)))
        assert worst <= 1e-8, f"residual {worst:.2e}"

    K1, K2 = nonsymmetric_pair_fields()
    sol = taylor_flow([K1, K2], random_curve(2, [0.3, 1.1]), order=4)
    assert flow_compatibility_residual(sol, 0, 1) >= 1e-3
    _announce(9, "three compatible fixtures <= 1e-8; control pair >= 1e-3")
