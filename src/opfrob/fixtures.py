"""Bundled fixtures: the 4-dimensional Jordan-block demonstration family
(builtin name ``example52``, constant and analytic variants), the
gl-regular centraliser families (diagonal and Jordan), and the negative
controls.  Each builtin has a regression runner returning a
VerificationReport and a system-file emitter for the JSON schema.
"""

from __future__ import annotations

import numpy as np

from .exprs import parse_expr
from .fields import OneFormField, OperatorField
from .frobalg import OperatorBasis
from .integ import (
    QuadraticHamiltonian,
    generate_system,
    inverse_verify,
    killing_tensors,
    poisson_bracket,
    verify_commuting_family,
)
from .opfields import bracket_residuals, nijenhuis_torsion_report
from .report import VerificationReport, reduce_check
from .sampling import SampleConfig, sample_points
from .symalg import FlatBasis, analytic_symmetry

__all__ = [
    "demo4_matrices",
    "demo4_flat_basis",
    "demo4_constant_basis",
    "demo4_system_basis",
    "demo4_target_family",
    "demo4_tilde_basis",
    "demo4_rational_hamiltonians",
    "demo4_rational_guards",
    "demo4_chart_strings",
    "centraliser_diag_matrices",
    "centraliser_jordan_matrices",
    "diag_symmetry_field",
    "jordan_symmetry_field",
    "power_basis_fields",
    "not_closed_matrices",
    "nonsymmetric_pair_fields",
    "builtin_names",
    "run_builtin",
    "emit_builtin",
]


# ---------------------------------------------------------------------------
# the 4-dimensional demonstration family
# ---------------------------------------------------------------------------


def demo4_matrices():
    """Constant flat basis M_1..M_4 (regular representation of the
    4-dimensional non-gl-regular Frobenius algebra)."""
    M1 = np.eye(4)
    M2 = np.zeros((4, 4)); M2[1, 0] = 1.0; M2[3, 1] = 1.0
    M3 = np.zeros((4, 4)); M3[2, 0] = 1.0; M3[3, 2] = 1.0
    M4 = np.zeros((4, 4)); M4[3, 0] = 1.0
    return [M1, M2, M3, M4]


def demo4_flat_basis() -> FlatBasis:
    return FlatBasis(demo4_matrices(), xi=np.array([1.0, 0.0, 0.0, 0.0]))


def demo4_constant_basis() -> OperatorBasis:
    return OperatorBasis.from_matrices(demo4_matrices(), name="demo4")


def demo4_system_basis() -> OperatorBasis:
    """Reordered so the coordinates are already canonical for alpha = du4
    (the pullbacks M^{i*} du4 equal du^i); the leading form h_1 is then the
    nondegenerate one."""
    M1, M2, M3, M4 = demo4_matrices()
    return OperatorBasis.from_matrices([M4, M2, M3, M1], name="demo4-system")


def demo4_one_form() -> OneFormField:
    return OneFormField.constant([0.0, 0.0, 0.0, 1.0])


def demo4_target_family():
    """Reference commuting family in the original momenta:
    {2 p1 p4 + p2^2 + p3^2, 2 p3 p4, 2 p2 p4, p4^2}."""
    P = np.zeros((4, 4)); P[0, 3] = P[3, 0] = 1.0; P[1, 1] = P[2, 2] = 1.0
    G2 = np.zeros((4, 4)); G2[2, 3] = G2[3, 2] = 1.0
    G3 = np.zeros((4, 4)); G3[1, 3] = G3[3, 1] = 1.0
    G4 = np.zeros((4, 4)); G4[3, 3] = 1.0
    return [P, G2, G3, G4]


def demo4_polynomial_tuples():
    """Coefficient tuples generating the analytic-variant basis from the
    flat one: f = (1), (t), (0, t in slot 2), (t^2)."""
    return [
        [[1], [], [], []],
        [[0, 1], [], [], []],
        [[], [0, 1], [], []],
        [[0, 0, 1], [], [], []],
    ]


def demo4_tilde_basis() -> OperatorBasis:
    """Non-constant basis of the same symmetry algebra: Id, U, U M_2, U^2."""
    flat = demo4_flat_basis()
    fields = [analytic_symmetry(flat, tup) for tup in demo4_polynomial_tuples()]
    return OperatorBasis(fields, name="demo4-analytic")


def _sym_grid(n, entries):
    grid = [["0"] * n for _ in range(n)]
    for (i, j), s in entries.items():
        grid[i - 1][j - 1] = s
        grid[j - 1][i - 1] = s
    return grid


def demo4_rational_hamiltonians():
    """The four rational commuting Hamiltonians of the analytic variant,
    as coefficient grids h^{ij}(u) in the original coordinates."""
    q = "(u2^2+u3^2)"
    h1 = _sym_grid(4, {
        (1, 4): f"1/{q}",
        (2, 2): f"1/{q}",
        (2, 4): f"-u2/(u1*{q})",
        (3, 3): f"1/{q}",
        (3, 4): f"(u2^2-u1*u4)/(u1*u3*{q})",
    })
    h2 = _sym_grid(4, {
        (2, 4): "1/u1",
        (3, 4): "-u2/(u1*u3)",
    })
    h3 = _sym_grid(4, {
        (1, 4): f"-2*u1/{q}",
        (2, 2): f"-2*u1/{q}",
        (2, 4): f"2*u2/{q}",
        (3, 3): f"-2*u1/{q}",
        (3, 4): f"(2*u1*u4-u2^2+u3^2)/(u3*{q})",
    })
    h4 = _sym_grid(4, {
        (1, 4): f"u1^2/{q}",
        (2, 2): f"u1^2/{q}",
        (2, 4): f"-u1*u2/{q}",
        (3, 3): f"u1^2/{q}",
        (3, 4): f"-u1*(u1*u4+u3^2)/(u3*{q})",
        (4, 4): "1",
    })
    return [QuadraticHamiltonian.parse(g, 4) for g in (h1, h2, h3, h4)]


def demo4_rational_guard_specs():
    return [("u1", 0.2), ("u3", 0.2), ("u2^2+u3^2", 0.1)]


def demo4_rational_guards():
    return tuple((parse_expr(s, 4), floor)
                 for s, floor in demo4_rational_guard_specs())


def demo4_chart_strings():
    """Chart functions s^i with ds^i = (tilde M^i)^* du4."""
    return [
        "u4",
        "u1*u4 + (u2^2+u3^2)/2",
        "u1*u2",
        "u1^2*u4 + u1*(u2^2+u3^2)",
    ]


# ---------------------------------------------------------------------------
# centraliser families
# ---------------------------------------------------------------------------


def centraliser_diag_matrices(n: int):
    return [np.diag(np.eye(n)[i]) for i in range(n)]


def centraliser_jordan_matrices(n: int):
    J = np.zeros((n, n))
    for i in range(1, n):
        J[i, i - 1] = 1.0
    return [np.linalg.matrix_power(J, k) for k in range(n)]


def diag_symmetry_field(n: int) -> OperatorField:
    grid = [["0"] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = f"u{i + 1}"
    return OperatorField.parse(grid, n)


def jordan_symmetry_field(n: int) -> OperatorField:
    grid = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            grid[i][j] = f"u{i - j + 1}"
    return OperatorField.parse(grid, n)


def power_basis_fields(L: OperatorField):
    """[Id, L, L^2, .., L^{n-1}] as expression fields."""
    n = L.dimension
    fields = [OperatorField.identity(n)]
    for _ in range(n - 1):
        fields.append(fields[-1] @ L)
    return fields


def not_closed_matrices():
    """Two independent 2x2 matrices whose product escapes the span; the
    family fails both commutativity and closure."""
    E12 = np.zeros((2, 2)); E12[0, 1] = 1.0
    E21 = np.zeros((2, 2)); E21[1, 0] = 1.0
    return [E12, E21]


def nonsymmetric_pair_fields():
    """diag(u1, u2) and diag(u2, u1): commuting, independent, but not
    symmetries of each other (torsion control fixture)."""
    K1 = OperatorField.parse([["u1", "0"], ["0", "u2"]], 2)
    K2 = OperatorField.parse([["u2", "0"], ["0", "u1"]], 2)
    return [K1, K2]


# ---------------------------------------------------------------------------
# builtin regression runners
# ---------------------------------------------------------------------------


def _match_family(generated, target, tol=1e-12):
    """Greedy exact matching of two coefficient-grid families; returns the
    max residual over matched pairs (inf when unmatched)."""
    remaining = list(range(len(target)))
    matched = []
    for G in generated:
        best_r, best_t = np.inf, None
        for t in remaining:
            r = float(np.max(np.abs(G - target[t])))
            if r < best_r:
                best_r, best_t = r, t
        if best_t is None or best_r > tol:
            return float("inf")
        remaining.remove(best_t)
        matched.append(best_r)
    return float(np.max(matched, initial=0.0))


def run_demo4_constant(config: SampleConfig) -> VerificationReport:
    report = VerificationReport(title="example52 (constant variant)",
                                seed=config.seed)
    basis = demo4_constant_basis()
    alpha = demo4_one_form()
    points = sample_points(4, config)
    system, gen_report = generate_system(basis, alpha, points,
                                         seed=config.seed)
    report.extend(gen_report)

    # reproduction of the reference family after pushing the chart momenta
    # back to the original ones (p = J^T ptilde)
    origin = [np.zeros(4)]
    Jinv = np.linalg.inv(system.chart_rows(origin)[0])
    generated = [Jinv @ H.coeff(origin[0]) @ Jinv.T
                 for H in system.hamiltonians]
    report.add(reduce_check(
        "family_reproduction",
        [_match_family(generated, demo4_target_family())], origin, 1e-12,
        detail="up to permutation and chart momentum relabeling"))

    # the six pairwise brackets at seeded phase points
    rng = np.random.default_rng(config.seed + 1)
    p_draws = rng.uniform(-1.0, 1.0, (len(points), 4))
    phase_points = np.hstack([points, p_draws])
    hams = system.hamiltonians
    for i in range(4):
        for j in range(i + 1, 4):
            report.add(reduce_check(
                f"poisson_bracket_F{i + 1}_F{j + 1}",
                np.abs(poisson_bracket(hams[i], hams[j], points, p_draws)),
                phase_points, 1e-12))

    # Killing tensors and duality identities on the canonical-order system
    sys_basis = demo4_system_basis()
    system2, _ = generate_system(sys_basis, alpha, points[:5],
                                 seed=config.seed)
    _, kill_report = killing_tensors(system2, points, tol=1e-10)
    report.extend(kill_report)
    K4 = system2.killing_at(origin)[0, 3]
    report.add(reduce_check("killing_K4_equals_M4",
                            [np.max(np.abs(K4 - demo4_matrices()[3]))],
                            origin, 0.0))
    rng = np.random.default_rng(config.seed + 2)
    p_draws = [rng.uniform(-1.0, 1.0, 4) for _ in points]
    report.add(reduce_check(
        "square_identity_n15",
        system2.n15_residual(points, p_draws),
        np.hstack([points, p_draws]), 1e-10))
    return report


def run_demo4_analytic(config: SampleConfig) -> VerificationReport:
    report = VerificationReport(title="example52 (analytic variant)",
                                seed=config.seed)
    guards = demo4_rational_guards()
    cfg = SampleConfig(seed=config.seed, count=config.count, box=config.box,
                       guards=guards)
    points = sample_points(4, cfg)
    hams = demo4_rational_hamiltonians()
    rng = np.random.default_rng(cfg.seed + 1)
    p_draws = rng.uniform(-1.0, 1.0, (len(points), 4))
    report.add(verify_commuting_family(hams, points, p_draws, tol=1e-8,
                                       name="rational_poisson_brackets"))

    basis = demo4_tilde_basis()
    for i, f in enumerate(basis.fields):
        report.add(nijenhuis_torsion_report(
            f, points, tol=1e-9, name=f"torsion_field_{i + 1}"))
    K = basis.fields
    report.add(reduce_check("pairwise_strong_symmetries", [
        bracket_residuals(K[i], K[j], points, 1e-9, symmetric_part_only=False)
        for i in range(4) for j in range(i + 1, 4)], points, 1e-9))

    inv_report, _ = inverse_verify(hams, [1.0, 0.0, 0.0, 0.0], points,
                                   tol=1e-8, seed=cfg.seed)
    report.extend(inv_report)
    return report


def run_example32(config: SampleConfig) -> VerificationReport:
    report = VerificationReport(title="example32 algebra", seed=config.seed)
    basis = demo4_constant_basis()
    points = sample_points(4, config)
    report.extend(basis.validate(points))
    origin = [np.zeros(4)]
    data = basis.point_data(origin, covector=[0.0, 0.0, 0.0, 1.0],
                            seed=config.seed)
    for name, r in (("span_closure", data.closure_residual),
                    ("associativity", data.associativity_residual),
                    ("duality_pairing", data.duality_residual)):
        report.add(reduce_check(name, r, origin, 1e-9))
    return report


def _run_centraliser(kind: str, config: SampleConfig) -> VerificationReport:
    n = 4
    if kind == "diag":
        mats = centraliser_diag_matrices(n)
        covector = [1.0] * n
    else:
        mats = centraliser_jordan_matrices(n)
        covector = [0.0] * (n - 1) + [1.0]
    report = VerificationReport(title=f"centraliser-{kind}", seed=config.seed)
    basis = OperatorBasis.from_matrices(mats, name=f"centraliser-{kind}")
    points = sample_points(n, config)
    report.extend(basis.validate(points))
    origin = [np.zeros(n)]
    data = basis.point_data(origin, covector=covector, seed=config.seed)
    for name, r in (("span_closure", data.closure_residual),
                    ("duality_pairing", data.duality_residual)):
        report.add(reduce_check(name, r, origin, 1e-9))
    return report


def run_not_closed(config: SampleConfig) -> VerificationReport:
    from .frobalg import algebra_report
    basis = OperatorBasis.from_matrices(not_closed_matrices(),
                                        name="not-closed")
    points = sample_points(2, config)
    return algebra_report(basis, points, covector=None, tol=1e-9,
                          seed=config.seed)


def run_nonsymmetric_pair(config: SampleConfig) -> VerificationReport:
    report = VerificationReport(title="nonsymmetric-pair", seed=config.seed)
    K1, K2 = nonsymmetric_pair_fields()
    cfg = SampleConfig(seed=config.seed, count=config.count, box=config.box,
                       guards=())
    points = sample_points(2, cfg)
    from .opfields import is_symmetry
    c = is_symmetry(K1, K2, points, tol=1e-9, name="mutual_symmetry")
    report.add(c)
    report.add(nijenhuis_torsion_report(K2, points, tol=1e-9,
                                        name="torsion_diag_u2_u1"))
    return report


_BUILTINS = {
    "example52": None,  # dispatched on variant
    "example32": run_example32,
    "centraliser-diag": lambda cfg: _run_centraliser("diag", cfg),
    "centraliser-jordan": lambda cfg: _run_centraliser("jordan", cfg),
    "not-closed": run_not_closed,
    "nonsymmetric-pair": run_nonsymmetric_pair,
}


def builtin_names():
    return sorted(_BUILTINS)


def run_builtin(name: str, config: SampleConfig,
                variant: str = "constant") -> VerificationReport:
    if name == "example52":
        if variant == "constant":
            return run_demo4_constant(config)
        if variant == "analytic":
            return run_demo4_analytic(config)
        raise ValueError(f"unknown variant {variant!r}")
    try:
        runner = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin {name!r}; known: "
                         + ", ".join(builtin_names()))
    return runner(config)


# ---------------------------------------------------------------------------
# system-file emission
# ---------------------------------------------------------------------------


def _grid_strings(f: OperatorField):
    return [[str(e) for e in row] for row in f.entries]


def _ham_strings(H: QuadraticHamiltonian):
    return [[str(e) for e in row] for row in H.grid]


def emit_builtin(name: str, variant: str = "constant") -> dict:
    """The JSON system-file document for a builtin fixture."""
    if name == "example52" and variant == "constant":
        basis = demo4_constant_basis()
        doc = {
            "schema": 1,
            "dimension": 4,
            "fields": {f"M{i + 1}": _grid_strings(f)
                       for i, f in enumerate(basis.fields)},
            "basis": [f"M{i + 1}" for i in range(4)],
            "covector": [0.0, 0.0, 0.0, 1.0],
            "one_form": ["0", "0", "0", "1"],
            "xi": [1.0, 0.0, 0.0, 0.0],
            "polynomials": [[0, 0, 1], [], [], []],
            "hamiltonians": [_ham_strings(QuadraticHamiltonian.constant(G))
                             for G in demo4_target_family()],
            "initial_curve": [[0, 1], [0, 0, 1], [0, 0, 0, 1],
                              [0, 0, 0, 0, 1]],
            "flow_order": 4,
            "sampling": {"seed": 42, "samples": 50, "box": 1.0},
        }
        return doc
    if name == "example52" and variant == "analytic":
        basis = demo4_tilde_basis()
        return {
            "schema": 1,
            "dimension": 4,
            "fields": {f"M{i + 1}": _grid_strings(f)
                       for i, f in enumerate(basis.fields)},
            "basis": [f"M{i + 1}" for i in range(4)],
            "covector": [1.0, 0.0, 0.0, 0.0],
            "one_form": ["0", "0", "0", "1"],
            "chart": demo4_chart_strings(),
            "hamiltonians": [_ham_strings(H)
                             for H in demo4_rational_hamiltonians()],
            "sampling": {
                "seed": 42, "samples": 50, "box": 1.0,
                "guards": [{"expr": s, "min": g}
                           for s, g in demo4_rational_guard_specs()],
            },
        }
    if name == "example32":
        basis = demo4_constant_basis()
        return {
            "schema": 1,
            "dimension": 4,
            "fields": {f"M{i + 1}": _grid_strings(f)
                       for i, f in enumerate(basis.fields)},
            "basis": [f"M{i + 1}" for i in range(4)],
            "covector": [0.0, 0.0, 0.0, 1.0],
            "xi": [1.0, 0.0, 0.0, 0.0],
            "sampling": {"seed": 42, "samples": 50, "box": 1.0},
        }
    if name in ("centraliser-diag", "centraliser-jordan"):
        n = 4
        if name.endswith("diag"):
            mats = centraliser_diag_matrices(n)
            covector = [1.0] * n
        else:
            mats = centraliser_jordan_matrices(n)
            covector = [0.0] * (n - 1) + [1.0]
        fields = [OperatorField.constant(M) for M in mats]
        return {
            "schema": 1,
            "dimension": n,
            "fields": {f"K{i + 1}": _grid_strings(f)
                       for i, f in enumerate(fields)},
            "basis": [f"K{i + 1}" for i in range(n)],
            "covector": covector,
            "sampling": {"seed": 42, "samples": 50, "box": 1.0},
        }
    if name == "not-closed":
        fields = [OperatorField.constant(M) for M in not_closed_matrices()]
        return {
            "schema": 1,
            "dimension": 2,
            "fields": {f"K{i + 1}": _grid_strings(f)
                       for i, f in enumerate(fields)},
            "basis": ["K1", "K2"],
            "sampling": {"seed": 42, "samples": 50, "box": 1.0},
        }
    if name == "nonsymmetric-pair":
        K1, K2 = nonsymmetric_pair_fields()
        return {
            "schema": 1,
            "dimension": 2,
            "fields": {"K1": _grid_strings(K1), "K2": _grid_strings(K2)},
            "basis": ["K1", "K2"],
            "initial_curve": [[0, 1], [1, 1]],
            "flow_order": 4,
            "sampling": {"seed": 42, "samples": 50, "box": 1.0},
        }
    raise ValueError(f"unknown builtin {name!r} / variant {variant!r}")
