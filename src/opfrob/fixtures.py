"""Bundled fixtures: the 4-dimensional demonstration family (builtin name
``example52``, constant and analytic variants), the regular representations
of Segre type (``segre_algebra``; the centraliser builtins), and the
negative controls.  Each builtin is one :class:`Builtin` record, read both
by its regression runner (a VerificationReport) and by its system-file
emitter (a JSON document of schema 1).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .exprs import parse_expr
from .fields import OneFormField, OperatorField
from .frobalg import OperatorBasis, algebra_report, stacked_jets
from .integ import (
    QuadraticHamiltonian,
    generate_system,
    inverse_verify,
    killing_tensors,
    poisson_bracket,
    verify_commuting_family,
)
from .opfields import bracket_residuals, is_symmetry, nijenhuis_torsion_report
from .report import VerificationReport, reduce_check
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, SampleConfig, sample_points
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
    "segre_algebra",
    "not_closed_matrices",
    "nonsymmetric_pair_fields",
    "builtin_names",
    "run_builtin",
    "emit_builtin",
]


# ---------------------------------------------------------------------------
# the 4-dimensional demonstration family
# ---------------------------------------------------------------------------

DEMO4_XI = (1.0, 0.0, 0.0, 0.0)     # the unit: M^i xi = e_i
DEMO4_TOP = (0.0, 0.0, 0.0, 1.0)    # du4, a Frobenius form of the algebra
DEMO4_GUARDS = (("u1", 0.2), ("u3", 0.2), ("u2^2+u3^2", 0.1))


def demo4_matrices():
    """Constant flat basis M_1..M_4 (regular representation of the
    4-dimensional non-gl-regular Frobenius algebra)."""
    M1 = np.eye(4)
    M2 = np.zeros((4, 4)); M2[1, 0] = 1.0; M2[3, 1] = 1.0
    M3 = np.zeros((4, 4)); M3[2, 0] = 1.0; M3[3, 2] = 1.0
    M4 = np.zeros((4, 4)); M4[3, 0] = 1.0
    return [M1, M2, M3, M4]


def demo4_flat_basis() -> FlatBasis:
    return FlatBasis(demo4_matrices(), xi=DEMO4_XI)


def demo4_constant_basis() -> OperatorBasis:
    return OperatorBasis.from_matrices(demo4_matrices(), name="demo4")


def demo4_system_basis() -> OperatorBasis:
    """Reordered so the coordinates are already canonical for alpha = du4
    (the pullbacks M^{i*} du4 equal du^i); the leading form h_1 is then the
    nondegenerate one."""
    M1, M2, M3, M4 = demo4_matrices()
    return OperatorBasis.from_matrices([M4, M2, M3, M1], name="demo4-system")


def demo4_one_form() -> OneFormField:
    return OneFormField.constant(DEMO4_TOP)


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


def demo4_rational_guards():
    return tuple((parse_expr(s, 4), floor) for s, floor in DEMO4_GUARDS)


def demo4_chart_strings():
    """Chart functions s^i with ds^i = (tilde M^i)^* du4."""
    return [
        "u4",
        "u1*u4 + (u2^2+u3^2)/2",
        "u1*u2",
        "u1^2*u4 + u1*(u2^2+u3^2)",
    ]


# ---------------------------------------------------------------------------
# algebras of Segre type and the negative controls
# ---------------------------------------------------------------------------


def segre_algebra(blocks):
    """Regular representation of R[x]/(x^k_1) + ... + R[x]/(x^k_r), the
    gl-regular algebra of Segre type [k_1 .. k_r], in the basis x^0..x^(k-1)
    of each block, block by block.

    Returns (matrices, top, unit): ``matrices[i]`` multiplies by the i-th
    basis element; ``top`` (1 on each block's x^(k-1)) is a Frobenius form;
    ``unit`` (1 on each block's x^0) is the unit, so M^i unit = e_i and
    ``FlatBasis(matrices, unit)`` holds.  [1]*n gives the diagonal
    matrices, [n] the powers of one nilpotent Jordan block.
    """
    n = sum(blocks)
    matrices, top, unit = [], np.zeros(n), np.zeros(n)
    start = 0
    for k in blocks:
        for j in range(k):
            M = np.zeros((n, n))
            M[start:start + k, start:start + k] = np.eye(k, k=-j)
            matrices.append(M)
        unit[start], top[start + k - 1] = 1.0, 1.0
        start += k
    return matrices, top, unit


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
# builtins: one record each, read by the runner and the emitter
# ---------------------------------------------------------------------------


@dataclass
class Builtin:
    """A bundled fixture.  ``run(builtin, config)`` is its regression
    runner; the system file carries the basis ``fields`` (named
    ``prefix``1, ``prefix``2, ..), the vectors and sampling guards given,
    the Hamiltonians' grids and the further ``entries`` as they are."""
    title: str
    run: Callable
    fields: list
    prefix: str = "K"
    covector: tuple | None = None
    xi: tuple | None = None
    guards: tuple = ()            # (expression text, floor) pairs
    hamiltonians: list | None = None
    entries: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.fields[0].dimension


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


def _run_demo4_constant(b: Builtin, config: SampleConfig) -> VerificationReport:
    report = VerificationReport(title=b.title, seed=config.seed)
    basis = OperatorBasis(b.fields, name="demo4")
    alpha = OneFormField.constant(b.covector)
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
    system2, _ = generate_system(demo4_system_basis(), alpha, points[:5],
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


def _run_demo4_analytic(b: Builtin, config: SampleConfig) -> VerificationReport:
    report = VerificationReport(title=b.title, seed=config.seed)
    cfg = SampleConfig(seed=config.seed, count=config.count, box=config.box,
                       guards=demo4_rational_guards())
    points = sample_points(4, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    p_draws = rng.uniform(-1.0, 1.0, (len(points), 4))
    report.add(verify_commuting_family(b.hamiltonians, points, p_draws,
                                       tol=1e-8,
                                       name="rational_poisson_brackets"))

    pairs = [(i, i) for i in range(4)] + list(combinations(range(4), 2))
    table = bracket_residuals(*stacked_jets(b.fields, points), pairs, points,
                              1e-9, symmetric_part_only=False)
    for i, res in enumerate(table[:4]):
        report.add(reduce_check(f"torsion_field_{i + 1}", res, points, 1e-9))
    report.add(reduce_check("pairwise_strong_symmetries", table[4:], points,
                            1e-9))

    inv_report, _ = inverse_verify(b.hamiltonians, b.covector, points,
                                   tol=1e-8, seed=cfg.seed)
    report.extend(inv_report)
    return report


_ORIGIN_RESIDUALS = {"span_closure": "closure_residual",
                     "associativity": "associativity_residual",
                     "duality_pairing": "duality_residual"}


def _run_at_origin(b: Builtin, config: SampleConfig,
                   checks=("span_closure", "duality_pairing")):
    """Basis validation at the sample points, then the named Frobenius
    residuals at the origin with the builtin's covector."""
    report = VerificationReport(title=b.title, seed=config.seed)
    basis = OperatorBasis(b.fields)
    report.extend(basis.validate(sample_points(b.dimension, config)))
    origin = [np.zeros(b.dimension)]
    data = basis.point_data(origin, covector=b.covector, seed=config.seed)
    for name in checks:
        report.add(reduce_check(name, getattr(data, _ORIGIN_RESIDUALS[name]),
                                origin, 1e-9))
    return report


def _run_not_closed(b: Builtin, config: SampleConfig) -> VerificationReport:
    return algebra_report(OperatorBasis(b.fields),
                          sample_points(b.dimension, config), covector=None,
                          tol=1e-9, seed=config.seed)


def _run_nonsymmetric_pair(b: Builtin,
                           config: SampleConfig) -> VerificationReport:
    report = VerificationReport(title=b.title, seed=config.seed)
    K1, K2 = b.fields
    points = sample_points(2, config)
    report.add(is_symmetry(K1, K2, points, tol=1e-9, name="mutual_symmetry"))
    report.add(nijenhuis_torsion_report(K2, points, tol=1e-9,
                                        name="torsion_diag_u2_u1"))
    return report


def _example52(variant: str) -> Builtin:
    one_form = {"one_form": [f"{v:g}" for v in DEMO4_TOP]}
    if variant == "constant":
        return Builtin(
            "example52 (constant variant)", _run_demo4_constant,
            demo4_constant_basis().fields, "M", DEMO4_TOP, DEMO4_XI,
            hamiltonians=[QuadraticHamiltonian.constant(G)
                          for G in demo4_target_family()],
            entries=dict(one_form, polynomials=[[0, 0, 1], [], [], []],
                         initial_curve=[[0, 1], [0, 0, 1], [0, 0, 0, 1],
                                        [0, 0, 0, 0, 1]],
                         flow_order=4))
    return Builtin(
        "example52 (analytic variant)", _run_demo4_analytic,
        demo4_tilde_basis().fields, "M", (1.0, 0.0, 0.0, 0.0),
        guards=DEMO4_GUARDS, hamiltonians=demo4_rational_hamiltonians(),
        entries=dict(one_form, chart=demo4_chart_strings()))


def _centraliser(kind: str, blocks) -> Builtin:
    matrices, top, _ = segre_algebra(blocks)
    return Builtin(f"centraliser-{kind}", _run_at_origin,
                   [OperatorField.constant(M) for M in matrices],
                   covector=tuple(top))


_BUILTINS = {
    "example52": _example52,
    "example32": lambda variant: Builtin(
        "example32 algebra",
        lambda b, cfg: _run_at_origin(b, cfg, tuple(_ORIGIN_RESIDUALS)),
        demo4_constant_basis().fields, "M", DEMO4_TOP, DEMO4_XI),
    "centraliser-diag": lambda variant: _centraliser("diag", [1, 1, 1, 1]),
    "centraliser-jordan": lambda variant: _centraliser("jordan", [4]),
    "not-closed": lambda variant: Builtin(
        "not-closed", _run_not_closed,
        [OperatorField.constant(M) for M in not_closed_matrices()]),
    "nonsymmetric-pair": lambda variant: Builtin(
        "nonsymmetric-pair", _run_nonsymmetric_pair,
        nonsymmetric_pair_fields(),
        entries={"initial_curve": [[0, 1], [1, 1]], "flow_order": 4}),
}


def builtin_names():
    return sorted(_BUILTINS)


def _builtin(name: str, variant: str) -> Builtin:
    if variant not in ("constant", "analytic"):
        raise ValueError(f"unknown variant {variant!r}")
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; known: "
                         + ", ".join(builtin_names()))
    if variant == "analytic" and name != "example52":
        raise ValueError(f"builtin {name} has no analytic variant")
    return _BUILTINS[name](variant)


def run_builtin(name: str, config: SampleConfig,
                variant: str = "constant") -> VerificationReport:
    b = _builtin(name, variant)
    return b.run(b, config)


def _grid_strings(grid):
    return [[str(e) for e in row] for row in grid]


def emit_builtin(name: str, variant: str = "constant") -> dict:
    """The JSON system-file document for a builtin fixture."""
    b = _builtin(name, variant)
    names = [f"{b.prefix}{i + 1}" for i in range(len(b.fields))]
    sampling = {"seed": DEFAULT_SEED, "samples": DEFAULT_SAMPLES, "box": 1.0}
    if b.guards:
        sampling["guards"] = [{"expr": s, "min": g} for s, g in b.guards]
    doc = {"schema": 1, "dimension": b.dimension,
           "fields": {k: _grid_strings(f.entries)
                      for k, f in zip(names, b.fields)},
           "basis": names, "sampling": sampling, **b.entries}
    for key in ("covector", "xi"):
        if getattr(b, key) is not None:
            doc[key] = [float(v) for v in getattr(b, key)]
    if b.hamiltonians is not None:
        doc["hamiltonians"] = [_grid_strings(H.entries)
                               for H in b.hamiltonians]
    return doc
