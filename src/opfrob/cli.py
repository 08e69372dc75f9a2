"""Command-line surface: system-file ingestion, subcommands, reports.

Exit codes: 0 all checks pass, 1 any check fails, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .errors import OpfrobError
from .exprs import parse_expr
from .fields import OneFormField, OperatorField
from .fixtures import builtin_names, emit_builtin, run_builtin
from .frobalg import OperatorBasis, algebra_report
from .hydroflow import flow_compatibility_residual, taylor_flow
from .integ import (
    QuadraticHamiltonian,
    generate_system,
    inverse_verify,
    verify_commuting_family,
)
from .opfields import dualize_family
from .report import CheckResult, VerificationReport, reduce_check
from .sampling import (
    DEFAULT_GUARD,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    SampleConfig,
    sample_points,
)
from .symalg import FlatBasis, analytic_symmetry, sym_membership

EXIT_OK, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


class InputError(Exception):
    """Bad system file, schema, or expression input (exit code 2)."""


# ---------------------------------------------------------------------------
# system files
# ---------------------------------------------------------------------------


class SystemFile:
    """Parsed JSON system document (schema 1)."""

    def __init__(self, doc: dict, path: str = "<doc>"):
        if not isinstance(doc, dict):
            raise InputError(f"{path}: top level must be an object")
        if doc.get("schema") != 1:
            raise InputError(f"{path}: missing or unsupported schema version")
        try:
            self.dimension = int(doc["dimension"])
        except (KeyError, TypeError, ValueError):
            raise InputError(f"{path}: missing integer dimension")
        if self.dimension < 1:
            raise InputError(f"{path}: dimension must be positive")
        n = self.dimension
        self.doc = doc
        self.path = path

        raw_fields = doc.get("fields", {})
        if not isinstance(raw_fields, dict):
            raise InputError(f"{path}: 'fields' must map names to grids")
        self.fields = {}
        name = None
        try:
            for name, grid in raw_fields.items():
                self.fields[name] = OperatorField.parse(grid, n)
        except (OpfrobError, ValueError, TypeError) as exc:
            raise InputError(f"{path}: field {name!r}: {exc}")

        self.basis_names = doc.get("basis")
        if self.basis_names is not None and not (
                isinstance(self.basis_names, list)
                and all(isinstance(b, str) for b in self.basis_names)):
            raise InputError(f"{path}: basis must be a list of field names")
        self.covector = self._vector(doc, "covector")
        self.xi = self._vector(doc, "xi")
        self.candidate_name = doc.get("candidate")
        self.chart = doc.get("chart")
        self.initial_curve = doc.get("initial_curve")
        self.flow_order = doc.get("flow_order", 4)
        if type(self.flow_order) is not int or self.flow_order < 1:
            raise InputError(f"{path}: flow_order must be an integer of at "
                             f"least 1, got {self.flow_order!r}")
        self.polynomials = doc.get("polynomials")

        try:
            self.one_form = (OneFormField.parse(doc["one_form"], n)
                             if "one_form" in doc else None)
        except (OpfrobError, ValueError, TypeError) as exc:
            raise InputError(f"{path}: one_form: {exc}")

        self.hamiltonians = None
        if "hamiltonians" in doc:
            try:
                self.hamiltonians = [QuadraticHamiltonian.parse(g, n)
                                     for g in doc["hamiltonians"]]
            except (OpfrobError, ValueError, TypeError) as exc:
                raise InputError(f"{path}: hamiltonians: {exc}")

    def _vector(self, doc, key):
        if key not in doc:
            return None
        v = doc[key]
        try:
            out = [float(x) for x in v]
        except (TypeError, ValueError):
            raise InputError(f"{self.path}: {key} must be a number list")
        if len(out) != self.dimension:
            raise InputError(
                f"{self.path}: {key} needs {self.dimension} components")
        if not all(map(math.isfinite, out)):
            raise InputError(f"{self.path}: {key} components must be finite")
        return out

    def basis_fields(self) -> list:
        if not self.basis_names:
            raise InputError(f"{self.path}: no basis listed")
        missing = [b for b in self.basis_names if b not in self.fields]
        if missing:
            raise InputError(f"{self.path}: basis names not defined: {missing}")
        return [self.fields[b] for b in self.basis_names]

    def basis(self) -> OperatorBasis:
        fields = self.basis_fields()
        try:
            return OperatorBasis(fields)
        except (OpfrobError, ValueError) as exc:
            raise InputError(f"{self.path}: {exc}")

    def sample_config(self, args) -> SampleConfig:
        s = self.doc.get("sampling", {})
        seed = args.seed if args.seed is not None else s.get("seed", DEFAULT_SEED)
        count = _sample_count(args, s.get("samples", DEFAULT_SAMPLES))
        box = s.get("box", 1.0)
        guard_floor = args.guard if args.guard is not None else DEFAULT_GUARD
        guards = []
        try:
            for g in s.get("guards", []):
                guards.append((parse_expr(g["expr"], self.dimension),
                               float(g.get("min", guard_floor))))
        except (OpfrobError, KeyError, TypeError) as exc:
            raise InputError(f"{self.path}: sampling guards: {exc}")
        return SampleConfig(seed=int(seed), count=count, box=float(box),
                            guards=tuple(guards))


def _sample_count(args, default) -> int:
    """The number of sample points: ``--samples`` if given, else
    ``default``; a count below 1 is an input error."""
    count = args.samples if args.samples is not None else default
    try:
        count = int(count)
    except (TypeError, ValueError):
        raise InputError(f"sample count must be an integer, got {count!r}")
    if count < 1:
        raise InputError(f"sample count must be at least 1, got {count}")
    return count


def load_system_file(path: str) -> SystemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}")
    return SystemFile(doc, path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _tol(args) -> float:
    return args.tol if args.tol is not None else 1e-9


def cmd_verify_algebra(args) -> VerificationReport:
    sf = load_system_file(args.file)
    cfg = sf.sample_config(args)
    basis = sf.basis()
    points = sample_points(sf.dimension, cfg)
    return algebra_report(basis, points, covector=sf.covector,
                          tol=_tol(args), seed=cfg.seed)


def cmd_dualize(args) -> VerificationReport:
    sf = load_system_file(args.file)
    if sf.covector is None:
        raise InputError(f"{sf.path}: dualize needs a covector")
    cfg = sf.sample_config(args)
    points = sample_points(sf.dimension, cfg)
    _, report = dualize_family(sf.basis(), sf.covector, points,
                               tol=_tol(args), seed=cfg.seed)
    return report


def cmd_symcheck(args) -> VerificationReport:
    sf = load_system_file(args.file)
    cfg = sf.sample_config(args)
    basis = sf.basis()
    if not basis.is_constant:
        raise InputError(f"{sf.path}: symcheck expects a constant flat basis")
    if sf.xi is None:
        raise InputError(f"{sf.path}: symcheck needs the designated xi")
    try:
        flat = FlatBasis([f.eval(np.zeros(sf.dimension))
                          for f in basis.fields], sf.xi)
    except OpfrobError as exc:
        raise InputError(f"{sf.path}: {exc}")
    points = sample_points(sf.dimension, cfg)
    report = VerificationReport(title="symcheck", seed=cfg.seed)
    if sf.polynomials is not None:
        if len(sf.polynomials) != sf.dimension:
            raise InputError(f"{sf.path}: need {sf.dimension} polynomials")
        candidate = analytic_symmetry(flat, sf.polynomials)
        sub = sym_membership(basis, candidate, points, tol=_tol(args),
                             seed=cfg.seed)
        for c in sub.checks:
            c.name = f"analytic_candidate.{c.name}"
            report.add(c)
    if sf.candidate_name is not None:
        if sf.candidate_name not in sf.fields:
            raise InputError(
                f"{sf.path}: candidate {sf.candidate_name!r} not defined")
        sub = sym_membership(basis, sf.fields[sf.candidate_name], points,
                             tol=_tol(args), seed=cfg.seed)
        for c in sub.checks:
            c.name = f"{sf.candidate_name}.{c.name}"
            report.add(c)
    if not report.checks:
        raise InputError(
            f"{sf.path}: symcheck needs polynomials or a candidate field")
    return report


def cmd_generate(args) -> VerificationReport:
    sf = load_system_file(args.file)
    if sf.one_form is None:
        raise InputError(f"{sf.path}: generate needs a one_form")
    cfg = sf.sample_config(args)
    points = sample_points(sf.dimension, cfg)
    system, report = generate_system(
        sf.basis(), sf.one_form, points, chart=sf.chart, tol=_tol(args),
        seed=cfg.seed)
    if system.hamiltonians is not None:
        lines = []
        for s, H in enumerate(system.hamiltonians):
            terms = []
            A = H.coeff(np.zeros(sf.dimension))
            chop = 1e-12 * max(float(np.max(np.abs(A))), 1.0)
            for i in range(sf.dimension):
                for j in range(i, sf.dimension):
                    c = A[i, j] * (1.0 if i == j else 2.0)
                    if abs(c) > chop:
                        c_str = "" if c == 1.0 else f"{c:g}*"
                        terms.append(f"{c_str}p{i + 1}*p{j + 1}")
            lines.append(f"F{s + 1} = " + (" + ".join(terms) or "0"))
        report.add(CheckResult(
            name="emitted_family", passed=True, residual=0.0, tolerance=0.0,
            samples=0, detail="; ".join(lines)))
    return report


def cmd_poisson_check(args) -> VerificationReport:
    sf = load_system_file(args.file)
    if not sf.hamiltonians:
        raise InputError(f"{sf.path}: poisson-check needs hamiltonians")
    cfg = sf.sample_config(args)
    points = sample_points(sf.dimension, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    p_draws = rng.uniform(-cfg.box, cfg.box, (len(points), sf.dimension))
    tol = args.tol if args.tol is not None else 1e-8
    report = VerificationReport(title="poisson-check", seed=cfg.seed)
    report.add(verify_commuting_family(sf.hamiltonians, points, p_draws,
                                       tol=tol))
    return report


def cmd_inverse(args) -> VerificationReport:
    sf = load_system_file(args.file)
    if not sf.hamiltonians:
        raise InputError(f"{sf.path}: inverse needs hamiltonians")
    if sf.covector is None:
        raise InputError(f"{sf.path}: inverse needs a covector")
    cfg = sf.sample_config(args)
    points = sample_points(sf.dimension, cfg)
    tol = args.tol if args.tol is not None else 1e-8
    report, _ = inverse_verify(sf.hamiltonians, sf.covector, points,
                               tol=tol, seed=cfg.seed)
    return report


def cmd_hj(args) -> VerificationReport:
    sf = load_system_file(args.file)
    if sf.one_form is None:
        raise InputError(f"{sf.path}: hj needs a one_form")
    try:
        c = [float(x) for x in args.c.split(",")]
    except ValueError:
        raise InputError(f"invalid --c value {args.c!r}")
    if len(c) != sf.dimension:
        raise InputError(f"--c needs {sf.dimension} components")
    if args.hj_points < 1:
        raise InputError(
            f"--hj-points must be at least 1, got {args.hj_points}")
    cfg = sf.sample_config(args)
    points = sample_points(sf.dimension, cfg)
    system, gen_report = generate_system(
        sf.basis(), sf.one_form, points, chart=sf.chart, tol=_tol(args),
        seed=cfg.seed)
    report = VerificationReport(title="hj", seed=cfg.seed)
    report.extend(gen_report)
    hj_points = points[:args.hj_points]
    residuals = []
    for u in hj_points:
        dW = system.hj_differential(u, c)
        grids = system.coefficient_grids(u)
        residuals.append(np.max([
            abs(float(dW @ grids[s] @ dW) - c[s]) / (1.0 + abs(c[s]))
            for s in range(sf.dimension)]))
    report.add(reduce_check("hamilton_jacobi_consistency", residuals,
                            hj_points, 1e-8,
                            detail=f"F_s(u, dW(u,c)) = c_s for c={c}"))
    return report


def cmd_flow(args) -> VerificationReport:
    sf = load_system_file(args.file)
    if sf.initial_curve is None:
        raise InputError(f"{sf.path}: flow needs an initial_curve")
    cfg = sf.sample_config(args)
    fields = sf.basis_fields()
    try:
        sol = taylor_flow(fields, sf.initial_curve, sf.flow_order)
    except OpfrobError as exc:
        raise InputError(f"{sf.path}: {exc}")
    report = VerificationReport(title="flow", seed=cfg.seed)
    tol = args.tol if args.tol is not None else 1e-8
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            r = flow_compatibility_residual(sol, i, j)
            report.add(CheckResult(
                name=f"flow_compatibility_{i + 1}_{j + 1}", passed=r <= tol,
                residual=r, tolerance=tol, samples=1,
                detail=f"truncation order {sol.order}",
            ))
    if sol.generic_warning:
        report.add(CheckResult(
            name="generic_initial_curve", passed=False, residual=float("inf"),
            tolerance=0.0, samples=1,
            detail="initial curve is non-generic: K_i(u0) u0' dependent",
        ))
    return report


def cmd_builtin(args) -> VerificationReport:
    cfg = SampleConfig(
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        count=_sample_count(args, DEFAULT_SAMPLES),
    )
    if args.emit:
        try:
            doc = emit_builtin(args.name, variant=args.variant)
        except ValueError as exc:
            raise InputError(str(exc))
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        report = VerificationReport(title=f"builtin {args.name}")
        report.add(CheckResult(
            name="emit", passed=True, residual=0.0, tolerance=0.0, samples=0,
            detail=f"wrote {args.emit}"))
        return report
    try:
        return run_builtin(args.name, cfg, variant=args.variant)
    except ValueError as exc:
        raise InputError(str(exc))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="sampling seed (default 42 or file value)")
    common.add_argument("--samples", type=int, default=None,
                        help="number of sample points (default 50)")
    common.add_argument("--tol", type=float, default=None,
                        help="residual tolerance (default per command)")
    common.add_argument("--guard", type=float, default=None,
                        help="default denominator floor (default 1e-3)")
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON")
    common.add_argument("--timings", action="store_true",
                        help="include wall-time in the output")

    parser = argparse.ArgumentParser(
        prog="opfrob",
        description="operator Frobenius algebras, their duals, symmetry "
                    "algebras and commuting quadratic Hamiltonians: "
                    "numerical verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, needs_file=True):
        p = sub.add_parser(name, parents=[common], help=help_)
        if needs_file:
            p.add_argument("file", help="JSON system file")
        p.set_defaults(fn=fn)
        return p

    add("verify-algebra", cmd_verify_algebra,
        "genericity, closure and duality certificates for a basis")
    add("dualize", cmd_dualize,
        "dual family construction with mutual-symmetry verification")
    add("symcheck", cmd_symcheck,
        "symmetry-algebra membership and construction checks")
    add("generate", cmd_generate,
        "commuting quadratic Hamiltonians from a basis and conservation law")
    add("poisson-check", cmd_poisson_check,
        "pairwise Poisson brackets of supplied Hamiltonians")
    add("inverse", cmd_inverse,
        "hypothesis verifier and operator reconstruction from Hamiltonians")
    p_hj = add("hj", cmd_hj,
               "Hamilton-Jacobi differential dW at sampled points")
    p_hj.add_argument("--c", required=True,
                      help="comma-separated level parameters c_1,..,c_n")
    p_hj.add_argument("--hj-points", type=int, default=5,
                      help="number of sample points for dW (default 5)")
    add("flow", cmd_flow, "multi-time Taylor-jet flow compatibility")
    p_b = add("builtin", cmd_builtin,
              "run or emit a bundled fixture "
              f"({', '.join(builtin_names())})", needs_file=False)
    p_b.add_argument("name", help="builtin fixture name")
    p_b.add_argument("--variant", choices=["constant", "analytic"],
                     default="constant")
    p_b.add_argument("--emit", metavar="PATH", default=None,
                     help="write the fixture's JSON system file and exit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        report = args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OpfrobError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    wall = (time.perf_counter() - t0) * 1000.0
    if args.as_json:
        doc = report.to_dict()
        if args.timings:
            doc["wall_ms"] = wall
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(report.render())
        if args.timings:
            print(f"wall time: {wall:.1f} ms")
    return EXIT_OK if report.passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
