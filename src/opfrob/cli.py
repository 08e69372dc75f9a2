"""Command-line surface: system-file ingestion, subcommands, reports.

Exit codes: 0 all checks pass, 1 any check fails, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
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
        self.dimension = n = _integer(doc.get("dimension"),
                                      f"{path}: dimension", 1)
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
        if not isinstance(self.candidate_name, (str, type(None))):
            raise InputError(f"{path}: candidate must be a field name")
        self.chart = doc.get("chart")
        if self.chart is not None:
            if not (isinstance(self.chart, list) and len(self.chart) == n
                    and all(isinstance(c, str) for c in self.chart)):
                raise InputError(
                    f"{path}: chart must be a list of {n} expressions")
            try:
                self.chart = [parse_expr(c, n) for c in self.chart]
            except OpfrobError as exc:
                raise InputError(f"{path}: chart: {exc}")
        self.initial_curve = self._number_rows(doc, "initial_curve")
        self.flow_order = _integer(doc.get("flow_order", 4),
                                   f"{path}: flow_order", 1)
        self.polynomials = self._number_rows(doc, "polynomials")

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
        """``doc[key]`` as floats (None when absent), checked to be one
        finite real number per coordinate; a bool or a numeric string is
        not a number."""
        if key not in doc:
            return None
        v = doc[key]
        if not (isinstance(v, list)
                and all(type(x) in (int, float) for x in v)):
            raise InputError(f"{self.path}: {key} must be a number list")
        if len(v) != self.dimension:
            raise InputError(
                f"{self.path}: {key} needs {self.dimension} components")
        if not all(map(_is_number, v)):
            raise InputError(f"{self.path}: {key} components must be finite")
        return [float(x) for x in v]

    def _number_rows(self, doc, key):
        """``doc[key]`` (None when absent), checked to be one list of
        finite numbers per coordinate."""
        rows = doc.get(key)
        if rows is not None and not (
                isinstance(rows, list) and len(rows) == self.dimension
                and all(isinstance(r, list) and all(map(_is_number, r))
                        for r in rows)):
            raise InputError(f"{self.path}: {key} must be {self.dimension} "
                             "lists of finite numbers")
        return rows

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
        if not isinstance(s, dict):
            raise InputError(f"{self.path}: sampling must be an object")
        seed = _seed(args, s.get("seed", DEFAULT_SEED),
                     f"{self.path}: sampling seed")
        count = _sample_count(args, s.get("samples", DEFAULT_SAMPLES))
        box = s.get("box", 1.0)
        if not (_is_number(box) and box > 0):
            raise InputError(f"{self.path}: sampling box must be a positive "
                             f"number, got {box!r}")
        guard_floor = args.guard or DEFAULT_GUARD
        guards = []
        try:
            for g in s.get("guards", []):
                floor = g.get("min", guard_floor)
                if not (_is_number(floor) and floor > 0):
                    raise InputError(
                        f"{self.path}: sampling guards: min must be a "
                        f"finite number above 0, got {floor!r}")
                guards.append((parse_expr(g["expr"], self.dimension),
                               float(floor)))
        except (OpfrobError, KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"{self.path}: sampling guards: {exc}")
        return SampleConfig(seed=seed, count=count, box=float(box),
                            guards=tuple(guards))


def _is_number(x) -> bool:
    # a finite float, or an integer that converts to one (nan fails too)
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _integer(value, what: str, least: int) -> int:
    """``value`` if it is an integer of at least ``least``; a float, a
    string or a bool is an input error, never truncated."""
    if type(value) is not int or value < least:
        raise InputError(
            f"{what} must be an integer of at least {least}, got {value!r}")
    return value


def _seed(args, default, what: str) -> int:
    """The sampling seed: ``--seed`` if given, else ``default``."""
    if args.seed is not None:
        return _integer(args.seed, "--seed", 0)
    return _integer(default, what, 0)


def _sample_count(args, default) -> int:
    """The number of sample points: ``--samples`` if given, else
    ``default``; a count below 1 is an input error."""
    count = args.samples if args.samples is not None else default
    if type(count) is not int:
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


def _check_options(args):
    """``--tol`` and ``--guard`` must be finite and positive where given;
    ``builtin`` takes neither (each fixture sets its own)."""
    for name in ("tol", "guard"):
        value = getattr(args, name)
        if value is not None and args.command == "builtin":
            raise InputError("builtin takes no --tol or --guard")
        if value is not None and not (math.isfinite(value) and value > 0):
            raise InputError(
                f"--{name} must be a finite positive number, got {value!r}")


def cmd_verify_algebra(args) -> VerificationReport:
    tol = args.tol or 1e-9
    sf = load_system_file(args.file)
    cfg = sf.sample_config(args)
    basis = sf.basis()
    points = sample_points(sf.dimension, cfg)
    return algebra_report(basis, points, covector=sf.covector, tol=tol,
                          seed=cfg.seed)


def cmd_dualize(args) -> VerificationReport:
    tol = args.tol or 1e-9
    sf = load_system_file(args.file)
    if sf.covector is None:
        raise InputError(f"{sf.path}: dualize needs a covector")
    cfg = sf.sample_config(args)
    points = sample_points(sf.dimension, cfg)
    _, report = dualize_family(sf.basis(), sf.covector, points, tol=tol,
                               seed=cfg.seed)
    return report


def cmd_symcheck(args) -> VerificationReport:
    tol = args.tol or 1e-9
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
    candidates = []
    if sf.polynomials:      # None, or one list per coordinate
        candidates.append(("analytic_candidate",
                           analytic_symmetry(flat, sf.polynomials)))
    if sf.candidate_name is not None:
        if sf.candidate_name not in sf.fields:
            raise InputError(
                f"{sf.path}: candidate {sf.candidate_name!r} not defined")
        candidates.append((sf.candidate_name, sf.fields[sf.candidate_name]))
    if not candidates:
        raise InputError(
            f"{sf.path}: symcheck needs polynomials or a candidate field")
    for label, candidate in candidates:
        for c in sym_membership(basis, candidate, points, tol=tol,
                                seed=cfg.seed).checks:
            c.name = f"{label}.{c.name}"
            report.add(c)
    return report


def cmd_generate(args) -> VerificationReport:
    tol = args.tol or 1e-9
    sf = load_system_file(args.file)
    if sf.one_form is None:
        raise InputError(f"{sf.path}: generate needs a one_form")
    cfg = sf.sample_config(args)
    points = sample_points(sf.dimension, cfg)
    system, report = generate_system(
        sf.basis(), sf.one_form, points, chart=sf.chart, tol=tol,
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
                        c_str = "" if f"{c:g}" == "1" else f"{c:g}*"
                        terms.append(f"{c_str}p{i + 1}*p{j + 1}")
            lines.append(f"F{s + 1} = " + (" + ".join(terms) or "0"))
        report.add(CheckResult(
            name="emitted_family", passed=True, residual=0.0, tolerance=0.0,
            samples=0, detail="; ".join(lines)))
    return report


def cmd_poisson_check(args) -> VerificationReport:
    tol = args.tol or 1e-8
    sf = load_system_file(args.file)
    if not sf.hamiltonians:
        raise InputError(f"{sf.path}: poisson-check needs hamiltonians")
    cfg = sf.sample_config(args)
    points = sample_points(sf.dimension, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    p_draws = rng.uniform(-cfg.box, cfg.box, (len(points), sf.dimension))
    report = VerificationReport(title="poisson-check", seed=cfg.seed)
    report.add(verify_commuting_family(sf.hamiltonians, points, p_draws,
                                       tol=tol))
    return report


def cmd_inverse(args) -> VerificationReport:
    tol = args.tol or 1e-8
    sf = load_system_file(args.file)
    if not sf.hamiltonians:
        raise InputError(f"{sf.path}: inverse needs hamiltonians")
    if sf.covector is None:
        raise InputError(f"{sf.path}: inverse needs a covector")
    cfg = sf.sample_config(args)
    points = sample_points(sf.dimension, cfg)
    report, _ = inverse_verify(sf.hamiltonians, sf.covector, points,
                               tol=tol, seed=cfg.seed)
    return report


def cmd_hj(args) -> VerificationReport:
    tol = args.tol or 1e-9
    sf = load_system_file(args.file)
    if sf.one_form is None:
        raise InputError(f"{sf.path}: hj needs a one_form")
    try:
        c = [float(x) for x in args.c.split(",")]
        if not all(map(_is_number, c)):
            raise ValueError
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
        sf.basis(), sf.one_form, points, chart=sf.chart, tol=tol,
        seed=cfg.seed)
    report = VerificationReport(title="hj", seed=cfg.seed)
    report.extend(gen_report)
    hj_points = np.asarray(points[:args.hj_points], dtype=float)
    dW = system.hj_differential(hj_points, c)
    levels = np.einsum("bi,bsij,bj->bs", dW,
                       system.coefficient_grids(hj_points), dW)
    residuals = np.max(np.abs(levels - c) / (1.0 + np.abs(c)), axis=1)
    report.add(reduce_check("hamilton_jacobi_consistency", residuals,
                            hj_points, 1e-8,
                            detail=f"F_s(u, dW(u,c)) = c_s for c={c}"))
    return report


def cmd_flow(args) -> VerificationReport:
    tol = args.tol or 1e-8
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
    cfg = SampleConfig(seed=_seed(args, DEFAULT_SEED, "seed"),
                       count=_sample_count(args, DEFAULT_SAMPLES))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by calls."""
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
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _check_options(args)
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
