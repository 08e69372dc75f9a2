"""The ``opfrob`` command line: subcommands and their reports.  A file
subcommand reads one system file (``opfrob.sysfile``) that must hold the
keys the command needs.

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

from .errors import InputError, OpfrobError
from .fixtures import builtin_names, emit_builtin, run_builtin
from .frobalg import algebra_report
from .hydroflow import flow_compatibility_residual, taylor_flow
from .integ import generate_system, inverse_verify, verify_commuting_family
from .opfields import dualize_family
from .report import CheckResult, VerificationReport, reduce_check
from .sampling import sample_points
from .symalg import FlatBasis, analytic_symmetry, sym_membership
from .sysfile import load_system_file, options_config

EXIT_OK, EXIT_FAIL, EXIT_INPUT = 0, 1, 2
# what a system file must hold for a command that needs the key
NEEDS = {"covector": "a covector", "one_form": "a one_form",
         "hamiltonians": "hamiltonians", "initial_curve": "an initial_curve"}


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


def _system_file(args, *needs, check=None):
    """The system file of a file subcommand and its sample config: the file
    must hold each key of ``needs`` (an empty hamiltonians list is none),
    and ``check(args, sf)`` vets the options before the sampling object."""
    sf = load_system_file(args.file)
    for key in needs:
        if not getattr(sf, key):
            raise InputError(f"{sf.path}: {args.command} needs {NEEDS[key]}")
    if check:
        check(args, sf)
    return sf, sf.sample_config(args)


def cmd_verify_algebra(args) -> VerificationReport:
    tol = args.tol or 1e-9
    sf, cfg = _system_file(args)
    basis = sf.basis()
    points = sample_points(sf.dimension, cfg)
    return algebra_report(basis, points, covector=sf.covector, tol=tol,
                          seed=cfg.seed)


def cmd_dualize(args) -> VerificationReport:
    tol = args.tol or 1e-9
    sf, cfg = _system_file(args, "covector")
    points = sample_points(sf.dimension, cfg)
    _, report = dualize_family(sf.basis(), sf.covector, points, tol=tol,
                               seed=cfg.seed)
    return report


def cmd_symcheck(args) -> VerificationReport:
    tol = args.tol or 1e-9
    sf, cfg = _system_file(args)
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
    sf, cfg = _system_file(args, "one_form")
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
    sf, cfg = _system_file(args, "hamiltonians")
    points = sample_points(sf.dimension, cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    p_draws = rng.uniform(-cfg.box, cfg.box, (len(points), sf.dimension))
    report = VerificationReport(title="poisson-check", seed=cfg.seed)
    report.add(verify_commuting_family(sf.hamiltonians, points, p_draws,
                                       tol=tol))
    return report


def cmd_inverse(args) -> VerificationReport:
    tol = args.tol or 1e-8
    sf, cfg = _system_file(args, "hamiltonians", "covector")
    points = sample_points(sf.dimension, cfg)
    if len(sf.hamiltonians) != sf.dimension:
        raise InputError(f"{sf.path}: inverse needs {sf.dimension} "
                         f"hamiltonians, got {len(sf.hamiltonians)}")
    report, _ = inverse_verify(sf.hamiltonians, sf.covector, points,
                               tol=tol, seed=cfg.seed)
    return report


def _hj_options(args, sf):
    """Parse ``--c`` into ``args.c``, and check it and ``--hj-points``."""
    try:
        c = [float(x) for x in args.c.split(",")]
        if not all(map(math.isfinite, c)):
            raise ValueError
    except ValueError:
        raise InputError(f"invalid --c value {args.c!r}")
    if len(c) != sf.dimension:
        raise InputError(f"--c needs {sf.dimension} components")
    if args.hj_points < 1:
        raise InputError(
            f"--hj-points must be at least 1, got {args.hj_points}")
    args.c = c


def cmd_hj(args) -> VerificationReport:
    tol = args.tol or 1e-9
    sf, cfg = _system_file(args, "one_form", check=_hj_options)
    points = sample_points(sf.dimension, cfg)
    system, gen_report = generate_system(
        sf.basis(), sf.one_form, points, chart=sf.chart, tol=tol,
        seed=cfg.seed)
    report = VerificationReport(title="hj", seed=cfg.seed)
    report.extend(gen_report)
    hj_points, _, residuals = system.hj_consistency(args.hj_points, args.c)
    report.add(reduce_check("hamilton_jacobi_consistency", residuals,
                            hj_points, 1e-8,
                            detail=f"F_s(u, dW(u,c)) = c_s for c={args.c}"))
    return report


def cmd_flow(args) -> VerificationReport:
    tol = args.tol or 1e-8
    sf, cfg = _system_file(args, "initial_curve")
    fields = sf.basis_fields()
    try:
        sol = taylor_flow(fields, sf.initial_curve, sf.flow_order)
    except OpfrobError as exc:
        raise InputError(f"{sf.path}: {exc}")
    report = VerificationReport(title="flow", seed=cfg.seed)
    detail = f"truncation order {sol.order}" + (
        "" if sol.is_finite() else "; the jet or a K_j(u) u_x is not finite")
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            r = flow_compatibility_residual(sol, i, j)
            report.add(CheckResult(
                name=f"flow_compatibility_{i + 1}_{j + 1}", passed=r <= tol,
                residual=r, tolerance=tol, samples=1, detail=detail,
            ))
    if sol.generic_warning:
        report.add(CheckResult(
            name="generic_initial_curve", passed=False, residual=float("inf"),
            tolerance=0.0, samples=1,
            detail="initial curve is non-generic: K_i(u0) u0' dependent",
        ))
    return report


def cmd_builtin(args) -> VerificationReport:
    cfg = options_config(args)
    try:
        if not args.emit:
            return run_builtin(args.name, cfg, variant=args.variant)
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
        with np.errstate(all="ignore"):  # checks judge non-finite values
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
