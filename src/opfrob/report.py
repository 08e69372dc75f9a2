"""Pass/fail check records with deterministic rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# the residual tolerance of a check where its command sets none
DEFAULT_TOL = 1e-9
# the residual tolerance where poisson-check, inverse and flow set none,
# and the fixed one of hj's Hamilton-Jacobi consistency
LOOSE_TOL = 1e-8
CERTIFICATE_NOTE = (
    "all passes are numerical certificates at the sampled points, "
    "not symbolic proofs"
)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    worst_point: list | None = None
    samples: int = 0
    seed: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "passed": self.passed,
            "max_residual": self.residual,
            "tolerance": self.tolerance,
            "samples": self.samples,
        }
        if self.worst_point is not None:
            d["worst_point"] = [float(x) for x in self.worst_point]
        if self.seed is not None:
            d["seed"] = self.seed
        if self.detail:
            d["detail"] = self.detail
        return d

    def render(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        line = (
            f"[{tag}] {self.name}: residual={_fmt(self.residual)} "
            f"tol={_fmt(self.tolerance)} samples={self.samples}"
        )
        if self.worst_point is not None and not self.passed:
            pt = ", ".join(_fmt(float(x)) for x in self.worst_point)
            line += f" worst_point=({pt})"
        if self.detail:
            line += f"  [{self.detail}]"
        return line


def reduce_check(name: str, residuals, points, tol: float,
                 **report_fields) -> CheckResult:
    """The check ``name`` over ``points``, from the residuals at them.

    ``residuals[..., b]`` belongs to ``points[b]``; leading axes (pairs,
    fields, components) are folded in C order.  The reported residual is
    NaN if any residual is NaN and the maximum otherwise; ``worst_point``
    is the point of the first entry, in C order, that attains it, and is
    left out when that residual is exactly 0.  ``samples`` is the number of
    points.  The check passes only when some point was evaluated and the
    worst residual is within ``tol``, so a NaN fails, and a check over no
    point fails with detail "no point evaluated".  ``report_fields`` (seed,
    detail) go to the CheckResult.
    """
    samples = len(points)
    if samples == 0:
        detail = "; ".join(filter(None, ("no point evaluated",
                                         report_fields.pop("detail", ""))))
        return CheckResult(name=name, passed=False, residual=0.0,
                           tolerance=tol, samples=0, detail=detail,
                           **report_fields)
    # the reshape rejects residuals that do not split over the points
    r = np.asarray(residuals, dtype=float).reshape(-1, samples).ravel()
    k = int(np.argmax(r)) if r.size else 0   # argmax stops at a NaN
    worst = float(r[k]) if r.size else 0.0
    worst_point = None if worst == 0.0 else \
        [float(x) for x in points[k % samples]]
    return CheckResult(name=name, passed=worst <= tol, residual=worst,
                       tolerance=tol, worst_point=worst_point,
                       samples=samples, **report_fields)


def failed_check(name: str, exc, points, tol: float,
                 detail: str | None = None) -> CheckResult:
    """The FAIL of check ``name`` whose batch over ``points`` raised ``exc``
    before giving residuals: it counts the points up to the one named by
    the error's ``index`` and reports that point, or counts none when the
    error names no point.  ``detail`` defaults to the error's message."""
    k = exc.index
    return CheckResult(
        name=name, passed=False, residual=float("inf"), tolerance=tol,
        worst_point=None if k is None else [float(x) for x in points[k]],
        samples=0 if k is None else k + 1,
        detail=str(exc) if detail is None else detail)


@dataclass
class VerificationReport:
    title: str
    checks: list = field(default_factory=list)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    def extend(self, other: "VerificationReport"):
        self.checks.extend(other.checks)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "seed": self.seed,
            "note": CERTIFICATE_NOTE,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        lines.extend(c.render() for c in self.checks)
        n_fail = sum(1 for c in self.checks if not c.passed)
        status = "OK" if n_fail == 0 else f"{n_fail} FAILED"
        lines.append(f"-- {len(self.checks)} checks: {status}")
        lines.append(f"note: {CERTIFICATE_NOTE}")
        return "\n".join(lines)
