"""Layer spans recorded from outside the opfrob package.

A :class:`Tracer` replaces selected module functions and methods of
``opfrob`` with wrappers that record one span per call: name, start, end,
parent span and job id.  Spans live in flat arrays while the run is going
and are written out when it ends.  Nothing inside ``src/`` is changed; the
wrappers are installed before a traced pass and removed after it.

A module function is rebound at every ``opfrob`` module that holds it, so
``from .numkit import mat_rank`` in ``frobalg`` is traced as well.
:meth:`Tracer.install` checks that no module or class still holds an
original afterwards, because a missed binding would silently drop spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Module functions wrapped with a span, by defining module.
FUNCTIONS = {
    "cli": ["load_system_file"],
    "exprs": ["parse_expr", "eval_expr"],
    "numkit": ["mat_solve", "mat_inv", "mat_rank", "sqrt_near_identity",
               "split_jet_matrix", "split_jet_vector"],
    "frobalg": ["find_generic_vector", "find_generic_covector",
                "find_well_conditioned_vector", "structure_constants_at",
                "point_data", "algebra_report"],
    "opfields": ["is_symmetry", "is_strong_symmetry",
                 "nijenhuis_torsion_report", "conservation_law_check",
                 "dualize_family", "symmetry_coefficient_check"],
    "integ": ["poisson_bracket", "verify_commuting_family",
              "generate_system", "killing_tensors", "hj_differential",
              "inverse_verify"],
    "symalg": ["sym_membership", "analytic_symmetry"],
    "hydroflow": ["taylor_flow", "flow_compatibility_residual"],
    "sampling": ["sample_points", "sample_phase_points", "guards_ok"],
    "fixtures": ["run_builtin"],
}

# Methods wrapped with a span, by defining module and class.
METHODS = {
    ("fields", "OperatorField"): ["eval", "eval_jet", "batch_jet_arrays",
                                  "jet_arrays"],
    ("opfields", "DualFamily"): ["jet_data"],
    ("integ", "QuadraticHamiltonian"): ["coeff_jets"],
    ("integ", "IntegrableSystem"): ["structure_jets_at", "killing_at",
                                    "hj_differential"],
    ("integ", "ReconstructedFamily"): ["jet_data", "_killing"],
    ("hydroflow", "MultiSeries"): ["__mul__"],
    ("report", "VerificationReport"): ["render", "to_dict"],
}

# Methods that only count their calls (too frequent for a span each).
COUNTERS = {("numkit", "Jet"): ["__init__"]}


def _object_dtype(args, result) -> int:
    """Tag of a mat_solve span: 1 when it ran on generic (object) scalars."""
    return int(any(np.asarray(a).dtype == object for a in args[:2]))


def _truth(args, result) -> int:
    return int(bool(result))


TAGS = {"numkit.mat_solve": _object_dtype, "sampling.guards_ok": _truth}


class TraceIntegrityError(RuntimeError):
    """A wrapped name is still bound to its original somewhere."""


class Spans:
    """Flat span storage; span i is (names[name_id[i]], start[i], end[i],
    parent[i], job[i], tag[i]), with parent -1 for a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.tag = array("b")

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name, start, end, parent=-1, job=0, tag=0) -> int:
        """Append a finished span (used to build synthetic trees)."""
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job.append(job)
        self.tag.append(tag)
        return len(self.start) - 1

    def __len__(self):
        return len(self.start)

    def name(self, i: int) -> str:
        return self.names[self.name_id[i]]

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(json.dumps([i, self.name(i), self.start[i],
                                     self.end[i], self.parent[i],
                                     self.job[i]]) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Spans) -> list[float]:
    """Per span: its duration minus the part of its interval that its child
    spans cover."""
    children = defaultdict(list)
    for i in range(len(spans)):
        p = spans.parent[i]
        if p >= 0:
            children[p].append((spans.start[i], spans.end[i]))
    out = []
    for i in range(len(spans)):
        lo, hi = spans.start[i], spans.end[i]
        out.append((hi - lo) - _covered(children.get(i, ()), lo, hi))
    return out


def root_cover(spans: Spans, job_windows) -> float:
    """Seconds of the given (start, end) job windows that fall inside some
    span."""
    roots = defaultdict(list)
    for i in range(len(spans)):
        if spans.parent[i] < 0:
            roots[spans.job[i]].append((spans.start[i], spans.end[i]))
    return sum(_covered(roots.get(job, ()), lo, hi)
               for job, (lo, hi) in job_windows.items())


class Tracer:
    """Installs span wrappers on the loaded ``opfrob`` modules."""

    def __init__(self):
        self.spans = Spans()
        self.counts = defaultdict(int)
        self.job = -1
        self._stack = [-1]
        self._patches = []      # (owner, attribute, original)
        self._originals = {}    # qualified name -> original function

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, qualname, fn):
        spans, stack = self.spans, self._stack
        nid = spans.intern(qualname)
        tag_of = TAGS.get(qualname)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans.start)
            spans.name_id.append(nid)
            spans.parent.append(stack[-1])
            spans.job.append(self.job)
            spans.tag.append(0)
            spans.end.append(0.0)
            stack.append(sid)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[sid] = clock()
                stack.pop()
            if tag_of is not None:
                spans.tag[sid] = tag_of(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def _count_wrapper(self, qualname, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[qualname] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None
                and (name == "opfrob" or name.startswith("opfrob."))]

    @staticmethod
    def _owners(modules):
        """Every opfrob module and every class defined in one."""
        owners = list(modules)
        for m in modules:
            for val in list(vars(m).values()):
                if isinstance(val, type) \
                        and getattr(val, "__module__", "").startswith("opfrob") \
                        and val not in owners:
                    owners.append(val)
        return owners

    def _targets(self):
        def module(mod):
            return importlib.import_module(f"opfrob.{mod}")

        for mod, names in FUNCTIONS.items():
            for name in names:
                yield f"{mod}.{name}", vars(module(mod))[name], \
                    self._span_wrapper
        for table, make in ((METHODS, self._span_wrapper),
                            (COUNTERS, self._count_wrapper)):
            for (mod, cls), names in table.items():
                klass = vars(module(mod))[cls]
                for name in names:
                    yield f"{mod}.{cls}.{name}", vars(klass)[name], make

    def install(self):
        """Wrap every target at every binding, then check none was missed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = list(self._targets())
        owners = self._owners(self._modules())
        for qualname, orig, make in targets:
            wrapper = make(qualname, orig)
            self._originals[qualname] = orig
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is orig:
                        setattr(owner, attr, wrapper)
                        self._patches.append((owner, attr, orig))
        self.check(installed=True)

    def remove(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.check(installed=False)

    def check(self, installed: bool):
        """Raise TraceIntegrityError if any original is still bound while
        installed, or any wrapper is left after removal."""
        originals = {id(f): q for q, f in self._originals.items()}
        problems = []
        for owner in self._owners(self._modules()):
            where = getattr(owner, "__qualname__", owner.__name__)
            for attr, val in vars(owner).items():
                if installed and id(val) in originals:
                    problems.append(f"{where}.{attr} still binds "
                                    f"{originals[id(val)]}")
                if not installed and getattr(val, "__wrapped__", None) \
                        is not None and id(val.__wrapped__) in originals:
                    problems.append(f"{where}.{attr} still wrapped")
        if problems:
            raise TraceIntegrityError("; ".join(problems))

    def begin_job(self, job: int):
        self.job = job


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SEARCHES = ["frobalg.find_generic_vector", "frobalg.find_generic_covector",
            "frobalg.find_well_conditioned_vector"]
SYMMETRY = ["opfields.is_symmetry", "opfields.is_strong_symmetry"]

# Self time per pass, in ms, summed over the named spans.
SELF_MS = {
    "cli.load_ms": ["cli.load_system_file"],
    "exprs.parse_ms": ["exprs.parse_expr"],
    "exprs.eval_ms": ["exprs.eval_expr"],
    "fields.eval_ms": ["fields.OperatorField.eval"],
    "fields.eval_jet_ms": ["fields.OperatorField.eval_jet"],
    "fields.batch_jet_ms": ["fields.OperatorField.batch_jet_arrays"],
    "numkit.mat_solve_ms": ["numkit.mat_solve"],
    "numkit.split_jet_ms": ["numkit.split_jet_matrix",
                            "numkit.split_jet_vector"],
    "numkit.mat_rank_ms": ["numkit.mat_rank"],
    "numkit.sqrt_ms": ["numkit.sqrt_near_identity"],
    "frobalg.generic_search_ms": SEARCHES,
    "frobalg.structure_constants_ms": ["frobalg.structure_constants_at"],
    "frobalg.point_data_ms": ["frobalg.point_data"],
    "opfields.symmetry_ms": SYMMETRY + ["opfields.nijenhuis_torsion_report"],
    "opfields.conservation_ms": ["opfields.conservation_law_check"],
    "opfields.dual_jet_ms": ["opfields.DualFamily.jet_data"],
    "integ.poisson_ms": ["integ.verify_commuting_family",
                         "integ.poisson_bracket"],
    "integ.coeff_jets_ms": ["integ.QuadraticHamiltonian.coeff_jets"],
    "integ.structure_jets_ms": ["integ.IntegrableSystem.structure_jets_at"],
    "integ.killing_ms": ["integ.killing_tensors",
                         "integ.IntegrableSystem.killing_at",
                         "integ.ReconstructedFamily._killing"],
    "integ.reconstruct_ms": ["integ.ReconstructedFamily.jet_data"],
    "integ.hj_ms": ["integ.hj_differential",
                    "integ.IntegrableSystem.hj_differential"],
    "symalg.membership_ms": ["symalg.sym_membership"],
    "hydroflow.taylor_flow_ms": ["hydroflow.taylor_flow"],
    "hydroflow.compat_ms": ["hydroflow.flow_compatibility_residual"],
    "hydroflow.series_mul_ms": ["hydroflow.MultiSeries.__mul__"],
    "sampling.sample_ms": ["sampling.sample_points",
                           "sampling.sample_phase_points",
                           "sampling.guards_ok"],
    "report.render_ms": ["report.VerificationReport.render",
                         "report.VerificationReport.to_dict"],
}

# Calls per pass of the named spans.
CALLS = {
    "exprs.eval_calls": ["exprs.eval_expr"],
    "numkit.mat_solve_calls": ["numkit.mat_solve"],
    "numkit.mat_rank_calls": ["numkit.mat_rank"],
    "frobalg.generic_search_calls": SEARCHES,
    "opfields.symmetry_checks": SYMMETRY,
    "integ.coeff_jets_calls": ["integ.QuadraticHamiltonian.coeff_jets"],
    "hydroflow.series_mul_calls": ["hydroflow.MultiSeries.__mul__"],
}

# Name, unit of every per-layer metric, in report order.
LAYER_METRICS = (
    [(m, "ms") for m in SELF_MS]
    + [(m, "count") for m in CALLS]
    + [("numkit.jet_allocs", "count"),
       ("numkit.mat_solve_object_share", "ratio"),
       ("frobalg.rank_checks_per_search", "ratio"),
       ("fields.jet_cache_hit_ratio", "ratio"),
       ("opfields.dual_jet_cache_hit_ratio", "ratio"),
       ("sampling.accept_ratio", "ratio"),
       ("exprs.nodes_tree", "count"),
       ("exprs.nodes_unique", "count"),
       ("trace.coverage", "ratio"),
       ("trace.overhead_ratio", "ratio")]
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Span-derived per-layer metrics, per traced pass.  The static node
    counts and the two trace.* figures are filled in by the caller."""
    spans = tracer.spans
    st = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    tagged = defaultdict(int)
    has_child = set()
    for i in range(len(spans)):
        name = spans.name(i)
        self_s[name] += st[i]
        calls[name] += 1
        tagged[name] += spans.tag[i]
        if spans.parent[i] >= 0:
            has_child.add(spans.parent[i])

    def childless(name):
        return sum(1 for i in range(len(spans))
                   if spans.name(i) == name and i not in has_child)

    search_ids = {i for i in range(len(spans)) if spans.name(i) in SEARCHES}
    rank_in_search = sum(1 for i in range(len(spans))
                         if spans.name(i) == "numkit.mat_rank"
                         and spans.parent[i] in search_ids)
    out = {}
    for metric, names in SELF_MS.items():
        out[metric] = 1000.0 * sum(self_s[n] for n in names) / passes
    for metric, names in CALLS.items():
        out[metric] = sum(calls[n] for n in names) / passes
    out["numkit.jet_allocs"] = tracer.counts["numkit.Jet.__init__"] / passes
    out["numkit.mat_solve_object_share"] = _ratio(
        tagged["numkit.mat_solve"], calls["numkit.mat_solve"])
    out["frobalg.rank_checks_per_search"] = _ratio(rank_in_search,
                                                   len(search_ids))
    for metric, name in (("fields.jet_cache_hit_ratio",
                          "fields.OperatorField.jet_arrays"),
                         ("opfields.dual_jet_cache_hit_ratio",
                          "opfields.DualFamily.jet_data")):
        # every child of these spans is evaluation work, so a span with
        # no child was served from a cache (or a constant field)
        out[metric] = _ratio(childless(name), calls[name])
    out["sampling.accept_ratio"] = _ratio(tagged["sampling.guards_ok"],
                                          calls["sampling.guards_ok"])
    return out
