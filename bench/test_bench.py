"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import opfrob  # noqa: E402
from opfrob.cli import load_system_file  # noqa: E402
from opfrob.exprs import parse_expr  # noqa: E402
from tracing import (  # noqa: E402
    Spans, TraceIntegrityError, Tracer, layer_metrics, root_cover,
    self_times)


def synthetic_tree():
    """root [0, 10] with children [1, 3] and [2, 4] (overlapping),
    [5, 6] (with child [5.5, 5.8]) and [9, 12] (running past the root)."""
    s = Spans()
    root = s.add("a.root", 0.0, 10.0)
    s.add("b.left", 1.0, 3.0, parent=root)
    s.add("b.right", 2.0, 4.0, parent=root)
    mid = s.add("b.mid", 5.0, 6.0, parent=root)
    s.add("c.leaf", 5.5, 5.8, parent=mid)
    s.add("b.late", 9.0, 12.0, parent=root)
    return s


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    st = self_times(synthetic_tree())
    # root: 10 - |[1,4] u [5,6] u [9,10]| = 10 - (3 + 1 + 1)
    assert st[0] == pytest.approx(5.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(0.7)
    assert st[4] == pytest.approx(0.3)
    assert st[5] == pytest.approx(3.0)


def test_root_cover_counts_only_root_spans_inside_job_windows():
    s = synthetic_tree()
    s.add("a.root", 11.0, 13.0)
    assert root_cover(s, {0: (0.0, 12.0)}) == pytest.approx(11.0)


def test_search_and_cache_metrics_on_a_synthetic_trace():
    t = Tracer()
    s = t.spans
    search = s.add("frobalg.find_generic_vector", 0.0, 1.0)
    for k in range(3):
        s.add("numkit.mat_rank", 0.1 * k, 0.1 * k + 0.05, parent=search)
    s.add("numkit.mat_rank", 2.0, 2.1)
    miss = s.add("fields.OperatorField.jet_arrays", 3.0, 4.0)
    s.add("fields.OperatorField.eval_jet", 3.1, 3.9, parent=miss)
    s.add("fields.OperatorField.jet_arrays", 5.0, 5.1)
    m = layer_metrics(t, passes=1)
    assert m["frobalg.rank_checks_per_search"] == 3.0
    assert m["numkit.mat_rank_calls"] == 4.0
    assert m["fields.jet_cache_hit_ratio"] == 0.5
    assert m["frobalg.generic_search_ms"] == pytest.approx(850.0)


def test_wrappers_replace_every_binding_and_are_removed():
    orig = opfrob.numkit.mat_rank
    assert opfrob.frobalg.mat_rank is orig
    t = Tracer()
    t.install()
    try:
        wrapper = opfrob.numkit.mat_rank
        assert wrapper is not orig
        for mod in (opfrob.frobalg, opfrob.hydroflow, opfrob.integ, opfrob):
            assert mod.mat_rank is wrapper
        assert (opfrob.opfields.structure_constants_at
                is opfrob.frobalg.structure_constants_at
                is not opfrob.frobalg.structure_constants_at.__wrapped__)
        opfrob.frobalg.mat_rank([[1.0, 0.0], [0.0, 1.0]])
        assert [t.spans.name(i) for i in range(len(t.spans))] \
            == ["numkit.mat_rank"]
    finally:
        t.remove()
    assert opfrob.numkit.mat_rank is orig and opfrob.frobalg.mat_rank is orig


def test_a_missed_binding_is_reported():
    t = Tracer()
    t.install()
    try:
        wrapper = opfrob.frobalg.mat_rank
        opfrob.frobalg.mat_rank = wrapper.__wrapped__
        with pytest.raises(TraceIntegrityError, match="frobalg.mat_rank"):
            t.check(installed=True)
        opfrob.frobalg.mat_rank = wrapper
    finally:
        t.remove()


def test_flow_curve_rejects_draws_that_fail_the_sampling_guards(tmp_path):
    from opfrob.sampling import guards_ok
    from workloads import flow_curve, prepare
    wl = prepare("flow-series", 1, tmp_path)
    sf = load_system_file(wl.files[0])
    fields = [sf.fields[b] for b in sf.basis_names]
    guards = ((parse_expr("u1", 4), 0.2),)
    u0 = [a for a, _ in flow_curve(fields, guards, 1)]
    assert guards_ok(u0, guards)
    # seed 1 draws |u1| < 0.2 first, so the guard moves the curve
    assert [a for a, _ in flow_curve(fields, (), 1)] != u0


def test_smoke_mode_runs_every_workload_clean():
    r = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                       capture_output=True, text=True, timeout=900)
    assert r.returncode == 0, r.stderr
