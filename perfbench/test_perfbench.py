"""Tests of the benchmark's own machinery: span maths, wrapper restoration,
the correctness gate and the compare verdicts.

    python3 -m pytest -q perfbench
"""

import sys
import types
from pathlib import Path

import pytest

import compare
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _span(sid, parent, start, end, name="x", units=None):
    return [sid, parent, name, start, end, units]


def test_self_time_without_children_is_duration():
    assert spans.self_times([_span(0, None, 1.0, 3.5)]) == [2.5]


def test_self_time_subtracts_disjoint_children():
    got = spans.self_times([_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0),
                            _span(2, 0, 5.0, 6.0)])
    assert got == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_unions_overlapping_children_and_clips_to_parent():
    got = spans.self_times([_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 6.0),
                            _span(2, 0, 4.0, 8.0), _span(3, 0, 9.0, 12.0)])
    # children cover [2, 8] and [9, 10] inside the parent
    assert got[0] == pytest.approx(3.0)


def test_self_time_counts_only_direct_children():
    got = spans.self_times([_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 8.0),
                            _span(2, 1, 3.0, 7.0)])
    assert got == pytest.approx([4.0, 2.0, 4.0])


def test_tracer_records_parents_units_and_raising_calls():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    def outer(x):
        return tracer.call("inner", lambda a, k: {"n": a[0]}, inner, (x,), {})

    assert tracer.call("outer", None, outer, (3,), {}) == 3
    with pytest.raises(ValueError):
        tracer.call("outer", None, outer, (-1,), {})
    outer_span, inner_span = tracer.spans[:2]
    assert outer_span[1] is None and inner_span[1] == outer_span[0]
    assert inner_span[5] == {"n": 3} and outer_span[4] >= inner_span[4]
    # the raising pair is still recorded, with its units and end time
    assert [s[2] for s in tracer.spans] == ["outer", "inner", "outer", "inner"]
    assert tracer.spans[3][5] == {"n": -1} and tracer.spans[3][4] is not None
    assert tracer._stack == []


def test_patches_restore_module_and_class_bindings():
    mod = types.ModuleType("m")
    mod.f = lambda: 1

    class Base:
        def g(self):
            return "base"

    class Own(Base):
        def g(self):
            return "own"

    class Inherits(Base):
        pass

    orig_f, orig_own = mod.f, vars(Own)["g"]
    tracer = spans.Tracer()
    patches = spans.Patches(tracer)
    patches.wrap(mod, "f", "f")
    patches.wrap(Own, "g", "g")
    patches.wrap(Inherits, "g", "g")
    assert mod.f() == 1 and Own().g() == "own" and Inherits().g() == "base"
    assert len(tracer.spans) == 3
    assert mod.f is not orig_f and "g" in vars(Inherits)
    patches.restore()
    assert mod.f is orig_f
    assert vars(Own)["g"] is orig_own
    assert "g" not in vars(Inherits)


def test_install_wraps_and_restores_every_volflow_binding():
    import volflow

    mods = [volflow.cli, volflow.config, volflow.criteria, volflow.flowfield,
            volflow.functionals, volflow.matvol, volflow.solver, volflow.verify]
    classes = [volflow.flowfield.ConstantFlow, volflow.flowfield.ExpansionFlow,
               volflow.solver.GridFlow]
    before = [dict(vars(m)) for m in mods + classes]
    patches = spans.Patches(spans.Tracer())
    spans.install(patches, volflow)
    assert volflow.verify._advect_any is not before[mods.index(volflow.verify)]["_advect_any"]
    patches.restore()
    after = [dict(vars(m)) for m in mods + classes]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(a[k] is b[k] for k in b)


def _record(tmp_path, op, text, name="x_report.txt"):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / name).write_text(text)
    return sorted(out.iterdir())


def test_gate_checks_verdict_hit_time_and_exit_codes(tmp_path):
    op = workloads.Operation("run", [], {"verdict": "consistent_hit",
                                         "hit_time_near": (1.5, 0.002)})
    ok = _record(tmp_path, op, "report: run\nverdict: consistent_hit\nhit_time: 1.501\n")
    assert workloads.check(op, 0, None, ok) is None
    late = _record(tmp_path, op, "report: run\nverdict: consistent_hit\nhit_time: 1.51\n")
    assert workloads.check(op, 0, None, late)[0] == "wrong"
    assert workloads.check(op, 3, None, ok)[0] == "error"
    assert workloads.check(op, None, "SmoothnessLost: t=0.685", [])[0] == "error"


def test_gate_counts_csv_rows(tmp_path):
    op = workloads.Operation("sweep", [], {"csv_rows": 2})
    files = _record(tmp_path, op, "a,b\n1,2\n3,4\n", name="x_sweep.csv")
    assert workloads.check(op, 0, None, files) is None
    op.expect["csv_rows"] = 3
    assert workloads.check(op, 0, None, files)[0] == "wrong"


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, 0.1, "lower", 0, 0) == "improved"
    # more failures forbid claiming the gain
    assert compare.verdict(parent, faster, pairs, 0.1, "lower", 0, 0.1) == "no worse"
    assert compare.verdict(parent, slower, list(zip(parent, slower)), 0.1,
                           "lower", 0, 0) == "worse"
    assert compare.verdict(parent, parent, list(zip(parent, parent)), 0.1,
                           "lower", 0, 0) == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), 0.1,
                           "lower", 0, 0) == "unresolved"
    # higher-is-better metrics flip the direction
    assert compare.verdict(parent, slower, list(zip(parent, slower)), 0.1,
                           "higher", 0, 0) == "improved"
