"""Spans recorded from outside the program, and the per-layer figures built from them.

`Tracer` keeps spans in memory: one record per call of a wrapped function,
with its name, start, end, the span that was open when it started (its
parent) and the units of work it carried (points, markers, cells, ...).
A span's self time is its duration minus the part of it that its child spans
cover.

`Patches` installs the wrappers.  Each wrapper replaces one binding in the
namespace the call goes through -- a module global, a name imported into
another module, or a class attribute -- and `Patches.restore` puts every
original binding back.  Nothing in the program's sources is edited.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans = []          # [id, parent id or None, name, start, end, units]
        self._stack = []

    def call(self, name, units, fn, args, kwargs):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
            if units is not None:
                span[5] = units(args, kwargs)


def self_times(spans):
    """Self time of each span: duration minus the union of its children's
    intervals, clipped to the span.  Returns a list indexed by span id."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _units in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, _parent, _name, start, end, _units in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Patches:
    """Bindings replaced by tracing wrappers, restorable in one call."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []         # (owner, attribute, original, was own attribute)

    def wrap(self, owner, attr, name, units=None):
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, units, original, args, kwargs)

        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# -- units carried by each wrapped call --------------------------------------

def _points_arg(index):
    def units(args, kwargs):
        return {"points": int(np.prod(np.shape(args[index])[:-1]))}
    return units


def _loop_markers(args, kwargs):
    return {"markers": len(args[0])}


def _sample_nodes(args, kwargs):
    return {"nodes": len(args[1].nodes)}


def _step_cells(args, kwargs):
    return {"cells": int(args[0].rho.size)}


def _snapshots(args, kwargs):
    states = args[0].states
    nbytes = sum(getattr(s, f).nbytes for s in states
                 for f in ("rho", "vx", "vy", "entropy", "pressure"))
    return {"snapshots": len(states), "bytes": nbytes}


def install(patches, volflow):
    """Wrap each layer's public calls where the CLI reaches them."""
    cli, config, criteria = volflow.cli, volflow.config, volflow.criteria
    flowfield, matvol, solver, verify = (volflow.flowfield, volflow.matvol,
                                         volflow.solver, volflow.verify)
    w = patches.wrap
    for cls in (flowfield.ConstantFlow, flowfield.ExpansionFlow):
        w(cls, "velocity", "flowfield.velocity", _points_arg(2))
    w(solver.GridFlow, "velocity", "solver.GridFlow.velocity", _points_arg(2))
    w(solver.GridFlow, "advance_to", "solver.GridFlow.advance_to", _snapshots)
    w(solver, "step", "solver.step", _step_cells)
    w(solver, "interpolate_fields", "solver.interpolate_fields", _points_arg(1))
    # cli calls advect(); verify imports the private _advect_any directly, so
    # that binding is wrapped too.  matvol.advect reaches _advect_any through
    # matvol's own global, which stays unwrapped so no call is counted twice.
    w(cli, "advect", "matvol.advect")
    w(verify, "_advect_any", "matvol.advect")
    w(matvol, "polygon_is_simple", "matvol.polygon_is_simple", _loop_markers)
    for mod in (cli, verify, matvol):
        w(mod, "boundary_distance", "matvol.boundary_distance")
    for mod in (cli, verify):
        w(mod, "sample", "functionals.sample", _sample_nodes)
    w(criteria, "evaluate", "criteria.evaluate")
    w(verify, "blowup_oracle", "verify.blowup_oracle")
    w(verify, "solve_ivp", "verify.oracle.solve_ivp")
    w(verify, "check_lemma_suite", "verify.check_lemma_suite")
    w(verify, "run_theorem_scenario", "verify.run_theorem_scenario")


# -- per-layer figures --------------------------------------------------------

def accumulate(totals, spans):
    """Add one pass's spans to `totals`: durations, self times, call counts
    and units summed per span name; snapshot counts and bytes as maxima."""
    for span, self_t in zip(spans, self_times(spans)):
        sid, parent, name, start, end, units = span
        for key, val in ((".s", end - start), (".self_s", self_t), (".calls", 1)):
            totals[name + key] = totals.get(name + key, 0.0) + val
        for key, val in (units or {}).items():
            if key in ("snapshots", "bytes"):
                key = f"{name}.max_{key}"
                totals[key] = max(totals.get(key, 0), val)
            else:
                key = f"{name}.{key}"
                totals[key] = totals.get(key, 0.0) + val
        # An advection RK4 step queries the velocity of every point 4 times.
        if name in ("flowfield.velocity", "solver.GridFlow.velocity") \
                and parent is not None and spans[parent][2] == "matvol.advect":
            key = "matvol.advect.point_steps"
            totals[key] = totals.get(key, 0.0) + units["points"] / 4.0
    return totals


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(totals, passes):
    """Per-pass per-layer metrics from totals summed over `passes` passes."""
    t = defaultdict(float, totals)
    n = float(passes)
    ns = 1e9
    adv_self = t["matvol.advect.self_s"]
    return {
        "flowfield.velocity.calls": (t["flowfield.velocity.calls"] / n, "count"),
        "flowfield.velocity.points": (t["flowfield.velocity.points"] / n, "count"),
        "flowfield.velocity.ns_per_point": (
            _ratio(t["flowfield.velocity.s"], t["flowfield.velocity.points"], ns), "ns"),
        "matvol.advect.s": (t["matvol.advect.s"] / n, "s"),
        "matvol.advect.point_steps": (t["matvol.advect.point_steps"] / n, "count"),
        "matvol.advect.self_ns_per_point_step": (
            _ratio(adv_self, t["matvol.advect.point_steps"], ns), "ns"),
        "matvol.polygon_is_simple.calls": (
            t["matvol.polygon_is_simple.calls"] / n, "count"),
        "matvol.polygon_is_simple.ns_per_marker": (
            _ratio(t["matvol.polygon_is_simple.s"],
                   t["matvol.polygon_is_simple.markers"], ns), "ns"),
        "matvol.boundary_distance.s": (t["matvol.boundary_distance.s"] / n, "s"),
        "functionals.sample.s": (t["functionals.sample.s"] / n, "s"),
        "functionals.sample.ns_per_node": (
            _ratio(t["functionals.sample.s"], t["functionals.sample.nodes"], ns), "ns"),
        "criteria.evaluate.s": (t["criteria.evaluate.s"] / n, "s"),
        "solver.step.cells": (t["solver.step.cells"] / n, "count"),
        "solver.step.ns_per_cell": (
            _ratio(t["solver.step.s"], t["solver.step.cells"], ns), "ns"),
        "solver.interpolate_fields.ns_per_point": (
            _ratio(t["solver.interpolate_fields.s"],
                   t["solver.interpolate_fields.points"], ns), "ns"),
        "solver.GridFlow.velocity.self_s": (
            t["solver.GridFlow.velocity.self_s"] / n, "s"),
        "solver.snapshots_held": (
            t["solver.GridFlow.advance_to.max_snapshots"], "count"),
        "solver.snapshot_mb": (
            t["solver.GridFlow.advance_to.max_bytes"] / 1e6, "MB_computed"),
        "verify.blowup_oracle.ms_per_case": (
            _ratio(t["verify.blowup_oracle.s"], t["verify.blowup_oracle.calls"], 1e3),
            "ms"),
        "verify.oracle.solve_ivp_calls": (
            t["verify.oracle.solve_ivp.calls"] / n, "count"),
        "verify.oracle.first_try_ratio": (
            _ratio(t["verify.blowup_oracle.calls"],
                   t["verify.oracle.solve_ivp.calls"]), "ratio"),
        "verify.check_lemma_suite.s": (t["verify.check_lemma_suite.s"] / n, "s"),
        "verify.run_theorem_scenario.s": (
            t["verify.run_theorem_scenario.s"] / n, "s"),
    }
