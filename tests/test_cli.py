import ast
import importlib.util
import math
import os
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import CONFIG_DIR, record_snapshots_held

import volflow
from volflow import cli, config as config_mod, functionals, matvol, solver, verify
from volflow.cli import CSV_HEADER, main
from volflow.config import ConfigError, build_scenario, load_config, parse_kv_text
from volflow.flowfield import ExpansionFlow, NotSmooth
from volflow.functionals import TargetReached
from volflow.matvol import PolygonSpec, SelfIntersection, ShapeError
from volflow.solver import CFLViolation, GridFlow, SmoothnessLost, SnapshotDropped


MINI_CONFIG = """
name = mini
gamma = 1.4
flow.kind = constant
flow.rho0 = 1.0
flow.V0 = -1.0, 0.0
flow.P0 = 1.0
volume.shape = disk
volume.center = 3.0, 0.0
volume.radius = 1.0
volume.markers = 256
volume.quad_order = 20
x0 = 0.0, 0.0
epsilon = 0.5
q = -8.0
T = 0.2
M = 10.0
dt = 5e-3
sample.stride = 10
verify.times = 0.05, 0.1
sweep.q = -8.0, -9.0
sweep.epsilon = 0.3, 0.5
out.format = report
"""


MINI_CSV = MINI_CONFIG.replace("out.format = report", "out.format = csv")


@pytest.fixture
def mini_cfg(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_CONFIG)
    return path


def _write(tmp_path, text, name="edited"):
    path = tmp_path / f"{name}.cfg"
    path.write_text(text)
    return path


def _grid_config(tmp_path, extra):
    """radial_inflow on a 32^2 grid, with extra lines appended."""
    text = (CONFIG_DIR / "radial_inflow.cfg").read_text() + (
        "\nname = small_grid\nflow.grid.n = 32\nvolume.quad_order = 10\n" + extra)
    return _write(tmp_path, text, "small_grid")


def _single_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return err[0]


# -- config parsing -------------------------------------------------------------

def test_parse_kv_values():
    # Values stay text: the reader of each key parses it.
    d = parse_kv_text("a = 1\nb = 2.5\nc = true\nd = x, 1.0\ne = hello\n"
                      "# comment\nf = 1,2; 3,4\ng = maximum(1.0, 0.5 + 0*x)  \n")
    assert d == {"a": "1", "b": "2.5", "c": "true", "d": "x, 1.0", "e": "hello",
                 "f": "1,2; 3,4", "g": "maximum(1.0, 0.5 + 0*x)"}


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError, match="key = value"):
        parse_kv_text("just some words\n")


def test_load_config_types(mini_cfg):
    cfg = load_config(mini_cfg)
    assert cfg.name == "mini"
    assert cfg.flow_kind == "constant"
    assert cfg.x0 == (0.0, 0.0)
    assert cfg.sweep_q == (-8.0, -9.0)


@pytest.mark.parametrize("mutation, key", [
    ("gamma = 0.8", "gamma"),
    ("flow.kind = vortex", "flow.kind"),
    ("q = -6.0", "q"),
    ("epsilon = 3.0", "epsilon"),
    ("M = -1.0", "M"),
    ("T = 0.0", "T"),
    ("volume.markers = 8", "volume"),
    ("x0 = 3.0, 0.0", "x0"),
])
def test_precondition_violations_name_the_key(tmp_path, mutation, key):
    text = MINI_CONFIG + "\n" + mutation + "\n"
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_missing_key_reported(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("gamma = 1.4\n")
    with pytest.raises(ConfigError, match="flow.kind"):
        load_config(path)


def _shipped_with(tmp_path, name, extra):
    """The shipped config `name` with `extra` lines appended."""
    return _write(tmp_path, (CONFIG_DIR / f"{name}.cfg").read_text() + "\n" + extra, name)


@pytest.mark.parametrize("name, line", [
    ("expansion_outflow", "flow.t_c = -1.0"),
    ("constant_inflow", "flow.P0 = -1.0"),
    ("constant_inflow", "flow.rho0 = 0.0"),
    ("radial_inflow", "flow.grid.dt = 0.0"),
])
def test_flow_parameter_not_positive_names_its_key(tmp_path, capsys, name, line):
    # Rejected at load time, naming the key, before a flow constructor or
    # GridFlow sees the value.
    key, value = (part.strip() for part in line.split("="))
    path = _shipped_with(tmp_path, name, line + "\n")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys) == (
        f"config error: key '{key}' must be positive, got {float(value)}")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cfl_violation_names_flow_grid_dt(tmp_path, capsys, command):
    # The step dt is flow.grid.dt, whichever command steps the grid, and
    # verify's lemma-time checks must not take the blame.
    path = _grid_config(tmp_path, "flow.grid.dt = 0.5\n")
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys).startswith(
        "config error: key 'flow.grid.dt': CFL violated: dt=0.5 exceeds limit ")


def test_lemma_time_with_boundary_near_x0_names_verify_times(tmp_path, capsys,
                                                            monkeypatch):
    # At t = 1.8 the inflowing boundary is within epsilon of x0, which the
    # density-moment bound of the lemma suite refuses.  The run hits first,
    # at about 1.5, so the lemma volume is advected on from the run's last
    # sample before the hit: the one lemma advection, as 0.5 is a sample
    # instant.
    path = _shipped_with(tmp_path, "constant_inflow", "verify.times = 0.5, 1.8\n")
    advected = []
    advect = cli.advect
    monkeypatch.setattr(cli, "advect", lambda vol, flow, t, dt: advected.append(
        (vol.time, t)) or advect(vol, flow, t, dt))
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys).startswith(
        "config error: key 'verify.times': density-moment bound needs "
        "dist(boundary, x0) >= epsilon (have ")
    run = verify.run_theorem_scenario(build_scenario(load_config(path)))
    assert run.series[-1].t < run.hit_time < 1.8
    assert advected == [(run.series[-1].t, 1.8)]


# A triangle that the leftward stream carries over x0: at t = 3.0 its
# centroid quadrature node sits on x0, and at t = 2.9 x0 lies inside it.
TRIANGLE_CONFIG = """
gamma = 1.4
flow.kind = constant
flow.rho0 = 1.0
flow.V0 = -1.0, 0.0
flow.P0 = 1.0
volume.shape = polygon
volume.vertices = 2, -1; 4, -1; 3, 2
volume.refine = 0
volume.markers = 64
x0 = 0.0, 0.0
epsilon = 0.1
q = -8.0
T = 4.0
M = 10.0
dt = 1e-3
"""


@pytest.mark.parametrize("time", ["3.0", "2.9"], ids=["node_on_x0", "x0_inside"])
def test_lemma_time_with_x0_inside_the_volume_names_verify_times(tmp_path, capsys,
                                                                  time):
    # The lemmas hold for x0 outside the volume, as load_config demands at
    # t = 0; inside it they failed three checks, and a node on x0 raised.
    path = _write(tmp_path, TRIANGLE_CONFIG + f"verify.times = {time}\n", "tri")
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys) == (
        f"config error: key 'verify.times': x0 lies inside the volume at t={time}")


@pytest.mark.parametrize("command, q", [
    ("criteria", -1100.0), ("run", -1100.0), ("verify", -600.0)])
def test_overflowing_power_of_epsilon_names_q(tmp_path, capsys, command, q):
    # epsilon = 0.5: epsilon ** (q - 1) overflows at q = -1100, and verify's
    # epsilon ** (2 q - 2) at q = -600, where criteria and run still pass.
    path = _shipped_with(tmp_path, "constant_inflow", f"q = {q}\nT = 0.5\n")
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys) == (
        "config error: key 'q' or 'epsilon': a power of epsilon overflows")
    if command == "verify":
        for other in ("criteria", "run"):
            assert main([other, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
            assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, command, line, keys", [
    ("constant_inflow", "criteria", "epsilon = 1e-40", "'q' or 'epsilon'"),
    ("sweep_annulus", "sweep", "sweep.epsilon = 1e-300", "'sweep.q' or 'sweep.epsilon'"),
], ids=["epsilon", "sweep_epsilon"])
def test_overflowing_power_of_a_small_epsilon_names_epsilon_too(tmp_path, capsys, name,
                                                                 command, line, keys):
    # The shipped q = -8.0 with a tiny epsilon overflows as surely as a huge
    # |q| does, so the line names both keys.
    path = _shipped_with(tmp_path, name, line + "\n")
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys) == (
        f"config error: key {keys}: a power of epsilon overflows")


# A run whose work is over the budget, or whose dt is longer than T, is
# refused before anything is stepped, naming its keys.
_ANALYTIC = ["arc_live", "constant_inflow", "constant_receding", "expansion_outflow",
             "lemmas_expansion", "sweep_annulus"]
_KEYS = "key 'T', 'dt', 'sample.stride' or 'volume.*'"
_LEMMA_KEYS = "key 'T', 'dt', 'sample.stride', 'volume.*' or 'verify.times'"
_GRID_KEYS = "key 'T', 'dt', 'sample.stride', 'volume.*', 'flow.grid.n'"
_WORK = "s of work, more than 3600 s"
# The work of verify.times = 1e20 on each analytic config.
_LEMMA_WORK = {"arc_live": "4.9e+20", "constant_inflow": "8.2e+18",
               "constant_receding": "8.2e+18", "expansion_outflow": "4.1e+18",
               "lemmas_expansion": "2.3e+19", "sweep_annulus": "8.2e+18"}


@pytest.mark.parametrize("command, name, extra, message", [
    pytest.param("run", "lemmas_expansion", "T = 1e20",
                 f"{_KEYS}: about 2.3e+19 {_WORK}", id="run-T"),
    pytest.param("run", "constant_receding", "dt = 1e-300",
                 f"{_KEYS}: about 1.6e+296 {_WORK}", id="run-dt"),
    pytest.param("run", "constant_receding", "T = 200.0\nsample.stride = 1",
                 "key 'T', 'dt' or 'sample.stride': 200000.0 sample instants, "
                 "more than 100000", id="run-sample.stride"),
    pytest.param("verify", "lemmas_expansion", "T = 1e20",
                 f"{_LEMMA_KEYS}: about 2.3e+19 {_WORK}", id="verify-T"),
    # The grid solver's own steps: at 1e-300 per step it never reaches T.
    pytest.param("run", "radial_inflow", "flow.grid.dt = 1e-300",
                 f"{_GRID_KEYS} or 'flow.grid.dt': about 7.4e+296 {_WORK}",
                 id="run-flow.grid.dt"),
    pytest.param("verify", "radial_inflow", "flow.grid.dt = 1e-300",
                 f"{_GRID_KEYS}, 'flow.grid.dt' or 'verify.times': about 5.9e+297 "
                 f"{_WORK}", id="verify-flow.grid.dt"),
    # Under the old step caps: 80512 points for 10^7 steps, about 5 hours,
    # and 5 * 10^6 solver steps at 256^2, about 20 hours.
    pytest.param("verify", "lemmas_expansion", "volume.quad_order = 200\nT = 9999",
                 f"{_LEMMA_KEYS}: about 1.8e+04 {_WORK}", id="verify-points"),
    pytest.param("run", "radial_inflow", "flow.grid.n = 256\nflow.grid.dt = 2e-8",
                 f"{_GRID_KEYS} or 'flow.grid.dt': about 1.5e+05 {_WORK}",
                 id="run-cells"),
] + [pytest.param("verify", name, "verify.times = 1e20",
                  f"{_LEMMA_KEYS}: about {work} {_WORK}", id=f"verify-verify.times-{name}")
     for name, work in _LEMMA_WORK.items()]
  + [pytest.param(command, "arc_live", f"dt = {dt}",
                  f"key 'dt' or 'T': dt = {float(dt)} is longer than T = 0.5",
                  id=f"{command}-dt-{dt}")
     # A step this far past T used to take no step at all, and the verdict
     # of the time-zero sample alone was a VIOLATION.
     for command in ("run", "verify") for dt in ("1e20", "1e300")])
def test_horizon_beyond_its_cap_names_the_keys(tmp_path, capsys, monkeypatch, command,
                                               name, extra, message):
    def stepped(*args):
        raise AssertionError("stepped before the work was checked")

    monkeypatch.setattr(cli, "advect", stepped)
    monkeypatch.setattr(verify, "_advect_any", stepped)
    monkeypatch.setattr(GridFlow, "advance_to", stepped)
    path = _shipped_with(tmp_path, name, extra + "\n")
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys) == "config error: " + message


def _rk4_steps(t_from, t_to, dt):
    """The steps of `matvol._rk4_points` from t_from to t_to."""
    t, steps = t_from, 0
    while abs(t_to - t) > 1e-14:
        t += math.copysign(min(abs(dt), abs(t_to - t)), t_to - t)
        steps += 1
    return steps


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("name, extra", [
    *((p.stem, "") for p in sorted(CONFIG_DIR.glob("*.cfg"))),
    # The shipped grid verify loses smoothness before its lemma times; this
    # one passes, and its 120 solver steps come within 0.1% of the count.
    ("radial_inflow", "verify.times = 0.1, 0.2, 0.3"),
], ids=[*(p.stem for p in sorted(CONFIG_DIR.glob("*.cfg"))), "radial_inflow_lemmas"])
def test_work_estimate_bounds_the_steps_taken(tmp_path, capsys, monkeypatch, command,
                                              name, extra):
    # The counts that the work budget is estimated from bound the RK
    # point-steps and solver cell-steps that a shipped config takes.
    taken = {"points": 0, "cells": 0}
    rk4, solver_step = matvol._rk4_points, solver.step

    def rk4_counted(flow, pts, t_from, t_to, dt):
        taken["points"] += len(pts) * _rk4_steps(t_from, t_to, dt)
        return rk4(flow, pts, t_from, t_to, dt)

    def step_counted(state, dt, work):
        taken["cells"] += math.prod(state.shape)
        return solver_step(state, dt, work)

    for module in (matvol, verify):
        monkeypatch.setattr(module, "_rk4_points", rk4_counted)
    monkeypatch.setattr(solver, "step", step_counted)
    monkeypatch.setattr(verify, "score_oracle", lambda seed: (0, 0, 0.0))
    path = _shipped_with(tmp_path, name, extra)
    cfg = load_config(path)
    points = len(build_scenario(cfg).vol.points)
    lemma_times = sorted(cfg.verify_times) if command == "verify" else []
    point_steps, cell_steps = verify._work_counts(cfg, points, lemma_times)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) in (0, 1, 2)
    assert taken["points"] <= point_steps
    assert taken["cells"] <= cell_steps


@pytest.mark.parametrize("command", ["criteria", "sweep"])
def test_criteria_and_sweep_take_any_finite_horizon(tmp_path, capsys, command):
    path = _shipped_with(tmp_path, "sweep_annulus", "T = 1e300\ndt = 1e-300\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_sweep_exponent_whose_sample_is_not_finite_names_sweep_q(tmp_path, capsys):
    # x0 sits 0.5 from the annulus: the scenario's own q = -8 samples, while
    # r^-2000 overflows at every node of the time-zero sample.
    path = _shipped_with(tmp_path, "sweep_annulus", "x0 = 0.5, 0.0\n"
                         "sweep.q = -8.0, -2000.0\nsweep.epsilon = 0.2, 0.4\n")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys) == (
        "config error: key 'sweep.q': -2000.0: functional G, F, I1, I2, I3, I4 "
        "not finite at t=0.0")


@pytest.mark.parametrize("vertices, message", [
    ("2, -1; 4, 1; 4, -1; 2, 1", "polygon boundary is self-intersecting"),
    ("2, 0; 3, 0; 4, 0", "polygon has zero area"),
], ids=["bow_tie", "collinear"])
def test_bad_polygon_vertices_name_the_key(tmp_path, capsys, vertices, message):
    path = _write(tmp_path, TRIANGLE_CONFIG.replace("2, -1; 4, -1; 3, 2", vertices))
    with pytest.raises(ConfigError, match="volume.vertices"):
        load_config(path)
    for command in ("criteria", "run"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert _single_error(capsys) == f"config error: key 'volume.vertices': {message}"


@pytest.mark.parametrize("refine, code", [("-1", 2), ("0", 0)])
def test_negative_refine_names_the_key(tmp_path, capsys, refine, code):
    # range(-1) is empty, so -1 used to run as 0, silently.
    path = _shipped_with(tmp_path, "arc_live", f"volume.refine = {refine}")
    assert main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")]) == code
    if code == 2:
        assert "key 'volume.refine'" in _single_error(capsys)


@pytest.mark.parametrize("refine, code", [
    ("3", 0), ("40", 2), ("1000", 2), (str(10 ** 9), 2)])
def test_refine_beyond_the_node_cap_names_the_key(tmp_path, capsys, refine, code):
    # These levels used to build until memory ran out; the refusal must come
    # at load, before any power of 4 as large as the level is formed.
    path = _shipped_with(tmp_path, "arc_live", f"volume.refine = {refine}")
    start = time.perf_counter()
    assert main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")]) == code
    assert time.perf_counter() - start < 1.0
    if code == 2:
        assert _single_error(capsys).startswith(
            "config error: key 'volume.refine': must be from 0 to 6 for 50 vertices")


# The other size keys: a huge value used to parse and then be built until
# memory ran out (2·quad_order² nodes, markers per loop, (n + 4)^2 cells per
# grid field).  Each is refused at load, naming its key; the largest sizes
# the tests and the shipped configs use stay valid.
@pytest.mark.parametrize("name, key, value, code", [
    ("constant_inflow", "volume.markers", "8192", 0),
    ("constant_inflow", "volume.markers", "1500001", 2),
    ("constant_inflow", "volume.markers", str(10 ** 9), 2),
    ("constant_inflow", "volume.quad_order", "70", 0),
    ("constant_inflow", "volume.quad_order", "867", 2),
    ("constant_inflow", "volume.quad_order", str(10 ** 9), 2),
    ("arc_live", "volume.markers", str(10 ** 9), 2),
    ("radial_inflow", "flow.grid.n", "1025", 2),
    ("radial_inflow", "flow.grid.n", str(10 ** 9), 2),
])
def test_size_keys_beyond_their_caps_name_the_key(tmp_path, capsys, name, key, value,
                                                   code):
    path = _shipped_with(tmp_path, name, f"{key} = {value}")
    start = time.perf_counter()
    assert main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")]) == code
    assert time.perf_counter() - start < 1.0
    if code == 2:
        assert _single_error(capsys).startswith(f"config error: key '{key}'")


# -- subcommands ------------------------------------------------------------------

def test_criteria_subcommand(mini_cfg, tmp_path, capsys):
    rc = main(["criteria", "--config", str(mini_cfg), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "report: criteria" in out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert float(lines["m"]) == pytest.approx(math.pi, rel=1e-6)
    assert lines["case"] in ("Qpos", "Qzero", "Qneg_longT", "Qneg_shortT")
    assert (tmp_path / "o" / "mini_criteria.txt").exists()


def test_run_subcommand_csv_schema(mini_cfg, tmp_path, capsys):
    rc = main(["run", "--config", str(mini_cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: consistent_no_claim" in out   # T = 0.2, no hit yet
    series = (tmp_path / "o" / "mini_series.csv").read_text().splitlines()
    assert series[0] == CSV_HEADER
    assert len(series) >= 2
    assert len(series[1].split(",")) == 12


def test_run_hit_reported(tmp_path, capsys):
    text = MINI_CONFIG.replace("T = 0.2", "T = 3.0").replace("dt = 5e-3",
                                                             "dt = 1e-3")
    path = tmp_path / "hit.cfg"
    path.write_text(text.replace("name = mini", "name = hit"))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: consistent_hit" in out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert float(lines["hit_time"]) == pytest.approx(1.5, abs=2e-3)


def test_verify_subcommand_and_determinism(mini_cfg, tmp_path, capsys):
    rc1 = main(["verify", "--config", str(mini_cfg), "--seed", "3",
                "--out", str(tmp_path / "a")])
    out1 = capsys.readouterr().out
    rc2 = main(["verify", "--config", str(mini_cfg), "--seed", "3",
                "--out", str(tmp_path / "b")])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    fa = (tmp_path / "a" / "mini_verify.txt").read_bytes()
    fb = (tmp_path / "b" / "mini_verify.txt").read_bytes()
    assert fa == fb
    assert "result: pass" in out1


def test_verify_seed_changes_output(mini_cfg, tmp_path, capsys):
    main(["verify", "--config", str(mini_cfg), "--seed", "3",
          "--out", str(tmp_path / "a")])
    out1 = capsys.readouterr().out
    main(["verify", "--config", str(mini_cfg), "--seed", "4",
          "--out", str(tmp_path / "b")])
    out2 = capsys.readouterr().out
    assert out1 != out2


def test_verify_builds_its_flow_once(mini_cfg, tmp_path, monkeypatch):
    original = volflow.config.build_flow
    calls = []

    def counting(cfg):
        calls.append(cfg.name)
        return original(cfg)

    # Every module binding of build_flow is wrapped, so callers that imported
    # it by name are counted too.
    for mod in vars(volflow).values():
        if isinstance(mod, types.ModuleType) and \
                getattr(mod, "build_flow", None) is original:
            monkeypatch.setattr(mod, "build_flow", counting)
    rc = main(["verify", "--config", str(mini_cfg), "--seed", "3",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert calls == ["mini"]


def test_verify_past_smooth_horizon_is_precondition_error(tmp_path, capsys):
    # A gradient guard below the initial gradients trips on the first solver
    # step, long before the default verify.times (0.2, 0.5, 0.8).
    text = (CONFIG_DIR / "radial_inflow.cfg").read_text() + (
        "\nname = rough\nflow.grid.n = 32\nflow.grid.max_grad = 1.0\n"
        "volume.quad_order = 10\n")
    path = tmp_path / "rough.cfg"
    path.write_text(text)
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "verify.times" in err[0] and "t=0.005" in err[0]


@pytest.mark.parametrize("extra, lost_at", [
    # The guard trips on the first step (the config of the test above).
    ("flow.grid.n = 32\nflow.grid.max_grad = 1.0\n", "t=0.005"),
    # Smoothness is lost after 140 steps, before the last lemma time 0.8.
    ("flow.grid.n = 64\n", "t=0.700"),
], ids=["first_step", "step_140"])
def test_verify_precondition_holds_few_snapshots(tmp_path, capsys, monkeypatch,
                                                 extra, lost_at):
    held = record_snapshots_held(monkeypatch)
    text = (CONFIG_DIR / "radial_inflow.cfg").read_text() + (
        "\nname = rough\nvolume.quad_order = 10\n" + extra)
    path = _write(tmp_path, text, "rough")
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = _single_error(capsys)
    assert "verify.times" in err and lost_at in err
    assert max(held) <= 4


# -- the co-stepped lemma phase ----------------------------------------------------

def _reference_lemma_checks(path):
    """The lemma checks of the config `path` on the volumes of a separate
    run, and the lemma times that are sample instants of it: at such a time
    the run's own volume, else its latest sampled volume before, advected
    there."""
    scenario = build_scenario(load_config(path))
    cfg, flow = scenario.cfg, scenario.flow
    sampled = [vol for _, vol, _, _ in verify._SampleSteps(scenario, ())]
    reports, on_samples = [], set()
    for t in sorted(cfg.verify_times):
        base = [vol for vol in sampled if vol.time <= t][-1]
        if base.time == t:
            on_samples.add(t)
        vol = base if base.time == t else matvol.advect(base, flow, t, cfg.dt)
        reports += verify.check_lemma_suite(flow, vol, cfg.q, cfg.epsilon)
    return reports, on_samples


@pytest.mark.parametrize("times, on_samples", [
    # As shipped: 0.35 is not a sample instant, as 350 * 1e-3 is
    # 0.35000000000000003.
    ("0.2, 0.35, 0.5", {0.2, 0.5}),
    ("0.0, 0.2", {0.0, 0.2}),
    # Past T = 0.5: advected on from the run's last sample.
    ("0.35, 0.6", set()),
], ids=["shipped", "time_zero", "past_T"])
def test_lemma_checks_ride_the_theorem_run(tmp_path, capsys, times, on_samples):
    # verify lemmas_expansion checks the lemmas on the theorem run's own
    # volumes, bit for bit.
    path = _shipped_with(tmp_path, "lemmas_expansion", f"verify.times = {times}\n")
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0 and "result: pass" in out
    reports, sampled = _reference_lemma_checks(path)
    assert sampled == on_samples
    lines = cli._kv_lines(pair for i, rep in enumerate(reports)
                          for pair in cli._check_pairs(i, rep))
    first = out.index("check[0].name: dG_dt_identity")
    assert out[first:first + len(lines)] == lines


def test_verify_advects_its_volume_once(tmp_path, capsys, monkeypatch):
    # The velocity points that verify lemmas_expansion queries are its run's
    # and, at each of the three lemma times, those of the lemmas' sample and
    # of their +-h RK4 steps of the nodes, plus the 25 steps of dt that take
    # the run's volume at 0.325 to the lemma time 0.35.  A second advection
    # over 0 -> 0.5 would double the run's share.
    points = []
    velocity = ExpansionFlow.velocity

    def counting(self, t, pts):
        points.append(int(np.prod(np.shape(pts)[:-1])))
        return velocity(self, t, pts)

    monkeypatch.setattr(ExpansionFlow, "velocity", counting)
    path = str(CONFIG_DIR / "lemmas_expansion.cfg")
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    run_points = sum(points)
    scenario = build_scenario(load_config(path))
    points.clear()
    functionals.sample(scenario.flow, scenario.vol, scenario.cfg.q)
    sample_points = sum(points)
    points.clear()
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    nodes, every_point = len(scenario.vol.nodes), len(scenario.vol.points)
    assert sum(points) == (run_points + 3 * (sample_points + 2 * 4 * nodes)
                           + 25 * 4 * every_point)
    assert sum(points) < 1.5 * run_points


def test_sweep_subcommand(tmp_path, capsys):
    path = _write(tmp_path, MINI_CSV)
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "q,epsilon,Q0,R0,case,delta,cond10,nec_ok"
    assert len(out) == 1 + 4    # 2 q values x 2 epsilons
    assert (tmp_path / "o" / "mini_sweep.csv").exists()


def test_sweep_repeated_q_gives_identical_rows(tmp_path, capsys):
    # Each q is sampled afresh; a repeated one reproduces its rows bit for bit.
    path = _write(tmp_path, MINI_CSV.replace("sweep.q = -8.0, -9.0",
                                             "sweep.q = -8.0, -9.0, -8.0"))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 6 and rows[4:] == rows[:2] and rows[2:4] != rows[:2]


def test_sweep_report_format_matches_csv(mini_cfg, tmp_path, capsys):
    rc = main(["sweep", "--config", str(mini_cfg), "--out", str(tmp_path / "r")])
    assert rc == 0
    report = dict(line.split(": ", 1)
                  for line in capsys.readouterr().out.strip().splitlines())
    assert (tmp_path / "r" / "mini_sweep.txt").exists()
    path = _write(tmp_path, MINI_CSV)
    main(["sweep", "--config", str(path), "--out", str(tmp_path / "c")])
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert report["report"] == "sweep" and report["rows"] == "4"
    for i, row in enumerate(rows):
        for key, value in zip(header.split(","), row.split(",")):
            assert report[f"row[{i}].{key}"] == value


def test_sweep_validates_grid(tmp_path, capsys):
    text = MINI_CONFIG.replace("sweep.epsilon = 0.3, 0.5",
                               "sweep.epsilon = 0.3, 5.0")
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "sweep.epsilon" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("gamma = 1.4\n")
    rc = main(["criteria", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("case", ["missing config", "directory as config",
                                  "file as output directory"])
def test_unreadable_inputs_are_input_errors(mini_cfg, tmp_path, capsys, case):
    # A config that cannot be read, or an output directory that cannot be
    # created, exits 2 with one line naming the path, not with a traceback.
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    command, config, out, named = {
        "missing config": ("run", tmp_path / "missing.cfg", tmp_path / "o",
                           tmp_path / "missing.cfg"),
        "directory as config": ("run", tmp_path, tmp_path / "o", tmp_path),
        "file as output directory": ("criteria", mini_cfg, blocker, blocker),
    }[case]
    rc = main([command, "--config", str(config), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and f"'{named}'" in captured.err
    assert not (tmp_path / "o").exists()


def test_report_format_stability(mini_cfg, tmp_path, capsys):
    main(["criteria", "--config", str(mini_cfg), "--out", str(tmp_path / "a")])
    out1 = capsys.readouterr().out
    main(["criteria", "--config", str(mini_cfg), "--out", str(tmp_path / "b")])
    out2 = capsys.readouterr().out
    assert out1 == out2
    keys = [line.split(":", 1)[0] for line in out1.strip().splitlines()]
    assert keys[:4] == ["report", "name", "dimension", "gamma"]


def test_csv_format_criteria(tmp_path, capsys):
    path = _write(tmp_path, MINI_CSV)
    rc = main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "report"


def test_shipped_configs_load(tmp_path, capsys):
    for cfg_file in sorted(CONFIG_DIR.glob("*.cfg")):
        rc = main(["criteria", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        if load_config(cfg_file).out_format == "csv":
            report = dict(zip(lines[0].split(","), lines[1].split(",")))
        else:
            report = dict(line.split(": ", 1) for line in lines)
        assert report["dimension"] == "2"


def test_benchmark_workload_configs_load(tmp_path, monkeypatch):
    # The benchmark appends override lines to the shipped configs; each
    # generated config must still pass the strict loader.
    root = CONFIG_DIR.parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in workloads.NAMES:
        workload = workloads.build(name, 1, root, tmp_path / name)
        assert workload.configs
        for path in workload.configs.values():
            load_config(path)


# -- settings that are read or rejected ---------------------------------------------

@pytest.mark.parametrize("line, key", [
    ("sample.strid = 5", "sample.strid"),              # a typo
    ("volume.radii = 1.0, 2.0", "volume.radii"),       # a key of another shape
])
def test_unread_key_is_rejected(tmp_path, capsys, line, key):
    path = _write(tmp_path, MINI_CONFIG + line + "\n")
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(path)
    rc = main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"'{key}'" in _single_error(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, key", [
    ("verify.h = 0", "verify.h"),
    ("verify.h = 1e-4", "verify.h"),
    ("verify.oracle_cases = 6", "verify.oracle_cases"),
    ("out.dir = elsewhere", "out.dir"),
    ("s0 = 0.0", "s0"),
    ("dimension = 2", "dimension"),
])
def test_removed_keys_are_rejected(tmp_path, capsys, line, key):
    path = _write(tmp_path, MINI_CONFIG + line + "\n")
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"'{key}'" in _single_error(capsys)


def test_removed_grid_filter_key_is_rejected(tmp_path, capsys):
    path = _grid_config(tmp_path, "flow.grid.filter = 0.0\n")
    rc = main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'flow.grid.filter'" in _single_error(capsys)


# The entropy floor s0 is the flow's, not a setting: ln P0 - gamma ln rho0 for
# a constant flow (the old `s0` key defaulted to 0.0 whatever the flow).
def test_entropy_floor_comes_from_the_flow(tmp_path, capsys):
    path = _write(tmp_path, MINI_CONFIG.replace("flow.P0 = 1.0", "flow.P0 = 1e-3"))
    rc = main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert report["s0"] == "-6.907755278982137"
    assert report["C3"] == repr(math.exp(-6.907755278982137))


def test_grid_entropy_floor_is_the_initial_minimum(tmp_path):
    path = _grid_config(tmp_path, "flow.grid.S = 0.1*cos(x)\n")
    scenario = build_scenario(load_config(path))
    floor = scenario.flow.states[0].entropy.min()
    assert floor < -0.09
    assert scenario.inp.s0 == floor


# Integer keys: inf was an OverflowError traceback, nan failed naming no key,
# 2.5 and 256.7 were truncated silently, true read as 1, and quad_order = 0
# failed naming no key.
@pytest.mark.parametrize("line, key", [
    ("volume.quad_order = inf", "volume.quad_order"),
    ("volume.quad_order = 0", "volume.quad_order"),
    ("sample.stride = 2.5", "sample.stride"),
    ("sample.stride = nan", "sample.stride"),
    ("volume.markers = 256.7", "volume.markers"),
    ("volume.refine = true", "volume.refine"),
])
def test_non_integer_values_rejected(tmp_path, capsys, line, key):
    path = _write(tmp_path, MINI_CONFIG + line + "\n")
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        load_config(path)
    rc = main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"key '{key}'" in _single_error(capsys)
    assert not (tmp_path / "o").exists()


def test_non_integer_grid_size_rejected(tmp_path, capsys):
    path = _grid_config(tmp_path, "flow.grid.n = 32.0\n")
    rc = main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "key 'flow.grid.n'" in _single_error(capsys)


POLYGON_CONFIG = MINI_CONFIG.replace("""volume.shape = disk
volume.center = 3.0, 0.0
volume.radius = 1.0
volume.markers = 256
volume.quad_order = 20
""", """volume.shape = polygon
volume.vertices = 2.0, -1.0; 4.0, -1.0; 4.0, 1.0; 2.0, 1.0
volume.markers = 256
volume.refine = 3
""")


def test_polygon_config_runs_criteria(tmp_path, capsys):
    path = _write(tmp_path, POLYGON_CONFIG)
    cfg = load_config(path)
    assert isinstance(cfg.volume, PolygonSpec)
    assert cfg.volume.vertices == ((2.0, -1.0), (4.0, -1.0), (4.0, 1.0), (2.0, 1.0))
    rc = main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert float(report["m"]) == pytest.approx(4.0, rel=1e-9)
    assert float(report["d_init"]) == pytest.approx(2.0, rel=1e-6)


# Blank parts after a trailing ',' or ';' are skipped.
def test_trailing_separators_load(tmp_path):
    base = load_config(_write(tmp_path, POLYGON_CONFIG))
    text = POLYGON_CONFIG.replace("2.0, 1.0\n", "2.0, 1.0;\n").replace(
        "x0 = 0.0, 0.0", "x0 = 0.0, 0.0,").replace("-8.0, -9.0", "-8.0, -9.0, ")
    assert text != POLYGON_CONFIG
    assert load_config(_write(tmp_path, text)) == base


# Each key is read only by the shapes that use it; the other shapes reject it.
# Only the loader reads `volume.shape`, and it refuses a shape it does not know.
@pytest.mark.parametrize("base, line, message", [
    ("constant_inflow", "volume.shape = blob", "key 'volume.shape': unknown shape 'blob'"),
    ("sweep_annulus", "volume.shape = blob", "key 'volume.shape': unknown shape 'blob'"),
    ("polygon", "volume.shape = blob", "key 'volume.shape': unknown shape 'blob'"),
    ("constant_inflow", "volume.refine = 7",
     "key 'volume.refine' is not a setting of this scenario"),
    ("polygon", "volume.quad_order = 40",
     "key 'volume.quad_order' is not a setting of this scenario"),
    ("polygon", "volume.center = 3.0, 0.0",
     "key 'volume.center' is not a setting of this scenario"),
    ("polygon", "volume.refine = true", "key 'volume.refine': expected an integer"),
])
def test_shape_keys_are_read_only_for_their_shapes(tmp_path, capsys, base, line,
                                                   message):
    text = POLYGON_CONFIG if base == "polygon" else \
        (CONFIG_DIR / f"{base}.cfg").read_text()
    path = _write(tmp_path, text + "\n" + line + "\n")
    rc = main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys).startswith(f"config error: {message}")


# A grid expression may hold commas (function arguments).
def test_grid_expression_with_commas_matches_shipped_config(tmp_path, capsys):
    shipped = CONFIG_DIR / "radial_inflow.cfg"
    path = _write(tmp_path, shipped.read_text()
                  + "flow.grid.rho = maximum(1.0, 0.5 + 0*x)\n")
    outs = []
    for config in (shipped, path):
        assert main(["criteria", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_where_and_hypot_velocity_runs(tmp_path, capsys):
    outs = []
    for extra in ("", "flow.grid.vx = -x / (1 + exp(25*(hypot(x, y) - 3)))\n"
                      "flow.grid.vy = where(r < 100, -y / (1 + exp(25*(r - 3))), 0.0)\n"):
        path = _grid_config(tmp_path, "T = 0.02\n" + extra)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        outs.append(capsys.readouterr().out)
    assert "verdict: consistent_no_claim" in outs[1]
    assert outs[0] == outs[1]


# A negative density escaped as a traceback, a NaN velocity failed
# naming no key, and a failing expression named no key.
@pytest.mark.parametrize("line, message", [
    ("flow.grid.rho = -1.0", "key 'flow.grid.rho': expression '-1.0' is not positive"),
    ("flow.grid.vx = x / (x - x)",
     "key 'flow.grid.vx': expression 'x / (x - x)' is not finite"),
    ("flow.grid.rho = hello", "key 'flow.grid.rho': expression 'hello' failed"),
    ("flow.grid.vy = sqrt", "key 'flow.grid.vy': expression 'sqrt' failed"),
    ("flow.grid.S = sqrt(x + 0j)", "key 'flow.grid.S': expression 'sqrt(x + 0j)' failed"),
])
def test_bad_grid_field_is_config_error(tmp_path, capsys, line, message):
    path = _grid_config(tmp_path, line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys).startswith(f"config error: {message}")


def _volflow_criteria(config, out_dir):
    """`python -m volflow criteria` on `config` in a fresh process, which
    runs __main__.py and exits through cli.entry()."""
    src = str(Path(volflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-m", "volflow", "criteria", "--config", str(config),
         "--out", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point(tmp_path):
    proc = _volflow_criteria(CONFIG_DIR / "sweep_annulus.cfg", tmp_path / "o")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (tmp_path / "o" / "sweep_annulus_criteria.csv").read_text()

    proc = _volflow_criteria(_write(tmp_path, MINI_CONFIG + "sample.strid = 5\n"),
                             tmp_path / "o")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "config error: key 'sample.strid' is not a setting of this scenario"]


# A time-zero sample whose pressure overflows printed numpy RuntimeWarnings
# before an exit-2 line that named no key: the sample refuses the
# functionals by name, so the arithmetic that makes them not finite warns of
# nothing, and the line names the keys those functionals read.
@pytest.mark.parametrize("base, line, flow_keys", [
    pytest.param("expansion_outflow", "flow.S0 = 800",
                 "'flow.rho0', 'flow.S0', 'flow.t_c'", id="expansion_outflow-flow.S0 = 800"),
    pytest.param("arc_live", "flow.rho0 = 1e300",
                 "'flow.rho0', 'flow.V0', 'flow.P0'", id="arc_live-flow.rho0 = 1e300"),
])
def test_overflowing_time_zero_sample_prints_one_line(tmp_path, base, line, flow_keys):
    text = (CONFIG_DIR / f"{base}.cfg").read_text()
    path = _write(tmp_path, f"{text}\n{line}\n")
    proc = _volflow_criteria(path, tmp_path / "o")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"config error: key {flow_keys}, 'gamma', 'volume.*', 'x0' or 'q': "
        f"functional E, I3, I4, reg, reg_abs not finite at t=0.0"]


# The keys a failed time-zero sample names: the flow kind's field keys,
# gamma and the volume's keys always; x0 for every functional but m and E;
# q for G, F and the I's.
@pytest.mark.parametrize("base, failed, keys", [
    ("constant_inflow", (), "'flow.rho0', 'flow.V0', 'flow.P0', 'gamma' or 'volume.*'"),
    ("constant_inflow", ("m", "E"),
     "'flow.rho0', 'flow.V0', 'flow.P0', 'gamma' or 'volume.*'"),
    ("constant_inflow", ("E", "reg"),
     "'flow.rho0', 'flow.V0', 'flow.P0', 'gamma', 'volume.*' or 'x0'"),
    ("lemmas_expansion", ("G",),
     "'flow.rho0', 'flow.S0', 'flow.t_c', 'gamma', 'volume.*', 'x0' or 'q'"),
    ("radial_inflow", ("E", "I2"), "'flow.grid.rho', 'flow.grid.vx', 'flow.grid.vy', "
                                   "'flow.grid.S', 'gamma', 'volume.*', 'x0' or 'q'"),
])
def test_failed_time_zero_sample_names_the_keys_it_read(tmp_path, capsys, monkeypatch,
                                                        base, failed, keys):
    def failing(flow, vol, q):
        raise NotSmooth("not smooth", failed)

    monkeypatch.setattr(config_mod, "sample", failing)
    assert main(["criteria", "--config", str(CONFIG_DIR / f"{base}.cfg"),
                 "--out", str(tmp_path / "o")]) == 2
    assert _single_error(capsys) == f"config error: key {keys}: not smooth"


# An x0 or a shape position near the float limit overflowed the closed-form
# boundary distance: numpy RuntimeWarnings, then an exit-2 line naming the
# wrong key or none.
@pytest.mark.parametrize("base, line, where", [
    ("constant_inflow", "volume.center = 1e300, 1e300", "center"),
    ("lemmas_expansion", "x0 = -1e300, -1e300", "center"),
    ("arc_live", "x0 = 1e300, 1e300", "vertices"),
])
def test_overflowing_initial_distance_names_its_keys(tmp_path, base, line, where):
    text = (CONFIG_DIR / f"{base}.cfg").read_text()
    path = _write(tmp_path, f"{text}\n{line}\n")
    proc = _volflow_criteria(path, tmp_path / "o")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"config error: key 'x0' or 'volume.{where}': dist(boundary, x0) = inf "
        f"is not finite"]


# The loader checks epsilon against the closed-form boundary distance; the
# marker chords of a loop curved around x0 lie closer to it, and that second
# check failed naming no key.
@pytest.mark.parametrize("base, lines", [
    ("radial_inflow", "epsilon = 0.99995"),
    ("sweep_annulus", "x0 = 3.0, 0.0\nepsilon = 0.99995"),
])
def test_epsilon_within_the_marker_distance_names_its_key(tmp_path, capsys, base,
                                                          lines):
    text = (CONFIG_DIR / f"{base}.cfg").read_text()
    path = _write(tmp_path, f"{text}\n{lines}\n")
    rc = main(["criteria", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys).startswith(
        "config error: key 'epsilon': dist(boundary, x0) = 0.99992")


def test_format_flag_is_gone(mini_cfg, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["criteria", "--config", str(mini_cfg), "--format", "csv",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["criteria", "run", "sweep"])
def test_seed_is_a_verify_flag_only(mini_cfg, tmp_path, capsys, command):
    # Only verify has randomized checks; the other subcommands refuse --seed
    # rather than parse a value nothing reads.
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(mini_cfg), "--seed", "3",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    rc = main(["verify", "--config", str(mini_cfg), "--seed", "3",
               "--out", str(tmp_path / "v")])
    assert rc == 0
    assert "seed: 3\n" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-1", "1.5", "seven"])
def test_bad_seed_is_rejected_naming_the_flag(mini_cfg, tmp_path, capsys, seed):
    # A seed that is not a non-negative integer is an argument error (exit
    # 2) that names --seed, raised before any work; -1 used to reach numpy
    # and come back as a config error that named neither flag nor key.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(mini_cfg), "--seed", seed,
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"volflow verify: error: argument --seed: expected a non-negative "
        f"integer, got '{seed}'")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, blocked", [
    ("run", "mini_series.csv"), ("run", "mini_report.txt"),
    ("criteria", "mini_criteria.txt"), ("sweep", "mini_sweep.txt"),
    ("verify", "mini_verify.txt")])
def test_unwritable_output_file_is_output_error(mini_cfg, tmp_path, capsys, command,
                                                blocked):
    # A directory where an output file goes: one stderr line naming the
    # file, exit 2 and nothing on stdout, not a traceback with exit 1.
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    rc = main([command, "--config", str(mini_cfg), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"output error: cannot write '{out / blocked}': ")


# An infinite lemma time made verify advect forever.
@pytest.mark.parametrize("times", ["-0.05, 0.1", "-0.05", "0.05, inf"])
def test_bad_verify_times_rejected_on_analytic_flow(tmp_path, capsys, times):
    path = _write(tmp_path, MINI_CONFIG + f"verify.times = {times}\n")
    with pytest.raises(ConfigError, match="verify.times"):
        load_config(path)
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "verify.times" in _single_error(capsys)


def test_negative_verify_times_rejected_on_grid_flow(tmp_path, capsys):
    path = _grid_config(tmp_path, "verify.times = -0.1\n")
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "verify.times" in _single_error(capsys)


def test_grid_lemma_time_below_h_rejected(tmp_path, capsys):
    path = _grid_config(tmp_path, "verify.times = 5e-5, 0.05\n")
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = _single_error(capsys)
    assert "verify.times" in err and "5e-05" in err


# The expansion flow lives on t > -t_c; lemma differences reaching before
# that were rejected by the flow with a message that named no key.
def test_expansion_lemma_time_before_window_rejected(tmp_path, capsys):
    text = (CONFIG_DIR / "lemmas_expansion.cfg").read_text() + (
        "flow.t_c = 1e-5\nverify.times = 0.0\n")
    path = _write(tmp_path, text)
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys) == (
        "config error: key 'verify.times': time -0.0001 outside "
        "expansion-flow domain (t > -1e-05)")


# T = inf died in `run` with an OverflowError traceback, dt = inf ran zero
# steps and exited 0, and T = nan failed naming no key.
@pytest.mark.parametrize("line, key", [("T = inf", "T"), ("T = nan", "T"),
                                       ("dt = inf", "dt"), ("dt = nan", "dt")])
def test_non_finite_horizon_and_step_rejected(tmp_path, capsys, line, key):
    path = _write(tmp_path, MINI_CONFIG + line + "\n")
    with pytest.raises(ConfigError, match=f"key '{key}'"):
        load_config(path)
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"key '{key}'" in _single_error(capsys)


# Each of these passed `load_config` and either failed naming no key
# ("cannot convert float NaN to integer", a bound of nan on 'q') or ran to
# exit 0 with Q0 = +-inf; s0 = inf gave a false VIOLATION from `run`.  s0 is
# no longer a setting (the entropy floor comes from the flow), so its lines
# are rejected as such.
@pytest.mark.parametrize("line, key", [
    ("M = nan", "M"), ("M = inf", "M"), ("volume.radius = nan", "volume.radius"),
    ("flow.P0 = nan", "flow.P0"), ("gamma = nan", "gamma"), ("s0 = inf", "s0"),
    ("s0 = -inf", "s0"), ("flow.rho0 = inf", "flow.rho0"),
    ("volume.center = nan, 0.0", "volume.center"), ("sweep.q = -8.0, nan", "sweep.q"),
])
def test_non_finite_floats_rejected(tmp_path, capsys, line, key):
    path = _write(tmp_path, MINI_CONFIG + line + "\n")
    reason = "is not a setting" if key == "s0" else "must be finite"
    with pytest.raises(ConfigError, match=f"key '{key}' {reason}"):
        load_config(path)
    for command in ("criteria", "run"):
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"key '{key}'" in _single_error(capsys)
    assert not (tmp_path / "o").exists()


# Marker loops that are not simple at time zero: a centre so far out that
# the float spacing there exceeds the marker spacing, or a radius below it.
# `criteria` accepted the first (all 512 markers on one x), and the others
# failed as "degenerate boundary segment (zero length)", naming no key, or as
# a self-intersection after the first advection, naming 'volume.markers'.
@pytest.mark.parametrize("command", ["criteria", "run"])
@pytest.mark.parametrize("line", [
    "volume.center = 1e20, 0.0", "volume.center = 1e20, 1e20", "volume.radius = 1e-300",
])
def test_markers_not_simple_at_time_zero_name_the_size_key(tmp_path, capsys, command, line):
    text = (CONFIG_DIR / "constant_inflow.cfg").read_text() + "\n" + line + "\n"
    path = _write(tmp_path, text)
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = _single_error(capsys)
    assert "key 'volume.radius'" in err and "too small for the float spacing" in err


def test_grid_max_grad_default_is_no_guard(tmp_path):
    text = (CONFIG_DIR / "radial_inflow.cfg").read_text()
    path = _write(tmp_path, text.replace("flow.grid.max_grad = 50.0\n", ""))
    assert load_config(path).flow_params["max_grad"] == math.inf
    path = _write(tmp_path, text + "flow.grid.max_grad = nan\n")
    with pytest.raises(ConfigError, match="key 'flow.grid.max_grad' must be finite"):
        load_config(path)


# No gradient guard: the solver itself breaks down (a non-finite field after
# the step to t = 0.99), which used to escape `run` as a traceback.
BLOWUP_CONFIG = """
name = blowup
gamma = 1.4
flow.kind = grid
flow.grid.n = 64
flow.grid.box = -4.0, 4.0
flow.grid.dt = 2.5e-3
flow.grid.rho = 1.0
flow.grid.vx = -6*y*exp(-r*r)
flow.grid.vy = 6*x*exp(-r*r)
volume.shape = disk
volume.center = 0.9, 0.0
volume.radius = 0.8
volume.quad_order = 20
x0 = 0.0, 0.0
epsilon = 0.05
q = -8.0
T = 3.0
M = 10.0
dt = 2.5e-3
sample.stride = 8
"""


def test_grid_blowup_ends_the_horizon(tmp_path, capsys):
    path = _write(tmp_path, BLOWUP_CONFIG, "blowup")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert report["verdict"] == "consistent_no_claim"
    # The last smooth time, 0.98499999999999, gives a sample whose density
    # is not positive at a boundary midpoint: the horizon ends at the
    # sample before, and no NaN reaches the report or the series.
    assert report["horizon"] == "0.98"
    assert report["detail"] == (
        "smoothness lost at t=0.9899999999999899; flow density not positive "
        "at a boundary midpoint at t=0.98499999999999;")
    assert report["bounds_failed"] == "0"
    files = sorted((tmp_path / "o").iterdir())
    assert len(files) == 2
    assert all("nan" not in p.read_text() for p in files)


def test_overflowing_pressure_ends_the_horizon(tmp_path, capsys):
    # exp(800) overflows on a block outside the volume, so the first step
    # has no finite CFL limit: the smooth horizon ends at t = 0.  This was
    # a config error (exit 2): "CFL violated: ... exceeds limit 0.0".  The
    # overflow itself prints no RuntimeWarning.
    path = _grid_config(tmp_path, "flow.grid.S = where((x > 2) & (x < 3) & "
                                  "(y > 2) & (y < 3), 800.0, 0.0)\n")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = dict(line.split(": ", 1) for line in captured.out.splitlines())
    assert report["horizon"] == "0.0" and report["series_rows"] == "1"
    assert report["detail"] == "smoothness lost at t=0.005;"
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = _single_error(capsys)
    assert "verify.times" in err and "t=0.005" in err


def test_grid_blowup_lemma_time_not_smooth_names_verify_times(tmp_path, capsys):
    # The flow is still smooth at t = 0.982 + 2h, but its density is not
    # positive at a boundary midpoint of the lemma sample there.
    path = _write(tmp_path, BLOWUP_CONFIG + "verify.times = 0.982\n", "blowup")
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys) == (
        "config error: key 'verify.times': flow density not positive at a "
        "boundary midpoint at t=0.982")


def _spoil_mid_step_slices(monkeypatch):
    """Make every grid time slice halfway between two snapshots carry a
    negative density (spatial weights are left alone)."""
    weights = solver._lagrange_weights

    def spoiled(u):
        w = weights(u)
        if np.ndim(u) == 0 and 0.4 < u < 0.6:
            w[0] -= 50.0
        return w

    monkeypatch.setattr(solver, "_lagrange_weights", spoiled)


def test_time_slice_not_smooth_ends_run_horizon(tmp_path, capsys, monkeypatch):
    # A time slice's not-smooth error, raised from inside a query, escaped
    # `main` as a traceback.
    _spoil_mid_step_slices(monkeypatch)
    rc = main(["run", "--config", str(_grid_config(tmp_path, "")),
               "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: consistent_no_claim" in out and "horizon: 0.0\n" in out
    assert ("detail: non-positive or non-finite density in the time slice at "
            "t=0.0075;") in out


def test_time_slice_not_smooth_at_lemma_time_is_config_error(tmp_path, capsys,
                                                             monkeypatch):
    _spoil_mid_step_slices(monkeypatch)
    path = _grid_config(tmp_path, "verify.times = 0.02, 0.05\n")
    rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _single_error(capsys) == (
        "config error: key 'verify.times': non-positive or non-finite density "
        "in the time slice at t=0.0075")


# -- the live estimate chain ----------------------------------------------------

_ARC_LIVE = CONFIG_DIR / "arc_live.cfg"


def test_arc_live_chain_passes(tmp_path, capsys):
    # Condition (10) holds, so the bounds chain is checked where it can fail;
    # the signed flux in the I4 bound failed 10 of its 40 bounds.
    rc = main(["run", "--config", str(_ARC_LIVE), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    for line in ("verdict: consistent_hit", "cond10_holds: true",
                 "bounds_checked: 40", "bounds_failed: 0"):
        assert line + "\n" in out
    rc = main(["verify", "--config", str(_ARC_LIVE), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "result: pass\n" in capsys.readouterr().out


def test_arc_live_missed_hit_is_violation(tmp_path, capsys, monkeypatch):
    # The hit broken on purpose: the run never sees the boundary within
    # epsilon, so the verdict path must fire.
    distance = verify.boundary_distance
    monkeypatch.setattr(verify, "boundary_distance",
                        lambda *args: distance(*args) + 1.0)
    rc = main(["run", "--config", str(_ARC_LIVE), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "verdict: VIOLATION\n" in out and "hit_time: none\n" in out


def test_self_intersection_is_precondition_error(mini_cfg, tmp_path, capsys,
                                                 monkeypatch):
    for command in ("run", "verify"):
        # The time-zero check of the built markers passes; every sweep after
        # an advection finds a crossing.
        sweeps = []
        monkeypatch.setattr(matvol, "polygon_is_simple",
                            lambda *loops: sweeps.append(loops) or len(sweeps) == 1)
        rc = main([command, "--config", str(mini_cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = _single_error(capsys)
        assert "volume.markers" in err and "self-intersects" in err


def _cli_bytes(argv, out_dir, capsys):
    rc = main([*argv, "--out", str(out_dir)])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return rc, captured.out, captured.err, files


_RADIAL = (CONFIG_DIR / "radial_inflow.cfg").read_text()

# (command, config text, exit code, lines the report must hold, most extra
# solver steps).  A grid flow that keeps every snapshot (a `_trim` that
# drops nothing) is the reference; the windowed run may re-step what its
# window let go.
WINDOW_CASES = {
    "radial_inflow_run": ("run", _RADIAL, 0, ["verdict: consistent_no_claim"], 0),
    # Smoothness is lost inside the sampling loop, and the sample at the
    # last smooth time is not smooth either.  The advection is retried from
    # the last sample, which may re-step at most one stride (8 steps).
    "blowup_run": ("run", BLOWUP_CONFIG, 0, [
        "horizon: 0.98", "series_rows: 50", "bounds_checked: 200",
        "detail: smoothness lost at t=0.9899999999999899; flow density not "
        "positive at a boundary midpoint at t=0.98499999999999;"], 8),
    # The hit at t ~ 0.1999 comes long before smoothness would be lost at
    # t = 0.685, and ends the run: its horizon is the last time the flow
    # was stepped to, and nothing is stepped past it.  The bisection may
    # re-step at most one stride (4 steps).
    "hit_before_loss_run": ("run", _RADIAL + "\nepsilon = 0.8\nT = 0.9\n", 0, [
        "verdict: consistent_hit", "hit_time: 0.19993164062500002",
        "horizon: 0.2000000000000001", "detail: none"], 4),
    # A passing grid verify: its precondition pass holds the last few of
    # the flow's 62 steps, and the theorem run re-steps the 58 before them
    # once, which the reference, keeping everything, skips.
    "radial_inflow_verify": ("verify",
                             _RADIAL + "\nverify.times = 0.1, 0.2, 0.3\n", 0,
                             ["result: pass"], 58),
    # A lemma time within LEMMA_H after the sample instant 0.04: the window
    # keeps its t - h stencil, which starts a snapshot before the sample's.
    # The theorem run re-steps the 9 steps of the precondition pass.
    "radial_inflow_verify_after_a_sample": (
        "verify", _RADIAL + "\nverify.times = 0.04005\n", 0, ["result: pass"], 9),
}


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_snapshot_window_changes_no_output(case, tmp_path, capsys, monkeypatch):
    command, text, code, lines, extra_steps = WINDOW_CASES[case]
    argv = [command, "--config", str(_write(tmp_path, text, case))]
    steps = []
    real_step = solver.step

    def counting(*args, **kwargs):
        steps.append(args[0].time)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", counting)
    windowed = _cli_bytes(argv, tmp_path / "windowed", capsys)
    windowed_steps = len(steps)
    monkeypatch.setattr(GridFlow, "_trim", lambda self: None)
    assert _cli_bytes(argv, tmp_path / "kept", capsys) == windowed
    assert 0 <= windowed_steps - (len(steps) - windowed_steps) <= extra_steps
    rc, out, _, _ = windowed
    assert rc == code
    assert all(line in out.splitlines() for line in lines)
    report = dict(line.split(": ", 1) for line in out.splitlines())
    if report.get("verdict") == "consistent_hit":
        # A hit ends the run: no solver step starts past its horizon.
        assert max(steps) <= float(report["horizon"])


def test_a_re_step_runs_no_guard(tmp_path, capsys, monkeypatch):
    # The guard runs once per step forward, never on a re-step, which
    # passed it the first time.
    command, text, *_ = WINDOW_CASES["radial_inflow_verify"]
    steps, guards = [], []
    real_step, real_guard = solver.step, solver.smoothness_guard

    def counting_step(state, *args, **kwargs):
        steps.append(state.time)
        return real_step(state, *args, **kwargs)

    def counting_guard(state, *args, **kwargs):
        guards.append(state.time)
        return real_guard(state, *args, **kwargs)

    monkeypatch.setattr(solver, "step", counting_step)
    monkeypatch.setattr(solver, "smoothness_guard", counting_guard)
    path = _write(tmp_path, text, "radial_inflow_verify")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert len(guards) == len(set(steps)) == 62
    assert len(steps) == 120


# -- the failure contract ---------------------------------------------------------

def test_a_value_error_is_the_configs_fault():
    # A ValueError names its key and is the config's fault; main names the
    # key of each failure of a run that is not one.
    assert all(issubclass(exc, ValueError)
               for exc in (NotSmooth, TargetReached, ShapeError, ConfigError))
    assert not any(issubclass(exc, ValueError) for exc in (
        CFLViolation, SelfIntersection, SmoothnessLost, SnapshotDropped))
    # One not-smooth error, defined in flowfield, for fields and samples.
    assert NotSmooth.__module__ == "volflow.flowfield"
    assert functionals.NotSmooth is solver.NotSmooth is NotSmooth


def test_cli_handlers_catch_one_type_and_never_re_raise():
    tree = ast.parse(Path(cli.__file__).read_text())
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert handlers and not any(isinstance(h.type, ast.Tuple) for h in handlers)
    assert not any(isinstance(node, ast.Raise) and node.exc is None
                   for h in handlers for node in ast.walk(h))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functionals"
                for alias in node.names]
    assert imported == ["sample"]
