"""Relations between scenarios that need no oracle: a rigid shift keeps a run
and its threshold algebra, and Remark 1's second route (large velocity and
density) scales condition (10) and its threshold together on a uniform
flow."""

import math

import pytest

from helpers import CONFIG_DIR

from volflow.config import build_scenario, load_config
from volflow.criteria import CASE_QPOS, evaluate
from volflow.verify import run_theorem_scenario


def _scenario(tmp_path, base, lines):
    """The scenario of shipped config `base` with `lines` appended."""
    path = tmp_path / f"{base}.cfg"
    path.write_text("\n".join([(CONFIG_DIR / f"{base}.cfg").read_text(), *lines, ""]))
    return build_scenario(load_config(path))


def test_shift_keeps_the_run_and_the_algebra(tmp_path):
    dx, dy = 0.3, -0.2
    vertices = load_config(CONFIG_DIR / "arc_live.cfg").volume.vertices
    shifted = "; ".join(f"{x + dx!r}, {y + dy!r}" for x, y in vertices)
    base = _scenario(tmp_path, "arc_live", [])
    moved = _scenario(tmp_path, "arc_live",
                      [f"volume.vertices = {shifted}", f"x0 = {dx!r}, {dy!r}"])
    for name in ("m", "E", "G0", "d_init", "cond10"):
        assert getattr(moved.inp, name) == pytest.approx(getattr(base.inp, name),
                                                         rel=1e-12), name
    base_run, moved_run = run_theorem_scenario(base), run_theorem_scenario(moved)
    for name in ("delta", "Q0"):
        assert getattr(moved_run.criteria, name) == pytest.approx(
            getattr(base_run.criteria, name), rel=1e-12), name
    assert base_run.hit_time == moved_run.hit_time == 0.00972216796875
    assert moved_run.verdict == base_run.verdict


def test_remark1_large_velocity_and_density_leave_cond10_off(tmp_path):
    # cond10 and delta both scale as rho0*|V0|, so their ratio stays far
    # from 1 and (10) holds for no (|V0|, rho0).
    lines = ["volume.center = 1.6, 0.0", "flow.P0 = 1e-3", "M = 0.01"]
    unit = None
    for speed in (1.0, 1e2, 1e4):
        for rho0 in (1.0, 1e2, 1e4):
            inp = _scenario(tmp_path, "constant_inflow",
                            [*lines, f"flow.V0 = {-speed!r}, 0.0",
                             f"flow.rho0 = {rho0!r}"]).inp
            unit = inp.cond10 if unit is None else unit
            report = evaluate(inp)
            assert inp.cond10 == pytest.approx(rho0 * speed * unit, rel=1e-12)
            assert 0.00633 <= report.cond10 / report.delta <= 0.00636
            assert report.case == CASE_QPOS and not report.cond10_holds


def _arc_live_mapped(tmp_path, point_map):
    """arc_live with its vertices and V0 sent through the linear map
    `point_map` about x0 = 0."""
    cfg = load_config(CONFIG_DIR / "arc_live.cfg")
    vertices = "; ".join("{!r}, {!r}".format(*point_map(x, y))
                         for x, y in cfg.volume.vertices)
    return _scenario(tmp_path, "arc_live",
                     [f"volume.vertices = {vertices}",
                      "flow.V0 = {!r}, {!r}".format(*point_map(*cfg.flow_params["vel0"]))])


@pytest.mark.parametrize("name, point_map, rel", [
    # V0 gets two nonzero components.
    ("rotation", lambda x, y: (math.cos(0.7) * x - math.sin(0.7) * y,
                               math.sin(0.7) * x + math.cos(0.7) * y), 1e-12),
    # The reversed vertex order rebuilds the nodes, which moves G0 and cond10
    # by about 1e-11.
    ("mirror", lambda x, y: (x, -y), 1e-10),
])
def test_rotation_and_mirror_keep_the_run_and_the_algebra(tmp_path, name,
                                                          point_map, rel):
    base = _scenario(tmp_path, "arc_live", [])
    moved = _arc_live_mapped(tmp_path, point_map)
    for key in ("m", "E", "G0", "d_init", "cond10"):
        assert getattr(moved.inp, key) == pytest.approx(getattr(base.inp, key),
                                                        rel=rel), key
    base_run, moved_run = run_theorem_scenario(base), run_theorem_scenario(moved)
    for key in ("delta", "Q0"):
        assert getattr(moved_run.criteria, key) == pytest.approx(
            getattr(base_run.criteria, key), rel=rel), key
    assert base_run.hit_time == moved_run.hit_time == 0.00972216796875
    assert moved_run.verdict == base_run.verdict == "consistent_hit"
