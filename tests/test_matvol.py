import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (CONFIG_DIR, SyntheticFlow, advect_unchecked, annulus_volume,
                     disk_volume, ones, radial_norm, rk4_points_reference,
                     surface_integral, volume_integral_mass, volume_integral_plain)

from volflow import matvol
from volflow.config import ConfigError, build_flow, build_volume, load_config
from volflow.flowfield import ConstantFlow, ExpansionFlow, FlowField
from volflow.matvol import (AnnulusSpec, DiskSpec, PolygonSpec, SelfIntersection,
                            ShapeError, advect,
                            boundary_distance, init_volume, loop_signed_area,
                            point_in_loops, polygon_is_simple)
from volflow.solver import GridFlow, GridState


def still_flow(rho0=1.0, p0=1.0):
    return ConstantFlow(1.4, rho0=rho0, vel0=(0.0, 0.0), p0=p0)


def left_flow():
    return ConstantFlow(1.4, rho0=1.0, vel0=(-1.0, 0.0), p0=1.0)


def expansion():
    return ExpansionFlow(1.4, rho0=1.0, s0=0.0, t_c=1.0)


# -- initialization ----------------------------------------------------------

def test_disk_mass_weight():
    vol = disk_volume(still_flow(rho0=2.0), (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    assert volume_integral_mass(vol, ones) == pytest.approx(2.0 * np.pi, rel=1e-10)
    assert np.sum(vol.mass_w) == pytest.approx(2.0 * np.pi, rel=1e-10)


def test_square_polygon_mass():
    verts = ((4.5, 4.5), (5.5, 4.5), (5.5, 5.5), (4.5, 5.5))
    spec = PolygonSpec(markers=64, vertices=verts, refine=2)
    vol, d = init_volume(spec, still_flow(), np.zeros(2))
    assert volume_integral_mass(vol, ones) == pytest.approx(1.0, rel=1e-10)
    # The volume comes back with its boundary's distance to x0, the one the
    # epsilon gate of `config.build_volume` reads.
    assert d == boundary_distance(vol) == pytest.approx(4.5 * math.sqrt(2.0))


def test_annulus_epsilon_gate(tmp_path):
    # dist(boundary, 0) = 1 for the annulus 1..2 about the origin
    vol = annulus_volume(still_flow(), (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.9)
    assert boundary_distance(vol) == pytest.approx(1.0, abs=1e-3)
    # The markers' chords lie closer to x0 than the closed form that the
    # loader checks epsilon against; the build refuses them by key.
    text = (CONFIG_DIR / "radial_inflow.cfg").read_text() + "\nepsilon = 0.99995\n"
    path = tmp_path / "radial_inflow.cfg"
    path.write_text(text)
    cfg = load_config(path)
    with pytest.raises(ConfigError, match="key 'epsilon': dist"):
        build_volume(cfg, build_flow(cfg))


@pytest.mark.parametrize("spec, field", [
    (DiskSpec(256, center=(1e20, 0.0), radius=1.0, quad_order=40), "radius"),
    (DiskSpec(256, center=(3.0, 0.0), radius=1e-300, quad_order=40), "radius"),
    (AnnulusSpec(256, center=(1e20, 0.0), radii=(1.0, 2.0), quad_order=40), "radii"),
    (PolygonSpec(64, vertices=((1e20, 0.0), (1e20 + 1e5, 0.0), (1e20, 1e5)), refine=3),
     "vertices"),
], ids=["far_disk", "tiny_disk", "far_annulus", "far_polygon"])
def test_markers_not_simple_at_time_zero_name_the_size_field(spec, field):
    # The float spacing at the shape's position exceeds its marker spacing.
    with pytest.raises(ShapeError, match="too small for the float spacing") as err:
        init_volume(spec, still_flow(), np.full(2, 5.0))
    assert err.value.field == field


def test_x0_inside_rejected():
    flow = still_flow()
    with pytest.raises(ValueError, match="inside"):
        disk_volume(flow, (0.0, 0.0), 1.0, (0.2, 0.0), 0.1)
    with pytest.raises(ValueError, match="inside"):
        annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (1.5, 0.0), 0.1)


TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def test_shape_spec_validation():
    # Each spec refuses its own fields, naming the one at fault.  The cap is
    # 1.5M markers and nodes together: 2·866² nodes beside a disk's 64
    # markers, 7·4^8 nodes for a triangle.
    for make, field in [
        (lambda: DiskSpec(32, (0.0, 0.0), 1.0, 40), "markers"),
        (lambda: DiskSpec(1_499_999, (0.0, 0.0), 1.0, 1), "markers"),
        (lambda: AnnulusSpec(750_000, (0.0, 0.0), (1.0, 2.0), 1), "markers"),
        (lambda: DiskSpec(64, (0.0, 0.0), 1.0, 867), "quad_order"),
        (lambda: DiskSpec(750_000, (0.0, 0.0), 1.0, 613), "quad_order"),
        (lambda: AnnulusSpec(375_000, (0.0, 0.0), (1.0, 2.0), 613), "quad_order"),
        (lambda: PolygonSpec(1_499_991, TRIANGLE, 0), "markers"),
        (lambda: PolygonSpec(1_041_246, TRIANGLE, 8), "refine"),
        (lambda: DiskSpec(256, (0.0, 0.0), 0.0, 40), "radius"),
        (lambda: DiskSpec(256, (0.0, 0.0), 1.0, 0), "quad_order"),
        (lambda: DiskSpec(256, (0.0, 0.0), 1.0, 867), "quad_order"),
        (lambda: AnnulusSpec(256, (0.0, 0.0), (2.0, 1.0), 40), "radii"),
        (lambda: AnnulusSpec(256, (0.0, 0.0), (1.0, 2.0), 10 ** 9), "quad_order"),
        (lambda: PolygonSpec(64, ((0, 0), (1, 0)), 3), "vertices"),
        (lambda: PolygonSpec(10 ** 9, TRIANGLE, 3), "markers"),
        (lambda: PolygonSpec(64, TRIANGLE, -1), "refine"),
        (lambda: PolygonSpec(64, TRIANGLE, 9), "refine"),
    ]:
        with pytest.raises(ShapeError) as err:
            make()
        assert err.value.field == field


def test_size_caps_admit_their_edges():
    # Each spec's largest markers and nodes together, one past each of which
    # `test_shape_spec_validation` refuses.
    DiskSpec(1_499_998, (0.0, 0.0), 1.0, 1)
    AnnulusSpec(749_999, (0.0, 0.0), (1.0, 2.0), 1)
    DiskSpec(64, (0.0, 0.0), 1.0, 866)
    DiskSpec(750_000, (0.0, 0.0), 1.0, 612)
    AnnulusSpec(375_000, (0.0, 0.0), (1.0, 2.0), 612)
    PolygonSpec(1_499_990, TRIANGLE, 0)
    PolygonSpec(1_041_245, TRIANGLE, 8)


def test_points_off_the_plane_rejected():
    with pytest.raises(ValueError, match="x0 must have dimension 2"):
        disk_volume(still_flow(), (3.0, 0.0), 1.0, (0.0, 0.0, 0.0), 0.5)
    with pytest.raises(ValueError, match="center must have dimension 2"):
        disk_volume(still_flow(), (3.0, 0.0, 0.0), 1.0, (0.0, 0.0), 0.5)


def test_bowtie_polygon_rejected():
    with pytest.raises(ValueError, match="self-intersect"):
        PolygonSpec(64, vertices=((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)),
                    refine=3)


# -- advection ---------------------------------------------------------------

def test_constant_flow_translation():
    vol = disk_volume(left_flow(), (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    moved = advect(vol, left_flow(), 2.0, 1e-2)
    assert np.allclose(moved.nodes, vol.nodes + [-2.0, 0.0], atol=1e-13)
    assert np.allclose(moved.markers, vol.markers + [-2.0, 0.0], atol=1e-13)
    assert moved.time == 2.0


def test_expansion_doubles_positions():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    moved = advect(vol, flow, 1.0, 0.05)
    assert np.allclose(moved.nodes, 2.0 * vol.nodes, rtol=1e-12)


def test_advect_to_its_own_time_and_back():
    flow = left_flow()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    still = advect(vol, flow, 0.0, 1e-2)
    assert np.array_equal(still.points, vol.points) and still.time == 0.0
    there = advect(vol, flow, 0.5, 1e-2)
    back = advect(there, flow, 0.0, 1e-2)
    assert np.allclose(back.points, vol.points, rtol=0.0, atol=1e-12)
    assert back.time == 0.0


def test_rk4_order_on_curved_trajectories():
    # rotation field: exact trajectories are circles, so the integrator error
    # is measurable; halving dt should shrink it ~16x
    omega = 1.0
    rot = SyntheticFlow(lambda t, p: omega * np.stack([-p[..., 1], p[..., 0]],
                                                      axis=-1))
    vol = disk_volume(rot, (3.0, 0.0), 1.0, (10.0, 0.0), 1.0, markers=64, order=10)
    c, s = np.cos(omega), np.sin(omega)
    exact = vol.nodes @ np.array([[c, -s], [s, c]]).T
    errs = [np.abs(advect_unchecked(vol, rot, 1.0, dt).nodes - exact).max()
            for dt in (0.1, 0.05)]
    assert 10.0 <= errs[0] / errs[1] <= 25.0


def test_mass_weights_ride_along():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    moved = advect(vol, flow, 0.7, 0.05)
    assert np.array_equal(moved.mass_w, vol.mass_w)


def test_self_intersection_detected_after_advection():
    # a localized kick drags one marker across the loop; the per-call
    # detector must refuse the result
    flow0 = SyntheticFlow(lambda t, p: np.zeros_like(p))
    vol = disk_volume(flow0, (0.0, 0.0), 1.0, (5.0, 0.0), 0.5, markers=128, order=10)
    target = vol.markers[0].copy()

    def kick(t, p):
        w = np.exp(-((p - target) ** 2).sum(axis=-1) / 1e-4)
        return np.stack([-30.0 * w, np.zeros(p.shape[:-1])], axis=-1)

    with pytest.raises(SelfIntersection):
        advect(vol, SyntheticFlow(kick), 1.0, 1.0)


def test_loop_crossing_another_detected_after_advection():
    # The outer loop is pulled onto r = 1 and turned a little: each loop
    # stays simple, but the outer loop's chords cut inside r = 1, across the
    # hole loop's vertices there.
    def pull_and_swirl(t, p):
        r = np.linalg.norm(p, axis=-1)
        excess = np.maximum(r - 1.0, 0.0)[..., None]
        radial = p / r[..., None]
        swirl = np.stack([-radial[..., 1], radial[..., 0]], axis=-1)
        return excess * (-8.0 * radial + 2.0 * swirl)

    flow = SyntheticFlow(pull_and_swirl)
    vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (6.0, 0.0), 0.5,
                         markers=64, order=10)
    moved = advect_unchecked(vol, flow, 1.0, 1e-3)
    outer, hole = np.split(moved.markers, moved.loop_ends[:-1])
    assert polygon_is_simple(outer) and polygon_is_simple(hole)
    with pytest.raises(SelfIntersection):
        advect(vol, flow, 1.0, 1e-3)


def test_one_crossing_sweep_per_advection(monkeypatch):
    vol = annulus_volume(still_flow(), (0.0, 0.0), (1.0, 2.0), (6.0, 0.0), 0.5,
                         markers=64, order=10)
    calls = []
    sweep = matvol.polygon_is_simple
    monkeypatch.setattr(matvol, "polygon_is_simple",
                        lambda *args: calls.append(len(args[0])) or sweep(*args))
    advect(vol, still_flow(), 0.5, 0.1)
    assert calls == [128]


# -- integrals ---------------------------------------------------------------

def test_mass_integral_radial_power():
    vol = annulus_volume(still_flow(), (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5)
    got = volume_integral_mass(vol, lambda p: radial_norm(p) ** -8.0)
    want = 2.0 * np.pi * (1.0 - 2.0 ** -6) / 6.0   # 2*pi*int_1^2 r^-7 dr
    assert got == pytest.approx(want, rel=1e-12)


def test_mass_integral_r2_disk():
    vol = disk_volume(still_flow(), (0.0, 0.0), 1.0, (3.0, 0.0), 0.5)
    got = volume_integral_mass(vol, lambda p: radial_norm(p) ** 2)
    assert got == pytest.approx(np.pi / 2.0, rel=1e-12)   # 2*pi*int_0^1 r^3 dr


def test_plain_integral_tracks_area():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    assert volume_integral_plain(vol, ones, flow) == pytest.approx(np.pi, rel=1e-8)
    moved = advect(vol, flow, 1.0, 0.05)
    assert volume_integral_plain(moved, ones, flow) == pytest.approx(4.0 * np.pi,
                                                                     rel=1e-6)


def test_plain_integral_constant_pressure_square():
    verts = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    spec = PolygonSpec(markers=64, vertices=verts, refine=2)
    flow = still_flow()
    vol, _ = init_volume(spec, flow, np.array([3.0, 3.0]))
    got = volume_integral_plain(vol, lambda p: np.ones(len(p)), flow)
    assert got == pytest.approx(1.0, rel=1e-10)


# -- surface integrals -------------------------------------------------------

def test_constant_vector_flux_vanishes():
    a = np.array([0.7, -1.3])
    vol = disk_volume(still_flow(), (2.0, 1.0), 1.0, (0.0, 0.0), 0.5)
    got = surface_integral(vol, lambda p, n: n @ a)
    assert abs(got) <= 1e-8


def test_radial_flux_annulus():
    vol = annulus_volume(still_flow(), (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5,
                         markers=8192)
    got = surface_integral(
        vol, lambda p, n: np.einsum("ij,ij->i",
                                    p / np.linalg.norm(p, axis=1, keepdims=True), n))
    assert got == pytest.approx(2.0 * np.pi, abs=1e-6)


def test_position_flux_unit_circle():
    vol = disk_volume(still_flow(), (0.0, 0.0), 1.0, (3.0, 0.0), 0.5, markers=8192)
    got = surface_integral(vol, lambda p, n: np.einsum("ij,ij->i", p, n))
    assert got == pytest.approx(2.0 * np.pi, abs=1e-6)   # n * area in 2-D


def test_divergence_consistency_2d():
    # advected volume, polynomial w: boundary flux matches the volume
    # integral of div w
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5, markers=4096)
    vol = advect(vol, flow, 0.5, 0.05)

    def w_flux(p, n):
        w = np.stack([p[:, 0] ** 2 + p[:, 1], p[:, 0] * p[:, 1]], axis=-1)
        return np.einsum("ij,ij->i", w, n)

    def div_w(p):
        return 2.0 * p[:, 0] + p[:, 0]

    got = surface_integral(vol, w_flux)
    want = volume_integral_plain(vol, div_w, flow)
    assert got == pytest.approx(want, rel=1e-4)


def test_degenerate_segment_rejected():
    vol = disk_volume(still_flow(), (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    points = vol.points.copy()
    points[1] = points[0]
    from dataclasses import replace
    bad = replace(vol, points=points)
    with pytest.raises(ValueError, match="degenerate"):
        surface_integral(bad, lambda p, n: np.ones(len(p)))


# -- distances ---------------------------------------------------------------

def test_boundary_distance_cases():
    flow = still_flow()
    ann = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.9)
    assert boundary_distance(ann) == pytest.approx(1.0, abs=1e-3)
    disk = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    assert boundary_distance(disk) == pytest.approx(2.0, abs=1e-4)
    moved = advect(disk, left_flow(), 1.0, 1e-2)
    assert boundary_distance(moved) == pytest.approx(1.0, abs=1e-4)


def test_distance_lipschitz_along_advection():
    vol = disk_volume(left_flow(), (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    d_prev, t_prev = boundary_distance(vol), 0.0
    for t in (0.25, 0.5, 0.75, 1.0):
        vol = advect(vol, left_flow(), t, 1e-2)
        d = boundary_distance(vol)
        assert d_prev - d <= (t - t_prev) * 1.0 + 1e-9   # max |V| = 1
        d_prev, t_prev = d, t


# -- per-coordinate point arithmetic ------------------------------------------

# Signed zeros, subnormals, infinities, NaN, values whose squares overflow or
# underflow, and ordinary numbers.
_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf,
                      np.nan, 1e300, -1e300, 1e-160, 1.0, -2.5])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _special_rows():
    """(a, b): every pair of rows of special values against every other, then
    random rows; each an (N, 2) array."""
    x, y = np.meshgrid(_SPECIALS, _SPECIALS, indexing="ij")
    rows = np.column_stack([x.ravel(), y.ravel()])
    rng = np.random.default_rng(3)
    a = np.vstack([np.repeat(rows, len(rows), axis=0), rng.standard_normal((500, 2))])
    b = np.vstack([np.tile(rows, (len(rows), 1)), rng.standard_normal((500, 2))])
    return a, b


def test_norm_dot_and_offset_match_numpy_bitwise():
    a, b = _special_rows()
    with np.errstate(all="ignore"):
        assert _bits(matvol._norm(a)) == _bits(np.linalg.norm(a, axis=1))
        assert _bits(matvol._dot(a, b)) == _bits(np.einsum("ij,ij->i", a, b))
        assert _bits(matvol._dot(a, a)) == _bits(np.einsum("ij,ij->i", a, a))
        for p in (np.array([-0.0, 0.0]), np.array([0.0, -0.0]),
                  np.array([np.nan, np.inf]), np.array([1e300, -5e-324]),
                  np.array([0.3, -1.7])):
            assert _bits(matvol._offset(a, p)) == _bits(a - p)
            assert _bits(matvol._offset(p, a)) == _bits(p - a)


def test_dot_sums_from_zero_like_einsum():
    # Two products of -0.0 add to -0.0, and einsum, which adds them to 0,
    # returns +0.0.
    v = np.array([[-0.0, 0.0], [-0.0, 0.0]])
    z = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert _bits(v[:, 0] * z[:, 0] + v[:, 1] * z[:, 1]) == _bits([0.0, -0.0])
    assert _bits(matvol._dot(v, z)) == _bits(np.einsum("ij,ij->i", v, z)) \
        == _bits([0.0, 0.0])


def _point_segment_distance_broadcast(p, a, b):
    """The broadcast form that `_point_segment_distance` replaced."""
    ab = b - a
    ap = p - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.einsum("ij,ij->i", ap, ab) / np.where(denom > 0, denom, 1.0), 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.linalg.norm(p - closest, axis=1)


def test_point_segment_distance_matches_broadcast_form_bitwise():
    # A unit square with signed zeros in its corners, a zero-length segment
    # and a circle of markers; p on every segment end, and elsewhere.
    square = np.array([[0.0, -0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0],
                       [-0.0, 1.0]])
    theta = 2.0 * np.pi * np.arange(64) / 64
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    for a in (square, circle):
        b = np.roll(a, -1, axis=0)
        for p in [*a, np.array([-0.0, -0.0]), np.array([0.5, 2.0])]:
            assert _bits(matvol._point_segment_distance(p, a, b)) == \
                _bits(_point_segment_distance_broadcast(p, a, b))


def test_successors_are_one_read_only_array_per_layout():
    nxt = matvol._successors(5, (3, 5))
    assert nxt.tolist() == [1, 2, 0, 4, 3] and not nxt.flags.writeable
    assert matvol._successors(5, (3, 5)) is nxt


# -- invariants (property style) --------------------------------------------

@settings(max_examples=15, deadline=None)
@given(t_to=st.floats(0.1, 1.5), vx=st.floats(-1.0, 1.0), vy=st.floats(-1.0, 1.0))
def test_mass_invariant_under_advection(t_to, vx, vy):
    flow = ConstantFlow(1.4, rho0=1.3, vel0=(vx, vy), p0=0.7)
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (-5.0, 0.0), 0.5, markers=64, order=10)
    m0 = volume_integral_mass(vol, ones)
    moved = advect_unchecked(vol, flow, t_to, 0.05)
    assert volume_integral_mass(moved, ones) == pytest.approx(m0, rel=1e-10)


@settings(max_examples=10, deadline=None)
@given(t_to=st.floats(0.2, 1.0))
def test_transport_consistency_expansion(t_to):
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5, markers=64, order=20)
    moved = advect_unchecked(vol, flow, t_to, 0.02)
    want = (1.0 + t_to) ** 2 * np.pi
    assert volume_integral_plain(moved, ones, flow) == pytest.approx(want, rel=1e-6)


# -- geometry helpers --------------------------------------------------------

def test_loop_orientation_conventions():
    vol = annulus_volume(still_flow(), (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5)
    outer, inner = np.split(vol.markers, vol.loop_ends[:-1])
    assert loop_signed_area(outer) > 0      # CCW
    assert loop_signed_area(inner) < 0      # hole loop stored CW
    # outward normals: flux of (x - c) equals n * measure > 0
    flux = surface_integral(vol, lambda p, n: np.einsum("ij,ij->i", p, n))
    assert flux == pytest.approx(2.0 * (np.pi * 4.0 - np.pi), rel=1e-3)


def test_point_in_loops_even_odd():
    vol = annulus_volume(still_flow(), (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5)
    loops = (vol.markers, vol.loop_ends)
    assert point_in_loops(np.array([1.5, 0.0]), *loops)
    assert not point_in_loops(np.array([0.0, 0.0]), *loops)   # in hole
    assert not point_in_loops(np.array([3.0, 0.0]), *loops)


def test_polygon_is_simple():
    theta = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    assert polygon_is_simple(circle)
    bow = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert not polygon_is_simple(bow)


# -- polygon_is_simple against an all-pairs reference ------------------------

def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _reference_is_simple(loop):
    """Every pair of non-adjacent segments, one at a time, in Python floats."""
    pts = [(float(x), float(y)) for x, y in loop]
    m = len(pts)
    if m < 3:
        return False
    segs = [(pts[k], pts[(k + 1) % m]) for k in range(m)]
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            (a0, a1), (b0, b1) = segs[i], segs[j]
            d = (_orient(b0, b1, a0), _orient(b0, b1, a1),
                 _orient(a0, a1, b0), _orient(a0, a1, b1))
            proper = ((d[0] > 0) != (d[1] > 0)) and ((d[2] > 0) != (d[3] > 0))
            overlap = all(min(a0[c], a1[c]) <= max(b0[c], b1[c])
                          and min(b0[c], b1[c]) <= max(a0[c], a1[c])
                          for c in (0, 1))
            if proper or (0.0 in d and overlap):
                return False
    return True


def _check_against_reference(loop, block):
    loop = np.asarray(loop, dtype=float)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matvol, "_PAIR_BLOCK", block)
        for candidate in (loop, loop[::-1].copy()):
            assert polygon_is_simple(candidate) == _reference_is_simple(candidate)


# Small blocks split the candidate pairs of one segment across blocks.
_BLOCKS = st.sampled_from([1, 2, 5, 16, matvol._PAIR_BLOCK])


@settings(max_examples=300, deadline=None)
@given(pts=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=3, max_size=24),
       block=_BLOCKS)
def test_sweep_matches_reference_on_lattice_loops(pts, block):
    # Lattice vertices make collinear overlaps, touching segments, shared and
    # repeated vertices (zero-length segments) common.
    _check_against_reference(pts, block)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(3, 40),
       noise=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
       dup=st.lists(st.integers(0, 39), max_size=3),
       seed=st.integers(0, 2 ** 32 - 1),
       block=_BLOCKS)
def test_sweep_matches_reference_on_noisy_circles(m, noise, dup, seed, block):
    theta = 2.0 * np.pi * np.arange(m) / m
    loop = np.column_stack([np.cos(theta), np.sin(theta)])
    loop += noise * np.random.default_rng(seed).standard_normal(loop.shape)
    for k in sorted({k % m for k in dup}, reverse=True):
        loop = np.insert(loop, k, loop[k], axis=0)      # zero-length segment
    _check_against_reference(loop, block)


def test_sweep_triangles_and_short_loops():
    # With m = 3 every pair of segments is adjacent, so nothing is tested.
    for tri in ([[0, 0], [1, 0], [0, 1]], [[0, 0], [1, 1], [2, 2]],
                [[0, 0], [0, 0], [1, 1]]):
        _check_against_reference(tri, matvol._PAIR_BLOCK)
        assert polygon_is_simple(np.asarray(tri, dtype=float))
    assert not polygon_is_simple(np.zeros((2, 2)))
    # A square and a loop of two markers after it.
    loops = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [3, 3], [4, 4]], dtype=float)
    assert polygon_is_simple(loops[:4], (4,)) and not polygon_is_simple(loops, (4, 6))


def _zigzag(n):
    """n vertices zigzag up between x = 0 and x = 1, and the loop closes back
    down through x = -1.  Every zigzag segment overlaps every other in x."""
    k = np.arange(n)
    up = np.column_stack([k % 2, k]).astype(float)
    back = np.array([[-1.0, n - 1.0], [-1.0, 0.0]])
    return np.vstack([up, back])


def test_sweep_zigzag_spans_several_blocks():
    n = 400
    assert n * (n - 1) // 2 > 3 * matvol._PAIR_BLOCK
    loop = _zigzag(n)
    assert polygon_is_simple(loop) and _reference_is_simple(loop)
    # One vertex pushed down across the segments below it: the crossing pairs
    # rank early, in the middle or last in the x-sorted pair list.
    for k in (3, n // 2, n - 2):
        bad = loop.copy()
        bad[k, 1] -= 2.5
        assert not polygon_is_simple(bad)
        assert not _reference_is_simple(bad)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 78), shift=st.sampled_from([-2.5, -2.0, 0.5, 1.0, 2.0, 3.5]),
       block=st.sampled_from([64, 500, 3000]))
def test_sweep_zigzag_matches_reference(k, shift, block):
    loop = _zigzag(80)
    loop[k, 1] += shift
    _check_against_reference(loop, block)


def test_sweep_large_circle_is_fast():
    m = 8192
    theta = 2.0 * np.pi * np.arange(m) / m
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        assert polygon_is_simple(circle)
        best = min(best, time.perf_counter() - t0)
    # ~3 ms on a 2-vCPU host; a per-segment Python loop takes ~0.4 s.
    assert best < 0.1
    dented = circle.copy()
    dented[m // 3] *= -1.5                  # one marker thrown across the loop
    assert not polygon_is_simple(dented)


def test_shape_distance_closed_form():
    disk = DiskSpec(256, center=(3.0, 0.0), radius=1.0, quad_order=40)
    assert disk.distance((0.0, 0.0)) == 2.0
    annulus = AnnulusSpec(256, center=(0.0, 0.0), radii=(1.0, 2.0), quad_order=40)
    assert annulus.distance((0.0, 0.0)) == 1.0
    assert annulus.distance((3.0, 0.0)) == 1.0
    square = PolygonSpec(256, vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
                         refine=3)
    assert square.distance((2.0, 0.5)) == 1.0
    assert square.distance((2.0, 2.0)) == pytest.approx(np.sqrt(2.0))
    for spec, inside in ((disk, (3.0, 1.0)), (annulus, (1.5, 0.0)),
                         (square, (0.5, 0.5))):
        with pytest.raises(ValueError, match="lies inside"):
            spec.distance(inside)



# -- the buffered RK4 loop against the allocating reference --------------------

def _read_only(fn):
    def velocity(t, p):
        v = np.array(fn(t, p))
        v.setflags(write=False)
        return v
    return velocity


def _grid_flow(n=64):
    h = 2.0 / n
    c = -1.0 + h * np.arange(n)
    x, y = np.meshgrid(c, c, indexing="ij")
    state = GridState.from_nodes(
        rho=1.0 + 0.2 * np.sin(np.pi * x) * np.cos(np.pi * y),
        vx=0.4 * np.sin(np.pi * y), vy=-0.3 * np.cos(np.pi * x),
        entropy=0.1 * np.cos(np.pi * (x + y)), gamma=1.4,
        origin=(-1.0, -1.0), spacing=(h, h), time=0.0)
    flow = GridFlow(state, step_dt=0.005, guard_threshold=np.inf)
    flow.advance_to(0.1)
    return flow


RK4_CASES = {
    # (flow, t_from, t_to, dt); the spans leave partial last steps.
    "constant": (lambda: ConstantFlow(1.4, rho0=1.0, vel0=(-1.3, 0.7), p0=1.0),
                 0.0, 0.37, 0.05),
    "constant_backward": (lambda: ConstantFlow(1.4, rho0=1.0, vel0=(0.9, -2.1), p0=1.0),
                          0.41, 0.02, 0.06),
    "constant_one_point": (lambda: ConstantFlow(1.4, rho0=1.0, vel0=(-1.3, 0.7), p0=1.0),
                           0.0, 0.37, 0.05),
    "constant_no_points": (lambda: ConstantFlow(1.4, rho0=1.0, vel0=(-1.3, 0.7), p0=1.0),
                           0.0, 0.37, 0.05),
    # 38 steps of two sizes: 8 queries where a query per stage would make 152.
    "constant_many_steps": (lambda: ConstantFlow(1.4, rho0=1.0, vel0=(0.6, -1.1), p0=1.0),
                            0.0, 0.3705, 0.01),
    "expansion_forward": (expansion, 0.0, 0.37, 0.05),
    "expansion_backward": (expansion, 0.5, 0.1, 0.05),
    "expansion_partial": (expansion, 0.2, 0.2 + 0.013, 0.005),
    "grid_64": (_grid_flow, 0.0, 0.083, 0.01),
    "identity": (lambda: SyntheticFlow(lambda t, p: p), 0.0, 0.3, 0.04),
    "read_only": (lambda: SyntheticFlow(_read_only(
        lambda t, p: np.column_stack([-p[:, 1], p[:, 0]]) * (1.0 + t))), 0.0, 0.45, 0.1),
    "read_only_broadcast": (lambda: SyntheticFlow(lambda t, p: np.broadcast_to(
        np.array([0.3 * t, -0.2]), p.shape)), 0.0, 0.25, 0.1),
}
RK4_POINTS = {"constant_one_point": 1, "constant_no_points": 0}


@pytest.mark.parametrize("case", sorted(RK4_CASES))
def test_rk4_matches_allocating_reference_bitwise(case):
    make, t_from, t_to, dt = RK4_CASES[case]
    flow = make()
    n = RK4_POINTS.get(case, 301)
    pts = np.random.default_rng(len(case)).uniform(-0.8, 0.8, size=(n, 2))
    before = pts.copy()
    calls = []
    velocity = flow.velocity

    def counting(t, p):
        calls.append(len(p))
        return velocity(t, p)

    flow.velocity = counting
    got = matvol._rk4_points(flow, pts, t_from, t_to, dt)
    flow.velocity = velocity
    want = rk4_points_reference(flow, pts, t_from, t_to, dt)
    assert np.array_equal(pts, before)
    assert got.shape == pts.shape and not np.shares_memory(got, pts)
    assert np.array_equal(got, want)
    # The step sizes of the loop rule h = min(|dt|, |t_to - t|).
    sizes, t = [], t_from
    while abs(t_to - t) > 1e-14:
        sizes.append(min(abs(dt), abs(t_to - t)))
        t += math.copysign(sizes[-1], t_to - t_from)
    assert len(sizes) == math.ceil(abs(t_to - t_from) / dt - 1e-9)
    # A constant flow is queried 4 times per step size at one point; every
    # other flow, even one uniform in space (read_only_broadcast), 4 times
    # per step at every point.
    if isinstance(flow, ConstantFlow):
        assert calls == [min(n, 1)] * (4 * len(set(sizes)))
    else:
        assert calls == [n] * (4 * len(sizes))


def test_only_a_constant_flow_has_constant_velocity():
    assert ConstantFlow.constant_velocity is True
    for cls in (FlowField, ExpansionFlow, GridFlow, SyntheticFlow):
        assert cls.constant_velocity is False
