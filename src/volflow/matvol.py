"""Moving material volume: advected markers, quadrature nodes, integrals.

The volume is a region of the plane, carried by the flow as a set of
Lagrangian samples held in one (M + N, 2) array `points`: the M boundary
markers, closed polygon loops stored one after another, then the N interior
quadrature nodes.  `loop_ends` gives the end of each loop in it, and
`markers` and `nodes` are views of it, so an advection integrates the whole
array at once and nothing is stacked or split around it.  Each interior node
carries a fixed mass weight rho0(y)*w(y); because the mass measure is
transported exactly by the flow, rho-weighted integrals need no Jacobian at
all, and unweighted integrals recover the Jacobian from the density ratio
rho0/rho(t, X).

A volume may be disconnected, and an annulus has a two-loop boundary.
Outward orientation is fixed at initialization -- counterclockwise outer
loops, clockwise hole loops -- and smooth flows preserve it.  One successor
table (each marker's next vertex in its loop) gives the boundary segments to
the element geometry, the distance to x0 and the crossing sweep.  The sweep
(`polygon_is_simple`) runs once after each advection over the segments of
every loop together, so it catches a loop that crosses itself or another
loop; it is the failure detector for under-resolved boundaries.  It is
vectorized: it lists the candidate pairs of an x-sorted interval sweep and
tests them in fixed-size blocks, so its extra memory is bounded by the block
size, not by the square of the marker count.

This module builds and moves volumes: `init_volume` builds one at time zero
and reports its boundary's distance to x0, and `advect` carries it to
another time, forward or back.  Whether a volume may start a scenario is
decided by `config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

__all__ = [
    "SelfIntersection",
    "ShapeError",
    "VolumeShapeSpec",
    "MaterialVolume",
    "init_volume",
    "advect",
    "boundary_distance",
]


class SelfIntersection(RuntimeError):
    """A boundary loop crossed itself or another loop -- marker resolution
    has failed."""


class ShapeError(ValueError):
    """A `VolumeShapeSpec` that makes no volume; `field` names the setting
    at fault."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# Geometry helpers (closed loops)
# ---------------------------------------------------------------------------

def loop_signed_area(loop):
    """Shoelace signed area; positive for counterclockwise loops."""
    x, y = loop[:, 0], loop[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def _successors(markers, loop_ends=None):
    """Index of each marker's next vertex in its loop.

    The loops lie one after another in `markers`, loop k ending before index
    loop_ends[k]; by default all the markers make one loop."""
    ends = np.array((len(markers),) if loop_ends is None else loop_ends)
    nxt = np.arange(1, len(markers) + 1)
    nxt[ends - 1] = np.concatenate(([0], ends[:-1]))
    return nxt


def point_in_loops(point, markers, loop_ends=None):
    """Even-odd containment test of a point against closed loops, laid out as
    `polygon_is_simple` takes them."""
    px, py = float(point[0]), float(point[1])
    a = markers
    b = markers.take(_successors(markers, loop_ends), axis=0)
    cond = (a[:, 1] > py) != (b[:, 1] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (py - a[:, 1]) / (b[:, 1] - a[:, 1])
    xs = a[:, 0] + t * (b[:, 0] - a[:, 0])
    return int(np.count_nonzero(cond & (px < xs))) % 2 == 1


def _segments_cross(a0, a1, b0, b1):
    """Vectorized proper/improper intersection test, a-segment vs b-segments."""
    def orient(p, q, r):
        return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) \
             - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])

    d1 = orient(b0, b1, a0)
    d2 = orient(b0, b1, a1)
    d3 = orient(a0, a1, b0)
    d4 = orient(a0, a1, b1)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    touch = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
    return proper | (touch & _bbox_overlap(a0, a1, b0, b1))


def _bbox_overlap(a0, a1, b0, b1):
    amin = np.minimum(a0, a1)
    amax = np.maximum(a0, a1)
    bmin = np.minimum(b0, b1)
    bmax = np.maximum(b0, b1)
    return np.all(amin <= bmax, axis=-1) & np.all(bmin <= amax, axis=-1)


# Candidate pairs tested per vectorized call of `polygon_is_simple`; this
# bounds the sweep's extra memory whatever the loop's shape.
_PAIR_BLOCK = 1 << 14


def polygon_is_simple(markers, loop_ends=None):
    """Check closed loops for a loop that crosses itself or another loop, by
    one x-interval sweep over the segments of all of them.

    The loops lie one after another in `markers`, loop k ending before index
    loop_ends[k]; by default all the markers make one loop.

    Segments are sorted by their left end; each one's candidates are the
    segments after it in that order whose left end does not pass its right
    end.  All candidate pairs are listed by their rank in the cumulative
    candidate counts and tested in blocks of `_PAIR_BLOCK`, one vectorized
    call per block, stopping at the first block with a hit.  Segments
    adjacent in a loop (sharing a vertex) are skipped; any other touching or
    crossing pair counts as an intersection.  A loop of fewer than 3
    markers is not simple.
    """
    m = len(markers)
    loop_ends = (m,) if loop_ends is None else loop_ends
    if np.min(np.diff(loop_ends, prepend=0)) < 3:
        return False
    nxt = _successors(markers, loop_ends)
    a = markers
    b = markers.take(nxt, axis=0)
    xmin = np.minimum(a[:, 0], b[:, 0])
    xmax = np.maximum(a[:, 0], b[:, 0])
    order = np.argsort(xmin, kind="stable")
    # Sorted position p pairs with positions p+1 .. hi[p]-1.
    hi = np.searchsorted(xmin[order], xmax[order], side="right")
    counts = np.maximum(hi - np.arange(1, m + 1), 0)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    for start in range(0, total, _PAIR_BLOCK):
        k = np.arange(start, min(start + _PAIR_BLOCK, total))
        p = np.searchsorted(ends, k, side="right")
        i = order[p]
        j = order[p + 1 + k - (ends[p] - counts[p])]
        keep = (nxt[i] != j) & (nxt[j] != i)
        i, j = i[keep], j[keep]
        # take() gathers rows far faster than a[i] and yields the same values.
        if np.any(_segments_cross(a.take(i, axis=0), b.take(i, axis=0),
                                  a.take(j, axis=0), b.take(j, axis=0))):
            return False
    return True


def _point_segment_distance(p, a, b):
    """Distances from point p to segments a->b (vectorized over segments)."""
    ab = b - a
    ap = p - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.einsum("ij,ij->i", ap, ab) / np.where(denom > 0, denom, 1.0), 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.linalg.norm(p - closest, axis=1)


# ---------------------------------------------------------------------------
# Shape construction
# ---------------------------------------------------------------------------

def _gauss(a, b, order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _circle_markers(center, radius, count, clockwise=False):
    theta = 2.0 * np.pi * np.arange(count) / count
    if clockwise:
        theta = theta[::-1]
    return np.column_stack([center[0] + radius * np.cos(theta),
                            center[1] + radius * np.sin(theta)])


def _radial_nodes(center, r_lo, r_hi, order):
    """Tensor rule on an annular region: Gauss in r, midpoint-uniform in theta."""
    r, wr = _gauss(r_lo, r_hi, order)
    m = 2 * order
    theta = (np.arange(m) + 0.5) * 2.0 * np.pi / m
    wt = 2.0 * np.pi / m
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    nodes = np.column_stack([(center[0] + rr * np.cos(tt)).ravel(),
                             (center[1] + rr * np.sin(tt)).ravel()])
    weights = (wr * r)[:, None].repeat(m, axis=1).ravel() * wt
    return nodes, weights


def _polygon_markers(vertices, count):
    """Densify polygon edges by arc length, preserving the corners."""
    verts = np.asarray(vertices, dtype=float)
    nxt = np.roll(verts, -1, axis=0)
    lengths = np.linalg.norm(nxt - verts, axis=1)
    per_edge = np.maximum(1, np.round(count * lengths / lengths.sum()).astype(int))
    pieces = []
    for v, w, k in zip(verts, nxt, per_edge):
        ts = np.arange(k) / k
        pieces.append(v + ts[:, None] * (w - v))
    return np.vstack(pieces)


def _ear_clip(vertices):
    """Triangulate a simple polygon (CCW) by ear clipping."""
    idx = list(range(len(vertices)))
    tris = []
    # Each pass clips one ear or raises.
    while len(idx) > 3:
        for pos in range(len(idx)):
            i0, i1, i2 = (idx[pos - 1], idx[pos], idx[(pos + 1) % len(idx)])
            a, b, c = vertices[i0], vertices[i1], vertices[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 0:
                continue
            others = [j for j in idx if j not in (i0, i1, i2)]
            if others and _any_point_in_triangle(vertices[others], a, b, c):
                continue
            tris.append((i0, i1, i2))
            idx.pop(pos)
            break
        else:
            raise ValueError("polygon triangulation failed (not simple?)")
    tris.append(tuple(idx))
    return tris


def _any_point_in_triangle(pts, a, b, c):
    def side(p, q, r):
        return (q[0] - p[0]) * (r[:, 1] - p[1]) - (q[1] - p[1]) * (r[:, 0] - p[0])

    s1, s2, s3 = side(a, b, pts), side(b, c, pts), side(c, a, pts)
    return bool(np.any((s1 >= 0) & (s2 >= 0) & (s3 >= 0)))


# Degree-5 rule on the reference triangle (7 points), weights summing to 1.
_TRI_A = (6.0 - math.sqrt(15.0)) / 21.0
_TRI_B = (6.0 + math.sqrt(15.0)) / 21.0
_TRI_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_TRI_A, _TRI_A, 1 - 2 * _TRI_A],
    [_TRI_A, 1 - 2 * _TRI_A, _TRI_A],
    [1 - 2 * _TRI_A, _TRI_A, _TRI_A],
    [_TRI_B, _TRI_B, 1 - 2 * _TRI_B],
    [_TRI_B, 1 - 2 * _TRI_B, _TRI_B],
    [1 - 2 * _TRI_B, _TRI_B, _TRI_B],
])
_TRI_W = np.array([9 / 40,
                   (155.0 - math.sqrt(15.0)) / 1200.0,
                   (155.0 - math.sqrt(15.0)) / 1200.0,
                   (155.0 - math.sqrt(15.0)) / 1200.0,
                   (155.0 + math.sqrt(15.0)) / 1200.0,
                   (155.0 + math.sqrt(15.0)) / 1200.0,
                   (155.0 + math.sqrt(15.0)) / 1200.0])


def _polygon_nodes(vertices, refine):
    verts = np.asarray(vertices, dtype=float)
    tris = [verts[list(t)] for t in _ear_clip(verts)]
    for _ in range(refine):
        finer = []
        for t in tris:
            m01, m12, m20 = 0.5 * (t[0] + t[1]), 0.5 * (t[1] + t[2]), 0.5 * (t[2] + t[0])
            finer += [np.array([t[0], m01, m20]), np.array([t[1], m12, m01]),
                      np.array([t[2], m20, m12]), np.array([m01, m12, m20])]
        tris = finer
    nodes, weights = [], []
    for t in tris:
        area = 0.5 * abs((t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1])
                         - (t[1, 1] - t[0, 1]) * (t[2, 0] - t[0, 0]))
        nodes.append(_TRI_BARY @ t)
        weights.append(_TRI_W * area)
    return np.vstack(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class VolumeShapeSpec:
    """Initial shape and discretization of a material volume.

    shape is one of 'disk', 'annulus' or 'polygon'.  quad_order controls the
    tensor-Gauss rule for radial shapes; refine controls triangulation depth
    for polygons.  A polygon's vertices must make a simple loop of nonzero
    area.  A spec that makes no volume raises `ShapeError`.
    """

    shape: str
    center: tuple = (0.0, 0.0)
    radius: float = None
    radii: tuple = None
    vertices: tuple = None
    markers: int = 256
    quad_order: int = 40
    refine: int = 3

    def __post_init__(self):
        if self.shape not in ("disk", "annulus", "polygon"):
            raise ShapeError("shape", f"unknown shape {self.shape!r}")
        if self.markers < 64:
            raise ShapeError("markers", "need at least 64 boundary markers")
        if self.shape == "disk":
            if self.radius is None or self.radius <= 0:
                raise ShapeError("radius", "disk needs a positive radius")
        elif self.shape == "annulus":
            if self.radii is None or len(self.radii) != 2:
                raise ShapeError("radii", "annulus needs radii = (inner, outer)")
            r1, r2 = self.radii
            if not 0 < r1 < r2:
                raise ShapeError("radii", "annulus radii must satisfy 0 < inner < outer")
        else:
            if self.vertices is None or len(self.vertices) < 3:
                raise ShapeError("vertices", "polygon needs at least 3 vertices")
            verts = np.asarray(self.vertices, dtype=float)
            if not polygon_is_simple(verts):
                raise ShapeError("vertices", "polygon boundary is self-intersecting")
            if loop_signed_area(verts) == 0.0:
                raise ShapeError("vertices", "polygon has zero area")

    def distance(self, x0):
        """Closed-form dist(boundary, x0) of the shape.

        Raises ValueError when x0 lies inside (or on) the shape.
        """
        x0 = np.asarray(x0, dtype=float)
        if self.shape == "polygon":
            verts = np.asarray(self.vertices, dtype=float)
            if point_in_loops(x0, verts):
                raise ValueError("lies inside the initial volume")
            return float(_point_segment_distance(
                x0, verts, np.roll(verts, -1, axis=0)).min())
        d = float(np.linalg.norm(x0 - np.asarray(self.center, dtype=float)))
        r1, r2 = (0.0, self.radius) if self.shape == "disk" else self.radii
        if r1 <= d <= r2:
            raise ValueError("lies inside (or on) the initial volume")
        return r1 - d if d < r1 else d - r2

    def build(self):
        """Boundary loops (a list of marker arrays) and (nodes, weights)
        quadrature of the shape."""
        center = np.asarray(self.center, dtype=float)
        if self.shape == "disk":
            boundary = [_circle_markers(center, self.radius, self.markers)]
            nodes, w = _radial_nodes(center, 0.0, self.radius, self.quad_order)
        elif self.shape == "annulus":
            r1, r2 = self.radii
            boundary = [_circle_markers(center, r2, self.markers),
                        _circle_markers(center, r1, self.markers, clockwise=True)]
            nodes, w = _radial_nodes(center, r1, r2, self.quad_order)
        else:
            verts = np.asarray(self.vertices, dtype=float)
            if loop_signed_area(verts) < 0:
                verts = verts[::-1]
            boundary = [_polygon_markers(verts, self.markers)]
            nodes, w = _polygon_nodes(verts, self.refine)
        return boundary, nodes, w


# ---------------------------------------------------------------------------
# The material volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MaterialVolume:
    """Lagrangian volume snapshot at one time.

    points: (M + N, 2) array of the M boundary markers -- closed loops one
    after another, loop k ending before index loop_ends[k] -- then the N
    interior quadrature nodes; `markers` and `nodes` are views of it.
    mass_w: the nodes' transported mass weights rho0 * w, rho0 the initial
    densities at the nodes.
    x0 is the fixed target point the threshold machinery measures against.
    """

    points: np.ndarray
    loop_ends: tuple
    mass_w: np.ndarray
    x0: np.ndarray
    time: float

    @property
    def markers(self):
        return self.points[:self.loop_ends[-1]]

    @property
    def nodes(self):
        return self.points[self.loop_ends[-1]:]


def init_volume(spec, flow, x0):
    """Build (volume, dist(boundary, x0)) from a shape spec and a flow at
    time zero.

    Checks the geometry only: the target x0 must lie strictly outside the
    volume (ValueError), and the built markers must make simple loops
    (`ShapeError`, naming the shape's size field), which they do not when
    the shape is too small for the float spacing at its position.  Whether
    the distance is large enough for a scenario is the caller's decision.
    """
    dim = flow.dimension
    x0 = np.asarray(x0, dtype=float)
    for name, point in (("x0", x0), ("center", np.asarray(spec.center))):
        if point.shape != (dim,):
            raise ValueError(f"{name} must have dimension {dim}")
    loops, nodes, w = spec.build()
    points = np.vstack([*loops, nodes])
    loop_ends = tuple(accumulate(len(loop) for loop in loops))
    if not polygon_is_simple(points[:loop_ends[-1]], loop_ends):
        raise ShapeError(
            {"disk": "radius", "annulus": "radii", "polygon": "vertices"}[spec.shape],
            "the boundary markers do not make simple loops: the shape is too "
            "small for the float spacing at its position")

    spec.distance(x0)                   # raises when x0 lies inside

    rho0 = flow.fields(0.0, nodes, ("rho",))["rho"]
    vol = MaterialVolume(points=points, loop_ends=loop_ends,
                         mass_w=rho0 * w, x0=x0, time=0.0)
    return vol, boundary_distance(vol)


def _rk4_points(flow, pts, t_from, t_to, dt):
    """RK4 integration of dX/dt = V(t, X) for a point cloud; dt may subdivide
    the interval in either time direction.

    Before each step the flow is advanced to the step's end
    (`FlowField.advance_to`, a no-op on a closed-form flow and on a grid
    flow already advanced that far), so a grid flow steps along with the
    points and need only hold the time stencil of the current step.

    Each step computes x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), the stage
    inputs y + (h/2)*k and y + h*k3, bit for bit, in buffers allocated once
    per call: the position `x`, and the sum `acc` and two stage buffers `sa`
    and `sb` shaped like the staged points `y`.  A velocity may return its
    query array itself, so the function writes only its own buffers, and
    never one whose slope is still read: k2 is queried at `sa`, k3 at `sb`,
    k4 at `sa` again once k2 is spent, and `x` is updated only after k4 is
    summed.

    On a flow with `constant_velocity` every point has the same slopes at
    every time, so the increment depends on the step size h alone: it is
    computed once per distinct h (a call has at most two, the full step and
    a shorter last one), with the stages run on the first point alone
    (`y = x[:1]`; otherwise `y` is all of `x`, and `acc`, `sa` and `sb` have
    one row), and repeated into one contiguous array of all the points.
    Each step then adds that array: the same IEEE additions of the same
    increment bits as a step that runs the stages at every point, so the
    same bits.  The repeat is made once, since a broadcast add of one row
    loops over rows of d values.
    """
    t = t_from
    x = np.array(pts, dtype=float)
    constant = flow.constant_velocity
    y = x[:1] if constant else x
    acc, sa, sb = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    inc_h = None                        # the step size `inc` is held for
    direction = 1.0 if t_to >= t_from else -1.0
    h_mag = abs(dt)
    while abs(t_to - t) > 1e-14:
        h = direction * min(h_mag, abs(t_to - t))
        flow.advance_to(t + h)
        if h != inc_h:
            k1 = flow.velocity(t, y)
            np.multiply(k1, 0.5 * h, out=sa)
            sa += y
            k2 = flow.velocity(t + 0.5 * h, sa)
            np.multiply(k2, 2.0, out=acc)
            acc += k1
            np.multiply(k2, 0.5 * h, out=sb)
            sb += y
            k3 = flow.velocity(t + 0.5 * h, sb)
            np.multiply(k3, 2.0, out=sa)
            acc += sa
            np.multiply(k3, h, out=sa)
            sa += y
            k4 = flow.velocity(t + h, sa)
            acc += k4
            acc *= h / 6.0
            inc = acc
            if constant:
                inc, inc_h = np.repeat(acc, len(x), axis=0), h
        x += inc
        t = t + h
    return x


def advect(vol, flow, t_to, dt):
    """Advect markers and interior nodes to time t_to, forward or back;
    weights ride along.

    The points are integrated in one `_rk4_points` call, and the loops are
    then swept once for crossings (`SelfIntersection`).  An advection to the
    volume's own time moves nothing and still sweeps the loops."""
    out = replace(vol, points=_rk4_points(flow, vol.points, vol.time, t_to, dt),
                  time=float(t_to))
    if not polygon_is_simple(out.markers, out.loop_ends):
        raise SelfIntersection(
            f"boundary self-intersects after advection to t={t_to}")
    return out


def _boundary_elements(vol):
    """Midpoints, outward unit normals and measures of all boundary elements."""
    a = vol.markers
    b = a.take(_successors(a, vol.loop_ends), axis=0)
    seg = b - a
    length = np.linalg.norm(seg, axis=1)
    if np.any(length == 0.0):
        raise ValueError("degenerate boundary segment (zero length)")
    tangent = seg / length[:, None]
    # Outward for CCW loops; hole loops are stored CW so the same formula
    # points out of the material region.
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    return 0.5 * (a + b), normal, length


def boundary_distance(vol, markers=None):
    """Distance from the boundary to the target point x0, with the markers
    moved to `markers` when given (the loops of `vol` at another time)."""
    a = vol.markers if markers is None else markers
    b = a.take(_successors(a, vol.loop_ends), axis=0)
    return float(_point_segment_distance(vol.x0, a, b).min())

