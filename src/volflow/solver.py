"""Finite-difference compressible Euler stepper on a 2-D periodic box.

The stepper advances the primitive fields (rho, vx, vy, S) in
nonconservative form with classical RK4 in time and 4th-order centered
differences in space.  That combination is only meant for the smooth regime:
no shock capturing, no limiting.  The centered stencils are skew-symmetric on
the periodic grid, which makes the whole-box mass integral an exact invariant
of the semi-discretization (and of every RK stage), so mass is conserved to
rounding per step.

The stepper works in reused buffers (`_Workspace`: stencil edge lines, one
set of RK4 stage inputs, one set of stage slopes, the ten derivatives of the
right-hand side, scratch), so with a workspace a step allocates only the
state it returns (and the scratch of its pressure).  Every buffered
operation is the one the plain NumPy expression would perform, in the same
order, so results are bit-for-bit those of the unbuffered formulas.

A `GridFlow` wraps a run of the stepper as a queryable flow: off-node and
off-step queries use separable cubic Lagrange interpolation (bicubic in
space, cubic in time), consistent with the scheme's order.  It holds a
window of snapshots, from the time stencil of the earliest time its consumer
will still query (`keep_from`) to the latest step, so its memory grows with
the grid and the consumer's stride, not with the horizon.  It creates its
workspace on the first step and holds at most one time slice between
snapshots, with only the fields read at its time.

A homentropic state (S the same finite value, not -0.0, at every node)
keeps its entropy exactly under the scheme, so `step` evolves only
(rho, vx, vy) from it and its snapshots share one entropy array.  The
gradient guard and the CFL limit take their maxima of hypot(gx, gy) exactly
from cheap squared-sum passes plus np.hypot at the few cells that can hold
them (`_max_hypot`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flowfield import FlowField

__all__ = [
    "GridState",
    "GridFlow",
    "NonSmoothState",
    "SmoothnessLost",
    "SnapshotDropped",
    "step",
    "smoothness_guard",
    "interpolate_fields",
]


class NonSmoothState(RuntimeError):
    """Raised when a step produces non-positive density or non-finite values."""


class SmoothnessLost(RuntimeError):
    """Raised when advancing a grid flow leaves the smooth regime: the
    gradient guard trips, or a step yields a non-finite field or non-positive
    density (`NonSmoothState`, reported with max_grad = nan)."""

    def __init__(self, time, max_grad):
        super().__init__(f"smoothness lost at t={time} (max_grad={max_grad})")
        self.time = time
        self.max_grad = max_grad


class SnapshotDropped(RuntimeError):
    """Raised when a grid flow is queried at a time whose time stencil its
    window no longer holds: the consumer declared, through `keep_from`, that
    it would not query that early again."""


@dataclass(frozen=True, eq=False)
class GridState:
    """Nodal primitive fields on a periodic box.

    Arrays are indexed [i, j] with node coordinates
    (origin[0] + i*spacing[0], origin[1] + j*spacing[1]); the box is periodic
    with extent n_cells * spacing per axis.  `pressure` caches
    rho ** gamma * exp(S); it is computed at construction unless given.
    """

    rho: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    entropy: np.ndarray
    gamma: float
    origin: tuple
    spacing: tuple
    time: float
    pressure: np.ndarray = None

    def __post_init__(self):
        shape = self.rho.shape
        for name in ("vx", "vy", "entropy"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"field {name} shape {getattr(self, name).shape} != {shape}")
        if min(shape) < 16:
            raise ValueError(f"need at least 16 cells per axis, got {shape}")
        if not np.all(np.isfinite(self.rho)) or np.any(self.rho <= 0.0):
            raise NonSmoothState("non-positive or non-finite density")
        if self.pressure is None:
            object.__setattr__(self, "pressure", _pressure_into(
                self.rho, self.entropy, self.gamma, np.empty(shape), np.empty(shape)))

    @property
    def shape(self):
        return self.rho.shape

    def node_coords(self):
        nx, ny = self.shape
        x = self.origin[0] + self.spacing[0] * np.arange(nx)
        y = self.origin[1] + self.spacing[1] * np.arange(ny)
        return x, y

    def cfl_limit(self, number=0.4, work=None):
        """Largest admissible dt: number * min(dx) / max(|V| + c), with
        c = sqrt(gamma P / rho); `work` is an optional `_Workspace`, whose
        stage inputs and mask serve as scratch (the derivatives a guard left
        in its `grad` slots stay)."""
        if work is None:
            c, buf, tmp, mask = np.empty(self.shape), None, None, None
        else:
            (c, buf, tmp), mask = work.stage[:3], work.mask
        np.multiply(self.pressure, self.gamma, out=c)
        c /= self.rho
        np.sqrt(c, out=c)
        top = _max_hypot(self.vx, self.vy, c, buf, tmp, mask)
        return number * min(self.spacing) / top

    def mass(self):
        """Whole-box mass integral (fixed-order pairwise summation)."""
        return float(np.sum(self.rho)) * self.spacing[0] * self.spacing[1]


class _Workspace:
    """Buffers that `step`, `smoothness_guard` and `interpolate_fields`
    reuse on one grid shape.

    Per axis, the wrap-around edge lines of the field being differentiated
    (`_d4_into`); one set of RK4 stage inputs and one of stage slopes; the
    ten first derivatives the right-hand side reads; the stage pressure, a
    scratch array and a boolean mask.  No snapshot ever points into these
    buffers.

    `interpolate_fields` gathers its 4x4 patches entry-major
    (`patch_buffers`): entry (a, b) of every point's patch is one contiguous
    row of N values, so the weights and the sum over the patch run as whole
    row passes.  Those buffers grow to the largest point count seen;
    allocated per query, they were paged in afresh on every query.  A
    `GridFlow` combines its time slice in one held full-grid buffer per
    field (`slice_buffer`), with `scratch` as the term buffer.

    `grad_state` is the state whose rho, vx, vy and P derivatives
    `smoothness_guard` left in the `grad` slots that the right-hand side
    reads for them, or None; the next `step` from that state reuses them for
    its first slope, and `_rhs` clears it when it overwrites the slots.
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        self.edges = (_edge_buffers(shape, 0), _edge_buffers(shape, 1))
        self.stage = tuple(np.empty(shape) for _ in range(4))
        self.slope = tuple(np.empty(shape) for _ in range(4))
        self.grad = tuple(np.empty(shape) for _ in range(10))
        self.pressure = np.empty(shape)
        self.scratch = np.empty(shape)
        self.mask = np.empty(shape, dtype=bool)
        self.grad_state = None
        self._flat = np.empty(0, dtype=np.intp)
        self._patch = np.empty(0)
        self._slice = {}

    def patch_buffers(self, n):
        """Flat node indices and gathered values of n 4x4 patches, as
        contiguous (4, 4, n) arrays."""
        if self._flat.size < 16 * n:
            self._flat = np.empty(16 * n, dtype=np.intp)
            self._patch = np.empty(16 * n)
        return (self._flat[:16 * n].reshape(4, 4, n),
                self._patch[:16 * n].reshape(4, 4, n))

    def slice_buffer(self, name):
        """The held full-grid buffer of time-slice field `name`."""
        buf = self._slice.get(name)
        if buf is None:
            buf = self._slice[name] = np.empty(self.shape)
        return buf

    def check(self, state):
        if state.shape != self.shape:
            raise ValueError(f"workspace for {self.shape} given a {state.shape} state")


def _edge_buffers(shape, axis):
    """The gathered edge lines of `_d4_into` along `axis`, with their
    result and scratch arrays."""
    lines = list(shape)
    lines[axis] = 8
    result = list(shape)
    result[axis] = 4
    return np.empty(lines), np.empty(result), np.empty(result)


def _lines(axis, start, stop):
    return (slice(start, stop),) if axis == 0 else (slice(None), slice(start, stop))


def _d4_core(fm2, fm1, fp1, fp2, h, out, tmp):
    """out = (8 (fp1 - fm1) - (fp2 - fm2)) / (12 h), in that order."""
    np.subtract(fp1, fm1, out=out)
    out *= 8.0
    np.subtract(fp2, fm2, out=tmp)
    out -= tmp
    out /= 12.0 * h


def _d4_into(f, h, axis, out, edges, tmp):
    """Write the 4th-order centered first derivative of f along `axis` into
    `out`: (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / (12 h).

    Lines 2 .. n-3 come from contiguous shifted slices of f; along axis 1
    these are slices of the flattened array, whose neighbours across a row
    end are wrong in the first and last two columns.  The lines 0, 1, n-2
    and n-1 are then (re)done from `edges`: the lines n-4 .. n-1, 0 .. 3 of f
    gathered into a small buffer, with its own result and scratch arrays."""
    n = f.shape[axis]
    src, dst, scr = (f, out, tmp) if axis == 0 else (
        f.reshape(-1), out.reshape(-1), tmp.reshape(-1))
    m = len(src)
    _d4_core(src[0:m - 4], src[1:m - 3], src[3:m - 1], src[4:m], h,
             dst[2:m - 2], scr[2:m - 2])
    edge, e_out, e_tmp = edges
    edge[_lines(axis, 0, 4)] = f[_lines(axis, n - 4, n)]
    edge[_lines(axis, 4, 8)] = f[_lines(axis, 0, 4)]
    _d4_core(*(edge[_lines(axis, k, k + 4)] for k in (0, 1, 3, 4)), h, e_out, e_tmp)
    out[_lines(axis, n - 2, n)] = e_out[_lines(axis, 0, 2)]
    out[_lines(axis, 0, 2)] = e_out[_lines(axis, 2, 4)]
    return out


def _max_hypot(gx, gy, add=0.0, buf=None, tmp=None, mask=None):
    """float((np.hypot(gx, gy) + add).max()), exactly, for add >= 0.

    np.hypot costs several times a plain multiply or sqrt pass, so the
    maximum is found on sqrt(gx**2 + gy**2) + add first.  Where its squares
    neither overflow nor underflow that value is within a few ulp of
    hypot(gx, gy) + add, so every cell that can hold the exact maximum lies
    within 1e-12 (relative) of its maximum `top`; np.hypot runs on those
    cells alone.  A `top` that is not finite, or below 1e-140 (squares of
    that size lose their precision to underflow), sends the whole array to
    np.hypot.  `buf` and `tmp` are float scratch arrays and `mask` a
    boolean one of the fields' shape."""
    buf = np.empty(gx.shape) if buf is None else buf
    tmp = np.empty(gx.shape) if tmp is None else tmp
    mask = np.empty(gx.shape, dtype=bool) if mask is None else mask
    shifted = np.ndim(add) > 0 or add != 0.0
    np.multiply(gx, gx, out=buf)
    np.multiply(gy, gy, out=tmp)
    buf += tmp
    np.sqrt(buf, out=buf)
    if shifted:
        buf += add
    top = float(buf.max())
    if not (np.isfinite(top) and top >= 1e-140):
        np.hypot(gx, gy, out=buf)
        if shifted:
            buf += add
        return float(buf.max())
    near = np.flatnonzero(np.greater_equal(buf, top - 1e-12 * top, out=mask))
    exact = np.hypot(gx.reshape(-1)[near], gy.reshape(-1)[near])
    if shifted:
        exact += add.reshape(-1)[near] if np.ndim(add) else add
    return float(exact.max())


def _pressure_into(rho, entropy, gamma, out, tmp):
    """out = rho ** gamma * exp(entropy), the pressure of the state relation."""
    out[...] = rho
    out **= gamma               # the same power dispatch as `rho ** gamma`
    np.exp(entropy, out=tmp)
    out *= tmp
    return out


def _advection_into(vx, vy, fx, fy, out):
    """out = -(vx * fx + vy * fy); overwrites fx and fy."""
    np.multiply(vx, fx, out=fx)
    np.multiply(vy, fy, out=fy)
    np.add(fx, fy, out=out)
    np.negative(out, out=out)


# Positions in (rho, vx, vy, S, p) of the fields `smoothness_guard`
# differentiates; their derivatives go to grad[2 i] and grad[2 i + 1].
_GUARDED = (0, 1, 2, 4)


def _rhs(u, p, dx, dy, out, work, done=()):
    """Fill `out` with the time derivatives of u = (rho, vx, vy, S) whose
    pressure is p:
        drho = -(vx rho_x + vy rho_y) - rho (vx_x + vy_y)
        dvx  = -(vx vx_x + vy vx_y) - p_x / rho
        dvy  = -(vx vy_x + vy vy_y) - p_y / rho
        dS   = -(vx S_x + vy S_y)

    A frozen entropy (see `step`) is left out: u = (rho, vx, vy), and `out`
    gets the first three derivatives only.  `done` lists the positions in
    (rho, vx, vy, S, p) whose derivatives `work.grad` already holds.
    """
    rho, vx, vy = u[:3]
    grad, tmp = work.grad, work.scratch
    for i, f in [*enumerate(u), (4, p)]:
        if i not in done:
            _d4_into(f, dx, 0, grad[2 * i], work.edges[0], tmp)
            _d4_into(f, dy, 1, grad[2 * i + 1], work.edges[1], tmp)
    work.grad_state = None                      # the slots are overwritten below
    rho_x, rho_y, vx_x, vx_y, vy_x, vy_y, s_x, s_y, p_x, p_y = grad
    drho, dvx, dvy = out[:3]
    np.add(vx_x, vy_y, out=tmp)                 # the divergence
    tmp *= rho
    _advection_into(vx, vy, rho_x, rho_y, drho)
    drho -= tmp
    _advection_into(vx, vy, vx_x, vx_y, dvx)
    p_x /= rho
    dvx -= p_x
    _advection_into(vx, vy, vy_x, vy_y, dvy)
    p_y /= rho
    dvy -= p_y
    if len(u) == 4:
        _advection_into(vx, vy, s_x, s_y, out[3])


def _stage_into(u0, k, h, out):
    """out = u0 + h * k, field by field."""
    for f, kf, o in zip(u0, k, out):
        np.multiply(kf, h, out=o)
        o += f


def _frozen(entropy, mask):
    """True when every entropy value has the bits of one finite float64
    that is not -0.0 (`mask` is a boolean scratch array of its shape)."""
    if entropy.dtype != np.float64:
        return False
    first = entropy.flat[0]
    bits = entropy.view(np.int64)
    return bool(np.isfinite(first) and not np.signbit(first)
                and np.equal(bits, bits.flat[0], out=mask).all())


def step(state, dt, work=None):
    """One RK4 step of the Euler system; returns a new GridState.

    dt must respect the advisory CFL bound 0.4*min(dx)/max(|V|+c); the step
    refuses to run otherwise instead of silently producing garbage.  A stage
    density that goes negative, or a non-finite new field, raises
    `NonSmoothState`.

    `work` is a `_Workspace` for the state's shape; with it the step
    allocates only the arrays of the state it returns and the scratch of
    its pressure.  Without it the step uses a workspace of its own.  The
    slopes are summed as ((k1 + 2 k2) + 2 k3) + k4 straight into the new
    state's arrays, stage by stage, so one set of slope buffers serves k2,
    k3 and k4.

    A homentropic state keeps its entropy: when S holds the bits of one
    finite value other than -0.0, its centred differences are exactly +0,
    so every dS is +-0 and every RK stage, and the new state, would carry S
    bit for bit.  The step then evolves (rho, vx, vy) alone and the new
    state shares the `entropy` array of this one.  (A -0.0 field, or one
    mixing the two zeros, can turn -0.0 cells into +0.0, so it takes the
    general path.)
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if work is None:
        work = _Workspace(state.shape)
    work.check(state)
    limit = state.cfl_limit(work=work)
    if dt > limit * (1.0 + 1e-9):
        raise ValueError(f"CFL violated: dt={dt} exceeds limit {limit}")

    dx, dy = state.spacing
    gamma = state.gamma
    n = 3 if _frozen(state.entropy, work.mask) else 4
    u0 = (state.rho, state.vx, state.vy, state.entropy)[:n]
    u, k = work.stage[:n], work.slope[:n]
    stage_entropy = u[3] if n == 4 else state.entropy
    new = tuple(np.empty(state.shape) for _ in range(n))

    def slope_into(out):
        # A stage density below zero has no pressure: stop at it rather
        # than run the remaining stages on NaN.
        try:
            with np.errstate(invalid="raise"):
                p = _pressure_into(u[0], stage_entropy, gamma, work.pressure,
                                   work.scratch)
        except FloatingPointError as exc:
            raise NonSmoothState(
                f"stage pressure not defined in the step from t={state.time}") from exc
        _rhs(u, p, dx, dy, out, work)

    # k1 goes straight into the new arrays; state.pressure is the same
    # rho ** gamma * exp(S) that `slope_into` computes for the other stages.
    # A guard call on this state left four of its derivatives in `work`.
    _rhs(u0, state.pressure, dx, dy, new, work,
         _GUARDED if work.grad_state is state else ())
    _stage_into(u0, new, 0.5 * dt, u)
    slope_into(k)                                           # k2
    _stage_into(u0, k, 0.5 * dt, u)
    for acc, kf in zip(new, k):
        kf *= 2.0
        acc += kf
    slope_into(k)                                           # k3
    _stage_into(u0, k, dt, u)
    for acc, kf in zip(new, k):
        kf *= 2.0
        acc += kf
    slope_into(k)                                           # k4
    for f, acc, kf in zip(u0, new, k):
        acc += kf
        acc *= dt / 6.0
        acc += f

    # The new GridState checks its density before it takes the pressure.
    for f in new[1:]:
        if not np.isfinite(f, out=work.mask).all():
            raise NonSmoothState(f"non-finite field after step at t={state.time + dt}")
    entropy = new[3] if n == 4 else state.entropy
    return GridState(rho=new[0], vx=new[1], vy=new[2], entropy=entropy,
                     gamma=gamma, origin=state.origin, spacing=state.spacing,
                     time=state.time + dt)


class GuardReport(NamedTuple):
    max_grad: float
    ok: bool


def smoothness_guard(state, threshold=np.inf, work=None):
    """Max discrete gradient norm over (rho, vx, vy, P) vs. a threshold.

    `work` is an optional `_Workspace` for the state's shape, whose stage
    inputs and mask serve as scratch.  The derivatives stay in its `grad`
    slots, where the first slope of a `step` from this state reads them."""
    if work is None:
        work = _Workspace(state.shape)
    work.check(state)
    dx, dy = state.spacing
    u = (state.rho, state.vx, state.vy, state.entropy, state.pressure)
    worst = 0.0
    buf, tmp = work.stage[:2]
    for i in _GUARDED:
        gx, gy = work.grad[2 * i], work.grad[2 * i + 1]
        _d4_into(u[i], dx, 0, gx, work.edges[0], work.scratch)
        _d4_into(u[i], dy, 1, gy, work.edges[1], work.scratch)
        worst = max(worst, _max_hypot(gx, gy, 0.0, buf, tmp, work.mask))
    work.grad_state = state
    return GuardReport(max_grad=worst, ok=worst <= threshold)


# -- interpolation -----------------------------------------------------------

def _lagrange_weights(u):
    """Cubic Lagrange weights for nodes at offsets (-1, 0, 1, 2) at offset u,
    stacked on a leading axis of length 4:
        -u (u - 1) (u - 2) / 6,  (u + 1) (u - 1) (u - 2) / 2,
        -(u + 1) u (u - 2) / 2,  (u + 1) u (u - 1) / 6,
    each multiplied left to right, in place."""
    u = np.asarray(u, dtype=float)
    up1, um1, um2 = u + 1.0, u - 1.0, u - 2.0
    w = np.empty((4, *u.shape))
    for k, (first, second, third, div) in enumerate((
            (-u, um1, um2, 6.0), (up1, um1, um2, 2.0),
            (-up1, u, um2, 2.0), (up1, u, um1, 6.0))):
        row = w[k, ...]
        np.multiply(first, second, out=row)
        row *= third
        row /= div
    return w


def _sum_rows(rows, out=None):
    """0 + rows[0] + rows[1] + ..., added left to right, a whole row at a time.

    np.add.reduce along the first axis of a (k, n) array adds the rows in
    that order, except on a single column (n == 1), which it sums pairwise;
    that column takes the explicit loop."""
    if rows.shape[1] != 1:
        return np.add.reduce(rows, axis=0, out=out, initial=0.0)
    out = np.empty(1) if out is None else out
    out[...] = 0.0
    for row in rows:
        out += row
    return out


def interpolate_fields(state, pts, fields=None, work=None, out=None):
    """Bicubic (separable cubic Lagrange) interpolation at points (N, 2).

    Periodic wrap in both axes; exact at grid nodes and for polynomials up to
    cubic per axis.  Returns a dict of sampled arrays.  `work` is an optional
    `_Workspace` whose patch buffers are used; `out` is an optional
    (len(fields), N) array whose rows receive the fields, in order.

    The value at a point is the sum over its 4x4 patch f[a, b] of
    (wx[a] f[a, b]) wy[b], added from 0 in patch order:
    ((0 + (wx[0] f[0, 0]) wy[0]) + (wx[0] f[0, 1]) wy[1]) + ...  These are
    the products and the order of np.einsum("pi,pij,pj->p", wx, patch, wy),
    so the result is einsum's bit for bit (a sum of -0.0 terms is +0.0).
    The patches are gathered entry-major, (4, 4, N), so the two weightings
    and the sum are whole-row passes.
    """
    if fields is None:
        fields = {"rho": state.rho, "vx": state.vx, "vy": state.vy,
                  "entropy": state.entropy}
    pts = np.asarray(pts, dtype=float)
    nx, ny = state.shape
    dx, dy = state.spacing

    fx = (pts[:, 0] - state.origin[0]) / dx
    fy = (pts[:, 1] - state.origin[1]) / dy
    ix = np.floor(fx).astype(int)
    iy = np.floor(fy).astype(int)
    # The weights of both axes in one pass: (4, 2, N).
    u = np.empty((2, len(pts)))
    np.subtract(fx, ix, out=u[0])
    np.subtract(fy, iy, out=u[1])
    wx, wy = _lagrange_weights(u).transpose(1, 0, 2)        # each (4, N)
    # Flat node index of the 4x4 patch of every point: rows[a] + cols[b] is
    # the node in patch row a, column b.  Every field is gathered into the
    # same patch buffer.
    offs = np.arange(-1, 3)[:, None]
    rows = ix + offs                                        # (4, N)
    rows %= nx
    rows *= ny
    cols = iy + offs
    cols %= ny
    n = len(pts)
    flat, patch = (work.patch_buffers(n) if work is not None else
                   (np.empty((4, 4, n), dtype=np.intp), np.empty((4, 4, n))))
    np.add(rows[:, None], cols, out=flat)

    result = {}
    for i, (name, f) in enumerate(fields.items()):
        # Indices are in range, so "clip" changes nothing; it lets take
        # write into `patch` without an intermediate copy.
        np.asarray(f, dtype=float).ravel().take(flat, out=patch, mode="clip")
        patch *= wx[:, None]
        patch *= wy
        result[name] = _sum_rows(patch.reshape(16, n), None if out is None else out[i])
    return result


class GridFlow(FlowField):
    """A stepper run exposed as a FlowField.

    Snapshots accumulate as the flow is advanced, and queries interpolate
    them.  Querying beyond the advanced time is an error: callers advance
    explicitly so that failures to integrate surface where they happen.

    A query depends on t alone, not on how far the flow was advanced: the
    time stencil of t is always the cubic one through the snapshot before
    t's grid interval, its two ends and the snapshot after it (the first
    four snapshots in the first interval).  The flow therefore keeps one
    snapshot of look-ahead: `t_last`, the latest time it answers for, is
    the time of the next-to-last snapshot once there are four, else `t0`,
    and `advance_to(t)` steps one snapshot past t.

    The flow holds a window of snapshots, not the whole run.  A consumer
    names the earliest time it will still query with `keep_from(t)`; from
    then on the flow holds only the snapshots from t's time stencil on (and
    always the last two, which `t_last` and the next step need), and drops
    older ones as it steps.  A consumer that steps along with its queries,
    calling `keep_from` at each of its sample times, so holds about one
    sample stride of snapshots, whatever the horizon.  Until `keep_from` is
    called the flow keeps everything.  A query whose stencil was dropped
    raises `SnapshotDropped`.  `keep_from(t)` with t's stencil behind the
    window restarts the window at the initial state, which the flow always
    keeps; the next `advance_to` replays the same deterministic steps, so
    every snapshot, and every answer, is bit for bit the one of the first
    run.

    The first `advance_to` that steps creates a `_Workspace` for the grid
    shape, which every later step, guard call and interpolation reuses, so a
    step allocates only the state it returns.  A query between snapshots
    reads a full-grid time slice; the flow holds at most one such slice,
    keyed on t, so the RK4 stages of an advection step that share a time,
    and the velocity, density and entropy queries of one sample, share it.
    The slice combines the density when it is built (a non-positive one
    raises `NonSmoothState`) and any other field only when it is first
    read, so velocity queries never combine the entropy; it is let go when
    its stencil leaves the window.  Its fields live in the workspace's
    slice buffers, one per field, which the next slice overwrites; a query
    returns fresh arrays, never a view of them.  The held slice and the
    workspace make a grid flow unsafe to query from several threads at
    once.
    """

    def __init__(self, initial, step_dt, guard_threshold=np.inf):
        # The grid is the whole (periodic) space, so its minimum is the floor.
        super().__init__(2, initial.gamma, entropy_floor=initial.entropy.min())
        if step_dt <= 0.0:
            raise ValueError("step_dt must be positive")
        self.step_dt = float(step_dt)
        self.guard_threshold = float(guard_threshold)
        self._initial = initial
        # The window: snapshots number _base, _base + 1, ... of the run
        # (number 0 is the initial state); _keep is the number of the first
        # snapshot the consumer will still query.
        self._states = [initial]
        self._base = self._keep = 0
        self._work = None
        # The held time slice: its t, the number of its stencil's first
        # snapshot, the stencil, its weights and the fields combined so far.
        self._slice = None

    @property
    def t0(self):
        return self._initial.time

    @property
    def t_last(self):
        states = self._states
        return states[-2].time if self._base + len(states) >= 4 else self.t0

    @property
    def states(self):
        """The snapshots the window holds, oldest first."""
        return tuple(self._states)

    def _stencil_start(self, t):
        """Number of the first snapshot of t's time stencil."""
        return max(int(np.floor((t - self.t0) / self.step_dt)) - 1, 0)

    def keep_from(self, t):
        """Hold only the snapshots that queries at time t and later need.

        A t whose stencil lies behind the window restarts it at the initial
        state; the next `advance_to` replays the steps."""
        k = self._stencil_start(t)
        if k < self._base:
            self._states, self._base = [self._initial], 0
            self._slice = None
        self._keep = k
        self._trim()

    def _trim(self):
        drop = min(self._keep - self._base, len(self._states) - 2)
        if drop > 0:
            del self._states[:drop]
            self._base += drop
            if self._slice is not None and self._slice[1] < self._base:
                self._slice = None              # its stencil left the window

    def advance_to(self, t):
        """Step the solver until the window covers time t's stencil,
        dropping the snapshots that `keep_from` released as it steps.

        Raises SmoothnessLost when the guard trips or a step is not smooth;
        the window then ends at the last state before it.
        """
        while self.t_last < t - 1e-12:
            try:
                nxt = step(self._states[-1], self.step_dt, work=self._workspace())
            except NonSmoothState as exc:
                raise SmoothnessLost(self._states[-1].time + self.step_dt,
                                     np.nan) from exc
            if np.isfinite(self.guard_threshold):
                report = smoothness_guard(nxt, self.guard_threshold, work=self._work)
                if not report.ok:
                    raise SmoothnessLost(nxt.time, report.max_grad)
            self._states.append(nxt)
            self._trim()

    def _workspace(self):
        if self._work is None:
            self._work = _Workspace(self._initial.shape)
        return self._work

    def check_time(self, t):
        if t < self.t0 - 1e-12 or t > self.t_last + 1e-12:
            raise ValueError(
                f"grid flow not advanced to t={t} (have [{self.t0}, {self.t_last}])")

    def _held(self, k, count, t):
        """Snapshots number k .. k + count - 1 that the window holds (fewer
        past its end)."""
        if k < self._base:
            raise SnapshotDropped(
                f"grid flow dropped the snapshots of t={t} (its window starts "
                f"at t={self._states[0].time})")
        return self._states[k - self._base:k - self._base + count]

    def _time_slice(self, t, names):
        """The fields `names`, cubic-Lagrange-combined in time at t (full
        nodal arrays).

        The flow holds the slice of one t: its stencil, its weights and the
        fields combined so far, each combined the first time it is read,
        into the workspace's buffer of that field.  The density is combined,
        and checked finite and positive, as the slice is built."""
        def combined(name):
            # sum(wi * f_i): (((0 + w0 f0) + w1 f1) + w2 f2) + w3 f3.  The
            # leading 0 + only turns a -0.0 sum into +0.0, so it comes last.
            work = self._workspace()
            acc, term = work.slice_buffer(name), work.scratch
            fs = [getattr(s, name) for s in stencil]
            np.multiply(fs[0], w[0], out=acc)
            for wi, f in zip(w[1:], fs[1:]):
                np.multiply(f, wi, out=term)
                acc += term
            acc += 0.0
            return acc

        if self._slice is None or self._slice[0] != t:
            self._slice = None                  # free it before the next
            k = self._stencil_start(t)
            stencil = self._held(k, 4, t)
            w = _lagrange_weights((t - stencil[1].time) / self.step_dt)
            rho = combined("rho")
            if not np.all(np.isfinite(rho)) or np.any(rho <= 0.0):
                raise NonSmoothState("non-positive or non-finite density")
            self._slice = (t, k, stencil, w, {"rho": rho})
        _, _, stencil, w, fields = self._slice
        for n in names:
            if n not in fields:
                fields[n] = combined(n)
        return {n: fields[n] for n in names}

    def _nearest_snapshot(self, t):
        k = int(round((t - self.t0) / self.step_dt))
        if 0 <= k < self._base + len(self._states):
            (state,) = self._held(k, 1, t)
            if abs(state.time - t) <= 1e-12:
                return state
        return None

    def _sample(self, t, pts, names, out=None):
        self.check_time(t)
        state = self._nearest_snapshot(t)
        if state is None:
            state, fields = self._states[-1], self._time_slice(t, names)
        else:
            fields = {n: getattr(state, n) for n in names}
        return interpolate_fields(state, pts, fields, work=self._work, out=out)

    def velocity(self, t, pts):
        pts = self._pts(pts)
        flat = pts.reshape(-1, 2)
        out = np.empty(flat.shape)
        self._sample(t, flat, ("vx", "vy"), out=out.T)
        return out.reshape(pts.shape)

    def density(self, t, pts):
        pts = self._pts(pts)
        flat = pts.reshape(-1, 2)
        rho = self._sample(t, flat, ("rho",))["rho"]
        return rho.reshape(pts.shape[:-1])

    def entropy(self, t, pts):
        pts = self._pts(pts)
        flat = pts.reshape(-1, 2)
        s = self._sample(t, flat, ("entropy",))["entropy"]
        return s.reshape(pts.shape[:-1])
