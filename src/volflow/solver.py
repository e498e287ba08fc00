"""Finite-difference compressible Euler stepper on a 2-D periodic box.

The stepper advances the primitive fields (rho, vx, vy, S) in
nonconservative form with classical RK4 in time and 4th-order centered
differences in space.  That combination is only meant for the smooth regime:
no shock capturing, no limiting.  The centered stencils are skew-symmetric on
the periodic grid, which makes the whole-box mass integral an exact invariant
of the semi-discretization (and of every RK stage), so mass is conserved to
rounding per step.

Every array the solver holds, differentiates or interpolates has one
layout: the (n0, n1) nodes sit at [2:-2, 2:-2] of an (n0 + 4, n1 + 4)
array, and the two ghost lines on each side hold periodic copies of the
nodes (ghost cells; LeVeque, Finite Volume Methods for Hyperbolic
Problems, 2002, 7.1).  So a centred difference and a bicubic patch read
their periodic neighbours straight from the array, with no wrap-around
code.  A state's arrays are built padded (`GridState.from_nodes`), and a
step refills the halo of every stage and of the new state before anything
reads it.

The stepper works in reused buffers (`_Workspace`: one set of RK4 stage
inputs, one set of stage slopes, the ten derivatives of the right-hand
side, one pressure, scratch), which the caller passes in, so a step
allocates only the state it returns.  The workspace's pressure is that of
one state or stage at a time, keyed by the state it belongs to; a state
itself holds no pressure.  Every buffered operation is the one the plain
NumPy expression would perform on the nodes, in the same order, so results
are bit-for-bit those of the unbuffered formulas.

A `GridFlow` wraps a run of the stepper as a queryable flow, bicubic in
space and cubic in time, consistent with the scheme's order.  It holds the
snapshots from the earliest time its consumer will still query, so its
memory grows with the grid, not with the horizon, and re-steps any that a
query needs again.

A homentropic state (S the same finite value, not -0.0, at every node)
keeps its entropy exactly under the scheme, so `step` evolves only
(rho, vx, vy) from it and its snapshots share one entropy array.  The
workspace works out once per entropy array whether it is frozen so, and
its exp(S), which every pressure of those states then takes as one factor.
The CFL limit takes the plain maximum of sqrt(vx * vx + vy * vy) + c, and
the gradient guard the sqrt of the largest gx * gx + gy * gy: squares that
overflow read inf, so an infinite top speed admits no step and an
overflowing gradient trips any finite threshold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flowfield import FlowField, NotSmooth

__all__ = [
    "CFLViolation",
    "GridState",
    "GridFlow",
    "SmoothnessLost",
    "SnapshotDropped",
    "step",
    "smoothness_guard",
    "interpolate_fields",
]


class CFLViolation(RuntimeError):
    """Raised when a step's dt exceeds the state's CFL limit."""


class SmoothnessLost(RuntimeError):
    """Raised when advancing a grid flow leaves the smooth regime: the
    gradient guard trips, or a step yields a non-finite field or non-positive
    density (`NotSmooth`, reported with max_grad = nan)."""

    def __init__(self, time, max_grad):
        super().__init__(f"smoothness lost at t={time} (max_grad={max_grad})")
        self.time = time
        self.max_grad = max_grad


class SnapshotDropped(RuntimeError):
    """Raised when a grid flow is queried at a time whose time stencil it no
    longer holds: the consumer declared, through `keep_from`, that it would
    not query that early again."""


# The node rows of a padded array, ghost columns included; the nodes are
# [_BAND, _BAND].
_BAND = slice(2, -2)


def _fill_halo(f):
    """Copy the nodes' periodic images into the two ghost lines on each side
    of the padded array f: rows first, then whole columns, so that the
    corners are right too."""
    f[:2] = f[-4:-2]
    f[-2:] = f[2:4]
    f[:, :2] = f[:, -4:-2]
    f[:, -2:] = f[:, 2:4]


@dataclass(frozen=True, eq=False)
class GridState:
    """Primitive fields on a periodic box, in padded arrays.

    Node (i, j), at (origin[0] + i*spacing[0], origin[1] + j*spacing[1]),
    is element [i + 2, j + 2] of each array, and the ghost lines hold its
    periodic copies; the box is periodic with extent `shape` * spacing per
    axis.  `from_nodes` builds a state from nodal arrays.  A state holds only
    the fields that queries read; its pressure rho ** gamma * exp(S) is
    computed on demand (`pressure`), and a step takes it from its
    `_Workspace`, which holds the pressure of one state at a time.
    """

    rho: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    entropy: np.ndarray
    gamma: float
    origin: tuple
    spacing: tuple
    time: float

    def __post_init__(self):
        shape = self.rho.shape
        for name in ("vx", "vy", "entropy"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"field {name} shape {getattr(self, name).shape} != {shape}")
        if min(self.shape) < 16:
            raise ValueError(f"need at least 16 cells per axis, got {self.shape}")
        if not np.all(np.isfinite(self.rho)) or np.any(self.rho <= 0.0):
            raise NotSmooth("non-positive or non-finite density", ())

    @classmethod
    def from_nodes(cls, rho, vx, vy, entropy, gamma, origin, spacing, time):
        """The state whose nodal fields are the (n0, n1) arrays given: each
        is copied into a padded array with its halo filled."""
        def padded(f):
            return np.pad(np.asarray(f, dtype=float), 2, mode="wrap")
        return cls(padded(rho), padded(vx), padded(vy), padded(entropy), gamma,
                   origin, spacing, time)

    @property
    def shape(self):
        """The node shape (n0, n1)."""
        return tuple(n - 4 for n in self.rho.shape)

    @property
    def pressure(self):
        """rho ** gamma * exp(S), in a fresh padded array on each access:
        the values `_Workspace.state_pressure` computes."""
        with np.errstate(over="ignore"):
            exp_s = np.exp(self.entropy)
        return _pressure_into(self.rho, exp_s, self.gamma, np.empty(self.rho.shape))

    def cfl_limit(self, work):
        """Largest admissible dt: 0.4 * min(dx) / max(|V| + c), the fixed
        CFL number 0.4, with c = sqrt(gamma P / rho) and |V| =
        sqrt(vx * vx + vy * vy).  `work` is a `_Workspace` for the state's
        shape, which supplies the pressure (`state_pressure`) and whose
        stage inputs serve as scratch (the derivatives a guard left in its
        `grad` slots stay).  A top speed that is not finite (an overflowing
        pressure, or a speed whose square overflows) raises
        `NotSmooth`: the state admits no step.  It reads the whole
        padded arrays: the halo holds copies, so their maximum is the
        nodes'."""
        c, speed, tmp = work.stage[:3]
        np.multiply(work.state_pressure(self), self.gamma, out=c)
        c /= self.rho
        np.sqrt(c, out=c)
        with np.errstate(over="ignore"):
            np.multiply(self.vx, self.vx, out=speed)
            np.multiply(self.vy, self.vy, out=tmp)
        speed += tmp
        np.sqrt(speed, out=speed)
        speed += c
        top = float(speed.max())
        if not np.isfinite(top):
            raise NotSmooth(f"top wave speed {top} at t={self.time}", ())
        return 0.4 * min(self.spacing) / top


class _Workspace:
    """Buffers that `step`, `GridState.cfl_limit`, `smoothness_guard` and
    `interpolate_fields` reuse on one grid shape (`shape`, the node shape).

    One set of RK4 stage inputs, which the CFL limit and the guard also take
    as the scratch of their squares, and one of stage slopes; the ten first
    derivatives the right-hand side reads; one pressure, a scratch array and
    a boolean mask.  Each is a padded array, like a state's fields.  A stage
    input and the pressure have their halo filled before anything reads
    them; the derivatives and slopes are written on the node rows, and only
    their nodes are read as results.  No snapshot ever points into these
    buffers.

    `pressure` holds the pressure of one state at a time: of
    `pressure_state`, filled by `state_pressure`, or of an RK4 stage
    (`pressure_state` None).  In a `GridFlow` with a guard, the guard fills
    it for the new state, the next step's CFL limit and first slope read it,
    and the stages overwrite it; without a guard, the CFL limit fills it.

    `frozen_exp` tells whether an entropy array is frozen (see `step`) and
    gives its exp(S) as one float, worked out once for the last entropy
    array seen: all snapshots of a homentropic flow share theirs, so the
    steps and pressures of the flow scan it and take its np.exp once.  A
    state's arrays are never written after it is built, so the array
    object stands for its values.

    `interpolate_fields` gathers its 4x4 patches entry-major
    (`patch_buffers`): entry (a, b) of every point's patch is one contiguous
    row of N values, so the weights and the sum over the patch run as whole
    row passes.  Those buffers grow to the largest point count seen.  A
    `GridFlow` combines its time slice in the `slope` buffers, which nothing
    reads between steps, with `scratch` as the term buffer; it drops the
    slice before it steps.

    `grad_state` is the state whose rho, vx, vy and P derivatives
    `smoothness_guard` left in the `grad` slots that the right-hand side
    reads for them, or None; the next `step` from that state reuses them for
    its first slope, and `_rhs` clears it when it overwrites the slots.
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        padded = tuple(n + 4 for n in shape)
        self.stage = tuple(np.empty(padded) for _ in range(4))
        self.slope = tuple(np.empty(padded) for _ in range(4))
        self.grad = tuple(np.empty(padded) for _ in range(10))
        self.pressure = np.empty(padded)
        self.scratch = np.empty(padded)
        self.mask = np.empty(padded, dtype=bool)
        self.grad_state = None
        self.pressure_state = None
        self._entropy = (None, None)        # an entropy array, its frozen_exp
        self._flat = np.empty(0, dtype=np.intp)
        self._patch = np.empty(0)

    def frozen_exp(self, entropy):
        """exp(S) as one float if the entropy array is frozen, else None.

        Frozen means that `_frozen` holds and that np.exp of the array, the
        call a pressure makes, gives one value at every node.  A pressure
        may then multiply by that float: x * e is the same whether e is a
        float or an array of e.  `scratch` and `mask` serve as scratch."""
        if self._entropy[0] is not entropy:
            factor = None
            if _frozen(entropy, self.mask):
                with np.errstate(over="ignore"):
                    e = np.exp(entropy, out=self.scratch)
                if np.equal(e, e.flat[0], out=self.mask).all():
                    factor = float(e.flat[0])
            self._entropy = (entropy, factor)
        return self._entropy[1]

    def state_pressure(self, state):
        """`pressure`, holding the pressure of `state`.  Unless it holds
        that already, the pressure is computed into it, with `scratch`
        taking exp(S) where S is not frozen; an exp(S) that overflows is
        left infinite, for `GridState.cfl_limit` to reject."""
        if self.pressure_state is not state:
            exp_s = self.frozen_exp(state.entropy)
            if exp_s is None:
                with np.errstate(over="ignore"):
                    exp_s = np.exp(state.entropy, out=self.scratch)
            _pressure_into(state.rho, exp_s, state.gamma, self.pressure)
            self.pressure_state = state
        return self.pressure

    def patch_buffers(self, n):
        """Flat node indices and gathered values of n 4x4 patches, as
        contiguous (4, 4, n) arrays."""
        if self._flat.size < 16 * n:
            self._flat = np.empty(16 * n, dtype=np.intp)
            self._patch = np.empty(16 * n)
        return (self._flat[:16 * n].reshape(4, 4, n),
                self._patch[:16 * n].reshape(4, 4, n))

    def check(self, state):
        if state.shape != self.shape:
            raise ValueError(f"workspace for {self.shape} given a {state.shape} state")


def _d4_core(fm2, fm1, fp1, fp2, h, out, tmp):
    """out = (8 (fp1 - fm1) - (fp2 - fm2)) / (12 h), in that order."""
    np.subtract(fp1, fm1, out=out)
    out *= 8.0
    np.subtract(fp2, fm2, out=tmp)
    out -= tmp
    out /= 12.0 * h


def _d4_into(f, h, axis, out, tmp):
    """Write the 4th-order centered first derivative of the padded field f
    along `axis` into the node rows of `out`:
    (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / (12 h).

    In the flattened padded array, i +- 1 and i +- 2 are the shifts +-s
    and +-2s, with s the row width along axis 0 and 1 along axis 1, and the
    halo makes them right at every node: the node rows are one pass over
    four contiguous slices.  Their ghost columns get values that are not
    the derivative (along axis 1 the shifts cross a row end there), and the
    ghost rows of `out` are left as they were."""
    width = f.shape[1]
    s = width if axis == 0 else 1
    lo, hi = 2 * width, f.size - 2 * width
    src = f.reshape(-1)
    fm2, fm1, fp1, fp2 = (src[lo + k * s:hi + k * s] for k in (-2, -1, 1, 2))
    _d4_core(fm2, fm1, fp1, fp2, h, out.reshape(-1)[lo:hi], tmp.reshape(-1)[lo:hi])
    return out


def _pressure_into(rho, exp_s, gamma, out):
    """out = rho ** gamma * exp(S), the pressure of the state relation;
    `exp_s` is exp(S), an array or the one float of a frozen S.  A factor of
    exactly 1.0 is skipped, since x * 1.0 is x."""
    out[...] = rho
    out **= gamma               # the same power dispatch as `rho ** gamma`
    if np.ndim(exp_s) or exp_s != 1.0:
        out *= exp_s
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
    (rho, vx, vy, S, p) whose derivatives `work.grad` already holds.  The
    arithmetic runs over the node rows, and `out` is written there only.
    """
    grad = work.grad
    for i, f in [*enumerate(u), (4, p)]:
        if i not in done:
            _d4_into(f, dx, 0, grad[2 * i], work.scratch)
            _d4_into(f, dy, 1, grad[2 * i + 1], work.scratch)
    work.grad_state = None                      # the slots are overwritten below
    rho, vx, vy = (f[_BAND] for f in u[:3])
    rho_x, rho_y, vx_x, vx_y, vy_x, vy_y, s_x, s_y, p_x, p_y = (g[_BAND] for g in grad)
    drho, dvx, dvy, *ds = (f[_BAND] for f in out)
    tmp = work.scratch[_BAND]
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
    if ds:
        _advection_into(vx, vy, s_x, s_y, ds[0])


def _stage_into(u0, k, h, out):
    """out = u0 + h * k, field by field, on the node rows; then the halo of
    each field of `out`."""
    for f, kf, o in zip(u0, k, out):
        node_rows = o[_BAND]
        np.multiply(kf[_BAND], h, out=node_rows)
        node_rows += f[_BAND]
        _fill_halo(o)


def _frozen(entropy, mask):
    """True when every entropy value has the bits of one finite float64
    that is not -0.0 (`mask` is a boolean scratch array of its shape)."""
    if entropy.dtype != np.float64:
        return False
    first = entropy.flat[0]
    bits = entropy.view(np.int64)
    return bool(np.isfinite(first) and not np.signbit(first)
                and np.equal(bits, bits.flat[0], out=mask).all())


def step(state, dt, work):
    """One RK4 step of the Euler system; returns a new GridState.

    dt must respect the CFL bound `state.cfl_limit`, 0.4*min(dx)/max(|V|+c)
    with its fixed CFL number 0.4; the step refuses to run otherwise
    (`CFLViolation`) instead of silently producing garbage.  A stage density
    that goes negative, or a non-finite new field, raises `NotSmooth`.

    `work` is a `_Workspace` for the state's shape; the step allocates only
    the arrays of the state it returns.  It overwrites the workspace's
    stage, slope, derivative and pressure buffers.  The pressure of `state`
    comes from `work.state_pressure` (computed there unless a guard or CFL
    call on this state left it), and each later stage computes its own into
    the same buffer, from a stage whose halo is filled.  The slopes are
    summed as ((k1 + 2 k2) + 2 k3) + k4 straight into the node rows of the
    new state's arrays, stage by stage, so one set of slope buffers serves
    k2, k3 and k4; the new arrays' halo is filled last.

    A homentropic state keeps its entropy: when S holds the bits of one
    finite value other than -0.0, its centred differences are exactly +0,
    so every dS is +-0 and every RK stage, and the new state, would carry S
    bit for bit.  The step then evolves (rho, vx, vy) alone and the new
    state shares the `entropy` array of this one; every stage pressure
    takes the exp(S) that `work.frozen_exp` worked out once for that array.
    (A -0.0 field, or one mixing the two zeros, can turn -0.0 cells into
    +0.0, so it takes the general path, where each stage takes np.exp of
    its own entropy.)
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    work.check(state)
    limit = state.cfl_limit(work)
    if dt > limit * (1.0 + 1e-9):
        raise CFLViolation(f"CFL violated: dt={dt} exceeds limit {limit}")

    dx, dy = state.spacing
    gamma = state.gamma
    factor = work.frozen_exp(state.entropy)
    n = 4 if factor is None else 3
    u0 = (state.rho, state.vx, state.vy, state.entropy)[:n]
    u, k = work.stage[:n], work.slope[:n]
    new = tuple(np.empty(state.rho.shape) for _ in range(n))

    def slope_into(out):
        # A stage density below zero has no pressure: stop at it rather
        # than run the remaining stages on NaN.
        work.pressure_state = None              # the buffer takes a stage's
        try:
            with np.errstate(invalid="raise"):
                exp_s = factor if n == 3 else np.exp(u[3], out=work.scratch)
                p = _pressure_into(u[0], exp_s, gamma, work.pressure)
        except FloatingPointError as exc:
            raise NotSmooth(f"stage pressure not defined in the step from t={state.time}",
                            ()) from exc
        _rhs(u, p, dx, dy, out, work)

    # k1 goes straight into the new arrays; the state's pressure, which
    # `cfl_limit` left in `work`, is the same rho ** gamma * exp(S) that
    # `slope_into` computes for the other stages.  A guard call on this
    # state left four of its derivatives in `work`.
    _rhs(u0, work.state_pressure(state), dx, dy, new, work,
         _GUARDED if work.grad_state is state else ())
    new_rows, k_rows = [f[_BAND] for f in new], [f[_BAND] for f in k]
    _stage_into(u0, new, 0.5 * dt, u)
    slope_into(k)                                           # k2
    _stage_into(u0, k, 0.5 * dt, u)
    for acc, kf in zip(new_rows, k_rows):
        kf *= 2.0
        acc += kf
    slope_into(k)                                           # k3
    _stage_into(u0, k, dt, u)
    for acc, kf in zip(new_rows, k_rows):
        kf *= 2.0
        acc += kf
    slope_into(k)                                           # k4
    for f, acc, kf in zip(u0, new_rows, k_rows):
        acc += kf
        acc *= dt / 6.0
        acc += f[_BAND]
    for f in new:
        _fill_halo(f)

    # The new GridState checks the density.
    for f in new[1:]:
        if not np.isfinite(f, out=work.mask).all():
            raise NotSmooth(f"non-finite field after step at t={state.time + dt}", ())
    entropy = new[3] if n == 4 else state.entropy
    return GridState(rho=new[0], vx=new[1], vy=new[2], entropy=entropy,
                     gamma=gamma, origin=state.origin, spacing=state.spacing,
                     time=state.time + dt)


class GuardReport(NamedTuple):
    max_grad: float
    ok: bool


def smoothness_guard(state, threshold, work):
    """Max discrete gradient norm over (rho, vx, vy, P) vs. a threshold.

    max_grad is the sqrt of the largest gx * gx + gy * gy over the four
    fields, which is bit for bit the largest sqrt(gx * gx + gy * gy): sqrt
    is correctly rounded and monotone.  A NaN in any field makes max_grad
    NaN, a square that overflows makes it inf, and a max_grad that is not
    finite is never ok.

    `threshold` is the largest max_grad that is ok (np.inf: any finite
    one).  `work` is a `_Workspace` for the state's shape, whose stage
    inputs serve as scratch.  The squares run over the node rows, and the
    maxima over the nodes only.  The state's pressure stays in its `pressure` buffer and the derivatives in
    its `grad` slots, where the next `step` from this state reads them."""
    work.check(state)
    dx, dy = state.spacing
    u = (state.rho, state.vx, state.vy, state.entropy, work.state_pressure(state))
    square, tmp = (s[_BAND] for s in work.stage[:2])
    tops = []
    for i in _GUARDED:
        gx, gy = work.grad[2 * i], work.grad[2 * i + 1]
        _d4_into(u[i], dx, 0, gx, work.scratch)
        _d4_into(u[i], dy, 1, gy, work.scratch)
        gx, gy = gx[_BAND], gy[_BAND]
        np.multiply(gx, gx, out=square)
        np.multiply(gy, gy, out=tmp)
        square += tmp
        tops.append(square[:, _BAND].max())
    work.grad_state = state
    worst = float(np.sqrt(np.max(tops)))        # np.max keeps a NaN
    return GuardReport(max_grad=worst, ok=bool(np.isfinite(worst)) and worst <= threshold)


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


def _sum_rows(rows, out):
    """0 + rows[0] + rows[1] + ..., added left to right, a whole row at a
    time, into `out`.

    np.add.reduce along the first axis of a (k, n) array adds the rows in
    that order, except on a single column (n == 1), which it sums pairwise;
    that column takes the explicit loop."""
    if rows.shape[1] != 1:
        return np.add.reduce(rows, axis=0, out=out, initial=0.0)
    out[...] = 0.0
    for row in rows:
        out += row
    return out


@functools.lru_cache(maxsize=None)
def _patch_offsets(width):
    """(a + 1) * width + (b + 1) for the 4x4 patch entries (a, b) of a
    padded array whose rows are `width` long, as a read-only (4, 4, 1)
    array."""
    offs = np.arange(1, 5)
    out = (offs[:, None] * width + offs)[:, :, None].astype(np.intp)
    out.setflags(write=False)
    return out


def interpolate_fields(state, pts, fields, work, out):
    """Bicubic (separable cubic Lagrange) interpolation at points (N, 2).

    `fields` maps names to padded arrays on the grid of `state` (its
    fields, or a time slice's), whose halo holds the nodes' periodic
    copies, so no patch leaves the array.  Periodic wrap in both axes;
    exact at grid nodes and for polynomials up to cubic per axis.  `work`
    is a `_Workspace` whose patch buffers are used; `out` is a sequence of
    len(fields) arrays of N values that receive the fields, in order: a
    (len(fields), N) array will do.  Returns a dict of those arrays by name.

    The value at a point is the sum over its 4x4 patch f[a, b] of
    (wx[a] f[a, b]) wy[b], added from 0 in patch order:
    ((0 + (wx[0] f[0, 0]) wy[0]) + (wx[0] f[0, 1]) wy[1]) + ...  These are
    the products and the order of np.einsum("pi,pij,pj->p", wx, patch, wy),
    so the result is einsum's bit for bit (a sum of -0.0 terms is +0.0).
    The patches are gathered entry-major, (4, 4, N), so the two weightings
    and the sum are whole-row passes.
    """
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
    # Flat index of the 4x4 patch of every point in the padded arrays: with
    # ix and iy wrapped into the box, entry (a, b) is element
    # (ix + 1 + a, iy + 1 + b), which the halo keeps in the array.  Every
    # field is gathered into the same patch buffer.
    ix %= nx
    iy %= ny
    width = ny + 4
    n = len(pts)
    flat, patch = work.patch_buffers(n)
    base = ix * width
    base += iy
    np.add(base, _patch_offsets(width), out=flat)

    result = {}
    for i, (name, f) in enumerate(fields.items()):
        # Indices are in range, so "clip" changes nothing; it lets take
        # write into `patch` without an intermediate copy.
        np.asarray(f, dtype=float).ravel().take(flat, out=patch, mode="clip")
        patch *= wx[:, None]
        patch *= wy
        result[name] = _sum_rows(patch.reshape(16, n), out[i])
    return result


# The fields a time slice combines, in the order of the slope buffers that
# hold them.
_SLICE_FIELDS = ("rho", "vx", "vy", "entropy")


class GridFlow(FlowField):
    """A stepper run exposed as a FlowField.

    Snapshots accumulate as the flow is advanced, and queries interpolate
    them; querying beyond the advanced time is an error, so failures to
    integrate surface where the caller advances.  A query depends on t
    alone: its time stencil is the cubic one through the snapshot before
    t's grid interval, its two ends and the snapshot after it (the first
    four in the first interval).  So `t_last` is the time of the
    next-to-last snapshot once there are four, else `t0`, and
    `advance_to(t)` steps one snapshot past t.

    Snapshots are held by step number.  `keep_from(t)` names the earliest
    time the consumer will still query; the first snapshot of t's stencil
    is the anchor.  The flow drops the snapshots before both the anchor and
    the stencil of the latest query, except the last two and the one the
    anchor would be re-stepped from.
    A consumer that advances it one RK step ahead of its queries (as
    `matvol._rk4_points` does) and calls `keep_from` at each sample so
    holds about one RK step's stencil, whatever the horizon and stride.

    One rule re-steps what the flow let go: a query whose stencil needs a
    snapshot that is not held re-steps its gap, from the latest snapshot
    held before it (at worst the initial state, which is always kept) up to
    the next one held, runs no guard (it passed the first time) and keeps
    what it re-stepped.  The steps are deterministic, so every answer is bit
    for bit that of the first run.  A snapshot before the anchor that is not
    held raises `SnapshotDropped`.

    After each first-time step, the gradient guard checks the new snapshot
    against `guard_threshold`; np.inf runs no guard.  The flow builds its
    `_Workspace` when it is made, and every step, guard call and
    interpolation, the queries at t0 included, works in it; its buffers are
    allocated empty, so their pages are first touched where they are first
    written.  A snapshot holds rho, vx, vy and its entropy, which the
    snapshots of a homentropic flow share, and no pressure; the guard leaves
    the newest one's pressure in the workspace for the next step.  A query
    between snapshots reads a whole-grid time slice, held for one t in the
    workspace's stage-slope buffers, so the RK4 stages that share a time and
    the two `fields` queries of a sample share it.  The slice combines the
    density as it is built (a non-positive one raises `NotSmooth`) and
    another field when it is first read, and is let go before a step or
    re-step and when its stencil loses a snapshot.  A `fields` query
    interpolates all the fields it names in one `interpolate_fields` call
    and returns fresh arrays.  The held slice and the workspace make a grid
    flow unsafe to query from several threads.
    """

    def __init__(self, initial, step_dt, guard_threshold):
        # The grid is the whole (periodic) space, so its minimum is the floor.
        super().__init__(initial.gamma, entropy_floor=initial.entropy.min())
        if step_dt <= 0.0:
            raise ValueError("step_dt must be positive")
        self.step_dt = float(step_dt)
        self.guard_threshold = float(guard_threshold)
        self._initial = initial
        # The held snapshots by step number (number 0 is the initial state)
        # and the newest number; _keep is the number of the first snapshot
        # the consumer will still query, the anchor, and _query the first
        # number of the latest query's stencil.
        self._held = {0: initial}
        self._newest = self._keep = self._query = 0
        self._work = _Workspace(initial.shape)
        # The held time slice: its t, the number of its stencil's first
        # snapshot, the stencil, its weights and the fields combined so far.
        self._slice = None

    @property
    def t0(self):
        return self._initial.time

    @property
    def t_last(self):
        n = self._newest
        return self._held[n - 1].time if n >= 3 else self.t0

    @property
    def states(self):
        """The snapshots the flow holds, oldest first."""
        return tuple(self._held[n] for n in sorted(self._held))

    def _stencil_start(self, t):
        """Number of the first snapshot of t's time stencil."""
        return max(int(np.floor((t - self.t0) / self.step_dt)) - 1, 0)

    def keep_from(self, t):
        """Hold only the snapshots that queries at time t and later need."""
        self._keep = self._query = self._stencil_start(t)
        self._trim()

    def _trim(self):
        """Drop the snapshots before both the anchor and the stencil of the
        latest query, except the last two and the one the anchor would be
        re-stepped from; let the time slice go once its stencil loses one."""
        lo = max(self._keep, self._query)
        source = max((n for n in self._held if n <= self._keep), default=None)
        for n in [n for n in self._held
                  if n < min(lo, self._newest - 1) and n != source]:
            del self._held[n]
        if self._slice is not None and any(
                self._held.get(n) is not s
                for n, s in enumerate(self._slice[2], self._slice[1])):
            self._slice = None

    def advance_to(self, t):
        """Step the solver until the flow holds time t's stencil, dropping
        the snapshots that the latest query and `keep_from` released as it
        steps.

        Raises SmoothnessLost when the guard trips or a step is not smooth;
        the flow then ends at the last state before it.
        """
        while self.t_last < t - 1e-12:
            self._slice = None                  # the step overwrites its buffers
            last = self._held[self._newest]
            try:
                nxt = step(last, self.step_dt, self._work)
            except NotSmooth as exc:
                raise SmoothnessLost(last.time + self.step_dt, np.nan) from exc
            if np.isfinite(self.guard_threshold):
                report = smoothness_guard(nxt, self.guard_threshold, self._work)
                if not report.ok:
                    raise SmoothnessLost(nxt.time, report.max_grad)
            self._newest += 1
            self._held[self._newest] = nxt
            self._trim()

    def check_time(self, t):
        if t < self.t0 - 1e-12 or t > self.t_last + 1e-12:
            raise ValueError(
                f"grid flow not advanced to t={t} (have [{self.t0}, {self.t_last}])")

    def _snapshots(self, k, count, t):
        """Snapshots number k .. k + count - 1 (fewer past the newest); a
        number not held is re-stepped with the rest of its gap, from the
        latest snapshot held before it up to the next one held."""
        numbers = range(k, min(k + count, self._newest + 1))
        for n in numbers:
            if n in self._held:
                continue
            if n < self._keep:
                raise SnapshotDropped(
                    f"grid flow dropped the snapshots of t={t} (it holds them "
                    f"from t={self.states[0].time})")
            m = max((m for m in self._held if m < n), default=0)
            state = self._held.setdefault(m, self._initial)
            self._slice = None                  # the steps overwrite its buffers
            while m + 1 not in self._held:
                m += 1
                state = self._held[m] = step(state, self.step_dt, self._work)
        return [self._held[n] for n in numbers]

    def _time_slice(self, t, names):
        """The fields `names`, cubic-Lagrange-combined in time at t (whole
        padded arrays: the combination is the same at every element, so
        the halo stays a copy of the nodes).

        The flow holds the slice of one t: its stencil, its weights and the
        fields combined so far, each combined the first time it is read,
        into the workspace's slope buffer of that field (`_SLICE_FIELDS`).
        The density is combined, and checked finite and positive, as the
        slice is built."""
        def combined(name):
            # sum(wi * f_i): (((0 + w0 f0) + w1 f1) + w2 f2) + w3 f3.  The
            # leading 0 + only turns a -0.0 sum into +0.0, so it comes last.
            acc, term = self._work.slope[_SLICE_FIELDS.index(name)], self._work.scratch
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
            stencil = self._snapshots(k, 4, t)
            w = _lagrange_weights((t - stencil[1].time) / self.step_dt)
            rho = combined("rho")
            if not np.all(np.isfinite(rho)) or np.any(rho <= 0.0):
                raise NotSmooth(
                    f"non-positive or non-finite density in the time slice at t={t}", ())
            self._slice = (t, k, stencil, w, {"rho": rho})
        _, _, stencil, w, fields = self._slice
        for n in names:
            if n not in fields:
                fields[n] = combined(n)
        return {n: fields[n] for n in names}

    def _nearest_snapshot(self, t):
        """The number of the snapshot nearest t, and that snapshot if it is
        at t (else None)."""
        k = int(round((t - self.t0) / self.step_dt))
        if 0 <= k <= self._newest:
            (state,) = self._snapshots(k, 1, t)
            if abs(state.time - t) <= 1e-12:
                return k, state
        return k, None

    def fields(self, t, pts, names):
        """One interpolation of every field named, each into a fresh array:
        "velocity" is read as vx and vy, straight into the columns of its
        array."""
        pts = self._pts(pts)
        flat = pts.reshape(-1, 2)
        self.check_time(t)
        vel = np.empty(flat.shape)
        parts = {"velocity": (("vx", vel[:, 0]), ("vy", vel[:, 1]))}
        read = [p for n in names for p in parts.get(n) or ((n, np.empty(len(flat))),)]
        k, state = self._nearest_snapshot(t)
        if state is None:
            grid = self._time_slice(t, [g for g, _ in read])
            state, first = self._initial, self._slice[1]
        else:
            grid = {g: getattr(state, g) for g, _ in read}
            first = max(k - 1, 0)       # the stencil start of any later time
        self._query = first
        got = interpolate_fields(state, flat, grid, self._work, [o for _, o in read])
        got["velocity"] = vel
        return {n: got[n].reshape(pts.shape if n == "velocity" else pts.shape[:-1])
                for n in names}

    def velocity(self, t, pts):
        return self.fields(t, pts, ("velocity",))["velocity"]
