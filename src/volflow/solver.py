"""Finite-difference compressible Euler stepper on a 2-D periodic box.

The stepper advances the primitive fields (rho, vx, vy, S) in
nonconservative form with classical RK4 in time and 4th-order centered
differences in space.  That combination is only meant for the smooth regime:
no shock capturing, no limiting.  The centered stencils are skew-symmetric on
the periodic grid, which makes the whole-box mass integral an exact invariant
of the semi-discretization (and of every RK stage), so mass is conserved to
rounding per step.

A `GridFlow` wraps a run of the stepper as a queryable flow: snapshots are
cached at every step and off-node/off-step queries use separable cubic
Lagrange interpolation (bicubic in space, cubic in time), consistent with the
scheme's order.
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


@dataclass(frozen=True, eq=False)
class GridState:
    """Nodal primitive fields on a periodic box.

    Arrays are indexed [i, j] with node coordinates
    (origin[0] + i*spacing[0], origin[1] + j*spacing[1]); the box is periodic
    with extent n_cells * spacing per axis.  `pressure` is a cache recomputed
    from (rho, S) at construction.
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
            object.__setattr__(
                self, "pressure", self.rho ** self.gamma * np.exp(self.entropy))

    @property
    def shape(self):
        return self.rho.shape

    def node_coords(self):
        nx, ny = self.shape
        x = self.origin[0] + self.spacing[0] * np.arange(nx)
        y = self.origin[1] + self.spacing[1] * np.arange(ny)
        return x, y

    def sound_speed(self):
        return np.sqrt(self.gamma * self.pressure / self.rho)

    def cfl_limit(self, number=0.4):
        """Largest admissible dt: number * min(dx) / max(|V| + c)."""
        speed = np.hypot(self.vx, self.vy) + self.sound_speed()
        return number * min(self.spacing) / float(speed.max())

    def mass(self):
        """Whole-box mass integral (fixed-order pairwise summation)."""
        return float(np.sum(self.rho)) * self.spacing[0] * self.spacing[1]


def _d4(f, h, axis):
    """4th-order centered first derivative on the periodic grid."""
    return (8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
            - (np.roll(f, -2, axis) - np.roll(f, 2, axis))) / (12.0 * h)


def _rhs(rho, vx, vy, entropy, gamma, dx, dy):
    p = rho ** gamma * np.exp(entropy)
    rho_x, rho_y = _d4(rho, dx, 0), _d4(rho, dy, 1)
    vx_x, vx_y = _d4(vx, dx, 0), _d4(vx, dy, 1)
    vy_x, vy_y = _d4(vy, dx, 0), _d4(vy, dy, 1)
    s_x, s_y = _d4(entropy, dx, 0), _d4(entropy, dy, 1)
    p_x, p_y = _d4(p, dx, 0), _d4(p, dy, 1)
    div = vx_x + vy_y
    drho = -(vx * rho_x + vy * rho_y) - rho * div
    dvx = -(vx * vx_x + vy * vx_y) - p_x / rho
    dvy = -(vx * vy_x + vy * vy_y) - p_y / rho
    ds = -(vx * s_x + vy * s_y)
    return drho, dvx, dvy, ds


def step(state, dt):
    """One RK4 step of the Euler system; returns a new GridState.

    dt must respect the advisory CFL bound 0.4*min(dx)/max(|V|+c); the step
    refuses to run otherwise instead of silently producing garbage.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    limit = state.cfl_limit()
    if dt > limit * (1.0 + 1e-9):
        raise ValueError(f"CFL violated: dt={dt} exceeds limit {limit}")

    dx, dy = state.spacing
    gamma = state.gamma
    u0 = (state.rho, state.vx, state.vy, state.entropy)

    k1 = _rhs(*u0, gamma, dx, dy)
    u1 = tuple(f + 0.5 * dt * k for f, k in zip(u0, k1))
    k2 = _rhs(*u1, gamma, dx, dy)
    u2 = tuple(f + 0.5 * dt * k for f, k in zip(u0, k2))
    k3 = _rhs(*u2, gamma, dx, dy)
    u3 = tuple(f + dt * k for f, k in zip(u0, k3))
    k4 = _rhs(*u3, gamma, dx, dy)

    new = [f + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
           for f, a, b, c, d in zip(u0, k1, k2, k3, k4)]

    for f in new:
        if not np.all(np.isfinite(f)):
            raise NonSmoothState(f"non-finite field after step at t={state.time + dt}")
    if np.any(new[0] <= 0.0):
        raise NonSmoothState(f"density lost positivity at t={state.time + dt}")

    return GridState(rho=new[0], vx=new[1], vy=new[2], entropy=new[3],
                     gamma=gamma, origin=state.origin, spacing=state.spacing,
                     time=state.time + dt)


class GuardReport(NamedTuple):
    max_grad: float
    ok: bool


def smoothness_guard(state, threshold=np.inf):
    """Max discrete gradient norm over (rho, vx, vy, P) vs. a threshold."""
    dx, dy = state.spacing
    worst = 0.0
    for f in (state.rho, state.vx, state.vy, state.pressure):
        g = np.hypot(_d4(f, dx, 0), _d4(f, dy, 1))
        worst = max(worst, float(g.max()))
    return GuardReport(max_grad=worst, ok=worst <= threshold)


# -- interpolation -----------------------------------------------------------

def _lagrange_weights(u):
    """Cubic Lagrange weights for nodes at offsets (-1, 0, 1, 2), u in [0,1)."""
    wm1 = -u * (u - 1.0) * (u - 2.0) / 6.0
    w0 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
    w1 = -(u + 1.0) * u * (u - 2.0) / 2.0
    w2 = (u + 1.0) * u * (u - 1.0) / 6.0
    return np.stack([wm1, w0, w1, w2], axis=-1)


def interpolate_fields(state, pts, fields=None):
    """Bicubic (separable cubic Lagrange) interpolation at points (N, 2).

    Periodic wrap in both axes; exact at grid nodes and for polynomials up to
    cubic per axis.  Returns a dict of sampled arrays.
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
    wx = _lagrange_weights(fx - ix)
    wy = _lagrange_weights(fy - iy)
    offs = np.arange(-1, 3)
    gx = (ix[:, None] + offs) % nx
    gy = (iy[:, None] + offs) % ny

    out = {}
    for name, f in fields.items():
        patch = f[gx[:, :, None], gy[:, None, :]]          # (N, 4, 4)
        out[name] = np.einsum("pi,pij,pj->p", wx, patch, wy)
    return out


class GridFlow(FlowField):
    """A stepper run exposed as a FlowField.

    Snapshots accumulate as the flow is advanced; queries interpolate the
    cached trajectory (all snapshots stay in memory, which is fine at desk
    scale).  Querying beyond the advanced time is an error: callers advance
    explicitly so that failures to integrate surface where they happen.

    Off-snapshot values in the last grid interval depend on how far the
    cache was advanced: the time stencil starts no later than
    `len(states) - 4`, so advancing further moves it.  On `radial_inflow`,
    pre-advancing to t = 0.3 changed G in the last series row of `run` from
    2.3946889921718872 to 2.3946889920732484.
    """

    def __init__(self, initial, step_dt, guard_threshold=np.inf,
                 entropy_floor=None):
        floor = float(initial.entropy.min()) if entropy_floor is None else entropy_floor
        super().__init__(2, initial.gamma, entropy_floor=floor)
        if step_dt <= 0.0:
            raise ValueError("step_dt must be positive")
        self.step_dt = float(step_dt)
        self.guard_threshold = float(guard_threshold)
        self._states = [initial]

    @property
    def t0(self):
        return self._states[0].time

    @property
    def t_last(self):
        return self._states[-1].time

    @property
    def states(self):
        return tuple(self._states)

    def advance_to(self, t):
        """Step the solver until the cache covers time t.

        Raises SmoothnessLost when the guard trips or a step is not smooth;
        the cache then ends at the last state before it.
        """
        while self.t_last < t - 1e-12:
            try:
                nxt = step(self._states[-1], self.step_dt)
            except NonSmoothState as exc:
                raise SmoothnessLost(self.t_last + self.step_dt, np.nan) from exc
            if np.isfinite(self.guard_threshold):
                report = smoothness_guard(nxt, self.guard_threshold)
                if not report.ok:
                    raise SmoothnessLost(nxt.time, report.max_grad)
            self._states.append(nxt)

    def check_time(self, t):
        if t < self.t0 - 1e-12 or t > self.t_last + 1e-12:
            raise ValueError(
                f"grid flow not advanced to t={t} (have [{self.t0}, {self.t_last}])")

    def _time_slice(self, t):
        """Fields cubic-Lagrange-combined in time at t (full nodal arrays)."""
        self.check_time(t)
        states = self._states
        if len(states) == 1:
            return states[0]
        f = (t - self.t0) / self.step_dt
        k = int(np.floor(f))
        k = min(max(k - 1, 0), len(states) - 4) if len(states) >= 4 else 0
        stencil = states[k:k + 4]
        if len(stencil) < 4:                      # short cache: linear blend
            a, b = states[0], states[-1]
            w = 0.0 if b.time == a.time else (t - a.time) / (b.time - a.time)
            combo = {n: (1 - w) * getattr(a, n) + w * getattr(b, n)
                     for n in ("rho", "vx", "vy", "entropy")}
        else:
            u = (t - stencil[1].time) / self.step_dt
            w = _lagrange_weights(np.asarray(u))
            combo = {n: sum(wi * getattr(s, n) for wi, s in zip(w, stencil))
                     for n in ("rho", "vx", "vy", "entropy")}
        base = states[0]
        return GridState(rho=combo["rho"], vx=combo["vx"], vy=combo["vy"],
                         entropy=combo["entropy"], gamma=self.gamma,
                         origin=base.origin, spacing=base.spacing, time=t)

    def _nearest_snapshot(self, t):
        k = int(round((t - self.t0) / self.step_dt))
        if 0 <= k < len(self._states) and abs(self._states[k].time - t) <= 1e-12:
            return self._states[k]
        return None

    def _sample(self, t, pts, names):
        snap = self._nearest_snapshot(t)
        state = snap if snap is not None else self._time_slice(t)
        fields = {n: getattr(state, n) for n in names}
        return interpolate_fields(state, pts, fields)

    def velocity(self, t, pts):
        pts = self._pts(pts)
        flat = pts.reshape(-1, 2)
        s = self._sample(t, flat, ("vx", "vy"))
        out = np.stack([s["vx"], s["vy"]], axis=-1)
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
