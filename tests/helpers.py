"""Shared test utilities: synthetic flows, quick volume builders, and the
pointwise probes and reference computations that only tests use."""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from volflow import solver
from volflow.flowfield import FlowField
from volflow.matvol import VolumeShapeSpec, _boundary_elements, init_volume
from volflow.solver import GridFlow

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"


class SyntheticFlow(FlowField):
    """Constant thermodynamics with an arbitrary smooth velocity field.

    Useful for checks that are quadrature-level identities and do not need
    the velocity to solve anything.
    """

    def __init__(self, velocity_fn, gamma=1.4, rho0=1.0, p0=1.0):
        s0 = math.log(p0) - gamma * math.log(rho0)
        super().__init__(gamma, entropy_floor=s0)
        self._velocity_fn = velocity_fn
        self.rho0 = float(rho0)
        self.s0 = s0

    def velocity(self, t, pts):
        pts = self._pts(pts)
        return np.asarray(self._velocity_fn(t, pts), dtype=float)

    def density(self, t, pts):
        pts = self._pts(pts)
        return np.full(pts.shape[:-1], self.rho0)

    def entropy(self, t, pts):
        pts = self._pts(pts)
        return np.full(pts.shape[:-1], self.s0)


def disk_volume(flow, center, radius, x0, epsilon, markers=256, order=40):
    spec = VolumeShapeSpec(shape="disk", center=tuple(center), radius=radius,
                           markers=markers, quad_order=order)
    vol, _ = init_volume(spec, flow, np.asarray(x0, dtype=float), epsilon)
    return vol


def annulus_volume(flow, center, radii, x0, epsilon, markers=256, order=40):
    spec = VolumeShapeSpec(shape="annulus", center=tuple(center), radii=tuple(radii),
                           markers=markers, quad_order=order)
    vol, _ = init_volume(spec, flow, np.asarray(x0, dtype=float), epsilon)
    return vol


def ones(pts):
    return np.ones(len(pts))


def radial_norm(pts):
    return np.linalg.norm(pts, axis=1)


def record_snapshots_held(monkeypatch):
    """A list that gets the number of snapshots a grid flow holds after each
    of its `advance_to` calls (the widest its window gets)."""
    held = []
    advance_to = GridFlow.advance_to

    def recording(self, t):
        try:
            advance_to(self, t)
        finally:
            held.append(len(self.states))

    monkeypatch.setattr(GridFlow, "advance_to", recording)
    return held


def d4(f, h, axis):
    """The solver's 4th-order centred first derivative of f along `axis`,
    in fresh arrays."""
    return solver._d4_into(f, h, axis, np.empty(f.shape),
                           solver._edge_buffers(f.shape, axis), np.empty(f.shape))


def lagrange_weights(u):
    """Cubic Lagrange weights for nodes at offsets (-1, 0, 1, 2) at offset u,
    stacked on a trailing axis: the solver's interpolation weights, computed
    apart from its code for the reference computations."""
    wm1 = -u * (u - 1.0) * (u - 2.0) / 6.0
    w0 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
    w1 = -(u + 1.0) * u * (u - 2.0) / 2.0
    w2 = (u + 1.0) * u * (u - 1.0) / 6.0
    return np.stack([wm1, w0, w1, w2], axis=-1)


@dataclass(frozen=True)
class FluidState:
    """Primitive state at one point: density, velocity, entropy, pressure."""

    rho: float
    vel: np.ndarray
    entropy: float
    pressure: float

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "vel", np.array(self.vel, dtype=float))
        object.__setattr__(self, "entropy", float(self.entropy))
        object.__setattr__(self, "pressure", float(self.pressure))
        if self.rho <= 0.0:
            raise ValueError("density must be positive")
        if self.pressure <= 0.0:
            raise ValueError("pressure must be positive")

    @classmethod
    def from_primitives(cls, rho, vel, entropy, gamma):
        """Build a state with the pressure closed from (rho, S, gamma)."""
        rho = float(rho)
        entropy = float(entropy)
        return cls(rho, np.asarray(vel, dtype=float), entropy,
                   rho ** gamma * math.exp(entropy))

    def state_equation_gap(self, gamma):
        """Relative gap |P - rho^gamma e^S| / P; 0 for a consistent state."""
        return abs(self.pressure - self.rho ** gamma * math.exp(self.entropy)) / self.pressure


def eval_state(flow, t, x):
    """Evaluate the full fluid state at one space-time point."""
    flow.check_time(t)
    x = np.asarray(x, dtype=float)
    rho = float(flow.density(t, x))
    vel = np.asarray(flow.velocity(t, x), dtype=float)
    s = float(flow.entropy(t, x))
    return FluidState(rho, vel, s, rho ** flow.gamma * math.exp(s))


def euler_residual(flow, t, x, h):
    """Centered-difference residuals of the governing equations at (t, x).

    Returns an (n+2,)-vector: the n momentum components
    rho*(dV/dt + (V.grad)V) + grad P, then the continuity residual
    d rho/dt + div(rho V), then the pressure-transport residual
    dP/dt + (V, grad P) + gamma*P*div V.  All derivatives use centered
    differences of step h; the caller judges the magnitude.
    """
    if h <= 0.0:
        raise ValueError("finite-difference step h must be positive")
    x = np.asarray(x, dtype=float)
    n = flow.dimension
    gamma = flow.gamma

    def fields(tt, xx):
        flow.check_time(tt)
        rho = flow.density(tt, xx)
        return (np.asarray(flow.velocity(tt, xx), dtype=float), float(rho),
                float(rho ** gamma * np.exp(flow.entropy(tt, xx))))

    vel, rho, pres = fields(t, x)

    vp, rp, pp = fields(t + h, x)
    vm, rm, pm = fields(t - h, x)
    dvel_dt = (vp - vm) / (2.0 * h)
    drho_dt = (rp - rm) / (2.0 * h)
    dpres_dt = (pp - pm) / (2.0 * h)

    grad_v = np.empty((n, n))   # grad_v[i, j] = dV_j / dx_i
    grad_rho = np.empty(n)
    grad_p = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        vp, rp, pp = fields(t, x + e)
        vm, rm, pm = fields(t, x - e)
        grad_v[i] = (vp - vm) / (2.0 * h)
        grad_rho[i] = (rp - rm) / (2.0 * h)
        grad_p[i] = (pp - pm) / (2.0 * h)

    div_v = np.trace(grad_v)
    advect_v = vel @ grad_v     # (V . grad) V

    momentum = rho * (dvel_dt + advect_v) + grad_p
    continuity = drho_dt + vel @ grad_rho + rho * div_v
    transport = dpres_dt + vel @ grad_p + gamma * pres * div_v
    return np.concatenate([momentum, [continuity], [transport]])


def volume_integral_plain(vol, g, flow):
    """Plain volume integral of g via the density-ratio Jacobian rho0/rho."""
    rho = np.asarray(flow.density(vol.time, vol.nodes), dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("flow density non-positive at a quadrature node")
    return float(np.sum(np.asarray(g(vol.nodes), dtype=float) * vol.mass_w / rho))


def volume_integral_mass(vol, f):
    """Integral of f against the transported mass measure: sum f(X) rho0 w."""
    return float(np.sum(np.asarray(f(vol.nodes), dtype=float) * vol.mass_w))


def surface_integral(vol, h):
    """Boundary integral of h(point, outward unit normal) over all components."""
    mids, normals, measures = _boundary_elements(vol)
    vals = np.asarray(h(mids, normals), dtype=float)
    return float(np.sum(vals * measures))


def rk4_points_reference(flow, pts, t_from, t_to, dt):
    """The allocating RK4 loop `matvol._rk4_points` must match bit for bit."""
    t = t_from
    x = pts.copy()
    direction = 1.0 if t_to >= t_from else -1.0
    h_mag = abs(dt)
    while abs(t_to - t) > 1e-14:
        h = direction * min(h_mag, abs(t_to - t))
        k1 = flow.velocity(t, x)
        k2 = flow.velocity(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = flow.velocity(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = flow.velocity(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
    return x
