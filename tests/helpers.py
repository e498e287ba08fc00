"""Shared test utilities: synthetic flows, quick volume builders, and the
pointwise probes and reference computations that only tests use."""

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from volflow import solver
from volflow.flowfield import FlowField, uniform_fields
from volflow.matvol import (AnnulusSpec, DiskSpec, _boundary_elements, _rk4_points,
                            init_volume)
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

    def velocity(self, t, pts):
        pts = self._pts(pts)
        return np.asarray(self._velocity_fn(t, pts), dtype=float)

    def fields(self, t, pts, names):
        return uniform_fields(self, t, pts, names, self.rho0)


def small_grid_flow():
    """A 32^2 grid flow on [-1, 1)^2 with smooth non-uniform rho, vx, vy and
    S, with snapshots every 2e-3, advanced to t = 0.01."""
    n = 32
    h = 2.0 / n
    c = -1.0 + h * np.arange(n)
    x, y = np.meshgrid(c, c, indexing="ij")
    k = np.pi
    st = solver.GridState.from_nodes(
        rho=1.0 + 0.2 * np.sin(k * x) * np.cos(k * y), vx=0.3 * np.cos(k * y),
        vy=-0.2 * np.sin(k * x), entropy=0.1 * np.cos(k * (x + y)), gamma=1.4,
        origin=(-1.0, -1.0), spacing=(h, h), time=0.0)
    flow = GridFlow(st, step_dt=2e-3, guard_threshold=np.inf)
    flow.advance_to(0.01)
    return flow


def _gated_volume(spec, flow, x0, epsilon):
    """The volume of `spec`, refused (ValueError) when its boundary lies
    within epsilon of x0, as `config.build_volume` refuses a scenario's."""
    vol, dist = init_volume(spec, flow, np.asarray(x0, dtype=float))
    if dist <= epsilon:
        raise ValueError(f"dist(boundary, x0) = {dist} is not larger than "
                         f"epsilon = {epsilon}")
    return vol


def disk_volume(flow, center, radius, x0, epsilon, markers=256, order=40):
    spec = DiskSpec(markers=markers, center=tuple(center), radius=radius,
                    quad_order=order)
    return _gated_volume(spec, flow, x0, epsilon)


def annulus_volume(flow, center, radii, x0, epsilon, markers=256, order=40):
    spec = AnnulusSpec(markers=markers, center=tuple(center), radii=tuple(radii),
                       quad_order=order)
    return _gated_volume(spec, flow, x0, epsilon)


def advect_unchecked(vol, flow, t_to, dt):
    """The volume advected to t_to in either time direction, as
    `matvol.advect` does but without its crossing sweep."""
    return replace(vol, points=_rk4_points(flow, vol.points, vol.time, t_to, dt),
                   time=float(t_to))


def nodes(f):
    """The node values of a padded grid array (a state's field, a
    workspace buffer or a time slice): the solver's arrays carry two ghost
    lines on each side."""
    return f[2:-2, 2:-2]


def grid_mass(state):
    """Whole-box mass integral of a grid state, summed over its nodes in a
    fixed order."""
    return float(np.sum(nodes(state.rho))) * state.spacing[0] * state.spacing[1]


def state_fields(state):
    """The padded fields of a grid state by name, as `interpolate_fields`
    takes them."""
    return {"rho": state.rho, "vx": state.vx, "vy": state.vy, "entropy": state.entropy}


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
    """The solver's 4th-order centred first derivative of the padded field f
    along `axis`, at the nodes, in fresh arrays."""
    return nodes(solver._d4_into(f, h, axis, np.empty(f.shape), np.empty(f.shape)))


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
    f = flow.fields(t, np.asarray(x, dtype=float), ("velocity", "rho", "entropy"))
    rho, s = float(f["rho"]), float(f["entropy"])
    return FluidState(rho, f["velocity"], s, rho ** flow.gamma * math.exp(s))


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
        f = flow.fields(tt, xx, ("velocity", "rho", "entropy"))
        return (f["velocity"], float(f["rho"]),
                float(f["rho"] ** gamma * np.exp(f["entropy"])))

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
    rho = flow.fields(vol.time, vol.nodes, ("rho",))["rho"]
    if np.any(rho <= 0.0):
        raise ValueError("flow density non-positive at a quadrature node")
    return float(np.sum(np.asarray(g(vol.nodes), dtype=float) * vol.mass_w / rho))


def volume_integral_mass(vol, f):
    """Integral of f against the transported mass measure: sum f(X) rho0 w."""
    return float(np.sum(np.asarray(f(vol.nodes), dtype=float) * vol.mass_w))


def profile_moments(flow, vol, phi, dphi, d2phi):
    """(G, F, I1) of a radial profile phi with derivatives dphi, d2phi, by
    the node quadrature `functionals.sample` uses for r^q."""
    z = vol.nodes - vol.x0
    r = np.linalg.norm(z, axis=-1)
    vel = flow.fields(vol.time, vol.nodes, ("velocity",))["velocity"]
    w = vol.mass_w
    vz = np.einsum("ij,ij->i", vel, z)
    return (float(np.sum(phi(r) * w)),
            float(np.sum(dphi(r) / r * vz * w)),
            float(np.sum(d2phi(r) / r ** 2 * vz ** 2 * w)))


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
