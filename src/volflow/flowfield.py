"""Pointwise fluid state, exact analytic flows, and pointwise residual probes.

A flow here is a queryable smooth solution of the compressible Euler system
(momentum balance, continuity, entropy transport) closed by the polytropic
relation P = rho^gamma * exp(S).  The analytic catalog holds two exact
solutions -- a constant flow and a self-similar expansion -- that double as
test oracles: their residuals vanish identically, so anything a finite
difference probe measures is the probe's own truncation error.

All evaluators are pure and vectorized over trailing point axes; flow objects
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FluidState",
    "FlowField",
    "ConstantFlow",
    "ExpansionFlow",
    "make_analytic_flow",
    "eval_state",
    "euler_residual",
]


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


class FlowField:
    """Base class for queryable smooth flows over a time window.

    Subclasses provide `velocity`, `density` and `entropy`; pressure is
    derived through the state relation so consistency holds by construction.
    `pts` always has shape (..., dimension).
    """

    def __init__(self, dimension, gamma, entropy_floor):
        if dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {dimension}")
        if not gamma > 1.0:
            raise ValueError(f"adiabatic exponent must exceed 1, got {gamma}")
        self.dimension = int(dimension)
        self.gamma = float(gamma)
        # Floor of the initial entropy over the whole space, the s0 of the
        # threshold algebra.  A finite volume cannot see the global minimum,
        # so each flow computes it from its own initial data.
        self.entropy_floor = float(entropy_floor)

    # -- evaluators ---------------------------------------------------------

    def velocity(self, t, pts):
        raise NotImplementedError

    def density(self, t, pts):
        raise NotImplementedError

    def entropy(self, t, pts):
        raise NotImplementedError

    def pressure(self, t, pts):
        return self.density(t, pts) ** self.gamma * np.exp(self.entropy(t, pts))

    # -- domain handling ----------------------------------------------------

    def advance_to(self, t):
        """Make the flow queryable up to time t; a closed-form flow already is."""

    def keep_from(self, t):
        """Declare that the flow will not be queried before time t again, so
        a flow that stores its past may drop what lies before; a closed-form
        flow stores none.  Querying before t later is an error until
        `keep_from` is called with that earlier time (and the flow advanced
        again)."""

    def check_time(self, t):
        """Raise ValueError if t lies outside the declared time window."""

    def _pts(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.dimension:
            raise ValueError(
                f"points have dimension {pts.shape[-1]}, flow has {self.dimension}")
        return pts


class ConstantFlow(FlowField):
    """Uniform state everywhere and for all time; trivially exact."""

    def __init__(self, dimension, gamma, rho0, vel0, p0):
        rho0 = float(rho0)
        p0 = float(p0)
        if rho0 <= 0.0:
            raise ValueError("rho0 must be positive")
        if p0 <= 0.0:
            raise ValueError("P0 must be positive")
        vel0 = np.asarray(vel0, dtype=float)
        if vel0.shape != (dimension,):
            raise ValueError("V0 must be a velocity vector of the flow dimension")
        # Entropy chosen so the state relation holds exactly.
        s0 = math.log(p0) - gamma * math.log(rho0)
        super().__init__(dimension, gamma, entropy_floor=s0)
        self.rho0 = rho0
        self.vel0 = vel0
        self.p0 = p0

    def velocity(self, t, pts):
        pts = self._pts(pts)
        out = np.empty(pts.shape)
        out[...] = self.vel0
        return out

    def density(self, t, pts):
        pts = self._pts(pts)
        return np.full(pts.shape[:-1], self.rho0)

    def entropy(self, t, pts):
        pts = self._pts(pts)
        return np.full(pts.shape[:-1], self.entropy_floor)


class ExpansionFlow(FlowField):
    """Self-similar expansion: V = x/(t + t_c), spatially uniform rho and S.

    Particle paths are X(t) = x * (t + t_c)/t_c, density decays like
    (t_c/(t + t_c))^n and pressure follows from the state relation.  Every
    term of the governing system cancels exactly, so the flow is an exact
    smooth solution on t > -t_c.
    """

    def __init__(self, dimension, gamma, rho0, s0, t_c):
        rho0 = float(rho0)
        t_c = float(t_c)
        if rho0 <= 0.0:
            raise ValueError("rho0 must be positive")
        if t_c <= 0.0:
            raise ValueError("t_c must be positive")
        super().__init__(dimension, gamma, entropy_floor=s0)
        self.rho0 = rho0
        self.t_c = t_c

    def check_time(self, t):
        if t + self.t_c <= 0.0:
            raise ValueError(f"time {t} outside expansion-flow domain (t > {-self.t_c})")

    def velocity(self, t, pts):
        self.check_time(t)
        pts = self._pts(pts)
        return pts / (t + self.t_c)

    def density(self, t, pts):
        self.check_time(t)
        pts = self._pts(pts)
        rho = self.rho0 * (self.t_c / (t + self.t_c)) ** self.dimension
        return np.full(pts.shape[:-1], rho)

    def entropy(self, t, pts):
        self.check_time(t)
        pts = self._pts(pts)
        return np.full(pts.shape[:-1], self.entropy_floor)


_ANALYTIC_KINDS = ("constant", "expansion")


def make_analytic_flow(kind, dimension, gamma, parameters):
    """Build a flow from the analytic catalog.

    Parameters are kind-specific: constant wants (rho0, V0, P0), expansion
    wants (rho0, S0, t_c).
    """
    if kind == "constant":
        return ConstantFlow(dimension, gamma,
                            rho0=parameters["rho0"],
                            vel0=parameters["V0"],
                            p0=parameters["P0"])
    if kind == "expansion":
        return ExpansionFlow(dimension, gamma,
                             rho0=parameters["rho0"],
                             s0=parameters["S0"],
                             t_c=parameters["t_c"])
    raise ValueError(f"unknown analytic flow kind {kind!r} (expected one of {_ANALYTIC_KINDS})")


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
        return (np.asarray(flow.velocity(tt, xx), dtype=float),
                float(flow.density(tt, xx)),
                float(flow.pressure(tt, xx)))

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
