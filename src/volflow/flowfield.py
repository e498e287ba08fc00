"""Queryable flows and the exact analytic ones.

A flow here is a queryable smooth solution of the compressible Euler system
(momentum balance, continuity, entropy transport) closed by the polytropic
relation P = rho^gamma * exp(S).  The analytic flows are two exact
solutions, `ConstantFlow` (a uniform state) and `ExpansionFlow` (a
self-similar expansion), which `config.build_flow` constructs directly for
`flow.kind = constant` and `expansion`.  They double as test oracles: their
residuals vanish identically, so anything a finite difference probe
measures is the probe's own truncation error.

Every flow answers `velocity(t, pts)`, the advection right-hand side, and
`fields(t, pts, names)`, one read of any of the velocity, density and entropy
at a point set.  Both are pure and vectorized over leading point axes, and
analytic flows are safe to share across threads.  A `ConstantFlow` holds one
read-only velocity array per query shape and returns it on every query of
that shape; every other array returned is fresh.  A flow whose velocity is
the same at every point and for all time says so with `constant_velocity`,
which only `ConstantFlow` sets: RK4 advection then computes one point's
increment once per step size and adds it to every point at every step.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotSmooth",
    "FlowField",
    "ConstantFlow",
    "ExpansionFlow",
    "uniform_fields",
]


class NotSmooth(ValueError):
    """The flow is not smooth where it is read: a density that is not
    positive, or a field that is not finite, in a grid step or time slice or
    at a sample's quadrature nodes or boundary midpoints, or a sampled
    functional that is not finite.  A ValueError: a flow that is not smooth
    where the scenario reads it fails the paper's hypotheses, so the keys
    that set it up are at fault.  `functionals` names the functionals that
    are not finite, in sample order; it is empty when a field is at fault."""

    def __init__(self, message, functionals):
        super().__init__(message)
        self.functionals = functionals


class FlowField:
    """Base class for queryable smooth flows over a time window.

    Subclasses provide `velocity` and `fields`.  The state relation at
    sample points lives in `functionals`, which takes the pressure from the
    density and entropy of one `fields` read.  `pts` always has shape
    (..., 2): every flow is planar, and `dimension` is the one statement of
    the program's dimension.  A subclass whose velocity is the same at every
    point and for all time sets `constant_velocity`: a query at one point
    and one time then gives the velocity of every point at every time.  A
    velocity uniform in space that changes with time must not set it.
    """

    dimension = 2
    # The last time the flow is known smooth; a closed-form flow is smooth
    # for all time, and a flow that is stepped overrides it.
    t_last = math.inf
    # The velocity is the same at every point and for all time.
    constant_velocity = False

    def __init__(self, gamma, entropy_floor):
        if not gamma > 1.0:
            raise ValueError(f"adiabatic exponent must exceed 1, got {gamma}")
        self.gamma = float(gamma)
        # Floor of the initial entropy over the whole space, the s0 of the
        # threshold algebra.  A finite volume cannot see the global minimum,
        # so each flow computes it from its own initial data.
        self.entropy_floor = float(entropy_floor)

    # -- evaluators ---------------------------------------------------------

    def velocity(self, t, pts):
        raise NotImplementedError

    def fields(self, t, pts, names):
        """The fields `names` ("velocity", "rho", "entropy") at pts, as a dict:
        the velocity has shape pts.shape and is bit for bit `velocity(t, pts)`,
        the scalar fields have shape pts.shape[:-1]."""
        raise NotImplementedError

    # -- domain handling ----------------------------------------------------

    def advance_to(self, t):
        """Make the flow queryable up to time t; a closed-form flow already is."""

    def keep_from(self, t):
        """Declare that the flow will not be queried before time t again, so
        a flow that stores its past may drop what lies before; a closed-form
        flow stores none.  Querying before t later is an error, unless
        `keep_from` is first called with that earlier time."""

    def check_time(self, t):
        """Raise ValueError if t lies outside the declared time window."""

    def _pts(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.dimension:
            raise ValueError(
                f"points have dimension {pts.shape[-1]}, flow has {self.dimension}")
        return pts


class ConstantFlow(FlowField):
    """Uniform state everywhere and for all time; trivially exact.

    It is the one flow with `constant_velocity` set, so an RK4 call queries
    it at one point per stage, once per step size, and every step of one
    size adds the same increment bits (`matvol._rk4_points`)."""

    constant_velocity = True

    def __init__(self, gamma, rho0, vel0, p0):
        rho0 = float(rho0)
        p0 = float(p0)
        if rho0 <= 0.0:
            raise ValueError("rho0 must be positive")
        if p0 <= 0.0:
            raise ValueError("P0 must be positive")
        vel0 = np.asarray(vel0, dtype=float)
        if vel0.shape != (self.dimension,):
            raise ValueError("V0 must be a velocity vector of the flow dimension")
        # Entropy chosen so the state relation holds exactly.
        s0 = math.log(p0) - gamma * math.log(rho0)
        super().__init__(gamma, entropy_floor=s0)
        self.rho0 = rho0
        self.vel0 = vel0
        self.p0 = p0
        self._velocities = {}

    def velocity(self, t, pts):
        """V0 at every point: one held, read-only array per query shape, so
        the queries of an RK4 loop fill nothing."""
        pts = self._pts(pts)
        vel = self._velocities.get(pts.shape)
        if vel is None:
            # A contiguous repeat: a broadcast fill loops over rows of d values.
            vel = np.repeat(self.vel0[None, :], pts.size // self.dimension,
                            axis=0).reshape(pts.shape)
            vel.flags.writeable = False
            self._velocities[pts.shape] = vel
        return vel

    def fields(self, t, pts, names):
        return uniform_fields(self, t, pts, names, self.rho0)


class ExpansionFlow(FlowField):
    """Self-similar expansion: V = x/(t + t_c), spatially uniform rho and S.

    Particle paths are X(t) = x * (t + t_c)/t_c, density decays like
    (t_c/(t + t_c))^n and pressure follows from the state relation.  Every
    term of the governing system cancels exactly, so the flow is an exact
    smooth solution on t > -t_c.
    """

    def __init__(self, gamma, rho0, s0, t_c):
        rho0 = float(rho0)
        t_c = float(t_c)
        if rho0 <= 0.0:
            raise ValueError("rho0 must be positive")
        if t_c <= 0.0:
            raise ValueError("t_c must be positive")
        super().__init__(gamma, entropy_floor=s0)
        self.rho0 = rho0
        self.t_c = t_c

    def check_time(self, t):
        if t + self.t_c <= 0.0:
            raise ValueError(f"time {t} outside expansion-flow domain (t > {-self.t_c})")

    def velocity(self, t, pts):
        self.check_time(t)
        pts = self._pts(pts)
        return pts / (t + self.t_c)

    def fields(self, t, pts, names):
        self.check_time(t)
        rho = self.rho0 * (self.t_c / (t + self.t_c)) ** self.dimension
        return uniform_fields(self, t, pts, names, rho)


def uniform_fields(flow, t, pts, names, rho):
    """`fields` of a flow with density rho at t and its entropy floor everywhere."""
    pts = flow._pts(pts)
    uniform = {"rho": rho, "entropy": flow.entropy_floor}
    return {name: flow.velocity(t, pts) if name == "velocity"
            else np.full(pts.shape[:-1], uniform[name]) for name in names}

