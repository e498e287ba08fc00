"""Scalar functionals of a (flow, volume) pair at one instant.

Everything here reduces to quadrature over the transported volume: mass and
total energy, the radial moment G = integral of rho * phi(|x - x0|) of the
power-law profile phi(r) = r^q, its exact first time derivative F, the
four-term decomposition of the second derivative (I1..I4), and the boundary
pressure-flux integral, signed and unsigned; the regularity constant M must
dominate the unsigned one.

The profile is evaluated in coordinates translated by -x0.  The
density-weighted terms use the transported mass measure directly; the
pressure terms take P = rho^gamma * exp(S) (here and nowhere else) and the
volume measure rho0 w/rho, from one `fields` read of the flow per point set
(the quadrature nodes, then the boundary midpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flowfield import NotSmooth
from .matvol import _boundary_elements, _dot, _norm, _offset

__all__ = [
    "TargetReached",
    "FunctionalSample",
    "sigma_norm2",
    "sample",
]

# Nodes closer to x0 than this have effectively reached the target; the event
# is terminal for a scenario, not a numerical failure.
RADIUS_FLOOR = 1e-9


class TargetReached(ValueError):
    """The volume has effectively reached x0 (a node hit the radius floor).
    A ValueError: where a run does not end at it, the times or exponents
    that asked for the sample are at fault."""


@dataclass(frozen=True)
class FunctionalSample:
    """One time slice of every scalar functional."""

    t: float
    m: float
    E: float
    G: float
    F: float
    I1: float
    I2: float
    I3: float
    I4: float
    reg: float          # signed boundary flux of (x/|x|, N) P
    reg_abs: float      # unsigned boundary flux of |(x/|x|, N) P|

    @property
    def I_sum(self):
        return self.I1 + self.I2 + self.I3 + self.I4


def sigma_norm2(vel, x):
    """Squared angular-momentum magnitude |sigma|^2 = (V_2 x_1 - V_1 x_2)^2 of
    planar vectors.

    Vectorized: vel and x may carry leading point axes; their last axis must
    have length 2.
    """
    vel = np.asarray(vel, dtype=float)
    x = np.asarray(x, dtype=float)
    if vel.shape != x.shape:
        raise ValueError("velocity and position shapes differ")
    if vel.shape[-1] != 2:
        raise ValueError(f"vectors must have 2 components, got {vel.shape[-1]}")
    s = vel[..., 1] * x[..., 0] - vel[..., 0] * x[..., 1]
    return s * s


def _radii(pts, x0):
    z = _offset(pts, x0)
    r = _norm(z)
    if np.any(r < RADIUS_FLOOR):
        raise TargetReached(f"a node came within {RADIUS_FLOOR} of x0")
    return z, r


def _read(flow, t, pts, names, where):
    """One `fields` read of `names` at pts; a density that is not positive
    (or is NaN) there makes the sample not smooth."""
    read = flow.fields(t, pts, names)
    if not np.all(read["rho"] > 0.0):
        raise NotSmooth(f"flow density not positive at {where} at t={t}", ())
    return read


def _profile_d1(r, q):
    """The profile's first derivative q r^(q-1) at radii r."""
    return q * r ** (q - 1.0)


def _profile(r, q):
    """The profile r^q and its first two derivatives at radii r."""
    return r ** q, _profile_d1(r, q), q * (q - 1.0) * r ** (q - 2.0)


def _pressure(gamma, read):
    """The pressure rho^gamma * exp(S) from the density and entropy of one
    `fields` read."""
    return read["rho"] ** gamma * np.exp(read["entropy"])


def sample(flow, vol, q):
    """Evaluate all functionals of (flow, vol) at the volume's current time,
    for the moment profile phi = r^q.

    Raises `TargetReached` within `RADIUS_FLOOR` of x0, and
    `NotSmooth` rather than return a functional that is not finite.
    The flow is read and checked first (each flow's `fields` refuses a time
    outside its window); the arithmetic after it warns of no
    overflow or invalid value, since a functional it makes not finite is
    refused by name."""
    t = vol.time
    n = flow.dimension
    gamma = flow.gamma

    z, r = _radii(vol.nodes, vol.x0)
    at_nodes = _read(flow, t, vol.nodes, ("velocity", "rho", "entropy"),
                     "a quadrature node")
    mids, normals, measures = _boundary_elements(vol)
    zb, rb = _radii(mids, vol.x0)
    at_mids = _read(flow, t, mids, ("rho", "entropy"), "a boundary midpoint")

    with np.errstate(over="ignore", invalid="ignore"):
        vel, rho = at_nodes["velocity"], at_nodes["rho"]
        pres = _pressure(gamma, at_nodes)

        w = vol.mass_w
        vol_w = w / rho                     # plain volume measure via rho0/rho

        p_val, p_d1, p_d2 = _profile(r, q)
        vz = _dot(vel, z)
        speed2 = _dot(vel, vel)

        m = float(np.sum(w))
        energy = float(np.sum(0.5 * speed2 * w) + np.sum(pres / (gamma - 1.0) * vol_w))
        g_val = float(np.sum(p_val * w))
        f_val = float(np.sum(p_d1 / r * vz * w))
        i1 = float(np.sum(p_d2 / r ** 2 * vz ** 2 * w))
        i2 = float(np.sum(p_d1 / r ** 3 * sigma_norm2(vel, z) * w))
        i3 = float(np.sum((p_d2 + (n - 1.0) * p_d1 / r) * pres * vol_w))

        pres_b = _pressure(gamma, at_mids)
        zb_dot_n = _dot(zb, normals)
        pb_d1 = _profile_d1(rb, q)
        i4 = -float(np.sum(pb_d1 / rb * zb_dot_n * pres_b * measures))
        flux = zb_dot_n / rb * pres_b * measures
        reg = float(np.sum(flux))
        reg_abs = float(np.sum(np.abs(flux)))

    values = dict(m=m, E=energy, G=g_val, F=f_val, I1=i1, I2=i2, I3=i3, I4=i4,
                  reg=reg, reg_abs=reg_abs)
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise NotSmooth(f"functional {', '.join(bad)} not finite at t={t}",
                        tuple(bad))
    return FunctionalSample(t=float(t), **values)
