"""Scalar functionals of a (flow, volume) pair at one instant.

Everything here reduces to quadrature over the transported volume: mass and
total energy, the radial moment G = integral of rho * phi(|x - x0|), its
exact first time derivative F, the four-term decomposition of the second
derivative (I1..I4), and the boundary pressure-flux integral whose magnitude
the regularity constant M is supposed to dominate.

All radial profiles are evaluated in coordinates translated by -x0.  The
density-weighted terms use the transported mass measure directly; the
pressure terms take P = rho^gamma * exp(S) (here and nowhere else) and the
volume measure rho0 w/rho from one positive density read per point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .matvol import _boundary_elements

__all__ = [
    "TargetReached",
    "NonSmoothSample",
    "PhiSpec",
    "FunctionalSample",
    "sigma_norm2",
    "sample",
]

# Nodes closer to x0 than this have effectively reached the target; the event
# is terminal for a scenario, not a numerical failure.
RADIUS_FLOOR = 1e-9


class TargetReached(RuntimeError):
    """The volume has effectively reached x0 (a node hit the radius floor)."""


class NonSmoothSample(ValueError):
    """The flow is not smooth where a sample reads it: the density is not
    positive at a quadrature node or a boundary midpoint, or a functional is
    not finite.  A ValueError, so a bad sample of the initial data is a
    precondition error."""


@dataclass(frozen=True)
class PhiSpec:
    """Radial weight profile: a power law |x|^q (q < 0) or a generic C^2 triple."""

    q: Optional[float] = None
    phi: Optional[Callable] = None
    dphi: Optional[Callable] = None
    d2phi: Optional[Callable] = None

    @classmethod
    def power_law(cls, q):
        q = float(q)
        if q >= 0.0:
            raise ValueError("power-law exponent must be negative")
        return cls(q=q)

    @classmethod
    def generic(cls, phi, dphi, d2phi):
        return cls(q=None, phi=phi, dphi=dphi, d2phi=d2phi)

    @property
    def is_power_law(self):
        return self.q is not None

    def eval(self, r):
        """Return (phi, phi', phi'') at radii r."""
        r = np.asarray(r, dtype=float)
        if self.is_power_law:
            q = self.q
            return r ** q, q * r ** (q - 1.0), q * (q - 1.0) * r ** (q - 2.0)
        return (np.asarray(self.phi(r), dtype=float),
                np.asarray(self.dphi(r), dtype=float),
                np.asarray(self.d2phi(r), dtype=float))


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
    q: Optional[float]
    epsilon: float

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
    z = pts - x0
    r = np.linalg.norm(z, axis=-1)
    if np.any(r < RADIUS_FLOOR):
        raise TargetReached(f"a node came within {RADIUS_FLOOR} of x0")
    return z, r


def _pressure(flow, t, pts, rho, where):
    """The pressure rho^gamma * exp(S) at pts from the density rho read
    there; a density that is not positive (or is NaN) makes the sample not
    smooth."""
    if not np.all(rho > 0.0):
        raise NonSmoothSample(f"flow density not positive at {where} at t={t}")
    return rho ** flow.gamma * np.exp(flow.entropy(t, pts))


def sample(flow, vol, phi, epsilon):
    """Evaluate all functionals of (flow, vol) at the volume's current time.

    Raises `TargetReached` within `RADIUS_FLOOR` of x0, and
    `NonSmoothSample` rather than return a functional that is not finite."""
    t = vol.time
    flow.check_time(t)
    n = flow.dimension
    gamma = flow.gamma

    z, r = _radii(vol.nodes, vol.x0)
    vel = np.asarray(flow.velocity(t, vol.nodes), dtype=float)
    rho = np.asarray(flow.density(t, vol.nodes), dtype=float)
    pres = _pressure(flow, t, vol.nodes, rho, "a quadrature node")

    w = vol.mass_w
    vol_w = w / rho                     # plain volume measure via rho0/rho

    p_val, p_d1, p_d2 = phi.eval(r)
    vz = np.einsum("ij,ij->i", vel, z)
    speed2 = np.einsum("ij,ij->i", vel, vel)

    m = float(np.sum(w))
    energy = float(np.sum(0.5 * speed2 * w) + np.sum(pres / (gamma - 1.0) * vol_w))
    g_val = float(np.sum(p_val * w))
    f_val = float(np.sum(p_d1 / r * vz * w))
    i1 = float(np.sum(p_d2 / r ** 2 * vz ** 2 * w))
    i2 = float(np.sum(p_d1 / r ** 3 * sigma_norm2(vel, z) * w))
    i3 = float(np.sum((p_d2 + (n - 1.0) * p_d1 / r) * pres * vol_w))

    mids, normals, measures = _boundary_elements(vol)
    zb, rb = _radii(mids, vol.x0)
    rho_b = np.asarray(flow.density(t, mids), dtype=float)
    pres_b = _pressure(flow, t, mids, rho_b, "a boundary midpoint")
    zb_dot_n = np.einsum("ij,ij->i", zb, normals)
    _, pb_d1, _ = phi.eval(rb)
    i4 = -float(np.sum(pb_d1 / rb * zb_dot_n * pres_b * measures))
    reg = float(np.sum(zb_dot_n / rb * pres_b * measures))

    values = dict(m=m, E=energy, G=g_val, F=f_val, I1=i1, I2=i2, I3=i3, I4=i4, reg=reg)
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise NonSmoothSample(f"functional {', '.join(bad)} not finite at t={t}")
    return FunctionalSample(t=float(t), q=phi.q, epsilon=float(epsilon), **values)
