"""Scalar functionals of a (flow, volume) pair at one instant.

Everything here reduces to quadrature over the transported volume: mass and
total energy, the radial moment G = integral of rho * phi(|x - x0|), its
exact first time derivative F, the four-term decomposition of the second
derivative (I1..I4), and the boundary pressure-flux integral whose magnitude
the regularity constant M is supposed to dominate.

All radial profiles are evaluated in coordinates translated by -x0.  The
density-weighted terms use the transported mass measure directly; the
pressure terms recover the volume measure from the density ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .matvol import _boundary_elements

__all__ = [
    "TargetReached",
    "PhiSpec",
    "FunctionalSample",
    "sigma_norm2",
    "sample",
]

# Nodes closer to x0 than this have effectively reached the target; the event
# is terminal for a scenario, not a numerical failure.
DEFAULT_RADIUS_FLOOR = 1e-9


class TargetReached(RuntimeError):
    """The volume has effectively reached x0 (a node hit the radius floor)."""


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
    """Squared angular-momentum magnitude |sigma|^2 = sum (V_i x_j - V_j x_i)^2
    over index pairs i > j (one component in 2-D, three in 3-D).

    Vectorized: vel and x may carry leading point axes.
    """
    vel = np.asarray(vel, dtype=float)
    x = np.asarray(x, dtype=float)
    if vel.shape != x.shape:
        raise ValueError("velocity and position shapes differ")
    n = vel.shape[-1]
    if n == 2:
        s = vel[..., 1] * x[..., 0] - vel[..., 0] * x[..., 1]
        return s * s
    if n == 3:
        s21 = vel[..., 1] * x[..., 0] - vel[..., 0] * x[..., 1]
        s31 = vel[..., 2] * x[..., 0] - vel[..., 0] * x[..., 2]
        s32 = vel[..., 2] * x[..., 1] - vel[..., 1] * x[..., 2]
        return s21 * s21 + s31 * s31 + s32 * s32
    raise ValueError(f"dimension must be 2 or 3, got {n}")


def _radii(pts, x0, floor):
    z = pts - x0
    r = np.linalg.norm(z, axis=-1)
    if np.any(r < floor):
        raise TargetReached(f"a node came within {floor} of x0")
    return z, r


def sample(flow, vol, phi, epsilon, radius_floor=DEFAULT_RADIUS_FLOOR):
    """Evaluate all functionals of (flow, vol) at the volume's current time."""
    t = vol.time
    flow.check_time(t)
    n = vol.dim
    gamma = flow.gamma

    z, r = _radii(vol.nodes, vol.x0, radius_floor)
    vel = np.asarray(flow.velocity(t, vol.nodes), dtype=float)
    rho = np.asarray(flow.density(t, vol.nodes), dtype=float)
    pres = np.asarray(flow.pressure(t, vol.nodes), dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("flow density non-positive at a quadrature node")

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
    zb, rb = _radii(mids, vol.x0, radius_floor)
    pres_b = np.asarray(flow.pressure(t, mids), dtype=float)
    zb_dot_n = np.einsum("ij,ij->i", zb, normals)
    _, pb_d1, _ = phi.eval(rb)
    i4 = -float(np.sum(pb_d1 / rb * zb_dot_n * pres_b * measures))
    reg = float(np.sum(zb_dot_n / rb * pres_b * measures))

    return FunctionalSample(t=float(t), m=m, E=energy, G=g_val, F=f_val,
                            I1=i1, I2=i2, I3=i3, I4=i4, reg=reg,
                            q=phi.q, epsilon=float(epsilon))
