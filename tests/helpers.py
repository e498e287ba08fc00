"""Shared test utilities: synthetic flows and quick volume builders."""

import math
from pathlib import Path

import numpy as np

from volflow import solver
from volflow.flowfield import FlowField
from volflow.matvol import VolumeShapeSpec, init_volume
from volflow.solver import GridFlow

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"


class SyntheticFlow(FlowField):
    """Constant thermodynamics with an arbitrary smooth velocity field.

    Useful for checks that are quadrature-level identities and do not need
    the velocity to solve anything.
    """

    def __init__(self, dimension, velocity_fn, gamma=1.4, rho0=1.0, p0=1.0):
        s0 = math.log(p0) - gamma * math.log(rho0)
        super().__init__(dimension, gamma, entropy_floor=s0)
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
    return init_volume(spec, flow, np.asarray(x0, dtype=float), epsilon)


def annulus_volume(flow, center, radii, x0, epsilon, markers=256, order=40):
    spec = VolumeShapeSpec(shape="annulus", center=tuple(center), radii=tuple(radii),
                           markers=markers, quad_order=order)
    return init_volume(spec, flow, np.asarray(x0, dtype=float), epsilon)


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
