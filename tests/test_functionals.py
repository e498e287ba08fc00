import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (SyntheticFlow, advect_unchecked, annulus_volume, disk_volume,
                     profile_moments, small_grid_flow)

from volflow import solver
from volflow.flowfield import ConstantFlow, ExpansionFlow
from volflow.functionals import (NonSmoothSample, TargetReached, _profile, sample,
                                 sigma_norm2)
from volflow.matvol import advect


def still_flow(rho0=1.0, p0=1.0):
    return ConstantFlow(1.4, rho0=rho0, vel0=(0.0, 0.0), p0=p0)


def expansion():
    return ExpansionFlow(1.4, rho0=1.0, s0=0.0, t_c=1.0)


# -- sigma -------------------------------------------------------------------

def test_sigma_examples():
    assert sigma_norm2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert sigma_norm2(np.array([0.0, 2.0]), np.array([1.5, 0.0])) == 9.0
    x = np.array([0.3, -0.8])
    assert sigma_norm2(2.5 * x, x) == pytest.approx(0.0, abs=1e-30)


def test_sigma_dimension_mismatch():
    with pytest.raises(ValueError):
        sigma_norm2(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        sigma_norm2(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        sigma_norm2(np.zeros(4), np.zeros(4))


@given(v=arrays(float, 2, elements=st.floats(-5, 5)),
       x=arrays(float, 2, elements=st.floats(-5, 5)))
def test_sigma_lagrange_identity(v, x):
    # (v_2 x_1 - v_1 x_2)^2 equals |v|^2 |x|^2 - (v.x)^2
    want = (v @ v) * (x @ x) - (v @ x) ** 2
    assert sigma_norm2(v, x) == pytest.approx(want, rel=1e-12, abs=1e-9)


# -- the profile r^q -----------------------------------------------------------

def test_power_law_eval():
    r = np.array([1.0, 2.0])
    p, d1, d2 = _profile(r, -8.0)
    assert np.allclose(p, r ** -8.0)
    assert np.allclose(d1, -8.0 * r ** -9.0)
    assert np.allclose(d2, 72.0 * r ** -10.0)


# -- sample ------------------------------------------------------------------

def test_radial_velocity_identities():
    # V = x (about x0 = 0): F = q G and I1 = q(q-1) G exactly in quadrature
    flow = SyntheticFlow(lambda t, p: p)
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    q = -8.0
    s = sample(flow, vol, q)
    assert s.F == pytest.approx(q * s.G, rel=1e-8)
    assert s.I1 == pytest.approx(q * (q - 1.0) * s.G, rel=1e-8)
    assert s.I2 == pytest.approx(0.0, abs=1e-12 * abs(s.I1))  # radial: sigma = 0


def test_mass_and_energy_constants():
    flow = still_flow(rho0=2.0, p0=1.0)
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    s = sample(flow, vol, -8.0)
    assert s.m == pytest.approx(2.0 * np.pi, rel=1e-10)
    assert s.E == pytest.approx(np.pi / 0.4, rel=1e-10)


def test_reg_annulus_uniform_pressure():
    flow = still_flow()
    vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5,
                         markers=8192)
    s = sample(flow, vol, -8.0)
    assert s.reg == pytest.approx(2.0 * np.pi, abs=1e-6)
    # The hole loop's flux is -2 pi: the unsigned flux adds it back.
    assert s.reg_abs == pytest.approx(6.0 * np.pi, abs=1e-6)


@pytest.mark.parametrize("shape", ["disk", "annulus"])
def test_boundary_terms_cancel_under_uniform_pressure(shape):
    # Uniform P: I4 = -P * flux of phi'(r) z/r = -P * integral of the
    # divergence = -I3 by the divergence theorem (x0 outside the disk, and in
    # the annulus's hole).  The boundary quadrature error falls like
    # markers^-2, so each doubling must cut |I3 + I4| / |I3| at least 3.5x.
    flow = still_flow()
    gaps = []
    for markers in (128, 256, 512, 1024):
        if shape == "disk":
            vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5, markers=markers)
        else:
            vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5,
                                 markers=markers)
        s = sample(flow, vol, -8.0)
        gaps.append(abs(s.I3 + s.I4) / abs(s.I3))
    assert gaps[0] < 3e-3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert fine * 3.5 <= coarse, gaps


def test_sign_structure():
    # generic smooth velocity; q = -8 < 2 - n so I3 >= 0, I1 >= 0, I2 <= 0
    def swirl(t, p):
        return np.stack([p[..., 0] - 0.3 * p[..., 1] ** 2,
                         np.sin(p[..., 0])], axis=-1)

    flow = SyntheticFlow(swirl)
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    s = sample(flow, vol, -8.0)
    assert s.G >= 0.0
    assert s.I1 >= 0.0
    assert s.I2 <= 0.0
    assert s.I3 >= 0.0
    assert s.m > 0.0


def test_target_reached_floor():
    flow = still_flow()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    # A node sitting on x0 lies within the radius floor.
    vol = dataclasses.replace(vol, x0=vol.nodes[0])
    with pytest.raises(TargetReached):
        sample(flow, vol, -8.0)


def test_sample_outside_the_flow_window_is_refused():
    # The flow's own `fields` checks the time window.
    flow = small_grid_flow()
    vol = disk_volume(flow, (0.3, 0.0), 0.2, (-0.5, 0.0), 0.1, markers=64, order=6)
    with pytest.raises(ValueError, match="grid flow not advanced to t=0.05"):
        sample(flow, dataclasses.replace(vol, time=0.05), -8.0)


def test_x0_translation_used():
    # same geometry expressed in two frames must give identical functionals
    flow_a = SyntheticFlow(lambda t, p: p)
    vol_a = disk_volume(flow_a, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    flow_b = SyntheticFlow(lambda t, p: p - np.array([10.0, 0.0]))
    vol_b = disk_volume(flow_b, (13.0, 0.0), 1.0, (10.0, 0.0), 0.5)
    q = -8.0
    sa = sample(flow_a, vol_a, q)
    sb = sample(flow_b, vol_b, q)
    for name in ("m", "G", "F", "I1", "I2", "I3", "I4", "reg",
                 "reg_abs"):
        assert getattr(sa, name) == pytest.approx(getattr(sb, name), rel=1e-10,
                                                  abs=1e-12)


# -- lemma-1 right-hand sides -------------------------------------------------

def test_quadratic_profile_radial_flow():
    # phi = r^q with V = x: dG/dt = q * integral(|x|^q rho) = q G, for the
    # quadratic r^2 as for the paper's q < 0
    flow = SyntheticFlow(lambda t, p: p)
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    for q in (2.0, -8.0):
        s = sample(flow, vol, q)
        assert s.F == pytest.approx(q * s.G, rel=1e-12)


@pytest.mark.parametrize("flow", [
    expansion(),
    SyntheticFlow(lambda t, p: np.stack([0.7 * p[..., 1], 0.2 * p[..., 0]], axis=-1)),
], ids=["expansion", "sheared"])
def test_profile_moments_match_sample_on_the_power_law(flow):
    # The reference quadrature of acceptance criterion 3's cosh and exp
    # profiles reads r^q to the same bits as `sample`.
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    vol = advect_unchecked(vol, flow, 0.3, 0.05)
    q = -8.0
    s = sample(flow, vol, q)
    assert profile_moments(flow, vol, lambda r: r ** q, lambda r: q * r ** (q - 1.0),
                           lambda r: q * (q - 1.0) * r ** (q - 2.0)) == (s.G, s.F, s.I1)


def test_first_derivative_matches_finite_difference():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    vol = advect(vol, flow, 0.4, 0.02)
    h = 1e-4

    def g_at(v):
        r = np.linalg.norm(v.nodes - v.x0, axis=1)
        return float(np.sum(r ** -8.0 * v.mass_w))

    gp = g_at(advect_unchecked(vol, flow, 0.4 + h, h))
    gm = g_at(advect_unchecked(vol, flow, 0.4 - h, h))
    s = sample(flow, vol, -8.0)
    assert (gp - gm) / (2.0 * h) == pytest.approx(s.F, rel=1e-6)


# -- bounds while dist >= epsilon ---------------------------------------------

@settings(max_examples=10, deadline=None)
@given(t=st.floats(0.0, 1.0))
def test_bounds_chain_expansion(t):
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5, markers=128,
                      order=30)
    if t > 0:
        vol = advect_unchecked(vol, flow, t, 0.05)
    q, eps = -8.0, 0.5
    s = sample(flow, vol, q)
    aq = abs(q)
    assert abs(s.F) <= aq * eps ** (q - 1.0) * np.sqrt(2.0 * s.m * s.E) * (1 + 1e-12)
    assert abs(s.I2) <= 2.0 * aq * eps ** (q - 2.0) * s.E * (1 + 1e-12)
    assert abs(s.I4) <= aq * eps ** (q - 1.0) * abs(s.reg) * (1 + 1e-12)
    assert s.G <= eps ** q * s.m * (1 + 1e-12)


# -- samples where the flow is not smooth ------------------------------------

class _DensityFlow(ConstantFlow):
    """A still flow whose density is the given function of the points."""

    def __init__(self, rho):
        super().__init__(1.4, rho0=1.0, vel0=(0.0, 0.0), p0=1.0)
        self._rho = rho

    def fields(self, t, pts, names):
        read = super().fields(t, pts, names)
        if "rho" in read:
            read["rho"] = self._rho(self._pts(pts))
        return read


def _dip(radius, value):
    """Density 1 inside `radius` of (3, 0) and `value` beyond it."""
    return lambda p: np.where(np.hypot(p[..., 0] - 3.0, p[..., 1]) < radius, 1.0, value)


@pytest.mark.parametrize("value", [-0.5, 0.0, np.nan])
def test_sample_rejects_a_bad_density_at_a_boundary_midpoint(value):
    # Chord midpoints of the unit disk sit at radius cos(pi/64) ~ 0.9988;
    # the outermost Gauss node of order 10 at ~0.987.
    vol = disk_volume(still_flow(), (3.0, 0.0), 1.0, (0.0, 0.0), 0.5,
                      markers=64, order=10)
    with pytest.raises(NonSmoothSample, match="boundary midpoint at t=0.0"):
        sample(_DensityFlow(_dip(0.995, value)), vol, -8.0)
    with pytest.raises(NonSmoothSample, match="quadrature node at t=0.0"):
        sample(_DensityFlow(_dip(0.5, value)), vol, -8.0)
    sample(_DensityFlow(_dip(1.5, value)), vol, -8.0)


def test_sample_reads_the_density_once_per_point_set():
    # The velocity, the measure and the pressure at the nodes share one
    # read; the boundary midpoints get one more.
    reads = []

    class Counting(_DensityFlow):
        def fields(self, t, pts, names):
            reads.append((len(pts), tuple(names)))
            return super().fields(t, pts, names)

    flow = Counting(lambda p: np.ones(len(p)))
    vol = disk_volume(still_flow(), (3.0, 0.0), 1.0, (0.0, 0.0), 0.5,
                      markers=64, order=10)
    sample(flow, vol, -8.0)
    nodes = len(vol.nodes)
    assert reads == [(nodes, ("velocity", "rho", "entropy")), (64, ("rho", "entropy"))]


def test_grid_sample_interpolates_once_per_point_set(monkeypatch):
    # Velocity, density and entropy at the nodes in one interpolation, density
    # and entropy at the boundary midpoints in one more; at a snapshot time
    # and between snapshots.
    flow = small_grid_flow()                  # snapshots every 2e-3
    vol = disk_volume(flow, (0.5, 0.0), 0.2, (0.0, 0.0), 0.1, markers=64,
                      order=10)
    interpolate = solver.interpolate_fields
    calls = []

    def counting(state, pts, *args, **kwargs):
        calls.append(len(pts))
        return interpolate(state, pts, *args, **kwargs)

    monkeypatch.setattr(solver, "interpolate_fields", counting)
    for t in (0.004, 0.005):
        calls.clear()
        sample(flow, dataclasses.replace(vol, time=t), -2.0)
        assert calls == [len(vol.nodes), 64]


def test_sample_rejects_a_functional_that_is_not_finite():
    # x0 sits 0.6 from the disk: r^q overflows at every node and boundary
    # midpoint for q = -3000, and only in the boundary term I4 for q = -1500.
    vol = disk_volume(still_flow(), (3.0, 0.0), 1.0, (1.4, 0.0), 0.5,
                      markers=64, order=10)
    with pytest.raises(NonSmoothSample,
                       match="functional G, F, I1, I2, I3, I4 not finite at t=0.0") as exc:
        sample(still_flow(), vol, -3000.0)
    assert exc.value.functionals == ("G", "F", "I1", "I2", "I3", "I4")
    with pytest.raises(NonSmoothSample, match="functional I4 not finite at t=0.0") as exc:
        sample(still_flow(), vol, -1500.0)
    assert exc.value.functionals == ("I4",)
