import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import SyntheticFlow, annulus_volume, disk_volume

from volflow.flowfield import ConstantFlow, make_analytic_flow
from volflow.functionals import (NonSmoothSample, PhiSpec, TargetReached, sample,
                                 sigma_norm2)
from volflow.matvol import advect


def still_flow(rho0=1.0, p0=1.0):
    return make_analytic_flow("constant", 1.4,
                              {"rho0": rho0, "V0": (0.0, 0.0), "P0": p0})


def expansion():
    return make_analytic_flow("expansion", 1.4,
                              {"rho0": 1.0, "S0": 0.0, "t_c": 1.0})


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


# -- phi profiles ------------------------------------------------------------

def test_power_law_requires_negative_exponent():
    with pytest.raises(ValueError):
        PhiSpec.power_law(0.5)


def test_power_law_eval():
    phi = PhiSpec.power_law(-8.0)
    r = np.array([1.0, 2.0])
    p, d1, d2 = phi.eval(r)
    assert np.allclose(p, r ** -8.0)
    assert np.allclose(d1, -8.0 * r ** -9.0)
    assert np.allclose(d2, 72.0 * r ** -10.0)


# -- sample ------------------------------------------------------------------

def test_radial_velocity_identities():
    # V = x (about x0 = 0): F = q G and I1 = q(q-1) G exactly in quadrature
    flow = SyntheticFlow(lambda t, p: p)
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    q = -8.0
    s = sample(flow, vol, PhiSpec.power_law(q), 0.5)
    assert s.F == pytest.approx(q * s.G, rel=1e-8)
    assert s.I1 == pytest.approx(q * (q - 1.0) * s.G, rel=1e-8)
    assert s.I2 == pytest.approx(0.0, abs=1e-12 * abs(s.I1))  # radial: sigma = 0


def test_mass_and_energy_constants():
    flow = still_flow(rho0=2.0, p0=1.0)
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    s = sample(flow, vol, PhiSpec.power_law(-8.0), 0.5)
    assert s.m == pytest.approx(2.0 * np.pi, rel=1e-10)
    assert s.E == pytest.approx(np.pi / 0.4, rel=1e-10)


def test_reg_annulus_uniform_pressure():
    flow = still_flow()
    vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5,
                         markers=8192)
    s = sample(flow, vol, PhiSpec.power_law(-8.0), 0.5)
    assert s.reg == pytest.approx(2.0 * np.pi, abs=1e-6)


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
        s = sample(flow, vol, PhiSpec.power_law(-8.0), 0.5)
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
    s = sample(flow, vol, PhiSpec.power_law(-8.0), 0.5)
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
        sample(flow, vol, PhiSpec.power_law(-8.0), 0.5)


def test_x0_translation_used():
    # same geometry expressed in two frames must give identical functionals
    flow_a = SyntheticFlow(lambda t, p: p)
    vol_a = disk_volume(flow_a, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    flow_b = SyntheticFlow(lambda t, p: p - np.array([10.0, 0.0]))
    vol_b = disk_volume(flow_b, (13.0, 0.0), 1.0, (10.0, 0.0), 0.5)
    q = -8.0
    sa = sample(flow_a, vol_a, PhiSpec.power_law(q), 0.5)
    sb = sample(flow_b, vol_b, PhiSpec.power_law(q), 0.5)
    for name in ("m", "G", "F", "I1", "I2", "I3", "I4", "reg"):
        assert getattr(sa, name) == pytest.approx(getattr(sb, name), rel=1e-10,
                                                  abs=1e-12)


# -- lemma-1 right-hand sides -------------------------------------------------

def test_constant_profile_degenerates_to_mass():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    one = PhiSpec.generic(lambda r: np.ones_like(r),
                          lambda r: np.zeros_like(r),
                          lambda r: np.zeros_like(r))
    s = sample(flow, vol, one, 0.5)
    assert s.F == 0.0 and s.I_sum == 0.0
    assert s.G == pytest.approx(s.m, rel=1e-14)


def test_quadratic_profile_radial_flow():
    # phi = r^2 with V = x: dG/dt = 2 * integral(|x|^2 rho) = 2 G
    flow = SyntheticFlow(lambda t, p: p)
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    r2 = PhiSpec.generic(lambda r: r ** 2, lambda r: 2.0 * r,
                         lambda r: 2.0 * np.ones_like(r))
    s = sample(flow, vol, r2, 0.5)
    assert s.F == pytest.approx(2.0 * s.G, rel=1e-12)


def test_first_derivative_matches_finite_difference():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    vol = advect(vol, flow, 0.4, 0.02)
    phi = PhiSpec.power_law(-8.0)
    h = 1e-4
    from volflow.matvol import _advect_any

    def g_at(v):
        r = np.linalg.norm(v.nodes - v.x0, axis=1)
        return float(np.sum(r ** -8.0 * v.mass_w))

    gp = g_at(_advect_any(vol, flow, 0.4 + h, h, check_boundary=False))
    gm = g_at(_advect_any(vol, flow, 0.4 - h, h, check_boundary=False))
    s = sample(flow, vol, phi, 0.5)
    assert (gp - gm) / (2.0 * h) == pytest.approx(s.F, rel=1e-6)


# -- bounds while dist >= epsilon ---------------------------------------------

@settings(max_examples=10, deadline=None)
@given(t=st.floats(0.0, 1.0))
def test_bounds_chain_expansion(t):
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5, markers=128,
                      order=30)
    if t > 0:
        vol = advect(vol, flow, t, 0.05, check_boundary=False)
    q, eps = -8.0, 0.5
    s = sample(flow, vol, PhiSpec.power_law(q), eps)
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

    def density(self, t, pts):
        return self._rho(self._pts(pts))


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
        sample(_DensityFlow(_dip(0.995, value)), vol, PhiSpec.power_law(-8.0), 0.5)
    with pytest.raises(NonSmoothSample, match="quadrature node at t=0.0"):
        sample(_DensityFlow(_dip(0.5, value)), vol, PhiSpec.power_law(-8.0), 0.5)
    sample(_DensityFlow(_dip(1.5, value)), vol, PhiSpec.power_law(-8.0), 0.5)


def test_sample_reads_the_density_once_per_point_set():
    # The measure and the pressure at the nodes share one read; the
    # boundary midpoints get one more.
    reads = []
    flow = _DensityFlow(lambda p: reads.append(len(p)) or np.ones(len(p)))
    vol = disk_volume(still_flow(), (3.0, 0.0), 1.0, (0.0, 0.0), 0.5,
                      markers=64, order=10)
    sample(flow, vol, PhiSpec.power_law(-8.0), 0.5)
    nodes = len(vol.nodes)
    assert reads == [nodes, 64]


def test_sample_rejects_a_functional_that_is_not_finite():
    vol = disk_volume(still_flow(), (3.0, 0.0), 1.0, (0.0, 0.0), 0.5,
                      markers=64, order=10)
    phi = PhiSpec.generic(lambda r: np.full_like(r, np.nan), lambda r: 0.0 * r,
                          lambda r: 0.0 * r)
    with pytest.raises(NonSmoothSample, match="functional G not finite at t=0.0"):
        sample(still_flow(), vol, phi, 0.5)
