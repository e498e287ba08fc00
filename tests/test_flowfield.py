import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import euler_residual, eval_state

from volflow.flowfield import (ConstantFlow, ExpansionFlow, FluidState,
                               make_analytic_flow)


def constant_flow():
    return make_analytic_flow("constant", 2, 1.4,
                              {"rho0": 1.0, "V0": (-1.0, 0.0), "P0": 1.0})


def expansion_flow():
    return make_analytic_flow("expansion", 2, 1.4,
                              {"rho0": 1.0, "S0": 0.0, "t_c": 1.0})


def test_constant_state_everywhere():
    flow = constant_flow()
    for t, x in [(0.0, (0.0, 0.0)), (3.7, (5.0, -2.0)), (-1.0, (0.1, 0.2))]:
        s = eval_state(flow, t, x)
        assert s.rho == 1.0
        assert np.array_equal(s.vel, [-1.0, 0.0])
        assert s.entropy == 0.0
        assert s.pressure == 1.0


def test_constant_time_translation_bitwise():
    flow = constant_flow()
    x = np.array([0.3, -0.7])
    a = eval_state(flow, 0.25, x)
    b = eval_state(flow, 0.25 + 17.0, x)
    assert a.rho == b.rho and a.pressure == b.pressure
    assert np.array_equal(a.vel, b.vel)


def test_expansion_values():
    flow = expansion_flow()
    x = np.array([2.0, 1.0])
    s = eval_state(flow, 1.0, x)
    assert s.rho == pytest.approx(0.25, rel=1e-14)
    assert s.pressure == pytest.approx(0.25 ** 1.4, rel=1e-14)
    assert np.allclose(s.vel, x / 2.0, rtol=1e-14)


def test_fluid_state_validation():
    with pytest.raises(ValueError):
        FluidState(rho=-1.0, vel=(0.0, 0.0), entropy=0.0, pressure=1.0)
    with pytest.raises(ValueError):
        FluidState(rho=1.0, vel=(0.0, 0.0), entropy=0.0, pressure=0.0)


@given(rho=st.floats(0.05, 50.0), s=st.floats(-3.0, 3.0),
       gamma=st.floats(1.05, 2.5))
def test_state_equation_consistency(rho, s, gamma):
    state = FluidState.from_primitives(rho, np.zeros(2), s, gamma)
    assert state.state_equation_gap(gamma) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.1, 2.0),
       x=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_expansion_eval_state_consistent(t, x):
    flow = expansion_flow()
    s = eval_state(flow, t, np.array(x))
    assert s.state_equation_gap(flow.gamma) <= 1e-12


def test_make_analytic_flow_errors():
    with pytest.raises(ValueError):
        make_analytic_flow("vortex", 2, 1.4, {})
    with pytest.raises(ValueError):
        make_analytic_flow("constant", 2, 0.9,
                           {"rho0": 1.0, "V0": (0.0, 0.0), "P0": 1.0})
    with pytest.raises(ValueError):
        make_analytic_flow("constant", 2, 1.4,
                           {"rho0": -1.0, "V0": (0.0, 0.0), "P0": 1.0})
    with pytest.raises(ValueError):
        make_analytic_flow("constant", 2, 1.4,
                           {"rho0": 1.0, "V0": (0.0, 0.0), "P0": 0.0})
    with pytest.raises(ValueError):
        make_analytic_flow("expansion", 2, 1.4,
                           {"rho0": 1.0, "S0": 0.0, "t_c": -2.0})


def test_expansion_domain():
    flow = expansion_flow()
    with pytest.raises(ValueError):
        eval_state(flow, -1.5, np.zeros(2))
    with pytest.raises(ValueError):
        euler_residual(flow, -0.99995, np.zeros(2), h=1e-3)


# Callers advance any flow before querying it; a closed-form flow has no
# start and nothing to advance.
def test_closed_form_flows_need_no_advancing():
    for flow in (constant_flow(), expansion_flow()):
        assert flow.advance_to(5.0) is None
        assert eval_state(flow, 5.0, np.ones(2)).rho > 0.0


def test_residual_requires_positive_h():
    with pytest.raises(ValueError):
        euler_residual(constant_flow(), 0.0, np.zeros(2), h=0.0)


def test_euler_residual_constant():
    flow = constant_flow()
    res = euler_residual(flow, 0.5, np.array([1.0, 2.0]), h=1e-4)
    assert res.shape == (4,)
    assert np.abs(res).max() <= 1e-12


def test_euler_residual_expansion_probes():
    # Analytic-flow exactness: 100 random probes, residual <= 1e-7 at h=1e-4.
    flow = expansion_flow()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        t = 0.1 + rng.random()
        x = rng.uniform(-3.0, 3.0, 2)
        worst = max(worst, np.abs(euler_residual(flow, t, x, 1e-4)).max())
    assert worst <= 1e-7


def test_euler_residual_3d():
    flow = make_analytic_flow("expansion", 3, 1.4,
                              {"rho0": 1.0, "S0": 0.0, "t_c": 1.0})
    res = euler_residual(flow, 0.5, np.array([1.0, -2.0, 0.5]), h=1e-4)
    assert res.shape == (5,)
    assert np.abs(res).max() <= 1e-7


def test_residual_detects_inconsistent_field():
    # Scaling the velocity by 1.1 breaks continuity by exactly
    # 0.1 * n * rho / (t + t_c); the probe must see it.
    class ScaledVelocity(ExpansionFlow):
        def velocity(self, t, pts):
            return 1.1 * super().velocity(t, pts)

    flow = ScaledVelocity(2, 1.4, rho0=1.0, s0=0.0, t_c=1.0)
    t, x = 0.5, np.array([1.0, 1.0])
    res = euler_residual(flow, t, x, h=1e-4)
    rho = float(flow.density(t, x))
    expected = 0.1 * 2 * rho / (t + 1.0)
    assert res[2] == pytest.approx(expected, rel=1e-6)
    assert abs(res[2]) > 1e-3


def test_entropy_floor_is_scenario_datum():
    flow = ConstantFlow(2, 1.4, rho0=2.0, vel0=np.zeros(2), p0=1.0)
    assert flow.entropy_floor == pytest.approx(-1.4 * np.log(2.0), rel=1e-14)


@pytest.mark.parametrize("dim, shape", [(2, (2,)), (2, (7, 2)), (2, (3, 5, 2)),
                                        (2, (0, 2)), (3, (3,)), (3, (6, 3)),
                                        (3, (2, 4, 3))])
def test_constant_velocity_is_held_and_read_only(dim, shape):
    vel0 = np.array([-1.25, 0.5, 2.0][:dim])
    flow = ConstantFlow(dim, 1.4, rho0=1.0, vel0=vel0, p0=1.0)
    pts = np.random.default_rng(dim).normal(size=shape)
    pts_before = pts.copy()
    other = np.zeros((5, dim))
    want = np.broadcast_to(vel0, pts.shape)
    a = flow.velocity(0.3, pts)
    assert a.shape == pts.shape and a.dtype == np.float64
    assert np.array_equal(a, want)
    with pytest.raises(ValueError, match="read-only"):
        a[...] = 7.0
    # Alternating two query shapes: each gets its own array, with V0 in it.
    for _ in range(2):
        b = flow.velocity(0.7, other)
        assert b.shape == other.shape
        assert np.array_equal(b, np.broadcast_to(vel0, other.shape))
        assert np.array_equal(flow.velocity(0.1, pts), want)
    for x in (pts, flow.vel0):
        assert not np.shares_memory(a, x)
    assert np.array_equal(pts, pts_before) and np.array_equal(flow.vel0, vel0)
