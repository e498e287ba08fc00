import numpy as np
import pytest

from volflow.flowfield import make_analytic_flow
from volflow.solver import (GridFlow, GridState, NonSmoothState, SmoothnessLost,
                            interpolate_fields, smoothness_guard, step)


def uniform_state(n=32, rho=1.0, vx=0.3, vy=-0.2, s=0.0, gamma=1.4):
    shape = (n, n)
    return GridState(rho=np.full(shape, rho), vx=np.full(shape, vx),
                     vy=np.full(shape, vy), entropy=np.full(shape, s),
                     gamma=gamma, origin=(0.0, 0.0), spacing=(1.0 / n, 1.0 / n),
                     time=0.0)


def gaussian_pressure_matched(n, amp=0.3, width=0.07, vx=1.0, gamma=1.4):
    """Density bump advected by a uniform stream under uniform pressure.

    The entropy field compensates the bump so P = rho^gamma e^S is exactly
    uniform; the system then reduces to pure advection and the translated
    initial density is the exact solution.
    """
    h = 1.0 / n
    c = np.arange(n) * h
    x, y = np.meshgrid(c, c, indexing="ij")
    rho = 1.0 + amp * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2.0 * width ** 2))
    entropy = -gamma * np.log(rho)
    return GridState(rho=rho, vx=np.full((n, n), vx), vy=np.zeros((n, n)),
                     entropy=entropy, gamma=gamma, origin=(0.0, 0.0),
                     spacing=(h, h), time=0.0)


def run_to(state, t_final):
    drift = 0.0
    m_prev = state.mass()
    steps = int(np.ceil(t_final / (0.9 * state.cfl_limit())))
    dt = t_final / steps
    for _ in range(steps):
        state = step(state, dt)
        m = state.mass()
        drift = max(drift, abs(m - m_prev) / m_prev)
        m_prev = m
    return state, drift


def test_constant_state_is_exact_fixed_point():
    st = uniform_state()
    st2 = step(st, 0.5 * st.cfl_limit())
    for name in ("rho", "vx", "vy", "entropy"):
        assert np.array_equal(getattr(st, name), getattr(st2, name))


def test_step_is_deterministic():
    st = gaussian_pressure_matched(64)
    dt = 0.5 * st.cfl_limit()
    a = step(st, dt)
    b = step(st, dt)
    for name in ("rho", "vx", "vy", "entropy"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_cfl_violation_rejected():
    st = uniform_state()
    with pytest.raises(ValueError, match="CFL"):
        step(st, 10.0 * st.cfl_limit())
    with pytest.raises(ValueError):
        step(st, -1e-3)


def test_grid_needs_16_cells():
    with pytest.raises(ValueError):
        uniform_state(n=8)


def test_positive_density_enforced():
    n = 32
    rho = np.ones((n, n))
    rho[3, 4] = -0.1
    with pytest.raises(NonSmoothState):
        GridState(rho=rho, vx=np.zeros((n, n)), vy=np.zeros((n, n)),
                  entropy=np.zeros((n, n)), gamma=1.4, origin=(0.0, 0.0),
                  spacing=(1.0 / n, 1.0 / n), time=0.0)


def test_pressure_cache_consistent():
    st = gaussian_pressure_matched(32)
    gap = np.abs(st.pressure - st.rho ** st.gamma * np.exp(st.entropy))
    assert gap.max() <= 1e-12 * st.pressure.max()
    # pressure-matched construction: P is uniform to rounding
    assert np.abs(st.pressure - 1.0).max() <= 1e-12


def test_mass_conserved_per_step():
    st = gaussian_pressure_matched(64)
    _, drift = run_to(st, 0.1)
    assert drift <= 1e-10


def test_gaussian_advection_order():
    # uniform V, uniform P: exact solution is the periodic translate
    errs = []
    for n in (48, 96):
        st = gaussian_pressure_matched(n)
        rho0 = st.rho.copy()
        t_final = 0.25
        st, _ = run_to(st, t_final)
        oracle = np.roll(rho0, int(round(t_final * n)), axis=0)
        errs.append(np.abs(st.rho - oracle).max())
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_expansion_window_convergence():
    # Expansion flow restricted to the box, velocity tapered to zero before
    # the periodic seam; compare against the analytic flow in an interior
    # window the seam cannot influence within the run time.
    def smoothstep_down(u):
        u = np.clip(u, 0.0, 1.0)
        return 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)

    flow = make_analytic_flow("expansion", 2, 1.4,
                              {"rho0": 1.0, "S0": 0.0, "t_c": 1.0})
    t_final = 0.1
    errs = []
    for n in (48, 96, 192):
        h = 8.0 / n
        c = -4.0 + h * np.arange(n)
        x, y = np.meshgrid(c, c, indexing="ij")
        pts = np.stack([x, y], axis=-1)
        taper = smoothstep_down((np.hypot(x, y) - 1.8) / 1.8)
        vel = flow.velocity(0.0, pts)
        st = GridState(rho=flow.density(0.0, pts), vx=vel[..., 0] * taper,
                       vy=vel[..., 1] * taper, entropy=flow.entropy(0.0, pts),
                       gamma=1.4, origin=(-4.0, -4.0), spacing=(h, h), time=0.0)
        steps = int(round(t_final / (0.12 * h)))
        dt = t_final / steps
        for _ in range(steps):
            st = step(st, dt)
        window = (np.abs(x) <= 0.4) & (np.abs(y) <= 0.4)
        err = max(np.abs(st.rho - flow.density(t_final, pts))[window].max(),
                  np.abs(st.vx - flow.velocity(t_final, pts)[..., 0])[window].max())
        errs.append(err)
    assert np.log2(errs[0] / errs[1]) >= 1.9
    assert np.log2(errs[1] / errs[2]) >= 1.9


def test_smoothness_guard_constant():
    report = smoothness_guard(uniform_state(), threshold=1e-9)
    assert report.max_grad == 0.0
    assert report.ok


def test_smoothness_guard_gaussian_peak():
    # |grad| of a radial Gaussian a*exp(-r^2/(2w^2)) peaks at a*exp(-1/2)/w
    n, amp, width = 256, 0.5, 0.08
    h = 1.0 / n
    c = np.arange(n) * h
    x, y = np.meshgrid(c, c, indexing="ij")
    rho = 2.0 + amp * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2.0 * width ** 2))
    st = GridState(rho=rho, vx=np.zeros((n, n)), vy=np.zeros((n, n)),
                   entropy=np.zeros((n, n)), gamma=1.4, origin=(0.0, 0.0),
                   spacing=(h, h), time=0.0)
    analytic = amp * np.exp(-0.5) / width
    report = smoothness_guard(st)
    # pressure gradient is steeper than the density one; compare density only
    dx, dy = st.spacing
    from volflow.solver import _d4
    grad_rho = np.hypot(_d4(st.rho, dx, 0), _d4(st.rho, dy, 1)).max()
    assert abs(grad_rho - analytic) <= 0.1 * analytic
    assert report.max_grad >= grad_rho


def test_smoothness_guard_zero_threshold():
    st = gaussian_pressure_matched(32)
    assert not smoothness_guard(st, threshold=0.0).ok


def test_interpolation_identity_at_nodes():
    st = gaussian_pressure_matched(32)
    xg, yg = st.node_coords()
    pts = np.stack(np.meshgrid(xg, yg, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = interpolate_fields(st, pts)["rho"].reshape(st.shape)
    assert np.array_equal(vals, st.rho)


def test_interpolation_reproduces_cubics():
    # separable cubic Lagrange is exact on per-axis cubic polynomials
    n = 32
    h = 1.0 / n
    c = np.arange(n) * h
    x, y = np.meshgrid(c, c, indexing="ij")
    f = 1.0 + 0.3 * (x - 0.4) ** 3 + 0.1 * (y - 0.6) ** 2
    st = GridState(rho=2.0 + 0 * f, vx=f, vy=0 * f, entropy=0 * f, gamma=1.4,
                   origin=(0.0, 0.0), spacing=(h, h), time=0.0)
    pts = np.array([[0.412, 0.333], [0.5, 0.51], [0.1234, 0.789]])
    got = interpolate_fields(st, pts)["vx"]
    want = 1.0 + 0.3 * (pts[:, 0] - 0.4) ** 3 + 0.1 * (pts[:, 1] - 0.6) ** 2
    assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_grid_flow_advance_and_domain():
    st = gaussian_pressure_matched(32)
    flow = GridFlow(st, step_dt=2e-3)
    flow.advance_to(0.02)
    assert flow.t_last >= 0.02 - 1e-12
    v = flow.velocity(0.011, np.array([0.5, 0.5]))
    assert v.shape == (2,)
    with pytest.raises(ValueError, match="not advanced"):
        flow.density(0.5, np.array([0.5, 0.5]))


def test_grid_flow_guard_trips():
    st = gaussian_pressure_matched(64)
    flow = GridFlow(st, step_dt=1e-3, guard_threshold=1e-6)
    with pytest.raises(SmoothnessLost):
        flow.advance_to(0.01)


def test_grid_flow_breakdown_is_lost_smoothness():
    # A steepening sine wave without a gradient guard: the step to t = 0.145
    # yields a non-finite field, which ends the flow's smooth horizon.
    n = 32
    x = np.arange(n)[:, None] / n + np.zeros((1, n))
    st = GridState(rho=np.ones((n, n)), vx=2.0 * np.sin(2.0 * np.pi * x),
                   vy=np.zeros((n, n)), entropy=np.zeros((n, n)), gamma=1.4,
                   origin=(0.0, 0.0), spacing=(1.0 / n, 1.0 / n), time=0.0)
    flow = GridFlow(st, step_dt=1e-3)
    with pytest.raises(SmoothnessLost) as exc:
        flow.advance_to(1.0)
    assert isinstance(exc.value.__cause__, NonSmoothState)
    assert exc.value.time == pytest.approx(0.145)
    assert np.isnan(exc.value.max_grad)
    assert flow.t_last == pytest.approx(0.144)
    assert all(np.all(np.isfinite(s.vx)) for s in flow.states)
