import dataclasses
import tracemalloc

import numpy as np
import pytest
from helpers import d4, grid_mass, lagrange_weights, nodes, state_fields

from volflow import solver
from volflow.flowfield import ExpansionFlow, NotSmooth
from volflow.solver import (CFLViolation, GridFlow, GridState, SmoothnessLost,
                            SnapshotDropped, interpolate_fields, smoothness_guard,
                            step)


def uniform_state(n=32, rho=1.0, vx=0.3, vy=-0.2, s=0.0, gamma=1.4):
    shape = (n, n)
    return GridState.from_nodes(rho=np.full(shape, rho), vx=np.full(shape, vx),
                                vy=np.full(shape, vy), entropy=np.full(shape, s),
                                gamma=gamma, origin=(0.0, 0.0),
                                spacing=(1.0 / n, 1.0 / n), time=0.0)


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
    return GridState.from_nodes(rho=rho, vx=np.full((n, n), vx), vy=np.zeros((n, n)),
                                entropy=entropy, gamma=gamma, origin=(0.0, 0.0),
                                spacing=(h, h), time=0.0)


def rho_at(flow, t, pts):
    return flow.fields(t, pts, ("rho",))["rho"]


def read_all(flow, t, pts):
    return flow.fields(t, pts, ("velocity", "rho", "entropy"))


def run_to(state, t_final):
    drift = 0.0
    m_prev = grid_mass(state)
    work = solver._Workspace(state.shape)
    steps = int(np.ceil(t_final / (0.9 * state.cfl_limit(work))))
    dt = t_final / steps
    for _ in range(steps):
        state = step(state, dt, work)
        m = grid_mass(state)
        drift = max(drift, abs(m - m_prev) / m_prev)
        m_prev = m
    return state, drift


def test_constant_state_is_exact_fixed_point():
    st = uniform_state()
    work = solver._Workspace(st.shape)
    st2 = step(st, 0.5 * st.cfl_limit(work), work)
    for name in ("rho", "vx", "vy", "entropy"):
        assert np.array_equal(getattr(st, name), getattr(st2, name))


def test_step_is_deterministic():
    st = gaussian_pressure_matched(64)
    dt = 0.5 * st.cfl_limit(solver._Workspace(st.shape))
    a = step(st, dt, solver._Workspace(st.shape))
    b = step(st, dt, solver._Workspace(st.shape))
    for name in ("rho", "vx", "vy", "entropy"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_cfl_violation_rejected():
    st = uniform_state()
    work = solver._Workspace(st.shape)
    with pytest.raises(CFLViolation, match="CFL"):
        step(st, 10.0 * st.cfl_limit(work), work)
    with pytest.raises(ValueError):
        step(st, -1e-3, work)


def test_grid_needs_16_cells():
    with pytest.raises(ValueError):
        uniform_state(n=8)


def test_positive_density_enforced():
    n = 32
    rho = np.ones((n, n))
    rho[3, 4] = -0.1
    with pytest.raises(NotSmooth):
        GridState.from_nodes(rho=rho, vx=np.zeros((n, n)), vy=np.zeros((n, n)),
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
        rho0 = nodes(st.rho).copy()
        t_final = 0.25
        st, _ = run_to(st, t_final)
        oracle = np.roll(rho0, int(round(t_final * n)), axis=0)
        errs.append(np.abs(nodes(st.rho) - oracle).max())
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_expansion_window_convergence():
    # Expansion flow restricted to the box, velocity tapered to zero before
    # the periodic seam; compare against the analytic flow in an interior
    # window the seam cannot influence within the run time.
    def smoothstep_down(u):
        u = np.clip(u, 0.0, 1.0)
        return 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)

    flow = ExpansionFlow(1.4, rho0=1.0, s0=0.0, t_c=1.0)
    t_final = 0.1
    errs = []
    for n in (48, 96, 192):
        h = 8.0 / n
        c = -4.0 + h * np.arange(n)
        x, y = np.meshgrid(c, c, indexing="ij")
        pts = np.stack([x, y], axis=-1)
        taper = smoothstep_down((np.hypot(x, y) - 1.8) / 1.8)
        f = flow.fields(0.0, pts, ("velocity", "rho", "entropy"))
        vel = f["velocity"]
        st = GridState.from_nodes(rho=f["rho"], vx=vel[..., 0] * taper,
                                  vy=vel[..., 1] * taper, entropy=f["entropy"],
                                  gamma=1.4, origin=(-4.0, -4.0), spacing=(h, h),
                                  time=0.0)
        steps = int(round(t_final / (0.12 * h)))
        dt = t_final / steps
        work = solver._Workspace(st.shape)
        for _ in range(steps):
            st = step(st, dt, work)
        window = (np.abs(x) <= 0.4) & (np.abs(y) <= 0.4)
        f = flow.fields(t_final, pts, ("velocity", "rho"))
        err = max(np.abs(nodes(st.rho) - f["rho"])[window].max(),
                  np.abs(nodes(st.vx) - f["velocity"][..., 0])[window].max())
        errs.append(err)
    assert np.log2(errs[0] / errs[1]) >= 1.9
    assert np.log2(errs[1] / errs[2]) >= 1.9


def isentropic_vortex(pts, t, u_inf, beta=5.0, gamma=1.4, extent=20.0):
    """The isentropic vortex (Yee, Sandham & Djomehri, J. Comput. Phys. 150,
    1999) of strength beta centred at (u_inf t, 0) in the periodic box
    [-extent/2, extent/2)^2: rho, vx and vy at pts (..., 2), with S = 0.
    Its pressure gradient balances the centripetal acceleration, so it
    checks the -grad P / rho term; its periodic images are below e^-50."""
    x = (pts[..., 0] - u_inf * t + 0.5 * extent) % extent - 0.5 * extent
    y = pts[..., 1]
    e = np.exp(0.5 * (1.0 - (x * x + y * y)))
    temp = 1.0 - (gamma - 1.0) * beta ** 2 / (8.0 * gamma * np.pi ** 2) * e * e
    swirl = beta / (2.0 * np.pi) * e
    return temp ** (1.0 / (gamma - 1.0)), u_inf - swirl * y, swirl * x


@pytest.mark.parametrize("u_inf, node_err, query_err", [
    (0.0, 3.5e-4, 3.0e-4),          # measured 1.75e-4 and 1.49e-4 at 128^2
    (1.0, 1.4e-3, 1.5e-3),          # measured 6.82e-4 and 7.28e-4
], ids=["stationary", "convected"])
def test_isentropic_vortex_order(u_inf, node_err, query_err):
    # The solver against an exact solution with a pressure gradient, to
    # t = 2 at dt = 0.5 CFL, on 32^2, 64^2 and 128^2: the max error over
    # rho, vx and vy at the nodes, and read through GridFlow.fields at
    # points off the nodes at a time between steps (bicubic in space, cubic
    # in time).  Measured orders 3.4-4.1; with p_x / rho and p_y / rho
    # scaled by 0.9 the node error stalls near 3e-2.
    t_final, t_query = 2.0, 1.913
    pts = np.random.default_rng(5).uniform(-3.0, 3.0, size=(200, 2))
    at_nodes, queries = [], []
    for n in (32, 64, 128):
        h = 20.0 / n
        c = -10.0 + h * np.arange(n)
        grid = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1)
        rho, vx, vy = isentropic_vortex(grid, 0.0, u_inf)
        st = GridState.from_nodes(rho=rho, vx=vx, vy=vy, entropy=np.zeros((n, n)),
                                  gamma=1.4, origin=(-10.0, -10.0), spacing=(h, h),
                                  time=0.0)
        flow = GridFlow(st, step_dt=t_final / np.ceil(
            t_final / (0.5 * st.cfl_limit(solver._Workspace(st.shape)))),
            guard_threshold=np.inf)
        flow.keep_from(t_query)
        flow.advance_to(t_final)
        (last,) = [s for s in flow.states if abs(s.time - t_final) <= 1e-12]
        want = isentropic_vortex(grid, t_final, u_inf)
        at_nodes.append(max(np.abs(nodes(getattr(last, f)) - w).max()
                            for f, w in zip(("rho", "vx", "vy"), want)))
        got = flow.fields(t_query, pts, ("rho", "velocity"))
        want = isentropic_vortex(pts, t_query, u_inf)
        queries.append(max(np.abs(g - w).max() for g, w in zip(
            (got["rho"], got["velocity"][:, 0], got["velocity"][:, 1]), want)))
    for errs, bound in ((at_nodes, node_err), (queries, query_err)):
        assert min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])) >= 3.0
        assert errs[2] <= bound


def test_smoothness_guard_constant():
    report = smoothness_guard(uniform_state(), threshold=1e-9,
                              work=solver._Workspace((32, 32)))
    assert report.max_grad == 0.0
    assert report.ok


def test_smoothness_guard_gaussian_peak():
    # |grad| of a radial Gaussian a*exp(-r^2/(2w^2)) peaks at a*exp(-1/2)/w
    n, amp, width = 256, 0.5, 0.08
    h = 1.0 / n
    c = np.arange(n) * h
    x, y = np.meshgrid(c, c, indexing="ij")
    rho = 2.0 + amp * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2.0 * width ** 2))
    st = GridState.from_nodes(rho=rho, vx=np.zeros((n, n)), vy=np.zeros((n, n)),
                              entropy=np.zeros((n, n)), gamma=1.4, origin=(0.0, 0.0),
                              spacing=(h, h), time=0.0)
    analytic = amp * np.exp(-0.5) / width
    report = smoothness_guard(st, np.inf, solver._Workspace(st.shape))
    # pressure gradient is steeper than the density one; compare density only
    dx, dy = st.spacing
    grad_rho = np.hypot(d4(st.rho, dx, 0), d4(st.rho, dy, 1)).max()
    assert abs(grad_rho - analytic) <= 0.1 * analytic
    assert report.max_grad >= grad_rho


def test_smoothness_guard_zero_threshold():
    st = gaussian_pressure_matched(32)
    assert not smoothness_guard(st, threshold=0.0, work=solver._Workspace(st.shape)).ok


def test_interpolation_identity_at_nodes():
    st = gaussian_pressure_matched(32)
    nx, ny = st.shape
    xg = st.origin[0] + st.spacing[0] * np.arange(nx)
    yg = st.origin[1] + st.spacing[1] * np.arange(ny)
    pts = np.stack(np.meshgrid(xg, yg, indexing="ij"), axis=-1).reshape(-1, 2)
    fields = state_fields(st)
    vals = interpolate_fields(st, pts, fields, solver._Workspace(st.shape),
                              np.empty((len(fields), len(pts))))["rho"].reshape(st.shape)
    assert np.array_equal(vals, nodes(st.rho))


def test_interpolation_reproduces_cubics():
    # separable cubic Lagrange is exact on per-axis cubic polynomials
    n = 32
    h = 1.0 / n
    c = np.arange(n) * h
    x, y = np.meshgrid(c, c, indexing="ij")
    f = 1.0 + 0.3 * (x - 0.4) ** 3 + 0.1 * (y - 0.6) ** 2
    st = GridState.from_nodes(rho=2.0 + 0 * f, vx=f, vy=0 * f, entropy=0 * f, gamma=1.4,
                              origin=(0.0, 0.0), spacing=(h, h), time=0.0)
    pts = np.array([[0.412, 0.333], [0.5, 0.51], [0.1234, 0.789]])
    fields = state_fields(st)
    got = interpolate_fields(st, pts, fields, solver._Workspace(st.shape),
                             np.empty((len(fields), len(pts))))["vx"]
    want = 1.0 + 0.3 * (pts[:, 0] - 0.4) ** 3 + 0.1 * (pts[:, 1] - 0.6) ** 2
    assert np.allclose(got, want, rtol=0, atol=1e-13)


def test_grid_flow_advance_and_domain():
    st = gaussian_pressure_matched(32)
    flow = GridFlow(st, step_dt=2e-3, guard_threshold=np.inf)
    flow.advance_to(0.02)
    assert flow.t_last >= 0.02 - 1e-12
    v = flow.velocity(0.011, np.array([0.5, 0.5]))
    assert v.shape == (2,)
    with pytest.raises(ValueError, match="not advanced"):
        flow.fields(0.5, np.array([0.5, 0.5]), ("rho",))


def test_grid_flow_guard_trips():
    st = gaussian_pressure_matched(64)
    flow = GridFlow(st, step_dt=1e-3, guard_threshold=1e-6)
    with pytest.raises(SmoothnessLost):
        flow.advance_to(0.01)


def test_grid_flow_breakdown_is_lost_smoothness():
    # A steepening sine wave without a gradient guard: the step to t = 0.145
    # yields a non-finite field, which ends the flow's smooth horizon; the
    # flow answers up to the next-to-last snapshot, whose stencil it holds.
    n = 32
    x = np.arange(n)[:, None] / n + np.zeros((1, n))
    st = GridState.from_nodes(rho=np.ones((n, n)), vx=2.0 * np.sin(2.0 * np.pi * x),
                              vy=np.zeros((n, n)), entropy=np.zeros((n, n)), gamma=1.4,
                              origin=(0.0, 0.0), spacing=(1.0 / n, 1.0 / n), time=0.0)
    flow = GridFlow(st, step_dt=1e-3, guard_threshold=np.inf)
    with pytest.raises(SmoothnessLost) as exc:
        flow.advance_to(1.0)
    assert isinstance(exc.value.__cause__, NotSmooth)
    assert exc.value.time == pytest.approx(0.145)
    assert np.isnan(exc.value.max_grad)
    assert flow.t_last == pytest.approx(0.143)
    assert all(np.all(np.isfinite(s.vx)) for s in flow.states)


def test_overflowing_pressure_is_lost_smoothness():
    # exp(800) overflows, so the pressure is inf on the block, its
    # derivatives hold NaN and the sound speed is inf.  The guard used to
    # fold the NaN away (max_grad 0.0, ok) and the step to refuse a CFL
    # limit of 0.0 with a ValueError, which the CLI reports as a config
    # error.
    n = 32
    entropy = np.zeros((n, n))
    entropy[8:16, 8:16] = 800.0
    st = with_entropy(uniform_state(n, vx=0.0, vy=0.0), entropy)
    with np.errstate(over="ignore", invalid="ignore"):
        report = smoothness_guard(st, threshold=50.0, work=solver._Workspace(st.shape))
        assert np.isnan(report.max_grad) and not report.ok
        with pytest.raises(NotSmooth, match="top wave speed inf"):
            st.cfl_limit(solver._Workspace(st.shape))
        flow = GridFlow(st, step_dt=1e-3, guard_threshold=50.0)
        with pytest.raises(SmoothnessLost) as exc:
            flow.advance_to(0.01)
    assert isinstance(exc.value.__cause__, NotSmooth)
    assert exc.value.time == pytest.approx(1e-3)
    assert flow.t_last == 0.0


def test_overflowing_speed_admits_no_step():
    # |V| = 1e155 squares to inf, so the top wave speed is inf: the state
    # admits no step, as with an overflowing pressure, and no overflow
    # warning escapes.
    st = uniform_state(32, vx=1e155, vy=0.0)
    with pytest.raises(NotSmooth, match="top wave speed inf"):
        st.cfl_limit(solver._Workspace(st.shape))


# -- bitwise references --------------------------------------------------------
# Plain NumPy versions of the stepper and the interpolation on the nodes
# alone (`nodes`): np.roll stencils, fresh arrays for every stage, one
# fancy-index gather per field with the modulo.  The buffered code performs
# the same operations in the same order on the padded arrays, so it must
# agree bit for bit at the nodes.

def _reference_d4(f, h, axis):
    return (8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
            - (np.roll(f, -2, axis) - np.roll(f, 2, axis))) / (12.0 * h)


def _reference_rhs(rho, vx, vy, entropy, gamma, dx, dy):
    p = rho ** gamma * np.exp(entropy)
    rho_x, rho_y = _reference_d4(rho, dx, 0), _reference_d4(rho, dy, 1)
    vx_x, vx_y = _reference_d4(vx, dx, 0), _reference_d4(vx, dy, 1)
    vy_x, vy_y = _reference_d4(vy, dx, 0), _reference_d4(vy, dy, 1)
    s_x, s_y = _reference_d4(entropy, dx, 0), _reference_d4(entropy, dy, 1)
    p_x, p_y = _reference_d4(p, dx, 0), _reference_d4(p, dy, 1)
    div = vx_x + vy_y
    drho = -(vx * rho_x + vy * rho_y) - rho * div
    dvx = -(vx * vx_x + vy * vx_y) - p_x / rho
    dvy = -(vx * vy_x + vy * vy_y) - p_y / rho
    ds = -(vx * s_x + vy * s_y)
    return drho, dvx, dvy, ds


def _reference_step(state, dt):
    """Nodal fields (rho, vx, vy, S, P) after one RK4 step."""
    dx, dy = state.spacing
    gamma = state.gamma
    u0 = tuple(nodes(f) for f in (state.rho, state.vx, state.vy, state.entropy))
    k1 = _reference_rhs(*u0, gamma, dx, dy)
    u1 = tuple(f + 0.5 * dt * k for f, k in zip(u0, k1))
    k2 = _reference_rhs(*u1, gamma, dx, dy)
    u2 = tuple(f + 0.5 * dt * k for f, k in zip(u0, k2))
    k3 = _reference_rhs(*u2, gamma, dx, dy)
    u3 = tuple(f + dt * k for f, k in zip(u0, k3))
    k4 = _reference_rhs(*u3, gamma, dx, dy)
    new = [f + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
           for f, a, b, c, d in zip(u0, k1, k2, k3, k4)]
    return (*new, new[0] ** gamma * np.exp(new[3]))


def _reference_cfl_limit(state):
    rho, vx, vy, p = (nodes(f) for f in (state.rho, state.vx, state.vy, state.pressure))
    c = np.sqrt(state.gamma * p / rho)
    speed = np.sqrt(vx * vx + vy * vy)
    return 0.4 * min(state.spacing) / float((speed + c).max())


def _reference_interpolate(state, pts, names, fields=None):
    """The einsum interpolation `interpolate_fields` must match bit for bit;
    `fields` maps names to nodal arrays (default: the state's own)."""
    if fields is None:
        fields = {name: nodes(getattr(state, name)) for name in names}
    nx, ny = state.shape
    dx, dy = state.spacing
    fx = (pts[:, 0] - state.origin[0]) / dx
    fy = (pts[:, 1] - state.origin[1]) / dy
    ix = np.floor(fx).astype(int)
    iy = np.floor(fy).astype(int)
    wx = lagrange_weights(fx - ix)
    wy = lagrange_weights(fy - iy)
    offs = np.arange(-1, 3)
    gx = (ix[:, None] + offs) % nx
    gy = (iy[:, None] + offs) % ny
    out = {}
    for name in names:
        patch = np.asarray(fields[name], dtype=float)[gx[:, :, None], gy[:, None, :]]
        out[name] = np.einsum("pi,pij,pj->p", wx, patch, wy)
    return out


def with_entropy(state, entropy):
    """The state with another nodal entropy field."""
    return dataclasses.replace(state, entropy=np.pad(entropy, 2, mode="wrap"))


def random_smooth_state(shape, gamma, seed, spacing=None):
    """A few random periodic Fourier modes per field; density stays positive."""
    rng = np.random.default_rng(seed)
    nx, ny = shape
    x, y = np.meshgrid(np.arange(nx) / nx, np.arange(ny) / ny, indexing="ij")

    def field(amp):
        out = np.zeros(shape)
        for kx, ky in rng.integers(-3, 4, size=(4, 2)):
            out += amp * rng.uniform(-1, 1) * np.cos(
                2 * np.pi * (kx * x + ky * y) + rng.uniform(0, 2 * np.pi))
        return out

    if spacing is None:
        spacing = (1.0 / nx, 1.0 / ny)
    return GridState.from_nodes(rho=1.0 + np.abs(field(0.1)), vx=field(0.3),
                                vy=field(0.3), entropy=field(0.2), gamma=gamma,
                                origin=(-0.3, 0.7), spacing=spacing, time=0.0)


BITWISE_CASES = [((16, 16), None), ((32, 32), None), ((32, 48), (0.03, 0.0175))]


@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0, 2.0])
@pytest.mark.parametrize("shape, spacing", BITWISE_CASES)
def test_step_matches_reference_bitwise(shape, spacing, gamma):
    st = random_smooth_state(shape, gamma, seed=sum(shape), spacing=spacing)
    dx, dy = st.spacing
    for f in (st.rho, st.vx, st.pressure):
        assert np.array_equal(d4(f, dx, 0), _reference_d4(nodes(f), dx, 0))
        assert np.array_equal(d4(f, dy, 1), _reference_d4(nodes(f), dy, 1))
    assert st.cfl_limit(solver._Workspace(st.shape)) == _reference_cfl_limit(st)
    dt = 0.5 * st.cfl_limit(solver._Workspace(st.shape))
    # Three steps through one workspace, then one through a fresh one:
    # buffers left over from an earlier step must not leak into the next.
    work = solver._Workspace(st.shape)
    ref = st
    for _ in range(3):
        want = _reference_step(ref, dt)
        st = step(st, dt, work=work)
        for name, w in zip(("rho", "vx", "vy", "entropy", "pressure"), want):
            assert np.array_equal(nodes(getattr(st, name)), w), name
        ref = GridState.from_nodes(rho=want[0], vx=want[1], vy=want[2], entropy=want[3],
                                   gamma=gamma, origin=st.origin, spacing=st.spacing,
                                   time=st.time)
        assert st.cfl_limit(work=work) == _reference_cfl_limit(ref)
    fresh = step(st, dt, solver._Workspace(st.shape))
    want = _reference_step(st, dt)
    assert all(np.array_equal(nodes(getattr(fresh, n)), w)
               for n, w in zip(("rho", "vx", "vy", "entropy", "pressure"), want))
    guard = smoothness_guard(st, np.inf, work=work)
    assert guard.max_grad == max(
        float(np.sqrt(gx * gx + gy * gy).max())
        for gx, gy in ((_reference_d4(nodes(f), dx, 0), _reference_d4(nodes(f), dy, 1))
                       for f in (st.rho, st.vx, st.vy, st.pressure)))


def _hypot_cases():
    rng = np.random.default_rng(11)
    shape = (40, 24)
    gx, gy = rng.normal(size=shape), rng.normal(size=shape)
    yield "random", gx, gy
    tie = gx.copy()
    tie[3, 4] = tie[30, 7] = tie[11, 20] = 9.0        # exact ties at the top
    yield "ties", tie, np.zeros(shape)
    near = gx.copy()
    near[3, 4] = 9.0
    near[30, 7] = np.nextafter(9.0, 10.0)             # one ulp above
    near[11, 20] = np.nextafter(9.0, 0.0)             # and one below
    yield "near_ties", near, gy
    # Two cells whose order sqrt(gx**2 + gy**2) reverses: by one ulp each
    # way at unit scale, and by 2e-4 where the squares underflow.  Found by
    # a random search against np.hypot; with another libm's hypot the unit
    # case may not reverse, and it still checks exactness.
    for name, a, b, scale in (
            ("flip", ("0x1.ae19fff19a9f9p-1", "0x1.f0efd4c0bf340p-2"),
             ("0x1.9b4c7b7180edbp-1", "0x1.167db28d0233dp-1"), 0.1),
            ("underflow_flip", ("0x1.6371bd3f97315p-533", "0x1.38f92993e3b24p-532"),
             ("0x1.14d52120626f8p-533", "0x1.4c3b7fb153441p-532"), 1e-161)):
        fx, fy = scale * np.abs(gx), scale * np.abs(gy)
        fx[1, 2], fy[1, 2] = map(float.fromhex, a)
        fx[20, 9], fy[20, 9] = map(float.fromhex, b)
        yield name, fx, fy
    yield "zeros", np.zeros(shape), np.zeros(shape)
    yield "underflow", 1e-160 * gx, 1e-160 * gy
    yield "overflow", 1e200 * gx, 1e200 * gy
    with_nan = gx.copy()
    with_nan[7, 3] = np.nan
    yield "nan", with_nan, gy
    with_inf = gy.copy()
    with_inf[2, 9] = -np.inf
    yield "inf", gx, with_inf
    yield "inf_and_nan", np.where(with_nan == with_nan, gx, np.inf), with_nan


def _guard_cases():
    """(name, four (gx, gy) pairs) in the guard's field order rho, vx, vy, P:
    each `_hypot_cases` input in each field in turn, the others small; then
    all zero, one field whose squares overflow, all below 1e-140 (with
    normal squares, and with subnormal ones), and the `flip` cells split
    over two fields.  In the last two the larger square is the smaller
    hypot, so the guard must follow the squares."""
    rng = np.random.default_rng(12)
    cases = list(_hypot_cases())
    shape = cases[0][1].shape

    def small(scale=1e-3):
        return scale * rng.normal(size=shape), scale * rng.normal(size=shape)

    for name, gx, gy in cases:
        for field in range(4):
            pairs = [small() for _ in range(4)]
            pairs[field] = (gx, gy)
            yield f"{name}-in-{field}", pairs
    yield "all_zero", [(np.zeros(shape), np.zeros(shape))] * 4
    huge = np.zeros(shape)
    huge[5, 6] = 1.5e308                              # hypot(huge, huge) = inf
    yield "hypot_overflow", [small(), (huge, huge), small(), small()]
    yield "all_below_1e-140", [small(1e-150) for _ in range(4)]
    # Squares that round to subnormals reverse two fields: rho's square
    # rounds to 2001 ulp of the smallest subnormal, vy's two to 1000 each,
    # yet vy's hypot is the larger.
    pairs = [(np.zeros(shape), np.zeros(shape)) for _ in range(4)]
    pairs[0][0][3, 3] = float.fromhex("0x1.65d314ec3ed61p-532")
    pairs[2][0][7, 7] = pairs[2][1][7, 7] = float.fromhex("0x1.fa169f8798df3p-533")
    yield "subnormal_squares", pairs
    _, fx, fy = next(c for c in cases if c[0] == "flip")
    for cells in (((1, 2), (20, 9)), ((20, 9), (1, 2))):
        pairs = [small() for _ in range(4)]
        for field, cell in zip((1, 3), cells):
            gx, gy = pairs[field]
            gx[cell], gy[cell] = fx[cell], fy[cell]
        yield f"flip_across_fields-{cells[0][0]}", pairs


@pytest.mark.parametrize("name, pairs", list(_guard_cases()),
                         ids=[c[0] for c in _guard_cases()])
def test_guard_matches_the_largest_max_hypot(monkeypatch, name, pairs):
    # The guard's max_grad is, bit for bit, the sqrt of the largest
    # gx * gx + gy * gy over the four fields (the name is from the exact
    # np.hypot maximum it matched before).  A NaN field makes it NaN, a
    # field whose squares overflow makes it inf, and one that is not finite
    # is never ok, whatever the threshold.
    shape = pairs[0][0].shape
    st = GridState.from_nodes(rho=np.ones(shape), vx=np.zeros(shape), vy=np.zeros(shape),
                              entropy=np.zeros(shape), gamma=1.4, origin=(0.0, 0.0),
                              spacing=(0.1, 0.1), time=0.0)
    work = solver._Workspace(shape)
    fields = [st.rho, st.vx, st.vy, work.pressure]

    def injected(f, h, axis, out, tmp):
        (i,) = [i for i, g in enumerate(fields) if g is f]
        nodes(out)[...] = pairs[i][axis]
        return out

    monkeypatch.setattr(solver, "_d4_into", injected)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        squares = [float((gx * gx + gy * gy).max()) for gx, gy in pairs]
        for threshold in (np.inf, 1.0):
            got = smoothness_guard(st, threshold, work=work)
            if np.isnan(squares).any():
                assert np.isnan(got.max_grad) and not got.ok
                continue
            want = np.sqrt(max(squares))
            assert np.float64(got.max_grad).tobytes() == np.float64(want).tobytes()
            assert got.ok == (np.isfinite(want) and want <= threshold)
            if np.isinf(squares).any():
                assert got.max_grad == np.inf and not got.ok


@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
@pytest.mark.parametrize("s", [0.0, 0.7, -0.0, "mixed"])
def test_homentropic_step_matches_reference_bitwise(s, gamma):
    # A uniform entropy other than -0.0 is frozen: the step evolves
    # (rho, vx, vy) alone and passes the entropy array on.  -0.0, alone or
    # mixed with +0.0, takes the general path.  Both agree bit for bit with
    # the full reference step.
    st = random_smooth_state((32, 48), gamma, seed=9, spacing=(0.03, 0.0175))
    entropy = (np.full(st.shape, s) if s != "mixed" else
               np.where(np.indices(st.shape).sum(axis=0) % 2 == 0, 0.0, -0.0))
    frozen = s != "mixed" and not np.signbit(s)
    st = with_entropy(st, entropy)
    dt = 0.5 * st.cfl_limit(solver._Workspace(st.shape))
    work = solver._Workspace(st.shape)
    names = ("rho", "vx", "vy", "entropy", "pressure")
    for _ in range(3):
        want = _reference_step(st, dt)
        new = step(st, dt, work=work)
        for name, w in zip(names, want):
            assert np.array_equal(nodes(getattr(new, name)), w), name
        assert np.array_equal(np.signbit(nodes(new.entropy)), np.signbit(want[3]))
        assert (new.entropy is st.entropy) == frozen
        st = new


@pytest.mark.parametrize("shape, spacing", BITWISE_CASES)
def test_interpolation_matches_reference_bitwise(shape, spacing):
    st = random_smooth_state(shape, 1.4, seed=7, spacing=spacing)
    nx, ny = st.shape
    dx, dy = st.spacing
    rng = np.random.default_rng(3)
    # Points inside the box and up to one period outside it on either side.
    pts = np.column_stack([st.origin[0] + rng.uniform(-1, 2, 500) * nx * dx,
                           st.origin[1] + rng.uniform(-1, 2, 500) * ny * dy])
    names = ("rho", "vx", "vy", "entropy")
    want = _reference_interpolate(st, pts, names)
    work = solver._Workspace(st.shape)
    # A fresh workspace, then a reused one's patch buffers: grown to 500
    # points, then used in part for 37.
    fields = state_fields(st)
    for got in (interpolate_fields(st, pts, fields, solver._Workspace(st.shape),
                                   np.empty((4, 500))),
                interpolate_fields(st, pts, fields, work=work, out=np.empty((4, 500)))):
        assert all(np.array_equal(got[n], want[n]) for n in names)
    for m in (37, 2, 1):
        got = interpolate_fields(st, pts[:m], fields, work=work, out=np.empty((4, m)))
        assert all(np.array_equal(got[n], want[n][:m]) for n in names)
    # Fields of signed zeros: the sum starts from +0.0, as einsum's does.
    zeros = {"pos": np.zeros(st.rho.shape), "neg": np.full(st.rho.shape, -0.0)}
    for m in (500, 2, 1):
        want = _reference_interpolate(st, pts[:m], tuple(zeros),
                                      {n: nodes(f) for n, f in zeros.items()})
        got = interpolate_fields(st, pts[:m], zeros, work=work, out=np.empty((2, m)))
        for n in zeros:
            assert np.array_equal(np.signbit(got[n]), np.signbit(want[n])), n
            assert np.array_equal(got[n], want[n]), n
    # Rows of a given array receive the fields, in order.
    out = np.empty((2, 500))
    got = interpolate_fields(st, pts, {"vx": st.vx, "vy": st.vy}, work=work, out=out)
    want = _reference_interpolate(st, pts, ("vx", "vy"))
    for i, n in enumerate(("vx", "vy")):
        assert got[n] is out[i] or np.shares_memory(got[n], out[i])
        assert np.array_equal(out[i], want[n])
    # An integer-valued field is gathered as floats.
    ints = np.pad(np.arange(nx * ny).reshape(nx, ny) % 7, 2, mode="wrap")
    got = interpolate_fields(st, pts, {"k": ints}, work=work, out=np.empty((1, 500)))["k"]
    assert np.array_equal(got, interpolate_fields(
        st, pts, {"k": ints.astype(float)}, solver._Workspace(st.shape),
        np.empty((1, 500)))["k"])


@pytest.mark.parametrize("shape", [(16, 16), (20, 17)])
def test_patch_indices_match_the_modulo_formula(shape):
    # Entry (a, b) of a point's patch is padded element
    # (ix % nx + 1 + a, iy % ny + 1 + b): node cells in every edge and
    # corner band, and in the interior, inside the box and whole periods
    # outside.
    st = random_smooth_state(shape, 1.4, seed=3, spacing=(0.05, 0.03))
    nx, ny = shape
    bx, by = ([0, 1, 2, m // 2, m - 4, m - 3, m - 2, m - 1] for m in shape)
    rng = np.random.default_rng(8)
    cells = np.array([(i, j) for i in bx for j in by], dtype=float)
    cells = np.vstack([cells, cells + rng.uniform(0, 1, cells.shape)])
    pts = np.vstack([(cells + (kx * nx, ky * ny)) * st.spacing + st.origin
                     for kx in (-2, -1, 0, 1, 3) for ky in (-1, 0, 2)])
    work = solver._Workspace(shape)
    got = interpolate_fields(st, pts, state_fields(st), work=work,
                             out=np.empty((4, len(pts))))
    flat = work.patch_buffers(len(pts))[0]
    ix = np.floor((pts[:, 0] - st.origin[0]) / st.spacing[0]).astype(int)
    iy = np.floor((pts[:, 1] - st.origin[1]) / st.spacing[1]).astype(int)
    offs = np.arange(4)
    gx = (ix % nx + 1)[:, None] + offs
    gy = (iy % ny + 1)[:, None] + offs
    want = (gx[:, :, None] * (ny + 4) + gy[:, None, :]).transpose(1, 2, 0)
    assert np.array_equal(flat, want)
    names = ("rho", "vx", "vy", "entropy")
    ref = _reference_interpolate(st, pts, names)
    assert all(np.array_equal(got[n], ref[n]) for n in names)


def assert_halo(f):
    """The ghost lines of a padded array hold the periodic copies of its
    nodes, bit for bit."""
    assert f.tobytes() == np.pad(nodes(f), 2, mode="wrap").tobytes()


@pytest.mark.parametrize("homentropic", [False, True])
def test_halo_holds_the_periodic_copies(homentropic):
    # Every field of every held snapshot after advance_to, of the snapshots
    # a query re-steps in a dropped gap, and of a held time slice.
    st = random_smooth_state((32, 48), 1.4, seed=3, spacing=(0.03, 0.0175))
    if homentropic:
        st = with_entropy(st, np.full(st.shape, 0.7))
    names = ("rho", "vx", "vy", "entropy")
    flow = GridFlow(st, step_dt=1e-3, guard_threshold=1e6)
    flow.keep_from(0.0105)
    flow.advance_to(0.02)
    held = len(flow.states)
    for state in flow.states:
        for n in names:
            assert_halo(getattr(state, n))
    flow.keep_from(0.0)
    read_all(flow, 0.0055, np.array([[0.1, 0.9]]))
    assert len(flow.states) == held + 9     # the initial state and 1 .. 8, re-stepped
    for state in flow.states:
        for n in names:
            assert_halo(getattr(state, n))
    sliced = flow._time_slice(0.0055, names)
    assert sliced["rho"] is flow._work.slope[0]
    for f in sliced.values():
        assert_halo(f)


def test_grid_flow_snapshots_own_their_memory():
    # Successive snapshots share nothing, except the entropy of a
    # homentropic flow; no snapshot points into the workspace.  A snapshot
    # holds no pressure.
    st = random_smooth_state((32, 32), 1.4, seed=1)
    uniform = with_entropy(st, np.full(st.shape, 0.7))
    for initial, homentropic in ((st, False), (uniform, True)):
        flow = GridFlow(initial, step_dt=1e-3, guard_threshold=1e6)
        flow.advance_to(3e-3)
        a, b = flow.states[-2:]
        work = flow._work
        buffers = [buf for group in (work.stage, work.slope, work.grad)
                   for buf in group] + [work.pressure, work.scratch]
        names = ("rho", "vx", "vy", "entropy")
        assert [f.name for f in dataclasses.fields(b)
                if isinstance(getattr(b, f.name), np.ndarray)] == list(names)
        for x in names:
            for y in names:
                shared = homentropic and x == y == "entropy"
                assert np.shares_memory(getattr(a, x), getattr(b, y)) == shared
                assert x == y or not np.shares_memory(getattr(b, x), getattr(b, y))
            for buf in buffers:
                assert not np.shares_memory(getattr(b, x), buf)
        assert (b.entropy is initial.entropy) == homentropic


def test_homentropic_window_holds_three_arrays_per_snapshot():
    # rho, vx and vy of each snapshot, plus the entropy that they all share.
    st = random_smooth_state((32, 32), 1.4, seed=1)
    flow = GridFlow(with_entropy(st, np.full(st.shape, 0.7)), step_dt=1e-3,
                    guard_threshold=1e6)
    flow.keep_from(4e-3)
    flow.advance_to(1e-2)
    assert len(flow.states) > 4 and flow.states[0] is not flow._initial
    held = {id(v) for s in flow.states for v in vars(s).values()
            if isinstance(v, np.ndarray)}
    assert len(held) == 3 * len(flow.states) + 1


@pytest.mark.parametrize("guard", [1e6, np.inf])
def test_grid_flow_computes_the_pressure_four_times_per_step(monkeypatch, guard):
    # One pressure for the new state (the guard's, or the next CFL limit's)
    # and one for each of the stages k2, k3 and k4.
    flow = GridFlow(random_smooth_state((32, 32), 1.4, seed=2), step_dt=1e-3,
                    guard_threshold=guard)
    flow.advance_to(2e-3)
    calls = []
    pressure_into = solver._pressure_into

    def counting(*args):
        calls.append(args[0])
        return pressure_into(*args)

    monkeypatch.setattr(solver, "_pressure_into", counting)
    before = len(flow.states)
    flow.advance_to(7e-3)
    assert len(flow.states) - before == 5
    assert len(calls) == 4 * 5


def test_state_pressure_matches_the_workspace_bitwise():
    st = random_smooth_state((32, 48), 5.0 / 3.0, seed=4, spacing=(0.03, 0.0175))
    flow = GridFlow(st, step_dt=0.25 * st.cfl_limit(solver._Workspace(st.shape)),
                    guard_threshold=1e6)
    flow.advance_to(3 * flow.step_dt)
    work, last = flow._work, flow.states[-1]
    assert work.pressure_state is last             # the guard's, kept for the next step
    assert np.array_equal(last.pressure, work.pressure)
    assert last.pressure is not last.pressure       # fresh arrays on each access
    for s in flow.states[:-1]:
        held = work.state_pressure(s)
        assert held is work.pressure and work.pressure_state is s
        assert np.array_equal(s.pressure, held)
        assert np.array_equal(s.pressure, s.rho ** s.gamma * np.exp(s.entropy))


def test_off_snapshot_query_survives_cache_growth():
    st = random_smooth_state((32, 32), 1.4, seed=2)
    pts = np.array([[-0.1, 0.9], [0.35, 1.2], [0.5, 1.5]])
    flow = GridFlow(st, step_dt=2e-3, guard_threshold=np.inf)
    flow.advance_to(0.02)
    t = 0.0111                                # well inside the cached run
    before = read_all(flow, t, pts)
    t_last = 0.0195                           # in the last interval answered
    last_before = rho_at(flow, t_last, pts)
    flow.advance_to(0.04)
    # The time stencil of t_last does not move as the cache grows: the value
    # seen before equals the one after, and the one of a flow advanced this
    # far at once.
    last_after = rho_at(flow, t_last, pts)
    other = GridFlow(st, step_dt=2e-3, guard_threshold=np.inf)
    other.advance_to(0.04)
    assert np.array_equal(last_after, rho_at(other, t_last, pts))
    assert np.array_equal(last_after, last_before)
    after = read_all(flow, t, pts)
    assert all(np.array_equal(before[n], after[n]) for n in before)
    slice_fields = solver.interpolate_fields(st, pts, flow._time_slice(t, ("rho",)),
                                             solver._Workspace(st.shape),
                                             np.empty((1, len(pts))))
    assert np.array_equal(rho_at(flow, t, pts), slice_fields["rho"])


def test_time_slice_combines_only_the_fields_read():
    st = random_smooth_state((32, 32), 1.4, seed=2)
    pts = np.array([[-0.1, 0.9], [0.35, 1.2], [0.5, 1.5]])
    flow = GridFlow(st, step_dt=2e-3, guard_threshold=np.inf)
    flow.advance_to(0.02)
    t = 0.0111
    v = flow.velocity(t, pts)
    held = flow._slice
    assert set(held[-1]) == {"rho", "vx", "vy"}       # no entropy combined
    rho = rho_at(flow, t, pts)
    assert flow._slice is held                        # built once
    fresh = GridFlow(st, step_dt=2e-3, guard_threshold=np.inf)
    fresh.advance_to(0.02)
    assert np.array_equal(rho, rho_at(fresh, t, pts))
    assert np.array_equal(v, fresh.velocity(t, pts))
    assert np.array_equal(flow.fields(t, pts, ("entropy",))["entropy"],
                          fresh.fields(t, pts, ("entropy",))["entropy"])


def _reference_slice(flow, t, names):
    """sum(w_i f_i) over the time stencil of t at the nodes, in fresh arrays."""
    k = flow._stencil_start(t)
    stencil = flow.states[k:k + 4]            # a flow that kept everything
    w = lagrange_weights(np.asarray((t - stencil[1].time) / flow.step_dt))
    return {n: sum(wi * nodes(getattr(s, n)) for wi, s in zip(w, stencil))
            for n in names}


def test_off_snapshot_velocity_matches_reference():
    st = random_smooth_state((32, 32), 1.4, seed=5)
    flow = GridFlow(st, step_dt=2e-3, guard_threshold=np.inf)
    flow.advance_to(0.02)
    t = 0.0111
    pts = np.random.default_rng(6).uniform(-0.5, 1.5, size=(300, 2))
    want = _reference_interpolate(st, pts, ("vx", "vy"),
                                  _reference_slice(flow, t, ("vx", "vy")))
    work = flow._work
    for m in (300, 1):
        v = flow.velocity(t, pts[:m])
        assert v.shape == (m, 2) and v.flags.c_contiguous and v.flags.writeable
        assert np.array_equal(v[:, 0], want["vx"][:m])
        assert np.array_equal(v[:, 1], want["vy"][:m])
        held = [work._flat, work._patch, work.scratch, *work.slope]
        assert not any(np.shares_memory(v, buf) for buf in held)
    assert np.array_equal(flow.velocity(t, pts[0]), v[0])


def test_time_slice_sign_of_zero_matches_the_sum():
    # Products that are all -0.0 sum to +0.0 in sum(w_i f_i), which starts
    # from 0; the held-buffer combination must give the same bits.
    st = random_smooth_state((32, 32), 1.4, seed=5)
    flow = GridFlow(st, step_dt=2e-3, guard_threshold=np.inf)
    flow.advance_to(0.02)
    t = 0.0111
    k = flow._stencil_start(t)
    w = lagrange_weights(np.asarray((t - flow.states[k + 1].time) / flow.step_dt))
    for wi, s in zip(w, flow.states[k:k + 4]):
        s.vx[...] = -0.0 if wi > 0.0 else 0.0
        s.vy[...] = -0.0
    want = _reference_slice(flow, t, ("vx", "vy"))
    got = {n: nodes(f) for n, f in flow._time_slice(t, ("vx", "vy")).items()}
    for n in ("vx", "vy"):
        assert np.array_equal(np.signbit(got[n]), np.signbit(want[n])), n
        assert np.array_equal(got[n], want[n]), n
    assert not np.signbit(got["vx"]).any()


def test_step_drops_the_time_slice():
    # The slice lives in the step's slope buffers: a step drops it, and the
    # query after the step combines it afresh, bit for bit the values of a
    # flow that never held it.
    st = random_smooth_state((32, 32), 1.4, seed=5)
    pts = np.random.default_rng(9).uniform(-0.5, 1.5, size=(50, 2))
    t = 0.0111
    flow = GridFlow(st, step_dt=2e-3, guard_threshold=1e6)
    flow.advance_to(0.02)
    before = read_all(flow, t, pts)
    assert flow._slice is not None
    flow.advance_to(0.022)                    # one step
    assert flow._slice is None
    fresh = GridFlow(st, step_dt=2e-3, guard_threshold=1e6)
    fresh.advance_to(0.022)
    after, want = read_all(flow, t, pts), read_all(fresh, t, pts)
    assert all(np.array_equal(after[n], want[n]) for n in want)
    assert all(np.array_equal(after[n], before[n]) for n in want)


@pytest.mark.parametrize("homentropic", [True, False])
def test_exp_of_a_shared_entropy_is_taken_once(monkeypatch, homentropic):
    # A homentropic flow's snapshots share one entropy array: its np.exp is
    # taken once over three steps, and no stage takes one.  Otherwise every
    # state's pressure and every stage k2, k3, k4 takes np.exp of its own
    # entropy.
    st = random_smooth_state((32, 32), 1.4, seed=2)
    if homentropic:
        st = with_entropy(st, np.full(st.shape, 0.7))
    flow = GridFlow(st, step_dt=1e-3, guard_threshold=1e6)
    calls = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        calls.append(x)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    flow.advance_to(2e-3)                     # three steps: t_last 2e-3 needs 4 snapshots
    monkeypatch.undo()
    assert len(flow.states) == 4
    if homentropic:
        assert len(calls) == 1 and calls[0] is st.entropy
        assert all(s.entropy is st.entropy for s in flow.states)
    else:
        stages = [x for x in calls if x is flow._work.stage[3]]
        states = [x for x in calls if x is not flow._work.stage[3]]
        assert len(stages) == 3 * 3
        assert [id(x) for x in states] == [id(s.entropy) for s in flow.states]
    last = flow.states[-1]
    assert flow._work.pressure_state is last           # the guard's
    assert np.array_equal(flow._work.pressure, last.rho ** 1.4 * np.exp(last.entropy))


def test_time_slice_with_bad_density_is_not_smooth():
    flow = GridFlow(random_smooth_state((32, 32), 1.4, seed=3), step_dt=2e-3, guard_threshold=np.inf)
    flow.advance_to(0.02)
    flow.states[5].rho[...] = -100.0          # in the stencil of t = 0.0111
    pts = np.array([[0.1, 0.9]])
    for names in (("velocity",), ("rho",), ("velocity", "rho", "entropy")):
        with pytest.raises(NotSmooth, match="density"):
            flow.fields(0.0111, pts, names)
    with pytest.raises(NotSmooth, match="density"):
        flow.velocity(0.0111, pts)
    assert flow._slice is None


def test_step_with_workspace_allocates_only_the_new_state():
    st = random_smooth_state((64, 64), 1.4, seed=4)
    dt = 0.5 * st.cfl_limit(solver._Workspace(st.shape))
    work = solver._Workspace(st.shape)
    step(st, dt, work=work)                   # first touch of the buffers
    tracemalloc.start()
    try:
        new = step(st, dt, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert new.shape == (64, 64)
    assert peak < 8 * st.rho.nbytes


def test_guard_derivatives_feed_the_next_step(monkeypatch):
    # A guard call leaves the rho, vx, vy and P derivatives where the next
    # step's first slope reads them: a guarded step makes 8 + 32 derivative
    # calls, not 8 + 40, with the same result.  A step from another state,
    # or a second step, differentiates all ten fields again.
    st = random_smooth_state((32, 32), 1.4, seed=5)
    other = random_smooth_state((32, 32), 1.4, seed=6)
    dt = 0.5 * st.cfl_limit(solver._Workspace(st.shape))
    want = step(st, dt, work=solver._Workspace(st.shape))
    calls = []
    d4_into = solver._d4_into

    def counting(*args):
        calls.append(args[0])
        return d4_into(*args)

    monkeypatch.setattr(solver, "_d4_into", counting)
    work = solver._Workspace(st.shape)
    names = ("rho", "vx", "vy", "entropy", "pressure")
    for guarded, expected_calls in ((st, 40), (None, 40), (other, 48)):
        calls.clear()
        if guarded is not None:
            smoothness_guard(guarded, np.inf, work=work)
        got = step(st, dt, work=work)
        assert len(calls) == expected_calls
        assert all(np.array_equal(getattr(got, n), getattr(want, n)) for n in names)


def test_homentropic_step_skips_the_entropy_derivatives(monkeypatch):
    # A frozen entropy drops the two S derivatives of each of the four
    # slopes: 32 derivative calls per step, guarded (8 in the guard, whose
    # results serve k1, and 24) or not.
    st = random_smooth_state((32, 32), 1.4, seed=5)
    st = with_entropy(st, np.zeros(st.shape))
    dt = 0.5 * st.cfl_limit(solver._Workspace(st.shape))
    want = step(st, dt, solver._Workspace(st.shape))
    calls = []
    d4_into = solver._d4_into

    def counting(*args):
        calls.append(args[0])
        return d4_into(*args)

    monkeypatch.setattr(solver, "_d4_into", counting)
    work = solver._Workspace(st.shape)
    for guarded in (True, False):
        calls.clear()
        if guarded:
            smoothness_guard(st, np.inf, work=work)
        got = step(st, dt, work=work)
        assert len(calls) == 32
        assert all(not np.shares_memory(f, st.entropy) for f in calls)
        assert all(np.array_equal(getattr(got, n), getattr(want, n))
                   for n in ("rho", "vx", "vy", "entropy", "pressure"))


def test_window_replays_the_same_snapshots(monkeypatch):
    st = random_smooth_state((32, 32), 1.4, seed=7)
    pts = np.array([[-0.1, 0.9], [0.35, 1.2]])
    whole = GridFlow(st, step_dt=1e-3, guard_threshold=1e6)
    whole.advance_to(0.02)
    flow = GridFlow(st, step_dt=1e-3, guard_threshold=1e6)
    flow.keep_from(0.0105)
    flow.advance_to(0.02)
    # The window starts at the stencil of 0.0105 (snapshot 9) and ends one
    # snapshot past 0.02.
    assert len(flow.states) == 13
    assert flow.states[0].time == pytest.approx(0.009)
    assert np.array_equal(rho_at(flow, 0.0105, pts), rho_at(whole, 0.0105, pts))
    assert np.array_equal(flow.velocity(0.02, pts), whole.velocity(0.02, pts))
    for t in (0.0055, 0.003):             # between snapshots, and on one
        with pytest.raises(SnapshotDropped):
            flow.fields(t, pts, ("rho",))
    flow.check_time(0.003)                # the time window itself is unchanged

    # keep_from behind the held snapshots drops nothing and steps nothing;
    # a query there re-steps the gap from the initial state up to the first
    # snapshot held (1 .. 8), with no guard, and keeps it.
    flow.keep_from(0.0)
    assert len(flow.states) == 13
    steps, guards = [], []
    real_step, real_guard = solver.step, solver.smoothness_guard

    def counting_step(state, *args, **kwargs):
        steps.append(state.time)
        return real_step(state, *args, **kwargs)

    def counting_guard(state, *args, **kwargs):
        guards.append(state.time)
        return real_guard(state, *args, **kwargs)

    monkeypatch.setattr(solver, "step", counting_step)
    monkeypatch.setattr(solver, "smoothness_guard", counting_guard)
    after, want = read_all(flow, 0.0055, pts), read_all(whole, 0.0055, pts)
    assert all(np.array_equal(after[n], want[n]) for n in want)
    assert steps == [s.time for s in whole.states[:8]] and guards == []
    names = ("rho", "vx", "vy", "entropy", "pressure")
    assert len(flow.states) == len(whole.states)
    for a, b in zip(flow.states, whole.states):
        assert a.time == b.time
        assert all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)
    assert flow.states[0] is st
    after = read_all(flow, 0.003, pts)          # held now: no more steps
    assert len(steps) == 8
    want = read_all(whole, 0.003, pts)
    assert all(np.array_equal(after[n], want[n]) for n in want)


def test_query_behind_the_window_re_steps_the_gap_once(monkeypatch):
    # A consumer that advances the flow one step ahead of its queries holds
    # the anchor (the first snapshot of the keep_from time's stencil) and
    # the stencil of its latest query.  A query back at the keep_from time
    # re-steps the snapshots between the anchor and the window from the
    # anchor, once, and answers bit for bit as a flow that keeps everything.
    st = random_smooth_state((32, 32), 1.4, seed=7)
    pts = np.array([[-0.1, 0.9], [0.35, 1.2]])
    whole = GridFlow(st, step_dt=1e-3, guard_threshold=1e6)
    whole.advance_to(0.02)
    flow = GridFlow(st, step_dt=1e-3, guard_threshold=1e6)
    steps = []
    real_step = solver.step

    def counting(state, *args, **kwargs):
        steps.append(state.time)
        return real_step(state, *args, **kwargs)

    monkeypatch.setattr(solver, "step", counting)
    flow.keep_from(0.0045)                      # the anchor is snapshot 3
    h = 5e-4
    for t in 0.0045 + h * np.arange(21):        # RK4 steps, as _rk4_points
        flow.advance_to(t + h)
        for s in (t, t + 0.5 * h, t + h):
            read_all(flow, s, pts)
        assert len(flow.states) <= 6
    anchor = flow.states[0]
    assert [s.time for s in flow.states] == [whole.states[k].time
                                             for k in (3, 13, 14, 15, 16)]
    assert len(steps) == 16
    for t in (0.0045, 0.0098, 0.0061, 0.0149):   # back to the keep_from time
        got, want = read_all(flow, t, pts), read_all(whole, t, pts)
        assert all(np.array_equal(got[n], want[n]) for n in want)
    assert steps[16:] == [s.time for s in whole.states[3:12]]   # 4 .. 12, once
    assert flow.states[0] is anchor and len(flow.states) == 14
    names = ("rho", "vx", "vy", "entropy")
    for a, b in zip(flow.states, whole.states[3:]):
        assert all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)
    for t in (0.0035, 0.002):                   # before the keep_from stencil
        with pytest.raises(SnapshotDropped):
            flow.fields(t, pts, ("rho",))
    flow.advance_to(0.0165)       # the gap goes as the flow steps past 0.0149
    assert [s.time for s in flow.states] == [whole.states[k].time
                                             for k in (3, *range(13, 19))]


def test_window_ahead_holds_the_last_two_snapshots():
    flow = GridFlow(random_smooth_state((32, 32), 1.4, seed=8), step_dt=1e-3, guard_threshold=np.inf)
    flow.keep_from(0.05)
    flow.advance_to(0.01)
    assert len(flow.states) == 2
    assert flow.t_last == pytest.approx(0.01)


def test_check_time_messages():
    flow = GridFlow(gaussian_pressure_matched(32), step_dt=2e-3, guard_threshold=np.inf)
    flow.advance_to(0.01)
    flow.keep_from(0.008)
    for t in (0.5, -0.1):
        with pytest.raises(ValueError) as exc:
            flow.check_time(t)
        assert str(exc.value) == (f"grid flow not advanced to t={t} "
                                  f"(have [0.0, {flow.t_last}])")


def test_step_rejects_a_density_that_is_not_positive(monkeypatch):
    # `step` checks vx, vy and S itself and leaves the density to the
    # GridState it builds, which checks it before it takes the pressure.
    st = random_smooth_state((32, 32), 1.4, seed=7)
    dt = 0.5 * st.cfl_limit(solver._Workspace(st.shape))
    rhs = solver._rhs
    calls = []

    def draining(u, p, dx, dy, out, *args):    # k4 drains one cell
        rhs(u, p, dx, dy, out, *args)
        calls.append(out)
        if len(calls) == 4:
            out[0][3, 4] = -1e9

    monkeypatch.setattr(solver, "_rhs", draining)
    with pytest.raises(NotSmooth, match="density"):
        step(st, dt, solver._Workspace(st.shape))
