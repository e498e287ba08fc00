import dataclasses
import tracemalloc

import numpy as np
import pytest
from helpers import d4, lagrange_weights

from volflow import solver
from volflow.flowfield import make_analytic_flow
from volflow.solver import (GridFlow, GridState, NonSmoothState, SmoothnessLost,
                            SnapshotDropped, interpolate_fields, smoothness_guard,
                            step)


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
    grad_rho = np.hypot(d4(st.rho, dx, 0), d4(st.rho, dy, 1)).max()
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
    # yields a non-finite field, which ends the flow's smooth horizon; the
    # flow answers up to the next-to-last snapshot, whose stencil it holds.
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
    assert flow.t_last == pytest.approx(0.143)
    assert all(np.all(np.isfinite(s.vx)) for s in flow.states)


# -- bitwise references --------------------------------------------------------
# Plain NumPy versions of the stepper and the interpolation: np.roll
# stencils, fresh arrays for every stage, one fancy-index gather per field.
# The buffered code performs the same operations in the same order, so it
# must agree bit for bit.

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
    """Fields (rho, vx, vy, S, P) after one RK4 step."""
    dx, dy = state.spacing
    gamma = state.gamma
    u0 = (state.rho, state.vx, state.vy, state.entropy)
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
    c = np.sqrt(state.gamma * state.pressure / state.rho)
    return 0.4 * min(state.spacing) / float((np.hypot(state.vx, state.vy) + c).max())


def _reference_interpolate(state, pts, names, fields=None):
    """The einsum interpolation `interpolate_fields` must match bit for bit;
    `fields` maps names to nodal arrays (default: the state's own)."""
    if fields is None:
        fields = {name: getattr(state, name) for name in names}
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
    """The state with another entropy field (and its pressure)."""
    return dataclasses.replace(state, entropy=entropy, pressure=None)


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
    return GridState(rho=1.0 + np.abs(field(0.1)), vx=field(0.3), vy=field(0.3),
                     entropy=field(0.2), gamma=gamma, origin=(-0.3, 0.7),
                     spacing=spacing, time=0.0)


BITWISE_CASES = [((16, 16), None), ((32, 32), None), ((32, 48), (0.03, 0.0175))]


@pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0])
@pytest.mark.parametrize("shape, spacing", BITWISE_CASES)
def test_step_matches_reference_bitwise(shape, spacing, gamma):
    st = random_smooth_state(shape, gamma, seed=sum(shape), spacing=spacing)
    dx, dy = st.spacing
    for f in (st.rho, st.vx, st.pressure):
        assert np.array_equal(d4(f, dx, 0), _reference_d4(f, dx, 0))
        assert np.array_equal(d4(f, dy, 1), _reference_d4(f, dy, 1))
    assert st.cfl_limit() == _reference_cfl_limit(st)
    dt = 0.5 * st.cfl_limit()
    # Three steps through one workspace, then one without: buffers left over
    # from an earlier step must not leak into the next.
    work = solver._Workspace(st.shape)
    ref = st
    for _ in range(3):
        want = _reference_step(ref, dt)
        st = step(st, dt, work=work)
        for name, w in zip(("rho", "vx", "vy", "entropy", "pressure"), want):
            assert np.array_equal(getattr(st, name), w), name
        ref = GridState(rho=want[0], vx=want[1], vy=want[2], entropy=want[3],
                        gamma=gamma, origin=st.origin, spacing=st.spacing, time=st.time)
        assert st.cfl_limit(work=work) == _reference_cfl_limit(ref)
    fresh = step(st, dt)
    want = _reference_step(st, dt)
    assert all(np.array_equal(getattr(fresh, n), w)
               for n, w in zip(("rho", "vx", "vy", "entropy", "pressure"), want))
    guard = smoothness_guard(st, work=work)
    assert guard.max_grad == max(
        float(np.hypot(_reference_d4(f, dx, 0), _reference_d4(f, dy, 1)).max())
        for f in (st.rho, st.vx, st.vy, st.pressure))


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


@pytest.mark.parametrize("name, gx, gy", list(_hypot_cases()),
                         ids=[c[0] for c in _hypot_cases()])
def test_max_hypot_is_exact(name, gx, gy):
    rng = np.random.default_rng(5)
    sound = rng.uniform(0.0, 2.0, gx.shape)
    for add in (0.0, sound, 1e-160 * sound, 1e200 * sound):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            want = float((np.hypot(gx, gy) + add).max())
            got = solver._max_hypot(gx, gy, add)
        assert got == want or (np.isnan(got) and np.isnan(want)), (name, got, want)


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
    dt = 0.5 * st.cfl_limit()
    work = solver._Workspace(st.shape)
    names = ("rho", "vx", "vy", "entropy", "pressure")
    for _ in range(3):
        want = _reference_step(st, dt)
        new = step(st, dt, work=work)
        for name, w in zip(names, want):
            assert np.array_equal(getattr(new, name), w), name
        assert np.array_equal(np.signbit(new.entropy), np.signbit(want[3]))
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
    # Fresh arrays, then a workspace's patch buffers: grown to 500 points,
    # then used in part for 37.
    for got in (interpolate_fields(st, pts), interpolate_fields(st, pts, work=work)):
        assert all(np.array_equal(got[n], want[n]) for n in names)
    for m in (37, 2, 1):
        got = interpolate_fields(st, pts[:m], work=work)
        assert all(np.array_equal(got[n], want[n][:m]) for n in names)
    # Fields of signed zeros: the sum starts from +0.0, as einsum's does.
    zeros = {"pos": np.zeros(st.shape), "neg": np.full(st.shape, -0.0)}
    for m in (500, 2, 1):
        want = _reference_interpolate(st, pts[:m], tuple(zeros), zeros)
        got = interpolate_fields(st, pts[:m], zeros, work=work)
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
    ints = np.arange(nx * ny).reshape(nx, ny) % 7
    got = interpolate_fields(st, pts, {"k": ints}, work=work)["k"]
    assert np.array_equal(got, interpolate_fields(st, pts, {"k": ints.astype(float)})["k"])


def test_grid_flow_snapshots_own_their_memory():
    # Successive snapshots share nothing, except the entropy of a
    # homentropic flow; no snapshot points into the workspace.
    st = random_smooth_state((32, 32), 1.4, seed=1)
    uniform = with_entropy(st, np.full(st.shape, 0.7))
    for initial, homentropic in ((st, False), (uniform, True)):
        flow = GridFlow(initial, step_dt=1e-3, guard_threshold=1e6)
        flow.advance_to(3e-3)
        a, b = flow.states[-2:]
        work = flow._work
        buffers = [buf for group in (work.stage, work.slope, work.grad)
                   for buf in group] + [work.pressure, work.scratch]
        buffers += [buf for edges in work.edges for buf in edges]
        names = ("rho", "vx", "vy", "entropy", "pressure")
        for x in names:
            for y in names:
                shared = homentropic and x == y == "entropy"
                assert np.shares_memory(getattr(a, x), getattr(b, y)) == shared
                assert x == y or not np.shares_memory(getattr(b, x), getattr(b, y))
            for buf in buffers:
                assert not np.shares_memory(getattr(b, x), buf)
        assert (b.entropy is initial.entropy) == homentropic


def test_off_snapshot_query_survives_cache_growth():
    st = random_smooth_state((32, 32), 1.4, seed=2)
    pts = np.array([[-0.1, 0.9], [0.35, 1.2], [0.5, 1.5]])
    flow = GridFlow(st, step_dt=2e-3)
    flow.advance_to(0.02)
    t = 0.0111                                # well inside the cached run
    before = (flow.velocity(t, pts), flow.density(t, pts), flow.entropy(t, pts))
    t_last = 0.0195                           # in the last interval answered
    last_before = flow.density(t_last, pts)
    flow.advance_to(0.04)
    # The time stencil of t_last does not move as the cache grows: the value
    # seen before equals the one after, and the one of a flow advanced this
    # far at once.
    last_after = flow.density(t_last, pts)
    other = GridFlow(st, step_dt=2e-3)
    other.advance_to(0.04)
    assert np.array_equal(last_after, other.density(t_last, pts))
    assert np.array_equal(last_after, last_before)
    after = (flow.velocity(t, pts), flow.density(t, pts), flow.entropy(t, pts))
    assert all(np.array_equal(x, y) for x, y in zip(before, after))
    slice_fields = solver.interpolate_fields(st, pts, flow._time_slice(t, ("rho",)))
    assert np.array_equal(flow.density(t, pts), slice_fields["rho"])


def test_time_slice_combines_only_the_fields_read():
    st = random_smooth_state((32, 32), 1.4, seed=2)
    pts = np.array([[-0.1, 0.9], [0.35, 1.2], [0.5, 1.5]])
    flow = GridFlow(st, step_dt=2e-3)
    flow.advance_to(0.02)
    t = 0.0111
    v = flow.velocity(t, pts)
    held = flow._slice
    assert set(held[-1]) == {"rho", "vx", "vy"}       # no entropy combined
    rho = flow.density(t, pts)
    assert flow._slice is held                        # built once
    fresh = GridFlow(st, step_dt=2e-3)
    fresh.advance_to(0.02)
    assert np.array_equal(rho, fresh.density(t, pts))
    assert np.array_equal(v, fresh.velocity(t, pts))
    assert np.array_equal(flow.entropy(t, pts), fresh.entropy(t, pts))


def _reference_slice(flow, t, names):
    """sum(w_i f_i) over the time stencil of t, in fresh arrays."""
    k = flow._stencil_start(t)
    stencil = flow.states[k:k + 4]            # a flow that kept everything
    w = lagrange_weights(np.asarray((t - stencil[1].time) / flow.step_dt))
    return {n: sum(wi * getattr(s, n) for wi, s in zip(w, stencil)) for n in names}


def test_off_snapshot_velocity_matches_reference():
    st = random_smooth_state((32, 32), 1.4, seed=5)
    flow = GridFlow(st, step_dt=2e-3)
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
        held = [work._flat, work._patch, work.scratch, *work._slice.values()]
        assert not any(np.shares_memory(v, buf) for buf in held)
    assert np.array_equal(flow.velocity(t, pts[0]), v[0])


def test_time_slice_sign_of_zero_matches_the_sum():
    # Products that are all -0.0 sum to +0.0 in sum(w_i f_i), which starts
    # from 0; the held-buffer combination must give the same bits.
    st = random_smooth_state((32, 32), 1.4, seed=5)
    flow = GridFlow(st, step_dt=2e-3)
    flow.advance_to(0.02)
    t = 0.0111
    k = flow._stencil_start(t)
    w = lagrange_weights(np.asarray((t - flow.states[k + 1].time) / flow.step_dt))
    for wi, s in zip(w, flow.states[k:k + 4]):
        s.vx[...] = -0.0 if wi > 0.0 else 0.0
        s.vy[...] = -0.0
    want = _reference_slice(flow, t, ("vx", "vy"))
    got = flow._time_slice(t, ("vx", "vy"))
    for n in ("vx", "vy"):
        assert np.array_equal(np.signbit(got[n]), np.signbit(want[n])), n
        assert np.array_equal(got[n], want[n]), n
    assert not np.signbit(got["vx"]).any()


def test_time_slice_with_bad_density_is_not_smooth():
    flow = GridFlow(random_smooth_state((32, 32), 1.4, seed=3), step_dt=2e-3)
    flow.advance_to(0.02)
    flow.states[5].rho[...] = -100.0          # in the stencil of t = 0.0111
    pts = np.array([[0.1, 0.9]])
    for query in (flow.velocity, flow.density, flow.velocity):
        with pytest.raises(NonSmoothState, match="density"):
            query(0.0111, pts)
    assert flow._slice is None


def test_step_with_workspace_allocates_only_the_new_state():
    st = random_smooth_state((64, 64), 1.4, seed=4)
    dt = 0.5 * st.cfl_limit()
    work = solver._Workspace(st.shape)
    step(st, dt, work=work)                   # first touch of the buffers
    tracemalloc.start()
    try:
        new = step(st, dt, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert new.rho.shape == (64, 64)
    assert peak < 8 * st.rho.nbytes


def test_guard_derivatives_feed_the_next_step(monkeypatch):
    # A guard call leaves the rho, vx, vy and P derivatives where the next
    # step's first slope reads them: a guarded step makes 8 + 32 derivative
    # calls, not 8 + 40, with the same result.  A step from another state,
    # or a second step, differentiates all ten fields again.
    st = random_smooth_state((32, 32), 1.4, seed=5)
    other = random_smooth_state((32, 32), 1.4, seed=6)
    dt = 0.5 * st.cfl_limit()
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
            smoothness_guard(guarded, work=work)
        got = step(st, dt, work=work)
        assert len(calls) == expected_calls
        assert all(np.array_equal(getattr(got, n), getattr(want, n)) for n in names)


def test_homentropic_step_skips_the_entropy_derivatives(monkeypatch):
    # A frozen entropy drops the two S derivatives of each of the four
    # slopes: 32 derivative calls per step, guarded (8 in the guard, whose
    # results serve k1, and 24) or not.
    st = random_smooth_state((32, 32), 1.4, seed=5)
    st = with_entropy(st, np.zeros(st.shape))
    dt = 0.5 * st.cfl_limit()
    want = step(st, dt)
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
            smoothness_guard(st, work=work)
        got = step(st, dt, work=work)
        assert len(calls) == 32
        assert all(not np.shares_memory(f, st.entropy) for f in calls)
        assert all(np.array_equal(getattr(got, n), getattr(want, n))
                   for n in ("rho", "vx", "vy", "entropy", "pressure"))


def test_window_replays_the_same_snapshots():
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
    assert np.array_equal(flow.density(0.0105, pts), whole.density(0.0105, pts))
    assert np.array_equal(flow.velocity(0.02, pts), whole.velocity(0.02, pts))
    for t in (0.0055, 0.003):             # between snapshots, and on one
        with pytest.raises(SnapshotDropped):
            flow.density(t, pts)
    flow.check_time(0.003)                # the time window itself is unchanged

    flow.keep_from(0.0)                   # behind the window: start again
    assert flow.states == (st,)
    flow.advance_to(0.02)
    names = ("rho", "vx", "vy", "entropy", "pressure")
    assert len(flow.states) == len(whole.states)
    for a, b in zip(flow.states, whole.states):
        assert a.time == b.time
        assert all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)
    assert np.array_equal(flow.entropy(0.0055, pts), whole.entropy(0.0055, pts))


def test_window_ahead_holds_the_last_two_snapshots():
    flow = GridFlow(random_smooth_state((32, 32), 1.4, seed=8), step_dt=1e-3)
    flow.keep_from(0.05)
    flow.advance_to(0.01)
    assert len(flow.states) == 2
    assert flow.t_last == pytest.approx(0.01)


def test_check_time_messages():
    flow = GridFlow(gaussian_pressure_matched(32), step_dt=2e-3)
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
    dt = 0.5 * st.cfl_limit()
    rhs = solver._rhs
    calls = []

    def draining(u, p, dx, dy, out, *args):    # k4 drains one cell
        rhs(u, p, dx, dy, out, *args)
        calls.append(out)
        if len(calls) == 4:
            out[0][3, 4] = -1e9

    monkeypatch.setattr(solver, "_rhs", draining)
    with pytest.raises(NonSmoothState, match="density"):
        step(st, dt)
