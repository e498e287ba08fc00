import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (CONFIG_DIR, SyntheticFlow, advect_unchecked, annulus_volume,
                     disk_volume, record_snapshots_held)

from volflow import config as config_mod, verify as verify_mod
from volflow.config import build_scenario, load_config
from volflow.criteria import CriteriaInputs, classify_and_delta, constants, threshold_q
from volflow.flowfield import ConstantFlow, ExpansionFlow
from volflow.functionals import FunctionalSample, NonSmoothSample
from volflow.matvol import _successors, advect, boundary_distance
from volflow.solver import GridFlow, GridState
from volflow.verify import (blowup_oracle, bounds_chain, check_inequality17,
                            check_lemma_suite, random_oracle_cases,
                            run_theorem_scenario)


def expansion():
    return ExpansionFlow(1.4, rho0=1.0, s0=0.0, t_c=1.0)


def oracle_inputs(q=-8.0, eps=1.0, m=1.0):
    return CriteriaInputs(q=q, gamma=1.4, n=2, s0=0.0, m=m, E=1.0, M=0.0,
                          epsilon=eps, T=1.0, G0=0.0, cond10=0.0,
                          d_init=2.0 * eps)


# -- lemma suite ---------------------------------------------------------------

def test_lemma_suite_expansion_passes():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5, markers=512,
                      order=50)
    vol = advect(vol, flow, 0.5, 0.02)
    reports = check_lemma_suite(flow, vol, -8.0, epsilon=0.5)
    names = {r.name for r in reports}
    assert names == {"dG_dt_identity", "d2G_dt2_decomposition",
                     "moment_cauchy_schwarz_power", "density_moment_lower_bound"}
    for r in reports:
        assert r.passed, r


def test_lemma_suite_reads_the_density_once_per_point_set(monkeypatch):
    # The sample reads the nodes and the boundary midpoints; the
    # density-moment bound reads the nodes once more.
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5, markers=64,
                      order=10)
    reads = []
    fields = flow.fields

    def counting(t, pts, names):
        if "rho" in names:
            reads.append(len(pts))
        return fields(t, pts, names)

    monkeypatch.setattr(flow, "fields", counting)
    reports = check_lemma_suite(flow, vol, -8.0, epsilon=0.5)
    assert reports[-1].name == "density_moment_lower_bound"
    nodes = len(vol.nodes)
    assert reads == [nodes, 64, nodes]


def test_lemma_suite_radial_identity():
    # V = x: first-derivative check reduces to the exact F = qG identity
    flow = SyntheticFlow(lambda t, p: p)
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    reports = check_lemma_suite(flow, vol, -8.0, epsilon=0.5)
    first = next(r for r in reports if r.name == "dG_dt_identity")
    assert first.passed
    assert first.lhs <= 1e-6      # relative gap far below tolerance


def test_lemma3_closed_form_annulus():
    # rho == 1 annulus: both sides of the density-moment bound in closed form
    flow = ConstantFlow(1.4, rho0=1.0, vel0=(0.0, 0.0), p0=1.0)
    vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.9,
                         markers=512, order=60)
    q, gamma, eps = -8.0, 1.4, 0.9
    reports = check_lemma_suite(flow, vol, q, epsilon=eps)
    rep = next(r for r in reports if r.name == "density_moment_lower_bound")
    lhs_closed = 2.0 * math.pi * (1.0 - 2.0 ** q) / 8.0           # int r^(q-1)
    g_closed = 2.0 * math.pi * (1.0 - 2.0 ** -6) / 6.0            # int r^(q+1)
    c1 = constants(q, gamma, 2, 0.0).C1
    bound_closed = c1 * g_closed ** gamma * eps ** 0.4
    assert rep.rhs == pytest.approx(lhs_closed, rel=1e-8)
    assert rep.lhs == pytest.approx(bound_closed, rel=1e-8)
    assert rep.passed and rep.rhs >= rep.lhs


# -- master inequality ----------------------------------------------------------

def synthetic_series(f_values, dt=0.01, g=1e-3, m=1.0, e=1.0):
    return [FunctionalSample(t=i * dt, m=m, E=e, G=g, F=f, I1=0.0, I2=0.0,
                             I3=0.0, I4=0.0, reg=0.0, reg_abs=0.0)
            for i, f in enumerate(f_values)]


def test_inequality17_static_volume_passes():
    # F == 0 and Q > 0: the bound is strictly negative, trivially satisfied
    inp = oracle_inputs(eps=0.5)
    c = constants(-8.0, 1.4, 2, 0.0).C
    series = synthetic_series([0.0] * 7)
    reports = check_inequality17(series, inp, c)
    assert len(reports) == 5
    assert all(r.passed for r in reports)


def test_inequality17_jitter_detected():
    inp = oracle_inputs(eps=0.5)
    c = constants(-8.0, 1.4, 2, 0.0).C
    f = [0.0, 0.0, 0.0, -80000.0, 0.0, 0.0, 0.0]   # violent downward spike
    reports = check_inequality17(synthetic_series(f), inp, c)
    assert any(not r.passed for r in reports)


def test_inequality17_needs_uniform_series():
    # Uneven spacing among the rows kept (the last spacing matches the
    # first, so no row is dropped) is an error.
    inp = oracle_inputs(eps=0.5)
    c = constants(-8.0, 1.4, 2, 0.0).C
    series = synthetic_series([0.0] * 5)
    bad = series[:2] + series[3:]
    with pytest.raises(ValueError, match="uniformly spaced"):
        check_inequality17(bad, inp, c)


def test_inequality17_drops_a_short_trailing_row():
    # A run's last sample can land short of the stride, at its horizon: a
    # trailing row spaced unlike the first two is dropped, and fewer than 3
    # rows left give no reports.
    inp = oracle_inputs(eps=0.5)
    c = constants(-8.0, 1.4, 2, 0.0).C
    series = synthetic_series([0.0, 1.0, 3.0, 2.0, 0.5])
    short = series + [replace(series[-1], t=series[-1].t + 0.004, F=-900.0)]
    assert check_inequality17(short, inp, c) == check_inequality17(series, inp, c)
    assert len(check_inequality17(series, inp, c)) == 3
    assert check_inequality17(series[:2] + [series[4]], inp, c) == []
    for rows in (series[:2], series[:1], []):
        assert check_inequality17(rows, inp, c) == []


@pytest.mark.parametrize("undershoot, passed", [(2e-10, True), (5e-9, False)])
def test_inequality17_slack_floor(undershoot, passed):
    # Three samples have no third difference, so only the 1e-9 floor,
    # relative to the larger side, lets the centred difference fall short.
    inp = oracle_inputs(eps=0.5)
    c = constants(-8.0, 1.4, 2, 0.0).C
    dt = 0.01
    (trial,) = check_inequality17(synthetic_series([0.0, 3000.0, 0.0], dt), inp, c)
    bound = trial.lhs
    assert bound > 1.0
    f2 = 2.0 * dt * bound * (1.0 - undershoot)
    (rep,) = check_inequality17(synthetic_series([0.0, 3000.0, f2], dt), inp, c)
    assert rep.lhs == bound
    assert -rep.slack / bound == pytest.approx(undershoot, rel=1e-3)
    assert rep.passed is passed


def test_inequality17_truncation_allowance():
    # F = -b tanh(ab (t - t0)) solves F' = a (F^2 - k Q) with b^2 = k Q, so
    # the bound is the exact derivative.  Where 3 tanh^2 > 1, F''' < 0 and
    # the centred difference falls short of it by about dt^2/6 |F'''|, far
    # past the 1e-9 floor; only the allowance from third differences covers
    # it.
    inp = oracle_inputs(eps=0.5)
    c = constants(-8.0, 1.4, 2, 0.0).C
    g = 1e-3
    a, k = verify_mod._comparison_coefficients(inp)
    b = math.sqrt(k * threshold_q(inp, c, g))
    dt = 0.005
    f = [-b * math.tanh(1.0 + a * b * i * dt) for i in range(6)]
    reports = check_inequality17(synthetic_series(f, dt, g), inp, c)
    assert len(reports) == 4
    for rep in reports:
        assert rep.slack < -1e-5 * abs(rep.lhs)
        assert rep.passed, rep


def test_inequality17_holds_on_expansion_run():
    cfg = load_config(CONFIG_DIR / "expansion_outflow.cfg")
    scenario = build_scenario(cfg)
    report = run_theorem_scenario(scenario)
    s0 = scenario.flow.entropy_floor
    inp = CriteriaInputs(q=cfg.q, gamma=cfg.gamma, n=2, s0=s0,
                         m=report.series[0].m, E=report.series[0].E, M=cfg.M,
                         epsilon=cfg.epsilon, T=cfg.T, G0=report.series[0].G,
                         cond10=report.criteria.cond10, d_init=report.series[0].dist)
    c = constants(cfg.q, cfg.gamma, 2, s0).C
    reports = check_inequality17(list(report.series), inp, c)
    assert reports and all(r.passed for r in reports)


# -- blow-up oracle --------------------------------------------------------------

def test_oracle_zero_case_spot():
    bt = blowup_oracle(1.0, 0.0, oracle_inputs())
    assert bt.closed_form == pytest.approx(8.0 / 9.0, rel=1e-12)
    assert bt.numeric == pytest.approx(bt.closed_form, rel=1e-6)


def test_oracle_negative_case_spot():
    bt = blowup_oracle(0.0, -1.0, oracle_inputs())
    assert bt.closed_form == pytest.approx(math.pi / 18.0, rel=1e-12)
    assert bt.numeric == pytest.approx(bt.closed_form, rel=1e-6)


def test_oracle_equilibrium_no_blowup():
    inp = oracle_inputs()
    b = 8.0 * 1.0   # |q| eps^(q-1) R0 with eps = 1, R0 = 1
    assert blowup_oracle(b, 1.0, inp) == (None, None)
    assert blowup_oracle(0.5 * b, 1.0, inp) == (None, None)
    assert blowup_oracle(-1.0, 0.0, inp) == (None, None)


def test_oracle_numeric_ignores_closed_form(monkeypatch):
    inp = oracle_inputs()
    b = 8.0
    escaping = [(1.0, 0.0), (0.0, -1.0)]
    never = [(b, 1.0), (0.5 * b, 1.0), (-1.0, 0.0)]
    before = [blowup_oracle(f0, q0, inp).numeric for f0, q0 in escaping]
    monkeypatch.setattr(verify_mod, "_closed_form_blowup", lambda *args: 0.125)
    after = [blowup_oracle(f0, q0, inp) for f0, q0 in escaping + never]
    assert all(bt.closed_form == 0.125 for bt in after)
    assert [bt.numeric for bt in after] == before + [None] * len(never)


@pytest.mark.parametrize("f0_over_b, q0, escapes", [
    (-100.0, -1.0, True),          # negative Q: every trajectory escapes
    (50.0, 1.0, True),             # fast escape
    (1e4, 1.0, True),              # escape inside the first RK4 step
    (1.0 + 1e-6, 1.0, True),       # slow escape just above the equilibrium b
    (-100.0, 1.0, False),          # rises towards -b and never escapes
])
def test_oracle_edge_cases_match_closed_form(f0_over_b, q0, escapes):
    b = 8.0   # |q| eps^(q-1) R0 with eps = 1, R0 = 1
    bt = blowup_oracle(f0_over_b * b, q0, oracle_inputs())
    assert (bt.closed_form is not None, bt.numeric is not None) == (escapes, escapes)
    if escapes:
        assert abs(bt.numeric - bt.closed_form) <= 1e-6 * bt.closed_form


@pytest.mark.parametrize("closed, numeric, failed, max_gap", [
    (1.0, 1.0 + 5e-7, 0, 5e-7),
    (1.0, 1.0 + 2e-6, 1, 2e-6),
    (2.0, 2.0 - 4e-6, 1, 2e-6),
    (None, None, 0, 0.0),
    (None, 1.0, 1, 0.0),
    (1.0, None, 1, 0.0),
])
def test_score_oracle_pass_test(monkeypatch, closed, numeric, failed, max_gap):
    # Every case gets the same pair: a relative gap above ORACLE_REL_GAP
    # (1e-6) fails, and so does a time on one side only.
    seen = []

    def fake(f0, q0, inp):
        seen.append((f0, q0, inp))
        return verify_mod.BlowupTimes(closed_form=closed, numeric=numeric)

    monkeypatch.setattr(verify_mod, "blowup_oracle", fake)
    cases, n_failed, gap = verify_mod.score_oracle(5)
    assert cases == len(seen) == verify_mod.ORACLE_CASES
    assert seen == random_oracle_cases(np.random.default_rng(5), cases)
    assert n_failed == failed * cases
    assert gap == pytest.approx(max_gap, rel=1e-6)


# -- verdict rule ------------------------------------------------------------------

@pytest.mark.parametrize("hit, cond10, reg_max, horizon, e_drift, verdict, detail", [
    (True, False, 1.0, 0.5, 0.5, "consistent_hit", ""),
    (False, False, 1.0, 0.5, 0.5, "consistent_no_claim", ""),
    (False, True, 0.02, 0.5, 0.5, "consistent_no_claim",
     "regularity flux exceeded M (0.02 > 0.01); "),
    (False, True, 0.01, 0.5, 0.5, "consistent_no_claim", ""),
    (False, True, 0.01, 1.0, 0.02, "inconclusive", "energy drift 2.000% exceeds 1%; "),
    (False, True, 0.01, 1.0, 0.005, "VIOLATION", ""),
    (False, True, 0.0, 1.0, 0.0, "VIOLATION", ""),
], ids=["hit", "no_cond10", "reg_over_M", "short_horizon", "energy_drift",
        "violation", "violation_no_drift"])
def test_verdict_rule(hit, cond10, reg_max, horizon, e_drift, verdict, detail):
    # A reg_max equal to M does not exceed it, and a horizon equal to T
    # reaches it; a VIOLATION needs every hypothesis to survive.
    inp = replace(oracle_inputs(), M=0.01, T=1.0)
    assert verify_mod.verdict_rule(hit, cond10, reg_max, horizon, e_drift, inp) == (
        verdict, detail)


def test_oracle_agreement_batch():
    rng = np.random.default_rng(33)
    worst = 0.0
    for f0, q0, inp in random_oracle_cases(rng, 45):
        bt = blowup_oracle(f0, q0, inp)
        assert (bt.closed_form is None) == (bt.numeric is None)
        if bt.closed_form is not None:
            worst = max(worst, abs(bt.numeric - bt.closed_form) / bt.closed_form)
    assert worst <= 1e-6


def test_threshold_sharpness_zero_case():
    # F0 = |q| |delta| * (1 +- 1e-3) flips the numeric blow-up across T
    inp = oracle_inputs(eps=0.5)
    case, delta = classify_and_delta(inp, 0.0, 0.0)
    f_star = abs(inp.q) * abs(delta)
    above = blowup_oracle(f_star * (1.0 + 1e-3), 0.0, inp)
    below = blowup_oracle(f_star * (1.0 - 1e-3), 0.0, inp)
    assert above.numeric < inp.T < below.numeric


# -- bounds chain ---------------------------------------------------------------

def test_bounds_chain_reports():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    from volflow.functionals import sample
    s = sample(flow, vol, -8.0)
    reports = bounds_chain(s, oracle_inputs(eps=0.5))
    assert [r.name for r in reports] == ["f_energy_bound", "i2_energy_bound",
                                         "i4_flux_bound", "g_mass_bound"]
    assert all(r.passed for r in reports)


# -- scenarios -------------------------------------------------------------------

def test_constant_inflow_hits(shipped_runs):
    report = shipped_runs["constant_inflow"]
    assert report.verdict == "consistent_hit"
    assert report.hit_time == pytest.approx(1.5, abs=2e-3)
    assert report.criteria.cond10 < 0.0
    assert not report.bounds_failures


def exact_hit(vol, shift, x0, epsilon, dt):
    """The first time the boundary of `vol` comes within epsilon of x0 under
    a flow uniform in space, whose particles move by `shift(t)` by time t
    (V0 t under a `ConstantFlow`): the boundary at time t is the initial
    marker polygon translated by it, so its distance to x0 is exact.  The
    first multiple of dt at which that distance is at most epsilon brackets
    the time, and 200 bisections close the bracket."""
    a = vol.markers
    ab = a.take(_successors(len(a), vol.loop_ends), axis=0) - a
    x0 = np.asarray(x0, dtype=float)

    def dist(t):
        rel = x0 - (a + shift(t))
        s = np.clip(np.einsum("ij,ij->i", rel, ab) / np.einsum("ij,ij->i", ab, ab),
                    0.0, 1.0)
        return float(np.hypot(*(rel - s[:, None] * ab).T).min())

    k = 1
    while dist(k * dt) > epsilon:
        k += 1
    lo, hi = (k - 1) * dt, k * dt
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if dist(mid) <= epsilon else (mid, hi)
    return hi


@pytest.mark.parametrize("name", ["arc_live", "constant_inflow"])
def test_closed_form_hit_matches_the_exact_time(shipped_runs, name):
    # The marker polygon is the material boundary here (arc_live is a
    # polygon, and constant_inflow's disk has a marker on the axis through
    # x0), so the run's hit is the exact one to within its bisection
    # tolerance dt / 100.  Measured: arc_live 0.00972216796875 against
    # 0.0097220541, constant_inflow 1.5000030517578125 against 1.5.
    scenario = build_scenario(load_config(CONFIG_DIR / f"{name}.cfg"))
    cfg = scenario.cfg
    exact = exact_hit(scenario.vol, lambda t: scenario.flow.vel0 * t, cfg.x0,
                      cfg.epsilon, cfg.dt)
    report = (shipped_runs[name] if name in shipped_runs
              else run_theorem_scenario(scenario))
    assert abs(report.hit_time - exact) <= cfg.dt / 100


# Item 2's oscillating flow: V = (-5 cos(omega t), 0) carries constant_inflow's
# disk toward x0 and back; its boundary first dips within epsilon = 0.5 of x0
# at 0.35463988 and comes back out before t = 1.
OMEGA = 5.0 / 1.8


def oscillating_run(tmp_path, monkeypatch, stride):
    def velocity(t, p):
        return np.stack([np.full(p.shape[:-1], -5.0 * math.cos(OMEGA * t)),
                         np.zeros(p.shape[:-1])], axis=-1)

    flow = SyntheticFlow(velocity)
    monkeypatch.setattr(config_mod, "build_flow", lambda cfg: flow)
    path = tmp_path / "oscillating.cfg"
    path.write_text((CONFIG_DIR / "constant_inflow.cfg").read_text()
                    + f"\nsample.stride = {stride}\n")
    scenario = build_scenario(load_config(path))
    cfg = scenario.cfg
    def shift(t):
        return np.array([-5.0 / OMEGA * math.sin(OMEGA * t), 0.0])

    exact = exact_hit(scenario.vol, shift, cfg.x0, cfg.epsilon, cfg.dt)
    return run_theorem_scenario(scenario), exact, cfg.dt


def test_oscillating_hit_matches_the_exact_time(tmp_path, monkeypatch):
    # Measured: the run hits 3.7e-6 after the exact 0.35463988.
    report, exact, dt = oscillating_run(tmp_path, monkeypatch, 10)
    assert exact == pytest.approx(0.35463988, abs=1e-8)
    assert abs(report.hit_time - exact) <= dt / 100


@pytest.mark.xfail(strict=True, reason="item 2: a transient hit between two samples "
                   "is missed; the run reports the next oscillation's, at 2.6166")
def test_oscillating_hit_between_samples_is_found(tmp_path, monkeypatch):
    report, exact, dt = oscillating_run(tmp_path, monkeypatch, 1000)
    assert abs(report.hit_time - exact) <= dt / 100


def test_expansion_hit_matches_the_chord_time(tmp_path):
    # A disk of radius 0.5 at the origin grows as 0.5 (1 + t); x0 sits 4 from
    # the centre, halfway between two of the 512 markers.  The chord between
    # them reaches epsilon = 0.5 at 7 / cos(pi/512) - 1 = 6.0001318, the
    # material circle at 6.0.  Measured: the run hits at 6.00013184, 6e-8
    # after the chord time.  The chord lag, more than dt / 100, is the error
    # of a marker polygon curved about x0.
    angle = math.pi / 512
    path = tmp_path / "expansion_hit.cfg"
    path.write_text(
        "gamma = 1.4\nflow.kind = expansion\nflow.rho0 = 1.0\nflow.t_c = 1.0\n"
        "volume.shape = disk\nvolume.center = 0.0, 0.0\nvolume.radius = 0.5\n"
        "volume.markers = 512\nvolume.quad_order = 8\n"
        f"x0 = {4.0 * math.cos(angle)!r}, {4.0 * math.sin(angle)!r}\n"
        "epsilon = 0.5\nq = -8.0\nT = 7.0\nM = 10.0\ndt = 1e-3\n")
    scenario = build_scenario(load_config(path))
    report = run_theorem_scenario(scenario)
    dt = scenario.cfg.dt
    assert abs(report.hit_time - (7.0 / math.cos(angle) - 1.0)) <= dt / 100
    assert report.hit_time - 6.0 > dt / 100


def test_constant_receding_no_claim(shipped_runs):
    report = shipped_runs["constant_receding"]
    assert report.verdict == "consistent_no_claim"
    assert report.hit_time is None
    assert report.criteria.cond10 > 0.0
    assert not report.criteria.cond10_holds


def test_expansion_outflow_no_claim(shipped_runs):
    report = shipped_runs["expansion_outflow"]
    assert report.verdict == "consistent_no_claim"
    assert report.hit_time is None
    assert report.criteria.cond10 > 0.0
    # the volume does boundary work: energy genuinely drifts, which is
    # recorded but cannot demote a no-claim outcome
    assert report.E_drift > 0.01


def test_radial_inflow_grid_scenario(shipped_runs):
    report = shipped_runs["radial_inflow"]
    assert report.verdict == "consistent_no_claim"
    want = -2.0 * math.pi * (1.0 - 2.0 ** -6) / 6.0
    assert report.criteria.cond10 == pytest.approx(want, abs=1e-6)
    assert not report.bounds_failures


def test_no_violation_across_shipped_runs(shipped_runs):
    for name, report in shipped_runs.items():
        assert report.verdict != "VIOLATION", name
        assert not report.bounds_failures, name


def test_series_schema(shipped_runs):
    row = shipped_runs["constant_inflow"].series[0]
    assert row._fields == ("t", "m", "E", "G", "F", "I1", "I2", "I3", "I4",
                           "reg", "dist", "Qq")
    assert row.t == 0.0
    assert row.m == pytest.approx(np.pi, rel=1e-10)


def test_hit_refinement_beats_sampling_cadence(shipped_runs):
    # samples are 50 steps apart, yet the hit is located to well under 2*dt
    report = shipped_runs["constant_inflow"]
    assert abs(report.hit_time - 1.5) <= 2e-3


def _refine_hit_all_points(vol_prev, flow, t_lo, t_hi, epsilon, dt):
    """The bisection with every trial advecting markers and nodes alike."""
    while t_hi - t_lo > dt / 100.0:
        mid = 0.5 * (t_lo + t_hi)
        trial = advect_unchecked(vol_prev, flow, mid, dt)
        if boundary_distance(trial) <= epsilon:
            t_hi = mid
        else:
            t_lo = mid
    return 0.5 * (t_lo + t_hi)


def _wavy_grid_flow(n=32):
    """A smooth periodic stream on the unit box, mostly along +x."""
    x, y = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
    st = GridState.from_nodes(rho=np.ones((n, n)), vx=0.5 + 0.1 * np.sin(2 * np.pi * y),
                              vy=0.1 * np.cos(2 * np.pi * x), entropy=np.zeros((n, n)),
                              gamma=1.4, origin=(0.0, 0.0), spacing=(1.0 / n, 1.0 / n),
                              time=0.0)
    return GridFlow(st, step_dt=5e-3, guard_threshold=np.inf)


@pytest.mark.parametrize("kind", ["constant", "grid"])
def test_hit_refinement_moves_only_the_markers(kind):
    # Each point moves on its own, so advecting the markers alone gives the
    # bisection the same trial boundaries, and the same hit time, bit for bit.
    if kind == "constant":
        flow = ConstantFlow(1.4, rho0=1.0, vel0=(-1.0, 0.0), p0=1.0)
        vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
        t_lo, dt, epsilon = 1.46, 0.05, 0.5
    else:
        flow = _wavy_grid_flow()
        flow.advance_to(0.2)
        vol = disk_volume(flow, (0.4, 0.5), 0.15, (0.8, 0.5), 0.1, order=10)
        t_lo, dt = 0.08, 0.04
        epsilon = 0.5 * (boundary_distance(advect(vol, flow, t_lo, dt)) +
                         boundary_distance(advect(vol, flow, t_lo + dt, dt)))
    vol = advect(vol, flow, t_lo, dt)
    got = verify_mod._refine_hit(vol, flow, t_lo + dt, epsilon, dt)
    want = _refine_hit_all_points(vol, flow, t_lo, t_lo + dt, epsilon, dt)
    assert repr(got) == repr(want)
    assert t_lo < got < t_lo + dt


# A grid flow answers each query from t alone, so advancing the scenario's
# shared flow first (as `verify` does before its theorem run) changes no bit
# of the run; at T = 0.01 the run spans only two grid steps.
@pytest.mark.parametrize("T", [0.1, 0.01])
def test_grid_run_does_not_depend_on_pre_advancing(T):
    cfg = replace(load_config(CONFIG_DIR / "radial_inflow.cfg"), T=T)
    plain = run_theorem_scenario(build_scenario(cfg))
    scenario = build_scenario(cfg)
    scenario.flow.advance_to(0.3)
    advanced = run_theorem_scenario(scenario)
    assert len(plain.series) >= 2
    assert np.asarray(plain.series).tobytes() == np.asarray(advanced.series).tobytes()


def test_grid_run_memory_does_not_grow_with_the_horizon(tmp_path, monkeypatch):
    # The advection advances the flow one RK step ahead of the volume, and
    # the run releases what lies behind each sample, so the flow holds the
    # same number of snapshots at T and 3T: the anchor (the first snapshot
    # of the last sample's stencil) and one RK step's time stencil, whatever
    # the sample stride.  A stride of 2 spans one grid step here, so its
    # anchor may be the window's first snapshot: one fewer held apart.
    path = tmp_path / "radial_64.cfg"
    path.write_text((CONFIG_DIR / "radial_inflow.cfg").read_text()
                    + "\nflow.grid.n = 64\n")
    held = record_snapshots_held(monkeypatch)
    peaks, reports = [], []
    for T, stride in ((0.3, 8), (0.1, 8), (0.1, 2)):
        scenario = build_scenario(replace(load_config(path), T=T, sample_stride=stride))
        held.clear()
        reports.append(run_theorem_scenario(scenario))
        assert reports[-1].horizon == T
        peaks.append(max(held))
    cfg, grid_dt = scenario.cfg, scenario.flow.step_dt
    assert peaks[0] == peaks[1] and peaks[1] - 1 <= peaks[2] <= peaks[1]
    assert peaks[0] <= math.ceil(cfg.dt / grid_dt) + 6
    # A second run on the same scenario finds the window past its start,
    # restarts it, and replays the flow to the same series.
    again = run_theorem_scenario(scenario)
    assert np.asarray(again.series).tobytes() == np.asarray(reports[-1].series).tobytes()


def test_non_smooth_sample_ends_the_horizon_at_the_sample_before(monkeypatch):
    scenario = build_scenario(load_config(CONFIG_DIR / "constant_receding.cfg"))
    times = []
    real = verify_mod.sample

    def third_fails(flow, vol, q):
        times.append(vol.time)
        if len(times) == 3:
            raise NonSmoothSample(f"flow density not positive at a boundary "
                                  f"midpoint at t={vol.time}", ())
        return real(flow, vol, q)

    monkeypatch.setattr(verify_mod, "sample", third_fails)
    report = run_theorem_scenario(scenario)
    assert [row.t for row in report.series] == [0.0] + times[:2]
    assert report.horizon == times[1] < scenario.inp.T
    assert report.detail == (f"flow density not positive at a boundary "
                             f"midpoint at t={times[2]};")
    assert report.bounds_checked == 3 * len(bounds_chain(scenario.sample0, scenario.inp))
    assert report.verdict == "consistent_no_claim"
    assert report.hit_time is None

