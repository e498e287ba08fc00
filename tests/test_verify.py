import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (CONFIG_DIR, SyntheticFlow, annulus_volume, disk_volume,
                     record_snapshots_held)

from volflow import verify as verify_mod
from volflow.config import build_scenario, load_config
from volflow.criteria import CriteriaInputs, classify_and_delta, constants
from volflow.flowfield import make_analytic_flow
from volflow.functionals import FunctionalSample, NonSmoothSample, PhiSpec
from volflow.matvol import advect
from volflow.verify import (blowup_oracle, bounds_chain, check_inequality17,
                            check_lemma_suite, random_oracle_cases,
                            run_theorem_scenario)


def expansion():
    return make_analytic_flow("expansion", 1.4,
                              {"rho0": 1.0, "S0": 0.0, "t_c": 1.0})


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
    reports = check_lemma_suite(flow, vol, PhiSpec.power_law(-8.0), epsilon=0.5)
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
    density = flow.density

    def counting(t, pts):
        reads.append(len(pts))
        return density(t, pts)

    monkeypatch.setattr(flow, "density", counting)
    reports = check_lemma_suite(flow, vol, PhiSpec.power_law(-8.0), epsilon=0.5)
    assert reports[-1].name == "density_moment_lower_bound"
    nodes = len(vol.nodes)
    assert reads == [nodes, 64, nodes]


def test_lemma_suite_radial_identity():
    # V = x: first-derivative check reduces to the exact F = qG identity
    flow = SyntheticFlow(lambda t, p: p)
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    reports = check_lemma_suite(flow, vol, PhiSpec.power_law(-8.0), epsilon=0.5)
    first = next(r for r in reports if r.name == "dG_dt_identity")
    assert first.passed
    assert first.lhs <= 1e-6      # relative gap far below tolerance


def test_lemma_suite_generic_profile():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    cosh_phi = PhiSpec.generic(np.cosh, np.sinh, np.cosh)
    reports = check_lemma_suite(flow, vol, cosh_phi, epsilon=0.5)
    assert {r.name for r in reports} == {"dG_dt_identity",
                                         "d2G_dt2_decomposition",
                                         "moment_cauchy_schwarz"}
    for r in reports:
        assert r.passed, r


def test_lemma_suite_rejects_concave_profile():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    bad = PhiSpec.generic(lambda r: r, lambda r: np.ones_like(r),
                          lambda r: np.zeros_like(r))
    with pytest.raises(ValueError, match="phi"):
        check_lemma_suite(flow, vol, bad, epsilon=0.5)


def test_lemma3_closed_form_annulus():
    # rho == 1 annulus: both sides of the density-moment bound in closed form
    flow = make_analytic_flow("constant", 1.4,
                              {"rho0": 1.0, "V0": (0.0, 0.0), "P0": 1.0})
    vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.9,
                         markers=512, order=60)
    q, gamma, eps = -8.0, 1.4, 0.9
    reports = check_lemma_suite(flow, vol, PhiSpec.power_law(q), epsilon=eps)
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
                             I3=0.0, I4=0.0, reg=0.0, q=-8.0, epsilon=0.5)
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
    inp = oracle_inputs(eps=0.5)
    c = constants(-8.0, 1.4, 2, 0.0).C
    series = synthetic_series([0.0] * 5)
    bad = series[:2] + [series[4]]
    with pytest.raises(ValueError):
        check_inequality17(bad, inp, c)
    with pytest.raises(ValueError):
        check_inequality17(series[:2], inp, c)


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
    s = sample(flow, vol, PhiSpec.power_law(-8.0), 0.5)
    reports = bounds_chain(s)
    assert [r.name for r in reports] == ["f_energy_bound", "i2_energy_bound",
                                         "i4_flux_bound", "g_mass_bound"]
    assert all(r.passed for r in reports)


def test_bounds_chain_needs_power_law():
    flow = expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5)
    from volflow.functionals import sample
    s = sample(flow, vol, PhiSpec.generic(np.cosh, np.sinh, np.cosh), 0.5)
    with pytest.raises(ValueError):
        bounds_chain(s)


# -- scenarios -------------------------------------------------------------------

def test_constant_inflow_hits(shipped_runs):
    report = shipped_runs["constant_inflow"]
    assert report.verdict == "consistent_hit"
    assert report.hit_time == pytest.approx(1.5, abs=2e-3)
    assert report.criteria.cond10 < 0.0
    assert not report.bounds_failures


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
    # The run advances the flow one sample stride at a time and releases
    # what lies behind each sample, so the flow holds the same number of
    # snapshots at T and 3T: about one stride of grid steps plus the stencil.
    path = tmp_path / "radial_64.cfg"
    path.write_text((CONFIG_DIR / "radial_inflow.cfg").read_text()
                    + "\nflow.grid.n = 64\n")
    held = record_snapshots_held(monkeypatch)
    peaks, reports = [], []
    for T in (0.3, 0.1):
        scenario = build_scenario(replace(load_config(path), T=T))
        held.clear()
        reports.append(run_theorem_scenario(scenario))
        assert reports[-1].horizon == T
        peaks.append(max(held))
    cfg, grid_dt = scenario.cfg, scenario.flow.step_dt
    assert peaks[0] == peaks[1]
    assert peaks[0] <= math.ceil(cfg.sample_stride * cfg.dt / grid_dt) + 5
    # A second run on the same scenario finds the window past its start,
    # restarts it, and replays the flow to the same series.
    again = run_theorem_scenario(scenario)
    assert np.asarray(again.series).tobytes() == np.asarray(reports[-1].series).tobytes()


def test_non_smooth_sample_ends_the_horizon_at_the_sample_before(monkeypatch):
    scenario = build_scenario(load_config(CONFIG_DIR / "constant_receding.cfg"))
    times = []
    real = verify_mod.sample

    def third_fails(flow, vol, phi, epsilon):
        times.append(vol.time)
        if len(times) == 3:
            raise NonSmoothSample(f"flow density not positive at a boundary "
                                  f"midpoint at t={vol.time}")
        return real(flow, vol, phi, epsilon)

    monkeypatch.setattr(verify_mod, "sample", third_fails)
    report = run_theorem_scenario(scenario)
    assert [row.t for row in report.series] == [0.0] + times[:2]
    assert report.horizon == times[1] < scenario.inp.T
    assert report.detail == (f"flow density not positive at a boundary "
                             f"midpoint at t={times[2]};")
    assert report.bounds_checked == 3 * len(bounds_chain(scenario.sample0))
    assert report.verdict == "consistent_no_claim"
    assert report.hit_time is None

