"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line (run with -s to see them).  Tolerances are pinned here and
nowhere else."""

import math
import time

import numpy as np
import pytest

from helpers import (CONFIG_DIR, SyntheticFlow, annulus_volume, disk_volume,
                     volume_integral_mass, volume_integral_plain)

from volflow.cli import main as cli_main
from volflow.config import build_scenario, load_config
from volflow.criteria import (CriteriaInputs, classify_and_delta, condition10,
                              constants, qneg_time_threshold)
from volflow.flowfield import make_analytic_flow
from volflow.functionals import PhiSpec, sample
from volflow.matvol import advect
from volflow.solver import GridState, step
from volflow.verify import (blowup_oracle, check_lemma_suite,
                            random_oracle_cases, run_theorem_scenario)


def _criterion(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def _expansion():
    return make_analytic_flow("expansion", 1.4,
                              {"rho0": 1.0, "S0": 0.0, "t_c": 1.0})


@pytest.fixture(scope="module")
def lemma_sweep():
    """Ten lemma-suite evaluations along the expansion flow at ~1e4 nodes."""
    flow = _expansion()
    vol = disk_volume(flow, (3.0, 0.0), 1.0, (0.0, 0.0), 0.5,
                      markers=512, order=71)
    n_nodes = len(vol.nodes)
    phi = PhiSpec.power_law(-8.0)
    t0 = time.perf_counter()
    reports = []
    t_prev = 0.0
    for t in np.linspace(0.1, 1.0, 10):
        vol = advect(vol, flow, float(t), 0.02, check_boundary=False)
        reports.append(check_lemma_suite(flow, vol, phi, epsilon=0.5))
        t_prev = t
    elapsed = time.perf_counter() - t0
    return reports, elapsed, n_nodes


def test_criterion_01_first_derivative_identity(lemma_sweep):
    reports, elapsed, n_nodes = lemma_sweep
    gaps = [next(r for r in reps if r.name == "dG_dt_identity").lhs
            for reps in reports]
    ok = len(gaps) == 10 and max(gaps) <= 1e-5 and elapsed < 10.0 \
        and n_nodes >= 1e4
    _criterion(1, ok, f"dG/dt identity: max rel gap {max(gaps):.2e} <= 1e-5 "
                      f"at 10 sample times, {n_nodes} nodes, {elapsed:.1f}s < 10s")


def test_criterion_02_second_derivative_decomposition(lemma_sweep):
    reports, _, _ = lemma_sweep
    gaps = [next(r for r in reps if r.name == "d2G_dt2_decomposition").lhs
            for reps in reports]
    ok = max(gaps) <= 1e-3
    _criterion(2, ok, f"d2G/dt2 decomposition: max rel gap {max(gaps):.2e} <= 1e-3")


def test_criterion_03_cauchy_schwarz_randomized():
    rng = np.random.default_rng(2024)
    worst = np.inf
    for i in range(100):
        # random smooth velocity: affine plus trigonometric ripple
        amat = rng.uniform(-1.0, 1.0, (2, 2))
        bvec = rng.uniform(-1.0, 1.0, 2)
        kvec = rng.uniform(0.5, 2.0, 2)
        amp = rng.uniform(0.0, 0.8)

        def vel(t, p, amat=amat, bvec=bvec, kvec=kvec, amp=amp):
            ripple = amp * np.stack([np.sin(p[..., 0] * kvec[0] + p[..., 1]),
                                     np.cos(p[..., 1] * kvec[1])], axis=-1)
            return p @ amat.T + bvec + ripple

        flow = SyntheticFlow(vel, rho0=rng.uniform(0.5, 2.0),
                             p0=rng.uniform(0.5, 2.0))
        if i % 2 == 0:
            ang = rng.uniform(0.0, 2.0 * np.pi)
            d = rng.uniform(2.5, 4.0)
            vol = disk_volume(flow, (d * math.cos(ang), d * math.sin(ang)),
                              rng.uniform(0.5, 1.2), (0.0, 0.0), 0.5,
                              markers=128, order=16)
        else:
            r1 = rng.uniform(0.8, 1.5)
            vol = annulus_volume(flow, (0.0, 0.0), (r1, r1 + rng.uniform(0.5, 1.5)),
                                 (0.0, 0.0), 0.5 * r1, markers=128, order=16)

        # generic profile with phi > 0 and phi'' > 0
        kind = i % 3
        if kind == 0:
            q = rng.uniform(-10.0, -1.0)
            phi = PhiSpec.power_law(q)
            sup_fn = lambda r, q=q: np.full_like(r, abs(q) / (abs(q) + 1.0))
        elif kind == 1:
            a = rng.uniform(0.3, 1.5)
            phi = PhiSpec.generic(lambda r, a=a: np.cosh(a * r),
                                  lambda r, a=a: a * np.sinh(a * r),
                                  lambda r, a=a: a * a * np.cosh(a * r))
            sup_fn = lambda r, a=a: np.tanh(a * r) ** 2
        else:
            a = rng.uniform(0.3, 1.5)
            phi = PhiSpec.generic(lambda r, a=a: np.exp(-a * r),
                                  lambda r, a=a: -a * np.exp(-a * r),
                                  lambda r, a=a: a * a * np.exp(-a * r))
            sup_fn = lambda r, a=a: np.ones_like(r)

        s = sample(flow, vol, phi, 0.5)
        r = np.linalg.norm(vol.nodes - vol.x0, axis=1)
        sup_ratio = float(np.max(sup_fn(r)))
        rhs = sup_ratio * s.G * s.I1
        scale = max(s.F ** 2, abs(rhs), 1e-30)
        worst = min(worst, (rhs - s.F ** 2) / scale)
        if phi.is_power_law:
            aq = abs(phi.q)
            rhs_sharp = aq / (aq + 1.0) * s.G * s.I1
            scale = max(s.F ** 2, abs(rhs_sharp), 1e-30)
            worst = min(worst, (rhs_sharp - s.F ** 2) / scale)
    ok = worst >= -1e-10
    _criterion(3, ok, f"Cauchy-Schwarz moment bound over 100 random configs: "
                      f"worst normalized slack {worst:.2e} >= -1e-10")


def test_criterion_04_density_moment_closed_form():
    q, gamma, eps = -8.0, 1.4, 0.9
    flow = make_analytic_flow("constant", gamma,
                              {"rho0": 1.0, "V0": (0.0, 0.0), "P0": 1.0})
    vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), eps,
                         markers=512, order=60)
    lhs_quad = volume_integral_plain(
        vol, lambda p: np.linalg.norm(p, axis=1) ** (q - 2.0), flow)
    g_quad = volume_integral_mass(vol, lambda p: np.linalg.norm(p, axis=1) ** q)
    lhs_closed = 2.0 * math.pi * (1.0 - 2.0 ** q) / 8.0
    g_closed = 2.0 * math.pi * (1.0 - 2.0 ** -6) / 6.0
    c1 = constants(q, gamma, 2, 0.0).C1
    bound_quad = c1 * g_quad ** gamma * eps ** 0.4
    bound_closed = c1 * g_closed ** gamma * eps ** 0.4
    ok = (abs(lhs_quad - lhs_closed) <= 1e-8 * lhs_closed
          and abs(bound_quad - bound_closed) <= 1e-8 * bound_closed
          and lhs_quad >= bound_quad)
    _criterion(4, ok, f"density-moment bound, closed forms: lhs {lhs_quad:.9f} "
                      f"(exact {lhs_closed:.9f}) >= bound {bound_quad:.9f} "
                      f"(exact {bound_closed:.9f}), both to 1e-8")


def test_criterion_05_bounds_chain_all_runs(shipped_runs):
    checked = sum(rep.bounds_checked for rep in shipped_runs.values())
    failed = sum(len(rep.bounds_failures) for rep in shipped_runs.values())
    ok = checked > 0 and failed == 0
    _criterion(5, ok, f"bounds chain along all shipped runs: "
                      f"{checked} checks, {failed} violations")


def test_criterion_06_constants():
    c2 = constants(-8.0, 1.4, 2, 0.0)
    c3 = constants(-9.0, 1.4, 3, 0.0)
    ok = (abs(c2.C1 - (2.0 * math.pi) ** -0.4) <= 1e-12 * (2.0 * math.pi) ** -0.4
          and c2.sigma_n == 2.0 * math.pi and c3.sigma_n == 4.0 * math.pi)
    _criterion(6, ok, f"C1(-8,1.4,2) = {c2.C1!r} = (2 pi)^-0.4 to 1e-12; "
                      f"sigma_2 = 2 pi, sigma_3 = 4 pi exact")


def test_criterion_07_delta_formulas():
    base = dict(q=-8.0, gamma=1.4, n=2, s0=0.0, m=1.0, E=1.0, M=0.0,
                epsilon=0.5, T=10.0, G0=0.0, cond10=0.0, d_init=2.0)
    inp = CriteriaInputs(**base)

    _, d_zero = classify_and_delta(inp, 0.0, 0.0)
    ok_zero = abs(d_zero - (-256.0 / 90.0)) <= 1e-6 * (256.0 / 90.0)

    _, d_neg_long = classify_and_delta(inp, -1.0, 1.0)
    ok_long = d_neg_long == 0.0

    q0 = 0.260811
    r0 = math.sqrt(q0)
    _, d_pos = classify_and_delta(inp, q0, r0)
    want = -0.5 ** -9.0 * r0 / math.tanh(9.0 * r0 * 10.0 / 0.5)
    ok_pos = abs(d_pos - want) <= 1e-6 * abs(want) and round(d_pos, 2) == -261.48

    r_small = 1e-8
    _, d_p = classify_and_delta(inp, r_small ** 2, r_small)
    _, d_m = classify_and_delta(inp, -(r_small ** 2), r_small)
    ok_cont0 = (abs(d_p - d_zero) <= 1e-6 * abs(d_zero)
                and abs(d_m - d_zero) <= 1e-6 * abs(d_zero))

    r0b = 0.3
    thr = qneg_time_threshold(inp, r0b)
    inp_b = CriteriaInputs(**{**base, "T": thr - 1e-10})
    _, d_bnd = classify_and_delta(inp_b, -(r0b ** 2), r0b)
    inp_c = CriteriaInputs(**{**base, "T": thr})
    _, d_at = classify_and_delta(inp_c, -(r0b ** 2), r0b)
    ok_bnd = abs(d_bnd) <= 1e-6 and d_at == 0.0

    ok = ok_zero and ok_long and ok_pos and ok_cont0 and ok_bnd
    _criterion(7, ok, f"delta values: zero-case {d_zero:.6f} (-256/90), "
                      f"long-horizon 0, coth case {d_pos:.2f} (~-261.48); "
                      f"continuity at Q0->0 and at the case boundary to 1e-6")


def test_criterion_08_blowup_oracle():
    inp = CriteriaInputs(q=-8.0, gamma=1.4, n=2, s0=0.0, m=1.0, E=1.0, M=0.0,
                         epsilon=1.0, T=1.0, G0=0.0, cond10=0.0, d_init=2.0)
    spot2 = blowup_oracle(1.0, 0.0, inp)
    spot3 = blowup_oracle(0.0, -1.0, inp)
    ok_spots = (abs(spot2.closed_form - 8.0 / 9.0) <= 1e-12
                and abs(spot3.closed_form - math.pi / 18.0) <= 1e-12
                and abs(spot2.numeric - spot2.closed_form) <= 1e-6 * spot2.closed_form
                and abs(spot3.numeric - spot3.closed_form) <= 1e-6 * spot3.closed_form)

    rng = np.random.default_rng(7)
    worst = 0.0
    blowups = 0
    for f0, q0, case_inp in random_oracle_cases(rng, 200):
        bt = blowup_oracle(f0, q0, case_inp)
        assert (bt.closed_form is None) == (bt.numeric is None)
        if bt.closed_form is not None:
            blowups += 1
            worst = max(worst, abs(bt.numeric - bt.closed_form) / bt.closed_form)
    ok = ok_spots and worst <= 1e-6 and blowups >= 150
    _criterion(8, ok, f"blow-up oracle: spots 8/9 and pi/18 reproduced; "
                      f"{blowups} escaping cases of 200, max rel gap {worst:.2e} <= 1e-6")


def test_criterion_09_end_to_end_scenarios(shipped_runs):
    t0 = time.perf_counter()
    inflow = run_theorem_scenario(
        build_scenario(load_config(CONFIG_DIR / "constant_inflow.cfg")))
    elapsed = time.perf_counter() - t0

    receding = shipped_runs["constant_receding"]
    radial = shipped_runs["radial_inflow"]
    want_c10 = -2.0 * math.pi * (1.0 - 2.0 ** -6) / 6.0

    ok = (inflow.verdict == "consistent_hit"
          and abs(inflow.hit_time - 1.5) <= 2e-3           # 2*dt at dt=1e-3
          and inflow.criteria.cond10 < 0.0
          and abs(radial.criteria.cond10 - want_c10) <= 1e-6
          and receding.verdict == "consistent_no_claim"
          and elapsed < 30.0)
    _criterion(9, ok, f"end-to-end: hit at {inflow.hit_time:.6f} (1.5 +- 2dt), "
                      f"verdict {inflow.verdict}, radial cond10 "
                      f"{radial.criteria.cond10:.6f} (~{want_c10:.6f} +- 1e-6), "
                      f"receding {receding.verdict}, runtime {elapsed:.1f}s < 30s")


def test_criterion_10_solver():
    # constant-state fixed point, bitwise
    n = 32
    ones = np.ones((n, n))
    st = GridState(rho=ones.copy(), vx=0.4 * ones, vy=-0.1 * ones,
                   entropy=0.2 * ones, gamma=1.4, origin=(0.0, 0.0),
                   spacing=(1.0 / n, 1.0 / n), time=0.0)
    st2 = step(st, 0.5 * st.cfl_limit())
    ok_fixed = all(np.array_equal(getattr(st, f), getattr(st2, f))
                   for f in ("rho", "vx", "vy", "entropy"))

    # pressure-matched Gaussian advection: exact translate oracle
    gamma = 1.4
    t_final = 0.25
    errs = []
    worst_drift = 0.0
    for m in (64, 128, 256):
        h = 1.0 / m
        c = np.arange(m) * h
        x, y = np.meshgrid(c, c, indexing="ij")
        rho = 1.0 + 0.3 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2 * 0.07 ** 2))
        state = GridState(rho=rho, vx=np.ones((m, m)), vy=np.zeros((m, m)),
                          entropy=-gamma * np.log(rho), gamma=gamma,
                          origin=(0.0, 0.0), spacing=(h, h), time=0.0)
        rho0 = state.rho.copy()
        steps = int(np.ceil(t_final / (0.9 * state.cfl_limit())))
        dt = t_final / steps
        m_prev = state.mass()
        for _ in range(steps):
            state = step(state, dt)
            mass = state.mass()
            worst_drift = max(worst_drift, abs(mass - m_prev) / m_prev)
            m_prev = mass
        oracle = np.roll(rho0, int(round(t_final * m)), axis=0)
        errs.append(np.abs(state.rho - oracle).max())
    order_a = np.log2(errs[0] / errs[1])
    order_b = np.log2(errs[1] / errs[2])

    ok = ok_fixed and order_a >= 1.9 and order_b >= 1.9 and worst_drift <= 1e-10
    _criterion(10, ok, f"solver: constant state bitwise fixed point; advection "
                       f"orders {order_a:.2f}, {order_b:.2f} >= 1.9 over "
                       f"64->128->256; worst per-step mass drift "
                       f"{worst_drift:.1e} <= 1e-10")


def test_criterion_11_verify_determinism(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "lemmas_expansion.cfg")
    rc1 = cli_main(["verify", "--config", cfg, "--seed", "7",
                    "--out", str(tmp_path / "a")])
    out1 = capsys.readouterr().out
    rc2 = cli_main(["verify", "--config", cfg, "--seed", "7",
                    "--out", str(tmp_path / "b")])
    out2 = capsys.readouterr().out
    fa = (tmp_path / "a" / "lemmas_expansion_verify.txt").read_bytes()
    fb = (tmp_path / "b" / "lemmas_expansion_verify.txt").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and out1 == out2 and fa == fb
    _criterion(11, ok, "two identical verify invocations: byte-identical "
                       "stdout and report files, exit 0")
