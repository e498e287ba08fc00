import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CONFIG_DIR, SyntheticFlow, annulus_volume

from volflow.config import build_scenario, load_config
from volflow.criteria import (CASE_QNEG_LONG, CASE_QNEG_SHORT, CASE_QPOS,
                              CASE_QZERO, CriteriaInputs, classify_and_delta,
                              condition10, constants, evaluate,
                              necessary_conditions, q_admissible_bound, q_and_r,
                              qneg_time_threshold)
from volflow.functionals import sample
from volflow.verify import _closed_form_blowup, _comparison_coefficients


def make_inputs(**kw):
    base = dict(q=-8.0, gamma=1.4, n=2, s0=0.0, m=1.0, E=1.0, M=0.0,
                epsilon=0.5, T=10.0, G0=0.0, cond10=0.0, d_init=2.0)
    base.update(kw)
    return CriteriaInputs(**base)


# -- constants ----------------------------------------------------------------

def test_sigma_n_exact():
    assert constants(-8.0, 1.4, 2, 0.0).sigma_n == 2.0 * math.pi
    assert constants(-9.0, 1.4, 3, 0.0).sigma_n == 4.0 * math.pi


def test_c1_closed_form():
    c = constants(-8.0, 1.4, 2, 0.0)
    assert c.C1 == pytest.approx((2.0 * math.pi) ** -0.4, rel=1e-12)
    assert c.C3 == 1.0
    assert c.C == c.C1


def test_c3_carries_entropy_floor():
    c = constants(-8.0, 1.4, 2, -1.3)
    assert c.C3 == pytest.approx(math.exp(-1.3), rel=1e-14)
    assert c.C == pytest.approx(c.C1 * math.exp(-1.3), rel=1e-14)


def test_q_boundary_rejected():
    # q = -n - 2/(gamma-1) = -7 exactly for gamma = 1.4, n = 2
    assert q_admissible_bound(1.4, 2) == pytest.approx(-7.0, rel=1e-12)
    with pytest.raises(ValueError):
        constants(-7.0, 1.4, 2, 0.0)
    with pytest.raises(ValueError):
        constants(-6.0, 1.4, 2, 0.0)
    with pytest.raises(ValueError):
        constants(-9.0, 1.4, 4, 0.0)


# -- Q and R ------------------------------------------------------------------

def test_q0_trivial_case():
    inp = make_inputs(epsilon=1.0)
    q0, r0 = q_and_r(inp, constants(-8.0, 1.4, 2, 0.0).C)
    assert q0 == pytest.approx(2.0 / 9.0, rel=1e-14)
    assert r0 == pytest.approx(math.sqrt(2.0) / 3.0, rel=1e-14)


def test_q0_worked_value():
    inp = make_inputs(M=0.5, epsilon=1.0, G0=0.1)
    q0, r0 = q_and_r(inp, 0.479449)
    assert q0 == pytest.approx(0.260811, abs=1e-6)
    assert r0 == pytest.approx(math.sqrt(q0), rel=1e-14)


def test_q0_negative_when_moment_dominates():
    inp = make_inputs(epsilon=1.0, G0=50.0)
    q0, r0 = q_and_r(inp, constants(-8.0, 1.4, 2, 0.0).C)
    assert q0 < 0.0
    assert r0 == pytest.approx(math.sqrt(-q0), rel=1e-14)


# -- delta cases --------------------------------------------------------------

def test_delta_zero_case_value():
    case, delta = classify_and_delta(make_inputs(), 0.0, 0.0)
    assert case == CASE_QZERO
    assert delta == pytest.approx(-256.0 / 90.0, rel=1e-12)


def test_delta_qneg_long_horizon():
    inp = make_inputs()
    thr = qneg_time_threshold(inp, 1.0)
    assert inp.T >= thr
    case, delta = classify_and_delta(inp, -1.0, 1.0)
    assert case == CASE_QNEG_LONG
    assert delta == 0.0


def test_delta_coth_case_value():
    q0 = 0.260811
    r0 = math.sqrt(q0)
    case, delta = classify_and_delta(make_inputs(), q0, r0)
    assert case == CASE_QPOS
    arg = 9.0 * r0 * 10.0 / (0.5 * 1.0)
    want = -0.5 ** -9.0 * r0 / math.tanh(arg)
    assert delta == pytest.approx(want, rel=1e-12)
    assert round(delta, 2) == -261.48
    assert delta == pytest.approx(-261.48, abs=5e-3)


def test_delta_continuity_at_q0_zero():
    inp = make_inputs()
    _, d_zero = classify_and_delta(inp, 0.0, 0.0)
    r0 = 1e-8
    _, d_pos = classify_and_delta(inp, r0 ** 2, r0)
    _, d_neg = classify_and_delta(inp, -(r0 ** 2), r0)
    assert d_pos == pytest.approx(d_zero, rel=1e-6)
    assert d_neg == pytest.approx(d_zero, rel=1e-6)


def test_delta_continuity_at_case_boundary():
    # at the long/short horizon threshold the cot argument is pi/2 and the
    # short-horizon formula vanishes, matching delta = 0
    r0 = 0.3
    inp = make_inputs(T=qneg_time_threshold(make_inputs(T=1.0), r0) - 1e-10)
    case, delta = classify_and_delta(inp, -(r0 ** 2), r0)
    assert case == CASE_QNEG_SHORT
    assert abs(delta) <= 1e-6


def test_delta_magnitude_monotone_in_horizon():
    q0 = 0.25
    r0 = 0.5
    deltas = [abs(classify_and_delta(make_inputs(T=t), q0, r0)[1])
              for t in np.linspace(0.5, 20.0, 40)]
    assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_degenerate_cot_argument_rejected():
    inp = make_inputs(T=1e-15)
    with pytest.raises(ValueError, match="degenerate"):
        classify_and_delta(inp, -1.0, 1.0)


@settings(max_examples=200)
@given(q=st.floats(-12.0, -7.2), eps=st.floats(0.1, 1.5), t=st.floats(0.05, 50.0),
       m=st.floats(0.2, 5.0), e=st.floats(0.2, 5.0),
       q0=st.floats(-30.0, 30.0))
def test_delta_nonpositive_everywhere(q, eps, t, m, e, q0):
    inp = make_inputs(q=q, epsilon=eps, T=t, m=m, E=e)
    try:
        case, delta = classify_and_delta(inp, q0, math.sqrt(abs(q0)))
    except ValueError:
        return  # degenerate cot argument
    assert delta <= 0.0
    if q0 > 1e-10:
        assert case == CASE_QPOS
    elif q0 < -1e-10:
        assert case in (CASE_QNEG_LONG, CASE_QNEG_SHORT)


# -- condition (10) -----------------------------------------------------------

def radial_inflow():
    return SyntheticFlow(lambda t, p: -p)


def test_condition10_radial_inflow_annulus():
    flow = radial_inflow()
    vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5)
    got = condition10(vol, flow, -8.0)
    want = -2.0 * math.pi * (1.0 - 2.0 ** -6) / 6.0
    assert got == pytest.approx(want, rel=1e-9)


def test_condition10_outflow_sign_flip():
    flow = SyntheticFlow(lambda t, p: p)
    vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5)
    got = condition10(vol, flow, -8.0)
    assert got == pytest.approx(2.0 * math.pi * (1.0 - 2.0 ** -6) / 6.0, rel=1e-9)
    assert got > 0.0   # fails the undershoot for any delta <= 0


def test_condition10_rotation_is_zero():
    flow = SyntheticFlow(lambda t, p: np.stack([-p[..., 1], p[..., 0]], axis=-1))
    vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5)
    assert condition10(vol, flow, -8.0) == pytest.approx(0.0, abs=1e-12)


def test_f_equals_q_times_condition10():
    # the first moment derivative is exactly q times the undershoot integral
    flow = radial_inflow()
    vol = annulus_volume(flow, (0.0, 0.0), (1.0, 2.0), (0.0, 0.0), 0.5)
    q = -8.0
    s = sample(flow, vol, q)
    assert s.F == pytest.approx(q * condition10(vol, flow, q), rel=1e-12)


def test_condition10_with_delta_zero_reduces_to_sign():
    inp = make_inputs(cond10=-1e-6)
    case, delta = classify_and_delta(inp, -1.0, 1.0)
    assert delta == 0.0
    assert inp.cond10 < delta   # any strictly inward flux suffices


# -- necessary conditions -----------------------------------------------------

def test_necessary_qzero_example():
    inp = make_inputs()
    ok, detail = necessary_conditions(inp, 0.0, 0.0)
    assert ok
    rec = detail[0]
    assert rec.name == "ratio_bound"
    assert rec.lhs == pytest.approx((0.5 / 90.0) * math.sqrt(0.5), rel=1e-12)
    assert rec.lhs == pytest.approx(0.003928, abs=1e-6)


def test_necessary_qpos_worked_example():
    inp = make_inputs()
    r0 = 0.510696
    ok, detail = necessary_conditions(inp, r0 ** 2, r0)
    assert ok
    rec = detail[0]
    assert rec.name == "coth_bound"
    assert rec.rhs == pytest.approx(math.sqrt(2.0) / r0, rel=1e-12)
    assert rec.rhs == pytest.approx(2.769, abs=1e-3)
    assert rec.lhs == pytest.approx(1.0, rel=1e-9)


def test_necessary_qpos_fails_for_large_r0():
    inp = make_inputs()
    ok, detail = necessary_conditions(inp, 100.0 ** 2, 100.0)
    assert not ok
    assert not detail[0].ok


def test_necessary_qneg_long_vacuous():
    ok, detail = necessary_conditions(make_inputs(), -1.0, 1.0)
    assert ok
    assert detail[0].informational


def test_necessary_qneg_short():
    # lhs = cot((|q|+1) R0 T/(eps m)) against rhs = 2 m E/R0 = 6.667, both
    # ways: at half the time threshold the cot is 1, at 1e-3 of it 636.6,
    # and the failed bound fails nec_ok.
    r0 = 0.3
    threshold = qneg_time_threshold(make_inputs(T=1.0), r0)
    for fraction, cot, ok in ((0.5, 1.0, True), (1e-3, 636.6192487687196, False)):
        inp = make_inputs(T=fraction * threshold)
        assert classify_and_delta(inp, -(r0 ** 2), r0)[0] == CASE_QNEG_SHORT
        nec_ok, (rec,) = necessary_conditions(inp, -(r0 ** 2), r0)
        assert rec.name == "cot_bound"
        # (|q|+1)/(eps m) = 9/0.5
        assert rec.lhs == pytest.approx(1.0 / math.tan(18.0 * r0 * inp.T), rel=1e-12)
        assert rec.lhs == pytest.approx(cot, rel=1e-9)
        assert rec.rhs == pytest.approx(2.0 / r0, rel=1e-12)
        assert (rec.ok, nec_ok) == (ok, ok)


def test_necessary_qpos_small_r0_bound_is_informational():
    # lhs = R0 against rhs = sqrt(2 m E) - 2 eps m/((|q|+1) T), both ways;
    # the bound is reported but does not enter nec_ok.
    inp = make_inputs()
    rhs = math.sqrt(2.0) - 2.0 * 0.5 / (9.0 * 10.0)
    for r0, ok in ((0.510696, True), (1.41, False)):
        nec_ok, (coth, rec) = necessary_conditions(inp, r0 ** 2, r0)
        assert (rec.name, rec.informational) == ("small_r0_bound", True)
        assert rec.lhs == r0
        assert rec.rhs == pytest.approx(rhs, rel=1e-12)
        assert rec.ok == ok
        assert coth.ok and nec_ok


# -- input validation and report ----------------------------------------------

def test_inputs_validation():
    with pytest.raises(ValueError):
        make_inputs(q=-7.0)
    with pytest.raises(ValueError):
        make_inputs(epsilon=3.0)      # epsilon >= d_init
    with pytest.raises(ValueError):
        make_inputs(M=-1.0)
    with pytest.raises(ValueError):
        make_inputs(T=0.0)
    with pytest.raises(ValueError):
        make_inputs(G0=-0.1)
    with pytest.raises(ValueError):
        make_inputs(m=0.0)


def test_evaluate_report_coherence():
    inp = make_inputs(G0=0.01, cond10=-5000.0)
    rep = evaluate(inp)
    assert rep.R0 == pytest.approx(math.sqrt(abs(rep.Q0)), rel=1e-14)
    assert rep.delta <= 0.0
    assert rep.cond10_holds == (inp.cond10 < rep.delta)
    assert rep.C == pytest.approx(rep.C1 * rep.C3, rel=1e-14)
    names = [r.name for r in rep.nec_detail]
    assert "coth_bound" in names or "ratio_bound" in names or "cot_bound" in names


@settings(max_examples=100)
@given(q=st.floats(-11.0, -7.3), eps=st.floats(0.2, 1.4), g0=st.floats(0.0, 3.0),
       m=st.floats(0.3, 4.0), e=st.floats(0.3, 4.0), big_m=st.floats(0.0, 2.0))
def test_report_case_matches_q0_sign(q, eps, g0, m, e, big_m):
    inp = make_inputs(q=q, epsilon=eps, G0=g0, m=m, E=e, M=big_m)
    try:
        rep = evaluate(inp)
    except ValueError:
        return
    lead = 2.0 * m * e / (1.0 + abs(q))
    if abs(rep.Q0) <= 1e-12 * lead:
        assert rep.case == CASE_QZERO
    elif rep.Q0 > 0:
        assert rep.case == CASE_QPOS
    else:
        thr = qneg_time_threshold(inp, rep.R0)
        assert rep.case == (CASE_QNEG_LONG if inp.T >= thr else CASE_QNEG_SHORT)


# -- cross-check against the comparison ODE's blow-up time ---------------------

def _blowup_draw(rng):
    """Inputs whose Q0 comes from q_and_r, drawn so that every sign case
    occurs: G0 makes the moment term u times the rest of the bracket
    (u < 1 gives Q0 > 0), T spans the comparison ODE's time scale and F0 =
    q*cond10 spans its velocity scale b, on both sides of zero."""
    q = -(7.2 + 4.8 * rng.random())
    eps = 0.3 + 1.7 * rng.random()
    m = 0.5 + 4.5 * rng.random()
    energy = 0.2 + 4.8 * rng.random()
    big_m = 10.0 * rng.random()
    c = constants(q, 1.4, 2, 0.0).C
    moment_term = (2.0 * rng.random() * (1.0 + eps * big_m / (2.0 * energy))
                   * 2.0 * energy / (abs(q) * c * eps ** (-(q * 1.4 + 2 * 0.4))))
    inp = make_inputs(q=q, epsilon=eps, m=m, E=energy, M=big_m,
                      G0=moment_term ** (1.0 / 1.4), d_init=2.0 * eps)
    q0, r0 = q_and_r(inp, c)
    a, k = _comparison_coefficients(inp)
    b = math.sqrt(k * abs(q0))
    t_scale = eps * m / ((abs(q) + 1.0) * r0)           # 1 / (a b)
    inp = dataclasses.replace(inp, T=t_scale * (1e-9 + 3.0 * rng.random()),
                              cond10=b / q * 3.0 * (2.0 * rng.random() - 0.5))
    return inp, q0, r0, a, b


def test_condition10_agrees_with_the_closed_form_blowup_time():
    # cond10 < delta says F(0) = q*cond10 drives the comparison ODE
    # F' = a (F^2 - b^2 sign Q0) to blow up before T; t* is its exact
    # blow-up time.  In Qneg_longT, delta = 0 is a sufficient sign condition
    # only: a trajectory from F(0) <= 0 can still escape before a long T.
    rng = np.random.default_rng(17)
    seen = {}
    for _ in range(3000):
        inp, q0, r0, a, b = _blowup_draw(rng)
        case, delta = classify_and_delta(inp, q0, r0)
        if case == CASE_QZERO:
            continue
        t_star = _closed_form_blowup(inp.q * inp.cond10, q0, a, b)
        hit = t_star is not None and t_star < inp.T
        holds = inp.cond10 < delta
        if case == CASE_QNEG_LONG:
            assert hit or not holds, (inp, q0)
        else:
            assert hit == holds, (case, inp, q0)
        seen[case, holds, hit] = seen.get((case, holds, hit), 0) + 1
    assert set(seen) == {
        (CASE_QPOS, True, True), (CASE_QPOS, False, False),
        (CASE_QNEG_SHORT, True, True), (CASE_QNEG_SHORT, False, False),
        (CASE_QNEG_LONG, True, True), (CASE_QNEG_LONG, False, True),
        (CASE_QNEG_LONG, False, False)}
    # The shipped configs, from their time-zero data: all are Qpos, and
    # only arc_live's comparison solution escapes before T.
    escapes = set()
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        inp = build_scenario(load_config(path)).inp
        report = evaluate(inp)
        a, k = _comparison_coefficients(inp)
        t_star = _closed_form_blowup(inp.q * inp.cond10, report.Q0, a,
                                     math.sqrt(k * abs(report.Q0)))
        hit = t_star is not None and t_star < inp.T
        assert report.case == CASE_QPOS and hit == report.cond10_holds, path.stem
        if hit:
            escapes.add(path.stem)
    assert escapes == {"arc_live"}
