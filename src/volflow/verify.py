"""Certification of the estimate chain on live runs.

Three layers:

* pointwise identity/inequality checks on a (flow, volume) snapshot: the
  time-derivative identities for the moment G against centered differences, the Cauchy-Schwarz moment inequality in its
  sharp |q|/(|q|+1) form, and the density-moment lower bound, plus the
  per-sample bounds chain;
* the comparison-ODE oracle: closed-form blow-up times for the three sign
  cases of Q against an independent fixed-step RK4 integration of the same
  ODE on the compactified angle arctan(F/c), where blow-up is the regular
  crossing of pi/2;
* end-to-end scenarios: advance a built scenario's volume to its horizon,
  sample everything, detect boundary attainment (with bisection refinement),
  and classify the outcome against the threshold prediction.

A scenario can only be scored a VIOLATION when the undershoot condition held,
the regularity and energy-drift hypotheses survived the run, and no hit
occurred -- anything else is consistent with (or outside) the prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import criteria as crit_mod
from .criteria import CriteriaInputs, threshold_q
from .flowfield import NotSmooth
from .functionals import TargetReached, sample
# advect is bound as _advect_any, the name the benchmark's tracer
# (perfbench/spans.py) wraps in this module.
from .matvol import (_norm, _offset, _rk4_points, advect as _advect_any,
                     boundary_distance, point_in_loops)
from .solver import SmoothnessLost

__all__ = [
    "CheckReport",
    "BlowupTimes",
    "TheoremReport",
    "TOLERANCES",
    "LEMMA_H",
    "ORACLE_CASES",
    "ORACLE_REL_GAP",
    "MAX_WORK_S",
    "MAX_SAMPLES",
    "check_lemma_suite",
    "check_inequality17",
    "bounds_chain",
    "blowup_oracle",
    "score_oracle",
    "verdict_rule",
    "run_theorem_scenario",
]


# Not called here: the benchmark's tracer (perfbench/spans.py) wraps this
# binding.  A plain None keeps scipy out of the import.
solve_ivp = None


# Time step of the centered differences in the lemma suite, the number of
# seeded blow-up oracle cases `verify` runs, and the largest relative gap
# |numeric - closed form| / closed form of a blow-up time that passes.
LEMMA_H = 1e-4
ORACLE_CASES = 200
ORACLE_REL_GAP = 1e-6

# The work budget of `run` and `verify`, in seconds: building their stepper
# (`_SampleSteps`) refuses a scenario whose estimated work (`_work_s`) is
# over it, before anything steps.  The estimate counts RK point-steps, flow
# queries and solver cell-steps (`_work_counts`) at these costs, measured on
# a shared 2-core x86 host: 22 ns per point-step on a closed-form flow
# (lemmas_expansion, an ExpansionFlow), 660 ns per point-step on a grid flow
# (radial_inflow, whose velocity is interpolated), and 225 ns per solver
# cell-step, the smoothness guard included (radial_inflow at 128^2).  A
# query (a `velocity` or `fields` call) has a fixed cost besides its
# points: 0.25 us on a ConstantFlow, 2.5 us on an ExpansionFlow, and on a
# grid flow 75 us plus 4 ns per cell for its share of the whole-grid time
# slices (16 points of radial_inflow at 16^2 to 256^2: 71 to 287 us).
# The shipped configs' largest estimate is about 2.5 s (arc_live).  A run's
# MAX_SAMPLES sample instants hold about 190 MB of series rows and bound
# reports, at 1.9 KB each; the shipped configs take at most 500 (arc_live).
MAX_WORK_S = 3600
MAX_SAMPLES = 10**5
_POINT_STEP_S = {"constant": 22e-9, "expansion": 22e-9, "grid": 660e-9}
_CALL_S = {"constant": 0.25e-6, "expansion": 2.5e-6, "grid": 75e-6}
_CALL_CELL_S = 4e-9
_CELL_STEP_S = 225e-9

# Documented per check: relative for the finite-difference identities,
# fraction-of-scale slack floors for the inequality checks.
TOLERANCES = {
    "dG_dt_identity": 1e-5,
    "d2G_dt2_decomposition": 1e-3,
    "moment_cauchy_schwarz_power": 1e-10,
    "density_moment_lower_bound": 1e-10,
    "f_energy_bound": 1e-10,
    "i2_energy_bound": 1e-10,
    "i4_flux_bound": 1e-10,
    "g_mass_bound": 1e-10,
}


@dataclass(frozen=True)
class CheckReport:
    """One verified inequality/identity; slack >= 0 means it held."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    t: float


def _ineq_report(name, lhs, rhs, t):
    """Check lhs <= rhs with a slack floor proportional to the scale."""
    scale = max(abs(lhs), abs(rhs), 1e-300)
    slack = rhs - lhs
    return CheckReport(name=name, lhs=float(lhs), rhs=float(rhs),
                       slack=float(slack),
                       passed=bool(slack >= -TOLERANCES[name] * scale), t=float(t))


def _identity_report(name, measured, expected, t):
    """Check a relative gap against the named tolerance."""
    scale = max(abs(expected), 1e-12)
    gap = abs(measured - expected) / scale
    tol = TOLERANCES[name]
    return CheckReport(name=name, lhs=float(gap), rhs=float(tol),
                       slack=float(tol - gap), passed=bool(gap <= tol), t=float(t))


def _moment_value(vol, q, nodes):
    """The moment G of `vol` with its nodes moved to `nodes`."""
    r = _norm(_offset(nodes, vol.x0))
    return float(np.sum(r ** q * vol.mass_w))


def check_lemma_suite(flow, vol, q, epsilon):
    """Identity and inequality checks at the volume's current time, for the
    profile phi = r^q.

    Centered differences of the moment G over +-LEMMA_H (the nodes
    re-advected by a single RK4 step each way, G at t taken from the sample)
    are compared with the quadrature values of its first and second
    derivatives; then the Cauchy-Schwarz moment inequality
    F^2 <= sup(phi'^2/(phi'' phi)) G I1, whose sup ratio is |q|/(|q|+1)
    exactly, and the density-moment lower bound, from one `fields` read of
    the nodes' density.

    The lemmas hold for a volume that x0 lies outside of, as at time zero;
    a volume whose loops contain x0 is a ValueError.
    """
    if point_in_loops(vol.x0, vol.markers, vol.loop_ends):
        raise ValueError(f"x0 lies inside the volume at t={vol.time}")
    t, h = vol.time, LEMMA_H
    s = sample(flow, vol, q)
    g0 = s.G
    gp = _moment_value(vol, q, _rk4_points(flow, vol.nodes, t, t + h, h))
    gm = _moment_value(vol, q, _rk4_points(flow, vol.nodes, t, t - h, h))

    aq = abs(q)
    reports = [
        _identity_report("dG_dt_identity", (gp - gm) / (2.0 * h), s.F, t),
        _identity_report("d2G_dt2_decomposition",
                         (gp - 2.0 * g0 + gm) / h ** 2, s.I_sum, t),
        _ineq_report("moment_cauchy_schwarz_power",
                     s.F ** 2, aq / (aq + 1.0) * s.G * s.I1, t),
    ]

    d = boundary_distance(vol)
    if d < epsilon:
        raise ValueError(
            f"density-moment bound needs dist(boundary, x0) >= epsilon "
            f"(have {d} < {epsilon})")
    consts = crit_mod.constants(q, flow.gamma, flow.dimension, flow.entropy_floor)
    gamma = flow.gamma
    # The sample above has refused a density that is not positive here.
    rho = flow.fields(t, vol.nodes, ("rho",))["rho"]
    r = _norm(_offset(vol.nodes, vol.x0))
    lhs_int = float(np.sum(r ** (q - 2.0) * rho ** gamma * vol.mass_w / rho))
    expo = -((q + flow.dimension) * (gamma - 1.0) + 2.0)
    bound = consts.C1 * s.G ** gamma * epsilon ** expo
    reports.append(_ineq_report("density_moment_lower_bound",
                                bound, lhs_int, t))
    return reports


def bounds_chain(s, inp):
    """Per-sample bounds on sample `s` that must hold while
    dist(boundary, x0) >= epsilon, for the scenario's q and epsilon (`inp`).

    The flux bound takes the unsigned flux.  With phi = r^q and z = x - x0,

        I4 = -oint (phi'(r)/r) (z.N) P dS = -q oint r^(q-1) (z.N)/r P dS.

    On the boundary r >= dist >= epsilon, and q - 1 < 0, so
    r^(q-1) <= eps^(q-1) there, and term by term

        |I4| <= |q| oint r^(q-1) |P (z.N)/r| dS <= |q| eps^(q-1) reg_abs,

    with reg_abs = oint |P (z.N)/|z|| dS.  The signed flux reg cannot stand
    in for reg_abs: where z.N changes sign on the boundary, the weight
    r^(q-1) does not factor out of its integral.  For uniform P, the
    divergence theorem gives I4 = -P q^2 int r^(q-2) dV, while
    |q| eps^(q-1) |reg| = |q| eps^(q-1) P int r^(-1) dV is smaller once the
    mass sits near x0.  Under the hypothesis reg_abs <= M (the `reg_max > M`
    gate of `run_theorem_scenario`), the chain's step
    I4 >= -|q| eps^(q-1) M follows.  The quadrature obeys the same bound
    element by element, since every element midpoint lies at distance
    >= dist, so the check holds to rounding.
    """
    q, eps = inp.q, inp.epsilon
    aq = abs(q)
    return [
        _ineq_report("f_energy_bound", abs(s.F),
                     aq * eps ** (q - 1.0) * math.sqrt(2.0 * s.m * s.E), s.t),
        _ineq_report("i2_energy_bound", abs(s.I2),
                     2.0 * aq * eps ** (q - 2.0) * s.E, s.t),
        _ineq_report("i4_flux_bound", abs(s.I4),
                     aq * eps ** (q - 1.0) * s.reg_abs, s.t),
        _ineq_report("g_mass_bound", s.G, eps ** q * s.m, s.t),
    ]


def _comparison_coefficients(inp):
    """a = (|q|+1)/(|q| eps^q m) and k = q^2 eps^(2q-2) of the comparison ODE
    F' = a (F^2 - k Q)."""
    aq = abs(inp.q)
    return ((aq + 1.0) / (aq * inp.epsilon ** inp.q * inp.m),
            inp.q ** 2 * inp.epsilon ** (2.0 * inp.q - 2.0))


def check_inequality17(series, inp, c):
    """Master differential inequality along a run's series.

    The trailing rows whose spacing differs from the first spacing by more
    than 1e-9 max(step, 1) are dropped (a run's last sample can land short of
    the stride, at its horizon); fewer than 3 rows left give no reports, and
    uneven spacing among the rows kept is a ValueError.  At each interior
    sample the centered difference of F must dominate
    (|q|+1)/(|q| eps^q m) * (F^2 - q^2 eps^(2q-2) Q(t)), with Q(t) evaluated
    from the current moment G(t).  The pass tolerance absorbs the centered-
    difference truncation, estimated from third differences of F.
    """
    ts = [s.t for s in series]
    step = ts[1] - ts[0] if len(ts) >= 2 else 0.0
    while len(ts) >= 3 and abs((ts[-1] - ts[-2]) - step) > 1e-9 * max(step, 1.0):
        ts.pop()
    if len(ts) < 3:
        return []
    series = series[:len(ts)]
    ts = np.array(ts)
    fs = np.array([s.F for s in series])
    gs = np.array([s.G for s in series])
    dt = ts[1] - ts[0]
    if not np.allclose(np.diff(ts), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("samples must be uniformly spaced")

    a_coef, k_coef = _comparison_coefficients(inp)
    f3_scale = float(np.abs(np.diff(fs, n=3)).max() / dt ** 3) if len(fs) >= 4 else 0.0

    reports = []
    for i in range(1, len(series) - 1):
        fd = (fs[i + 1] - fs[i - 1]) / (2.0 * dt)
        bound = a_coef * (fs[i] ** 2 - k_coef * threshold_q(inp, c, gs[i]))
        trunc = dt ** 2 / 6.0 * f3_scale
        tol = max(2.0 * trunc, 1e-9 * max(abs(fd), abs(bound), 1.0))
        slack = fd - bound
        reports.append(CheckReport(name="master_inequality", lhs=float(bound),
                                   rhs=float(fd), slack=float(slack),
                                   passed=bool(slack >= -tol), t=float(ts[i])))
    return reports


# ---------------------------------------------------------------------------
# Comparison-ODE blow-up oracle
# ---------------------------------------------------------------------------

# RK4 steps per characteristic time 1/(a c), and the horizon in those times.
_ORACLE_STEPS = 256
_ORACLE_HORIZON = 1000


class BlowupTimes(NamedTuple):
    closed_form: Optional[float]
    numeric: Optional[float]


def _closed_form_blowup(f0, q0, a, b):
    """Exact blow-up time of F' = a (F^2 - sign(q0) b^2), F(0) = f0.

    Positive Q: finite escape needs f0 > b, and separation of variables gives
    t* = ln((f0+b)/(f0-b)) / (2 a b).  Zero Q: t* = 1/(a f0) for f0 > 0.
    Negative Q: every trajectory escapes at
    t* = (pi/2 - arctan(f0/b)) / (a b).
    """
    if q0 > 0.0:
        if f0 <= b:
            return None
        return math.log((f0 + b) / (f0 - b)) / (2.0 * a * b)
    if q0 == 0.0:
        if f0 <= 0.0:
            return None
        return 1.0 / (a * f0)
    return (0.5 * math.pi - math.atan(f0 / b)) / (a * b)


def blowup_oracle(f0, q0, inp):
    """Closed-form vs. numerically integrated blow-up time of the comparison ODE.

    The numeric side integrates F' = a (F^2 - b2), with
    a = (|q|+1)/(|q| eps^q m) and b2 = q^2 eps^(2q-2) Q0, on the compactified
    angle theta = arctan(F/c), c = sqrt(|b2|) (c = |f0| when Q0 = 0):

        theta' = a (c sin^2 theta - (b2/c) cos^2 theta).

    The right-hand side is bounded and smooth, so the escape F -> +inf is the
    regular crossing theta = pi/2.  Classical RK4 takes _ORACLE_STEPS steps per
    characteristic time 1/(a c), and the crossing is located by a cubic
    Hermite root inside the step from the end values and slopes.  The
    trajectory of a scalar autonomous ODE is monotone, so once F' <= 0 it never
    escapes; nor does one that has not crossed after _ORACLE_HORIZON
    characteristic times.  The numeric side never reads the closed form.
    Both entries are None when the trajectory never escapes.
    """
    a, k = _comparison_coefficients(inp)
    b2_signed = k * q0
    b = math.sqrt(abs(b2_signed))
    f0 = float(f0)
    closed = _closed_form_blowup(f0, float(q0), a, b)
    if a * (f0 * f0 - b2_signed) <= 0.0:
        return BlowupTimes(closed_form=closed, numeric=None)

    c = b if b > 0.0 else abs(f0)
    # theta' = alpha - beta cos(2 theta), from sin^2 = (1 - cos 2t)/2 and
    # cos^2 = (1 + cos 2t)/2.
    alpha = 0.5 * a * (c - b2_signed / c)
    beta = 0.5 * a * (c + b2_signed / c)
    h = 1.0 / (a * c * _ORACLE_STEPS)
    half = 0.5 * h
    cos = math.cos
    top = 0.5 * math.pi
    th = math.atan(f0 / c)
    g0 = alpha - beta * cos(2.0 * th)
    for k in range(_ORACLE_STEPS * _ORACLE_HORIZON):
        if g0 <= 0.0:
            break
        k2 = alpha - beta * cos(2.0 * (th + half * g0))
        k3 = alpha - beta * cos(2.0 * (th + half * k2))
        k4 = alpha - beta * cos(2.0 * (th + h * k3))
        th1 = th + h / 6.0 * (g0 + 2.0 * (k2 + k3) + k4)
        g1 = alpha - beta * cos(2.0 * th1)
        if th1 >= top:
            s = _hermite_crossing(th, th1, h * g0, h * g1, top)
            return BlowupTimes(closed_form=closed, numeric=(k + s) * h)
        th, g0 = th1, g1
    return BlowupTimes(closed_form=closed, numeric=None)


def _hermite_crossing(y0, y1, d0, d1, target):
    """Root s in [0, 1] of the cubic Hermite interpolant through (0, y0) and
    (1, y1) with end slopes d0, d1 that equals `target`; y0 < target <= y1.

    Bisection on the sign change, down to the spacing of doubles."""
    lo, hi = 0.0, 1.0
    while True:
        s = 0.5 * (lo + hi)
        if not lo < s < hi:
            return hi
        u = 1.0 - s
        p = (u * u * ((1.0 + 2.0 * s) * y0 + s * d0)
             + s * s * ((3.0 - 2.0 * s) * y1 - u * d1))
        if p < target:
            lo = s
        else:
            hi = s


def score_oracle(seed):
    """Run `blowup_oracle` on ORACLE_CASES cases drawn from `seed` and score
    them: a case passes when neither time exists, or when both do and their
    gap relative to the closed form is at most ORACLE_REL_GAP.  Returns the
    number of cases, the number failed and the largest relative gap (0.0
    when no case has both times)."""
    cases = random_oracle_cases(np.random.default_rng(seed), ORACLE_CASES)
    gaps = []
    failed = 0
    for f0, q0, inp in cases:
        closed, numeric = blowup_oracle(f0, q0, inp)
        if closed is None or numeric is None:
            failed += int(closed != numeric)
            continue
        gaps.append(abs(numeric - closed) / closed)
        failed += int(gaps[-1] > ORACLE_REL_GAP)
    return len(cases), failed, max(gaps, default=0.0)


def random_oracle_cases(rng, count):
    """Admissible (F0, Q0, inputs) triples cycling through the three sign cases.

    The inputs carry only what the oracle reads (q, epsilon, m); the rest are
    valid placeholders.
    """
    cases = []
    for i in range(count):
        q = -(7.2 + 4.8 * rng.random())
        eps = 0.3 + 1.7 * rng.random()
        m = 0.5 + 4.5 * rng.random()
        inp = CriteriaInputs(q=q, gamma=1.4, n=2, s0=0.0, m=m, E=1.0, M=0.0,
                             epsilon=eps, T=1.0, G0=0.0, cond10=0.0,
                             d_init=2.0 * eps)
        kind = i % 3
        if kind == 1:
            q0 = 0.0
            f0 = (0.2 + 4.8 * rng.random()) * abs(q) * eps ** (q - 1.0)
        else:
            r0 = 0.2 + 2.8 * rng.random()
            q0 = r0 * r0 if kind == 0 else -r0 * r0
            b = abs(q) * eps ** (q - 1.0) * r0
            f0 = b * (1.2 + 4.8 * rng.random()) if kind == 0 else 5.0 * b * rng.random()
        cases.append((f0, q0, inp))
    return cases


# ---------------------------------------------------------------------------
# End-to-end scenario runner
# ---------------------------------------------------------------------------

class SeriesRow(NamedTuple):
    t: float
    m: float
    E: float
    G: float
    F: float
    I1: float
    I2: float
    I3: float
    I4: float
    reg: float
    dist: float
    Qq: float


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one scenario against the attainment prediction.

    `horizon` is the time up to which the run knows the flow to be smooth:
    T, or earlier where it lost smoothness; after a hit, at most the flow's
    `t_last`, which is inf on a closed-form flow."""

    criteria: crit_mod.CriteriaReport
    hit_time: Optional[float]
    horizon: float
    E_drift: float
    reg_max: float
    verdict: str
    detail: str
    bounds_failures: tuple
    bounds_checked: int
    series: tuple


def _refine_hit(vol_prev, flow, t_hi, epsilon, dt):
    """Bisect the attainment time between the sample instant of `vol_prev`
    and t_hi (a stride later) to dt/100."""
    t_lo, tol = vol_prev.time, dt / 100.0
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        # Only the boundary is measured, so only the markers are moved.
        moved = _rk4_points(flow, vol_prev.markers, vol_prev.time, mid, dt)
        if boundary_distance(vol_prev, moved) <= epsilon:
            t_hi = mid
        else:
            t_lo = mid
    return 0.5 * (t_lo + t_hi)


def _work_counts(cfg, points, lemma_times):
    """At most how many RK point-steps, flow queries and solver cell-steps a
    run of `cfg` on `points` markers and nodes takes, with the lemma checks
    of `verify` at `lemma_times` (none for `run`); dt is at most T.

    Up to the last of T and the lemma times, the points take one step of dt
    at a time, and s = min(stride, T/dt) steps more for each lemma
    advection off a sample instant, for each of the hit bisection's
    ceil(log2(100 s)) halvings of a stride, and for the step past the
    horizon.  Each RK step queries the flow 4 times, and each sample twice:
    at time zero, at each of the horizon/(s dt) + 1 sample instants and at
    each lemma time, whose checks add a density read and the 8 queries of
    their two steps of LEMMA_H.  A grid flow's solver steps of flow.grid.dt
    run to the horizon plus the lemmas' 2 LEMMA_H twice over: `verify`'s
    precondition pass, then the run's re-steps of what the flow let go."""
    horizon = max([cfg.T, *lemma_times])
    s = min(cfg.sample_stride, cfg.T / cfg.dt)
    steps = horizon / cfg.dt + s * (len(lemma_times) + math.ceil(math.log2(100.0 * s)) + 1)
    calls = 4.0 * steps + 2.0 * (horizon / (s * cfg.dt) + 2.0) + 11.0 * len(lemma_times)
    if cfg.flow_kind != "grid":
        return points * steps, calls, 0.0
    grid = cfg.flow_params
    return (points * steps, calls,
            2.0 * grid["n"] ** 2 * (horizon + 2.0 * LEMMA_H) / grid["dt"])


def _work_s(cfg, points, lemma_times):
    """The seconds of `_work_counts`, at the costs beside MAX_WORK_S."""
    point_steps, calls, cell_steps = _work_counts(cfg, points, lemma_times)
    call_s = _CALL_S[cfg.flow_kind]
    if cfg.flow_kind == "grid":
        call_s += cfg.flow_params["n"] ** 2 * _CALL_CELL_S
    return (point_steps * _POINT_STEP_S[cfg.flow_kind] + calls * call_s
            + cell_steps * _CELL_STEP_S)


def verdict_rule(hit, cond10_holds, reg_max, horizon, e_drift, inp):
    """The verdict of a run against the attainment prediction, and the
    detail it adds: a hit is consistent; without one, the run is a
    VIOLATION only when condition (10) held, the regularity flux stayed at
    most M, the run reached T and the energy drift stayed at most 1%."""
    if hit:
        return "consistent_hit", ""
    if not cond10_holds:
        return "consistent_no_claim", ""
    if reg_max > inp.M:
        return "consistent_no_claim", f"regularity flux exceeded M ({reg_max} > {inp.M}); "
    if horizon < inp.T:
        return "consistent_no_claim", ""
    if e_drift > 0.01:
        return "inconclusive", f"energy drift {e_drift:.3%} exceeds 1%; "
    return "VIOLATION", ""


class _SampleSteps:
    """The sample loop of a theorem run, as a stepper.

    Iterating it advances the scenario's volume to min(horizon, hit time),
    one advection call (stride steps of dt) per sample instant, up to the
    first instant at or past the horizon, ceil(horizon/dt - 1e-9) steps;
    the boundary self-intersection detector runs per call.  At time zero
    and at each sample instant after it, it yields (the previous sampled
    volume, the volume, its sample, its boundary distance); the previous
    volume is None at time zero.  A hit, a sample that is not smooth and a
    node at the target yield nothing and end the loop, and `hit_time`,
    `horizon` and `detail` then say how the run ended.  Building it refuses
    a run over the work budget, before anything steps.

    The stepper owns the flow's window.  The advection advances the flow
    one RK step ahead of the volume (`matvol._rk4_points`).  When the
    consumer resumes the stepper after a sample, the flow is told that no
    time before the sample's will be queried again (`keep_from`), nor
    before t - LEMMA_H for the next of `lemma_times` after it: a consumer
    that checks the lemmas at each lemma time the run has passed reads that
    time's stencil, and advects there from the sample before it.  So a grid
    flow holds the sample's anchor snapshot and one RK step's time stencil,
    whatever the sample stride; a hit's bisection, and such a lemma
    advection, re-step once the stride that the flow let go.

    Where the flow loses smoothness the horizon ends at its last smooth
    time, and the advection is retried from the same sample to it; where a
    sample finds it not smooth, or an advection or a sample reads a grid
    time slice whose density is not positive (`NotSmooth`), at the sample
    before.  A hit, or a node at the target floor, ends the run; its
    horizon is then the last time up to which the run knows the flow to be
    smooth (`FlowField.t_last`, at most T): T on a closed-form flow, the
    last stepped time on a grid flow.
    """

    def __init__(self, scenario, lemma_times):
        cfg = scenario.cfg
        if cfg.dt > cfg.T:
            raise ValueError(f"key 'dt' or 'T': dt = {cfg.dt} is longer than T = {cfg.T}")
        work = _work_s(cfg, len(scenario.vol.points), lemma_times)
        if work > MAX_WORK_S:
            grid = ["flow.grid.n", "flow.grid.dt"] if cfg.flow_kind == "grid" else []
            keys = ["T", "dt", "sample.stride", "volume.*", *grid,
                    *(["verify.times"] if lemma_times else [])]
            names = ", ".join(map(repr, keys[:-1])) + f" or {keys[-1]!r}"
            raise ValueError(f"key {names}: about {work:.2g} s of work, "
                             f"more than {MAX_WORK_S} s")
        instants = cfg.T / cfg.dt / cfg.sample_stride
        if instants > MAX_SAMPLES:
            raise ValueError(f"key 'T', 'dt' or 'sample.stride': {instants} sample "
                             f"instants, more than {MAX_SAMPLES}")
        self.scenario = scenario
        self.lemma_times = lemma_times
        self.hit_time = None
        self.horizon = scenario.inp.T
        self.detail = ""

    def _keep_from(self, t):
        later = [u - LEMMA_H for u in self.lemma_times if u > t]
        self.scenario.flow.keep_from(min([t, *later]))

    def __iter__(self):
        flow, vol, inp = self.scenario.flow, self.scenario.vol, self.scenario.inp
        dt, stride = self.scenario.cfg.dt, self.scenario.cfg.sample_stride
        yield None, vol, self.scenario.sample0, inp.d_init
        self._keep_from(vol.time)
        k = stride
        while k - stride < self.horizon / dt - 1e-9:
            t_k = min(k * dt, self.horizon)
            prev = vol
            try:
                vol = _advect_any(vol, flow, t_k, dt)
                dist = boundary_distance(vol)
                if dist <= inp.epsilon:
                    self.hit_time = _refine_hit(prev, flow, t_k, inp.epsilon, dt)
                    break
                s = sample(flow, vol, inp.q)
            except SmoothnessLost as exc:
                # Only the advection steps the flow, so vol is still prev.
                self.horizon = flow.t_last
                self.detail = f"smoothness lost at t={exc.time}; "
                continue
            except NotSmooth as exc:
                self.horizon = prev.time
                self.detail += f"{exc}; "
                break
            except TargetReached:
                self.hit_time = vol.time
                self.detail += "a quadrature node reached the target radius floor; "
                break
            yield prev, vol, s, dist
            self._keep_from(t_k)
            k += stride
        if self.hit_time is not None:
            self.horizon = min(self.horizon, flow.t_last)


def _theorem_report(steps, samples):
    """The report of a run whose stepper `steps` has stopped, from the
    (sample, distance) pairs it yielded, in order: the series, the bounds
    chain at every sample, `reg_max`, the energy drift and the verdict."""
    inp = steps.scenario.inp
    report_c = crit_mod.evaluate(inp)
    series = tuple(SeriesRow(t=s.t, m=s.m, E=s.E, G=s.G, F=s.F, I1=s.I1, I2=s.I2,
                             I3=s.I3, I4=s.I4, reg=s.reg, dist=dist,
                             Qq=threshold_q(inp, report_c.C, s.G))
                   for s, dist in samples)
    bounds = [r for s, _ in samples for r in bounds_chain(s, inp)]
    reg_max = max(s.reg_abs for s, _ in samples)
    e_drift = max(abs(row.E - series[0].E) for row in series) / series[0].E
    verdict, why = verdict_rule(steps.hit_time is not None, report_c.cond10_holds,
                                reg_max, steps.horizon, e_drift, inp)
    return TheoremReport(criteria=report_c, hit_time=steps.hit_time,
                         horizon=steps.horizon, E_drift=e_drift, reg_max=reg_max,
                         verdict=verdict, detail=(steps.detail + why).strip(),
                         bounds_failures=tuple(r for r in bounds if not r.passed),
                         bounds_checked=len(bounds), series=series)


def run_theorem_scenario(scenario):
    """Advance a built `config.Scenario` to min(horizon, hit time) and report.

    The comparison against the threshold uses time-zero data only (the
    scenario's `inp`); the run itself monitors the bounds chain, the
    regularity flux and the energy drift, and refines any boundary attainment
    by bisection.  It folds the samples of one `_SampleSteps` pass, which
    owns the advection and the flow's window.

    Why a hit must come: at fixed energy E, `threshold_q` decreases in the
    moment G (its bracket loses |q+n-2| C G^gamma eps^-(q gamma + n(gamma-1))
    / (2E)), so G(t) >= G0 gives Q(t) <= Q0.  While dist >= epsilon and the
    regularity flux stays at most M, the master inequality then gives
    F' >= a (F^2 - k Q(t)) >= a (F^2 - k Q0) (`_comparison_coefficients`),
    and F stays above the comparison solution from F(0), which escapes at
    t* = `_closed_form_blowup`(F(0), Q0, a, sqrt(k |Q0|)).  G(t) >= G0 is
    not yet checked on the samples.
    """
    steps = _SampleSteps(scenario, ())
    return _theorem_report(steps, [(s, dist) for _, _, s, dist in steps])
