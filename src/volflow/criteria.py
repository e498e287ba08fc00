"""Threshold algebra: constants, the sign quantity Q, and the delta cases.

Given the time-zero data of a scenario (the volume's mass m, energy E,
moment G0 and the integral cond10 of the inward mass flux moment, and the
flow's entropy floor s0) plus the scenario constants (q, epsilon, T, M,
gamma, n), this module classifies the sign case of

    Q0 = 2 m E / (1 + |q|) * (1 + eps*M/(2E)
         - |q+n-2| * C * G0^gamma / (2E) * eps^(-(q*gamma + n*(gamma-1))))

and produces the nonpositive threshold delta that cond10 must undershoot for
the boundary-attainment conclusion to kick in, together with the necessary
conditions that tell when such an undershoot is possible at all.

Remark 1's second route to the undershoot, a large velocity and density
inside the volume, does not reach it on a uniform flow: cond10 and delta
both scale as rho0*|V0|, so cond10/delta stays near 0.0063 (a disk 0.6 from
x0, P0 = 1e-3) for |V0| and rho0 from 1 to 1e4, and only the distribution
of the velocity, which cond10 weights by r^(q-2), could help.

A consistency note on the epsilon power.  The pressure-moment lower bound
scales as G^gamma * eps^(-((q+n)(gamma-1)+2)); after normalizing the master
differential inequality by (|q|+1)/(|q| eps^q m), its Q-term needs the power
eps^(q-2-q*gamma-n*(gamma-1)), and the exponent identity

    q - 2 - q*gamma - n*(gamma-1) = -((q+n)*(gamma-1) + 2)

shows the two scalings coincide, which is why the bracket above is written
with the eps^(-(q*gamma+n*(gamma-1))) factor.

The delta formulas are the sharp thresholds of the comparison ODE
F' = (|q|+1)/(|q| eps^q m) * (F^2 - q^2 eps^(2q-2) Q0): blow-up strictly
before the horizon T is equivalent to F(0) > |q| * |delta| with

    Q0 > 0:  delta = -eps^(q-1) R0 coth((|q|+1) R0 T / (eps m))
    Q0 = 0:  delta = -eps^q m / ((|q|+1) T)
    Q0 < 0:  delta = 0                     if T >= pi eps m / (2 (|q|+1) R0)
             delta = -eps^(q-1) R0 cot((|q|+1) R0 T / (eps m))   otherwise

where R0 = sqrt(|Q0|).  The three formulas join continuously: coth and cot
both behave like 1/z as their arguments vanish, giving the Q0 = 0 value, and
the cot form vanishes exactly at the case-(Q0<0) time threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .matvol import _dot, _norm, _offset

__all__ = [
    "CriteriaInputs",
    "CriteriaReport",
    "NecRecord",
    "q_admissible",
    "constants",
    "threshold_q",
    "q_and_r",
    "classify_and_delta",
    "qneg_time_threshold",
    "condition10",
    "necessary_conditions",
    "evaluate",
    "CASE_QPOS",
    "CASE_QZERO",
    "CASE_QNEG_LONG",
    "CASE_QNEG_SHORT",
]

CASE_QPOS = "Qpos"
CASE_QZERO = "Qzero"
CASE_QNEG_LONG = "Qneg_longT"
CASE_QNEG_SHORT = "Qneg_shortT"

# Relative width of the Q0 ~ 0 band: the Q0 = 0 formula is the limit of both
# neighbors, so near-zero Q0 is classified as the zero case.
_QZERO_REL = 1e-12


def q_admissible_bound(gamma, n):
    """Upper bound for the moment exponent: q must lie strictly below it."""
    return -n - 2.0 / (gamma - 1.0)


def q_admissible(q, gamma, n):
    """True when q lies below the admissible bound by a relative margin of 1e-9."""
    bound = q_admissible_bound(gamma, n)
    return q < bound - 1e-9 * max(1.0, abs(bound))


@dataclass(frozen=True)
class CriteriaInputs:
    """Time-zero data and scenario constants feeding the threshold algebra."""

    q: float
    gamma: float
    n: int
    s0: float
    m: float
    E: float
    M: float
    epsilon: float
    T: float
    G0: float
    cond10: float
    d_init: float

    def __post_init__(self):
        if not q_admissible(self.q, self.gamma, self.n):
            raise ValueError(
                f"q = {self.q} must lie strictly below "
                f"{q_admissible_bound(self.gamma, self.n)} (with margin)")
        if not 0.0 < self.epsilon < self.d_init:
            raise ValueError(
                f"epsilon = {self.epsilon} must satisfy 0 < epsilon < d_init = {self.d_init}")
        if self.M < 0.0:
            raise ValueError("M must be nonnegative")
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.m <= 0.0 or self.E <= 0.0:
            raise ValueError("mass and energy must be positive")
        if self.G0 < 0.0:
            raise ValueError("G0 must be nonnegative")


class NecRecord(NamedTuple):
    """One necessary-condition inequality: lhs < rhs with slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    slack: float
    ok: bool
    informational: bool = False


@dataclass(frozen=True)
class CriteriaReport:
    sigma_n: float
    C1: float
    C3: float
    C: float
    Q0: float
    R0: float
    case: str
    delta: float
    cond10: float
    cond10_holds: bool
    nec_ok: bool
    nec_detail: tuple


class Constants(NamedTuple):
    sigma_n: float
    C1: float
    C3: float
    C: float


def constants(q, gamma, n, s0):
    """Positive constants entering the Q bracket.

    C1 comes from the tail integral of |x|^((2+q(gamma-1))/(gamma-1)) outside
    the epsilon-ball, which converges exactly when q is admissible; C3 = e^s0
    carries the entropy floor; C = C1*C3.
    """
    if not q_admissible(q, gamma, n):
        raise ValueError(
            f"q = {q} not admissible (needs q < {q_admissible_bound(gamma, n)})")
    # Flows are planar; n = 3 stays because acceptance criterion 06 pins sigma_3.
    if n == 2:
        sigma_n = 2.0 * math.pi
    elif n == 3:
        sigma_n = 4.0 * math.pi
    else:
        raise ValueError("dimension must be 2 or 3")
    denom = (q + n) * (gamma - 1.0) + 2.0
    # Admissibility keeps denom strictly negative, so the ratio is positive.
    c1 = (sigma_n * (1.0 - gamma) / denom) ** (1.0 - gamma)
    c3 = math.exp(s0)
    return Constants(sigma_n=sigma_n, C1=c1, C3=c3, C=c1 * c3)


def threshold_q(inp, c, g):
    """The sign quantity Q of `inp` for a moment value g (time-zero or monitored)."""
    q, gamma, n, epsilon, energy = inp.q, inp.gamma, inp.n, inp.epsilon, inp.E
    lead = 2.0 * inp.m * energy / (1.0 + abs(q))
    power = epsilon ** (-(q * gamma + n * (gamma - 1.0)))
    bracket = (1.0 + epsilon * inp.M / (2.0 * energy)
               - abs(q + n - 2.0) * c * g ** gamma / (2.0 * energy) * power)
    return lead * bracket


def q_and_r(inp, c):
    """Q at time zero and R0 = sqrt(|Q0|)."""
    q0 = threshold_q(inp, c, inp.G0)
    return q0, math.sqrt(abs(q0))


def qneg_time_threshold(inp, r0):
    """Horizon above which the Q0 < 0 case needs no undershoot at all.

    This is the blow-up time of the comparison ODE from F(0) = 0:
    pi * eps * m / (2 (|q|+1) R0); for longer horizons any nonnegative
    initial F blows up before T, so delta = 0.
    """
    return math.pi * inp.epsilon * inp.m / (2.0 * (abs(inp.q) + 1.0) * r0)


def classify_and_delta(inp, q0, r0):
    """Sign-case classification and the matching threshold delta <= 0."""
    aq = abs(inp.q)
    eps, m, horizon = inp.epsilon, inp.m, inp.T
    lead = 2.0 * inp.m * inp.E / (1.0 + aq)

    if abs(q0) <= _QZERO_REL * lead:
        delta = -eps ** inp.q * m / ((aq + 1.0) * horizon)
        return CASE_QZERO, delta

    arg = (aq + 1.0) * r0 * horizon / (eps * m)
    if q0 > 0.0:
        delta = -eps ** (inp.q - 1.0) * r0 / math.tanh(arg)
        return CASE_QPOS, delta

    if horizon >= qneg_time_threshold(inp, r0):
        return CASE_QNEG_LONG, 0.0

    nearest = round(arg / math.pi) * math.pi
    if abs(arg - nearest) <= 1e-12:
        raise ValueError(f"degenerate cot argument {arg} (multiple of pi)")
    delta = -eps ** (inp.q - 1.0) * r0 / math.tan(arg)
    return CASE_QNEG_SHORT, delta


def condition10(vol, flow, q):
    """Inward mass-flux moment at time zero:
    integral of |x-x0|^(q-2) (V(0,x), x-x0) rho0(x) over the volume.

    The attainment condition asks for this value to undershoot delta; the
    comparison with delta is left to the caller.
    """
    z = _offset(vol.nodes, vol.x0)
    r = _norm(z)
    if np.any(r <= 0.0):
        raise ValueError("x0 touches a quadrature node")
    vel = np.asarray(flow.velocity(vol.time, vol.nodes), dtype=float)
    vz = _dot(vel, z)
    return float(np.sum(r ** (q - 2.0) * vz * vol.mass_w))


def necessary_conditions(inp, q0, r0):
    """Case-specific necessary conditions for the undershoot to be possible.

    Returns (nec_ok, detail records).  The long-horizon negative case is
    vacuous (delta = 0 only needs a sign).  For the positive case a small-R0
    asymptotic bound is recorded as informational; it does not enter nec_ok.
    """
    case, _ = classify_and_delta(inp, q0, r0)
    aq = abs(inp.q)
    eps, m, energy, horizon = inp.epsilon, inp.m, inp.E, inp.T
    records = []

    if case == CASE_QPOS:
        lhs = 1.0 / math.tanh((aq + 1.0) * r0 * horizon / (2.0 * eps * m))
        rhs = math.sqrt(2.0 * m * energy) / r0
        records.append(NecRecord("coth_bound", lhs, rhs, rhs - lhs, lhs < rhs))
        lhs2 = r0
        rhs2 = math.sqrt(2.0 * m * energy) - 2.0 * eps * m / ((1.0 + aq) * horizon)
        records.append(NecRecord("small_r0_bound", lhs2, rhs2, rhs2 - lhs2,
                                 lhs2 < rhs2, informational=True))
    elif case == CASE_QZERO:
        lhs = eps / ((aq + 1.0) * horizon) * math.sqrt(m / (2.0 * energy))
        records.append(NecRecord("ratio_bound", lhs, 1.0, 1.0 - lhs, lhs < 1.0))
    elif case == CASE_QNEG_SHORT:
        lhs = 1.0 / math.tan((aq + 1.0) * r0 * horizon / (eps * m))
        rhs = 2.0 * m * energy / r0
        records.append(NecRecord("cot_bound", lhs, rhs, rhs - lhs, lhs < rhs))
    else:
        records.append(NecRecord("vacuous", 0.0, 0.0, 0.0, True, informational=True))

    nec_ok = all(rec.ok for rec in records if not rec.informational)
    return nec_ok, tuple(records)


def evaluate(inp):
    """Full threshold report from assembled inputs."""
    consts = constants(inp.q, inp.gamma, inp.n, inp.s0)
    q0, r0 = q_and_r(inp, consts.C)
    case, delta = classify_and_delta(inp, q0, r0)
    nec_ok, detail = necessary_conditions(inp, q0, r0)
    return CriteriaReport(sigma_n=consts.sigma_n, C1=consts.C1, C3=consts.C3,
                          C=consts.C, Q0=q0, R0=r0, case=case, delta=delta,
                          cond10=inp.cond10, cond10_holds=inp.cond10 < delta,
                          nec_ok=nec_ok, nec_detail=detail)
