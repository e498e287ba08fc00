"""Scenario configuration: flat dotted-key text files and builders.

The format is one `key = value` pair per line with `#` comments.  Each value
is kept as its stripped text and parsed once, by the reader of its key (an
absent key reads as its default text): `_float` takes one number, `_floats`
comma-separated numbers (blank parts after a trailing comma are skipped),
`_int` an integer literal, and `volume.vertices` is split on semicolons into
number pairs.  Names, kinds, `out.format` and grid initial fields are read
verbatim.  The grid fields are numpy expressions over the node coordinates
x, y and the radius r, evaluated in a restricted namespace; an expression
that fails or whose values are not finite real numbers (positive, for the
density) is a config error naming its `flow.grid.<field>` key.

Every parsed key is read or rejected: `load_config` fails naming the first
key it did not read (a typo, a key of another flow or shape kind, or a
removed setting), so no line of a config silently means nothing.  Every
number goes through `_number`, which rejects NaN and +-inf naming the key;
only an absent `flow.grid.max_grad` means inf (no gradient guard).
`_positive` also rejects zero and negative values of the keys that must be
positive (epsilon, T, dt, flow.rho0, flow.P0, flow.t_c, flow.grid.dt).  `_int`
rejects anything but an integer literal (2.0, 2.5, inf, nan, true) naming
the key.  The size keys are bounded at load, so a huge one is refused before
anything is allocated: `volume.markers`, `volume.quad_order` and
`volume.refine` by the shape specs of `matvol`, against one cap on a
volume's markers and nodes together, and `flow.grid.n` by `_MAX_GRID_N`.
The entropy floor s0 is not a setting: it comes from the flow
(`FlowField.entropy_floor`).

All attainment preconditions (admissible q, epsilon below the initial
boundary distance, nonnegative M) are validated at load time so a bad
scenario fails before any computation starts.  The theorem's initial
boundary distance is checked against epsilon twice, both times here: at load
in the closed form of the shape spec's `distance` (which must be finite: an
x0 or a shape position near the float limit overflows it), and at build on
the markers that `matvol.init_volume` reports, whose chords lie closer to
x0 around a loop curved about it.

`build_scenario` is the one way to build a scenario from a config: it builds
the flow and the volume and takes the time-zero data the threshold algebra
reads, once, for every subcommand.  A time-zero sample that is not smooth
(a functional not finite, or a density not positive) is a config error
naming the keys that the failed functionals read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criteria import CriteriaInputs, condition10, q_admissible, q_admissible_bound
from .flowfield import ConstantFlow, ExpansionFlow, FlowField, NotSmooth
from .functionals import FunctionalSample, sample
from .matvol import (AnnulusSpec, DiskSpec, MaterialVolume, PolygonSpec, ShapeError,
                     init_volume)
from .solver import GridFlow, GridState

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "Scenario",
    "parse_kv_text",
    "load_config",
    "build_flow",
    "build_volume",
    "build_scenario",
]


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


# `scripts/exit_codes.py` hooks `_ReadKeys` and `_int` to list the keys that
# `load_config` asks for and those it parses as integers.
class _ReadKeys(dict):
    """Parsed keys that remember which of them were read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def parse_kv_text(text):
    """Parse flat `key = value` lines into a dict of stripped value texts;
    later keys win."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed view of one scenario file."""

    name: str
    gamma: float
    flow_kind: str
    flow_params: dict
    volume: DiskSpec | AnnulusSpec | PolygonSpec
    x0: tuple
    epsilon: float
    q: float
    T: float
    M: float
    dt: float
    sample_stride: int
    verify_times: tuple
    sweep_q: tuple
    sweep_epsilon: tuple
    out_format: str


def _text(raw, key, default=None):
    """The text under `key`; an absent key reads as `default` when given."""
    if key in raw:
        return raw[key]
    if default is None:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _number(text, key):
    """The finite number `text` of `key`; the one reader of numbers."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {text!r}")
    return value


def _numbers(text, key, length=None):
    """The comma-separated finite numbers of `text`; blank parts are skipped."""
    out = tuple(_number(part, key) for part in text.split(",") if part.strip())
    if length is not None and len(out) != length:
        raise ConfigError(f"key {key!r}: expected {length} numbers, got {len(out)}")
    return out


def _float(raw, key, default=None):
    return _number(_text(raw, key, default), key)


def _floats(raw, key, length=None, default=None):
    return _numbers(_text(raw, key, default), key, length)


def _positive(raw, key, default=None):
    value = _float(raw, key, default)
    if value <= 0.0:
        raise ConfigError(f"key {key!r} must be positive, got {value}")
    return value


def _int(raw, key, default=None):
    text = _text(raw, key, default)
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {text!r}") from None


def load_config(path):
    """Read, type-check and precondition-check a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file '{path}': "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    raw = _ReadKeys(parse_kv_text(text))
    name = _text(raw, "name", path.stem)

    gamma = _float(raw, "gamma")
    if gamma <= 1.0:
        raise ConfigError("key 'gamma' must exceed 1")

    kind = _text(raw, "flow.kind")
    if kind not in _FLOWS:
        raise ConfigError(f"key 'flow.kind' must be {'|'.join(_FLOWS)}, got {kind!r}")
    flow_params = _flow_params(raw, kind)

    volume = _volume_spec(raw)
    x0 = _floats(raw, "x0", FlowField.dimension)
    epsilon = _positive(raw, "epsilon")
    qexp = _float(raw, "q")
    if not q_admissible(qexp, gamma, FlowField.dimension):
        raise ConfigError(f"key 'q' must lie strictly below "
                          f"{q_admissible_bound(gamma, FlowField.dimension)}, got {qexp}")
    horizon = _positive(raw, "T")
    reg_const = _float(raw, "M")
    if reg_const < 0.0:
        raise ConfigError("key 'M' must be nonnegative")
    dt = _positive(raw, "dt", "1e-3")
    stride = _int(raw, "sample.stride", "10")
    if stride < 1:
        raise ConfigError("key 'sample.stride' must be at least 1")

    try:
        # A distance that overflows is refused below, naming its keys.
        with np.errstate(over="ignore", invalid="ignore"):
            d0 = volume.distance(x0)
    except ValueError as exc:
        raise ConfigError(f"key 'x0': {exc}") from exc
    if not math.isfinite(d0):
        raise ConfigError(f"key 'x0' or 'volume.{volume.position_field}': "
                          f"dist(boundary, x0) = {d0} is not finite")
    if epsilon >= d0:
        raise ConfigError(
            f"key 'epsilon': must be smaller than the initial boundary distance {d0}")

    verify_times = _floats(raw, "verify.times", default="0.2, 0.5, 0.8")
    if not verify_times or min(verify_times) < 0.0:
        raise ConfigError(f"key 'verify.times' must be one or more nonnegative "
                          f"times, got {verify_times}")

    cfg = ScenarioConfig(
        name=name, gamma=gamma, flow_kind=kind,
        flow_params=flow_params, volume=volume, x0=x0, epsilon=epsilon, q=qexp,
        T=horizon, M=reg_const, dt=dt, sample_stride=stride,
        verify_times=verify_times,
        sweep_q=_floats(raw, "sweep.q", default=""),
        sweep_epsilon=_floats(raw, "sweep.epsilon", default=""),
        out_format=_text(raw, "out.format", "report"),
    )
    if cfg.out_format not in ("report", "csv"):
        raise ConfigError("key 'out.format' must be report|csv")
    unread = [key for key in raw if key not in raw.read]
    if unread:
        raise ConfigError(f"key {unread[0]!r} is not a setting of this scenario")
    return cfg


# The largest flow.grid.n.  A grid flow holds at least 40 padded (n + 4)^2
# fields: the 20 of its step workspace and 4 per snapshot of its time stencil
# and its newest state, 340 MB at n = 1024.
_MAX_GRID_N = 1024


def _flow_params(raw, kind):
    """The keyword arguments of the constructor `_FLOWS[kind][0]`, after gamma."""
    if kind == "constant":
        return {
            "rho0": _positive(raw, "flow.rho0"),
            "vel0": _floats(raw, "flow.V0", FlowField.dimension),
            "p0": _positive(raw, "flow.P0"),
        }
    if kind == "expansion":
        return {
            "rho0": _positive(raw, "flow.rho0"),
            "s0": _float(raw, "flow.S0", "0.0"),
            "t_c": _positive(raw, "flow.t_c"),
        }
    params = {
        "n": _int(raw, "flow.grid.n"),
        "box": _floats(raw, "flow.grid.box", 2),
        "dt": _positive(raw, "flow.grid.dt"),
        "rho": _text(raw, "flow.grid.rho"),
        "vx": _text(raw, "flow.grid.vx"),
        "vy": _text(raw, "flow.grid.vy"),
        "S": _text(raw, "flow.grid.S", "0.0"),
        # No gradient guard unless one is set.
        "max_grad": _float(raw, "flow.grid.max_grad")
        if "flow.grid.max_grad" in raw else math.inf,
    }
    if not 16 <= params["n"] <= _MAX_GRID_N:
        raise ConfigError(f"key 'flow.grid.n' must be from 16 to {_MAX_GRID_N}")
    if params["box"][1] <= params["box"][0]:
        raise ConfigError("key 'flow.grid.box' must be (min, max) with min < max")
    return params


def _volume_spec(raw):
    """The volume's shape spec: the one reader of `volume.shape` and of the
    volume keys, and the one statement of their defaults."""
    shape = _text(raw, "volume.shape")
    markers = _int(raw, "volume.markers", "256")
    try:
        if shape == "polygon":
            vertices = tuple(_numbers(part, "volume.vertices", 2) for part
                             in _text(raw, "volume.vertices").split(";") if part.strip())
            return PolygonSpec(markers, vertices, _int(raw, "volume.refine", "3"))
        if shape in ("disk", "annulus"):
            center = _floats(raw, "volume.center", FlowField.dimension, default="0, 0")
            order = _int(raw, "volume.quad_order", "40")
            if shape == "disk":
                return DiskSpec(markers, center, _float(raw, "volume.radius"), order)
            return AnnulusSpec(markers, center, _floats(raw, "volume.radii", 2), order)
    except ShapeError as exc:
        raise ConfigError(f"key 'volume.{exc.field}': {exc}") from exc
    raise ConfigError(f"key 'volume.shape': unknown shape {shape!r}")


_EXPR_NAMES = {
    "pi": np.pi, "e": np.e, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh,
    "cosh": np.cosh, "sinh": np.sinh, "abs": np.abs, "hypot": np.hypot,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
}


def _eval_field(exprs, name, x, y):
    """Grid field `name` of the expressions `exprs`, evaluated at the nodes
    (x, y)."""
    key, expr = f"flow.grid.{name}", exprs[name]
    ns = dict(_EXPR_NAMES, x=x, y=y, r=np.hypot(x, y))
    try:
        # Non-finite values are rejected below, naming the key, not warned of.
        with np.errstate(all="ignore"):
            value = np.asarray(eval(expr, {"__builtins__": {}}, ns))  # noqa: S307 - local files
        # same_kind casting turns away complex, text and object values.
        value = np.broadcast_to(value.astype(float, casting="same_kind"), x.shape).copy()
    except Exception as exc:
        raise ConfigError(f"key {key!r}: expression {expr!r} failed: {exc}") from exc
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"key {key!r}: expression {expr!r} is not finite on the grid")
    return value


def _grid_flow(gamma, n, box, dt, max_grad, **exprs):
    """A grid flow on the n^2 nodes of the square `box`, its initial fields
    the expressions `exprs` (rho, vx, vy and S)."""
    lo, hi = box
    h = (hi - lo) / n
    coords = lo + h * np.arange(n)
    x, y = np.meshgrid(coords, coords, indexing="ij")
    rho = _eval_field(exprs, "rho", x, y)
    if rho.min() <= 0.0:
        raise ConfigError(f"key 'flow.grid.rho': expression {exprs['rho']!r} is not "
                          f"positive on the grid")
    state = GridState.from_nodes(rho=rho, vx=_eval_field(exprs, "vx", x, y),
                                 vy=_eval_field(exprs, "vy", x, y),
                                 entropy=_eval_field(exprs, "S", x, y),
                                 gamma=gamma, origin=(lo, lo), spacing=(h, h), time=0.0)
    return GridFlow(state, step_dt=dt, guard_threshold=max_grad)


# Each `flow.kind`: its constructor, called with gamma and the keyword
# arguments that `_flow_params` reads, and the keys that set the density,
# velocity and pressure (or entropy) a sample reads.
_FLOWS = {
    "constant": (ConstantFlow, ("flow.rho0", "flow.V0", "flow.P0")),
    "expansion": (ExpansionFlow, ("flow.rho0", "flow.S0", "flow.t_c")),
    "grid": (_grid_flow, ("flow.grid.rho", "flow.grid.vx", "flow.grid.vy",
                          "flow.grid.S")),
}


def build_flow(cfg):
    """Instantiate the configured flow (grid flows are not yet advanced)."""
    constructor, _ = _FLOWS[cfg.flow_kind]
    return constructor(cfg.gamma, **cfg.flow_params)


def build_volume(cfg, flow):
    """The volume and its boundary's distance to x0, refused (`ConfigError`)
    when that distance is not larger than epsilon.  This is the time-zero
    epsilon gate on the markers: their chords of a loop curved around x0
    lie closer to it than the closed form that `load_config` checked
    epsilon against, so it can fail where the load check passed."""
    try:
        vol, dist = init_volume(cfg.volume, flow, np.asarray(cfg.x0))
    except ShapeError as exc:
        raise ConfigError(f"key 'volume.{exc.field}': {exc}") from exc
    if dist <= cfg.epsilon:
        raise ConfigError(f"key 'epsilon': dist(boundary, x0) = {dist} is not "
                          f"larger than epsilon = {cfg.epsilon}")
    return vol, dist


@dataclass(frozen=True)
class Scenario:
    """A built scenario: its flow and volume at time zero, the time-zero
    sample `sample0` of the profile r^q (q is `cfg.q`, as is `inp.q`) and the
    threshold inputs taken from them (the entropy floor `inp.s0` is the
    flow's).

    A grid flow is shared, not copied: advancing it for one use advances it
    for every later use of the same scenario, but changes no query, since a
    grid flow's value at a time does not depend on how far it was advanced,
    nor on the snapshots it holds: a use that needs earlier times than the
    last one kept calls `keep_from` with them (as `run_theorem_scenario` does
    with the volume's time), and the flow re-steps what it let go.
    """

    cfg: ScenarioConfig
    flow: FlowField
    vol: MaterialVolume
    sample0: FunctionalSample
    inp: CriteriaInputs


def _sample0(cfg, flow, vol):
    """The time-zero sample, refused (`ConfigError`) when it is not smooth,
    naming the keys that its failed functionals read: every functional reads
    the flow's fields (and gamma, through the pressure) over the volume; all
    but m and E read x0, and G, F and the I's read q."""
    try:
        return sample(flow, vol, cfg.q)
    except NotSmooth as exc:
        keys = [*_FLOWS[cfg.flow_kind][1], "gamma", "volume.*"]
        failed = set(exc.functionals)
        if failed - {"m", "E"}:
            keys.append("x0")
        if failed - {"m", "E", "reg", "reg_abs"}:
            keys.append("q")
        names = ", ".join(map(repr, keys[:-1])) + f" or {keys[-1]!r}"
        raise ConfigError(f"key {names}: {exc}") from exc


def build_scenario(cfg):
    """Build the flow (grid flows are not yet advanced), the volume and the
    time-zero data of a config."""
    flow = build_flow(cfg)
    vol, d_init = build_volume(cfg, flow)
    sample0 = _sample0(cfg, flow, vol)
    inp = CriteriaInputs(
        q=cfg.q, gamma=cfg.gamma, n=flow.dimension, s0=flow.entropy_floor, m=sample0.m,
        E=sample0.E, M=cfg.M, epsilon=cfg.epsilon, T=cfg.T, G0=sample0.G,
        cond10=condition10(vol, flow, cfg.q), d_init=d_init)
    return Scenario(cfg=cfg, flow=flow, vol=vol, sample0=sample0, inp=inp)
