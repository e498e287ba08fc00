"""Scenario configuration: flat dotted-key text files and builders.

The format is one `key = value` pair per line with `#` comments.  Each value
is kept as its stripped text and parsed once, by the reader of its key.
`_KEYS` states each key's facts once: its reader, its default, its scope
(the flow kinds or volume shapes that read it) and its static bounds.
`load_config` reads the rows of a config's flow kind and shape, in the
table's order, and fails naming the first key of the config that none of
them reads (a typo, a key of another flow or shape kind, or a removed
setting), so no line of a config silently means nothing.  The size keys
are bounded at load, so a huge one is refused before anything is
allocated: `flow.grid.n` by its row, and the markers and nodes of a volume
by its shape spec in `matvol`.  The grid fields are numpy expressions over
the node coordinates x, y and the radius r, evaluated in a restricted
namespace; an expression that fails or whose values are not finite real
numbers (positive, for the density) is a config error naming its
`flow.grid.<field>` key.  The entropy floor s0 is not a setting: it comes
from the flow (`FlowField.entropy_floor`).

The checks between keys follow the table's reads: q admissible for gamma,
and epsilon below the initial boundary distance.  That distance is checked
against epsilon twice, both times here: at load in the closed form of the
shape spec's `distance` (which must be finite: an x0 or a shape position
near the float limit overflows it), and at build on the markers that
`matvol.init_volume` reports, whose chords lie closer to x0 around a loop
curved about it.  At build a grid flow also refuses a volume point 2**52 or
more cells from its grid's origin, where a cell index no longer resolves
the point (`GridFlow.check_points`).

`build_scenario` is the one way to build a scenario from a config: it builds
the flow and the volume and takes the time-zero data the threshold algebra
reads, once, for every subcommand.  A time-zero sample that is not smooth
(a functional not finite, or a density not positive) is a config error
naming the keys that the failed functionals read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


def _integer(text, key):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {text!r}") from None


def _interval(text, key):
    """Two numbers (min, max) with min < max a finite distance apart."""
    low, high = _numbers(text, key, 2)
    if not low < high:
        raise ConfigError(f"key {key!r} must be (min, max) with min < max")
    if not math.isfinite(high - low):
        raise ConfigError(f"key {key!r}: max - min = {high - low} is not finite")
    return low, high


_READERS = {
    "text": lambda text, key: text,
    "number": _number,
    "numbers": _numbers,
    "integer": _integer,
    "interval": _interval,
    "pairs": lambda text, key: tuple(_numbers(part, key, 2) for part in text.split(";")
                                     if part.strip()),
}


def _read(raw, name, reader, default, scope, bounds):
    """The value of the `_KEYS` row (name, reader, default, scope, bounds)
    in the parsed keys `raw`, checked against its bounds."""
    text = raw.get(name, default)
    if text is None:
        raise ConfigError(f"missing required key {name!r}")
    if not isinstance(text, str):          # a default that is not text is the value
        return text
    value = (_numbers(text, name, reader) if isinstance(reader, int)
             else _READERS[reader](text, name))
    if isinstance(bounds, tuple):
        allowed, message = bounds
        numbers = value if isinstance(value, tuple) else (value,)
        if not (value in allowed if reader == "text" else
                numbers and allowed[0] <= min(numbers) and max(numbers) <= allowed[1]):
            raise ConfigError(f"key {name!r}{message.format(value)}")
    return value


def load_config(path):
    """Read, type-check and precondition-check a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file '{path}': "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    raw = {"name": path.stem, **parse_kv_text(text)}
    values = {}
    for row in _KEYS:
        scope = row[3]
        if (scope is None or values.get("flow.kind") in scope
                or values.get("volume.shape") in scope):
            values[row[0]] = _read(raw, *row)

    kind, shape = values["flow.kind"], _SHAPES[values["volume.shape"]]
    flow_params = _flow_params(values, kind)
    try:
        volume = shape(**{f.name: values[f"volume.{f.name}"] for f in fields(shape)})
    except ShapeError as exc:
        raise ConfigError(f"key 'volume.{exc.field}': {exc}") from exc
    gamma, x0, epsilon, qexp = (values[key] for key in ("gamma", "x0", "epsilon", "q"))
    if not q_admissible(qexp, gamma, FlowField.dimension):
        raise ConfigError(f"key 'q' must lie strictly below "
                          f"{q_admissible_bound(gamma, FlowField.dimension)}, got {qexp}")
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
    unread = [key for key in raw if key not in values]
    if unread:
        raise ConfigError(f"key {unread[0]!r} is not a setting of this scenario")
    # The keys outside flow.* and volume.* are the fields of their names.
    return ScenarioConfig(flow_kind=kind, flow_params=flow_params, volume=volume, **{
        key.replace(".", "_"): value for key, value in values.items()
        if not key.startswith(("flow.", "volume."))})


def _flow_params(values, kind):
    """The keyword arguments of the constructor `_FLOWS[kind][0]`, after gamma."""
    if kind == "constant":
        return {"rho0": values["flow.rho0"], "vel0": values["flow.V0"],
                "p0": values["flow.P0"]}
    if kind == "expansion":
        return {"rho0": values["flow.rho0"], "s0": values["flow.S0"],
                "t_c": values["flow.t_c"]}
    return {key.removeprefix("flow.grid."): value for key, value in values.items()
            if key.startswith("flow.grid.")}


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


# Each `volume.shape`: its spec, built from the `volume.<field>` keys of
# its fields.
_SHAPES = {"disk": DiskSpec, "annulus": AnnulusSpec, "polygon": PolygonSpec}

# The largest flow.grid.n.  A grid flow holds at least 40 padded (n + 4)^2
# fields: the 20 of its step workspace and 4 per snapshot of its time stencil
# and its newest state, 340 MB at n = 1024.
_MAX_GRID_N = 1024
# The bounds of a number that must be positive: 5e-324 is the least float
# above 0.
_POSITIVE = ((5e-324, math.inf), " must be positive, got {}")

# Every config key, one row each, in the order `load_config` reads them:
# (name, reader, default, scope, bounds).
# - reader: "text" (kept verbatim), "number", "integer", k (k comma-separated
#   numbers), "numbers" (any count), "pairs" (`;`-separated number pairs) or
#   "interval" (two numbers min < max a finite distance apart).  Every
#   number is finite.
# - default: the text an absent key reads as; None when the key is required
#   (`load_config` sets an absent `name` to the file's stem); a value that
#   is not text is the absent key's value (inf: no gradient guard).
# - scope: None when every config reads the key, else the flow kinds or
#   volume shapes that read it.
# - bounds: ((low, high), message) for the numbers of the value, each from
#   low to high (and at least one), or (choices, message) for a text; a
#   value out of bounds is refused as "key '<name>'" + message.format(value).
#   A string names the field of the shape spec (`matvol`) that checks the
#   key: the caps on markers and nodes depend on the other fields.
_KEYS = (
    ("name", "text", None, None, None),
    ("gamma", "number", None, None, ((math.nextafter(1.0, 2.0), math.inf),
                                     " must exceed 1")),
    ("flow.kind", "text", None, None, (tuple(_FLOWS),
                                       f" must be {'|'.join(_FLOWS)}, got {{!r}}")),
    ("flow.rho0", "number", None, ("constant", "expansion"), _POSITIVE),
    ("flow.V0", FlowField.dimension, None, ("constant",), None),
    ("flow.P0", "number", None, ("constant",), _POSITIVE),
    ("flow.S0", "number", "0.0", ("expansion",), None),
    ("flow.t_c", "number", None, ("expansion",), _POSITIVE),
    ("flow.grid.n", "integer", None, ("grid",), ((16, _MAX_GRID_N),
                                                 f" must be from 16 to {_MAX_GRID_N}")),
    ("flow.grid.box", "interval", None, ("grid",), None),
    ("flow.grid.dt", "number", None, ("grid",), _POSITIVE),
    ("flow.grid.rho", "text", None, ("grid",), None),
    ("flow.grid.vx", "text", None, ("grid",), None),
    ("flow.grid.vy", "text", None, ("grid",), None),
    ("flow.grid.S", "text", "0.0", ("grid",), None),
    ("flow.grid.max_grad", "number", math.inf, ("grid",), None),
    ("volume.shape", "text", None, None, (tuple(_SHAPES), ": unknown shape {!r}")),
    ("volume.markers", "integer", "256", None, "markers"),
    ("volume.vertices", "pairs", None, ("polygon",), "vertices"),
    ("volume.refine", "integer", "3", ("polygon",), "refine"),
    ("volume.center", FlowField.dimension, "0, 0", ("disk", "annulus"), None),
    ("volume.quad_order", "integer", "40", ("disk", "annulus"), "quad_order"),
    ("volume.radius", "number", None, ("disk",), "radius"),
    ("volume.radii", 2, None, ("annulus",), "radii"),
    ("x0", FlowField.dimension, None, None, None),
    ("epsilon", "number", None, None, _POSITIVE),
    ("q", "number", None, None, None),
    ("T", "number", None, None, _POSITIVE),
    ("M", "number", None, None, ((0.0, math.inf), " must be nonnegative")),
    ("dt", "number", "1e-3", None, _POSITIVE),
    ("sample.stride", "integer", "10", None, ((1, math.inf), " must be at least 1")),
    ("verify.times", "numbers", "0.2, 0.5, 0.8", None, (
        (0.0, math.inf), " must be one or more nonnegative times, got {}")),
    ("sweep.q", "numbers", "", None, None),
    ("sweep.epsilon", "numbers", "", None, None),
    ("out.format", "text", "report", None, (("report", "csv"), " must be report|csv")),
)


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
    except ValueError as exc:               # a grid's `check_points`
        raise ConfigError(f"key 'flow.grid.box': {exc}") from exc
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
    """The time-zero sample, refused (`ConfigError`) when it is not smooth or
    its mass or energy is not positive (a density that underflows), naming
    the keys that its failed functionals read: every functional reads the
    flow's fields (and gamma, through the pressure) over the volume; all but
    m and E read x0, and G, F and the I's read q."""
    try:
        s0 = sample(flow, vol, cfg.q)
        if not (s0.m > 0.0 and s0.E > 0.0):
            raise NotSmooth("mass and energy must be positive", ("m", "E"))
        return s0
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
