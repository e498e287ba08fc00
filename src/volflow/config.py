"""Scenario configuration: flat dotted-key text files and builders.

The format is one `key = value` pair per line with `#` comments.  Values are
parsed as integers, floats, comma-separated tuples, semicolon-separated point
lists, or plain strings -- whichever matches first.  Grid initial fields are
numpy expressions over the node coordinates x, y and the radius r, evaluated
in a restricted namespace.

Every parsed key is read or rejected: `load_config` fails naming the first
key it did not read (a typo, a key of another flow or shape kind, or a
removed setting), so no line of a config silently means nothing.  Every
float and float-tuple value goes through one reader, `_as_floats`, which
rejects NaN and +-inf naming the key; only an absent `flow.grid.max_grad`
means inf (no gradient guard).  Integer values go through `_int`, which
rejects anything but an integer literal (2.0, 2.5, inf, nan, true) naming the
key.  The entropy floor s0 is not a setting: it comes from the flow
(`FlowField.entropy_floor`).

All attainment preconditions (admissible q, epsilon below the initial
boundary distance, nonnegative M) are validated at load time so a bad
scenario fails before any computation starts; the initial boundary distance
is the closed form of `VolumeShapeSpec.distance`.

`build_scenario` is the one way to build a scenario from a config: it builds
the flow and the volume and takes the time-zero data the threshold algebra
reads, once, for every subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criteria import CriteriaInputs, condition10, q_admissible, q_admissible_bound
from .flowfield import FlowField, make_analytic_flow
from .functionals import FunctionalSample, PhiSpec, sample
from .matvol import (MaterialVolume, VolumeShapeSpec, boundary_distance,
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


def _parse_scalar(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text):
    text = text.strip()
    if ";" in text:
        return tuple(_parse_value(part) for part in text.split(";") if part.strip())
    if "," in text:
        return tuple(_parse_scalar(p.strip()) for p in text.split(",") if p.strip())
    return _parse_scalar(text)


class _ReadKeys(dict):
    """Parsed keys that remember which of them were read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def parse_kv_text(text):
    """Parse flat `key = value` lines into a dict; later keys win."""
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
        out[key] = _parse_value(value)
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """Typed view of one scenario file."""

    name: str
    dimension: int
    gamma: float
    flow_kind: str
    flow_params: dict
    volume: VolumeShapeSpec
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


def _need(raw, key, kind=None):
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    value = raw[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"key {key!r} has wrong type: expected {kind}, got {value!r}")
    return value


def _as_floats(value, key, length=None):
    """The finite numbers of `key` as a tuple; the one reader of float values."""
    try:
        out = tuple(float(v) for v in ((value,) if np.isscalar(value) else value))
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r}: expected numbers, got {value!r}") from None
    if length is not None and len(out) != length:
        raise ConfigError(f"key {key!r}: expected {length} numbers, got {len(out)}")
    if not all(math.isfinite(v) for v in out):
        raise ConfigError(f"key {key!r} must be finite, got {value!r}")
    return out


def _float(raw, key, default=None):
    """The finite number under `key`.  When a default is given, an absent key
    returns it unchecked (`flow.grid.max_grad` defaults to inf)."""
    if default is not None and key not in raw:
        return default
    value = _need(raw, key)
    if not np.isscalar(value):
        raise ConfigError(f"key {key!r}: expected one number, got {value!r}")
    return _as_floats(value, key)[0]


def _int(raw, key, default=None):
    """The integer literal under `key`, or `default` when given and absent."""
    value = _need(raw, key) if default is None else raw.get(key, default)
    if type(value) is not int:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")
    return value


def load_config(path):
    """Read, type-check and precondition-check a scenario file."""
    path = Path(path)
    raw = _ReadKeys(parse_kv_text(path.read_text()))
    name = str(raw.get("name", path.stem))

    dimension = _int(raw, "dimension")
    if dimension not in (2, 3):
        raise ConfigError("key 'dimension' must be 2 or 3")
    gamma = _float(raw, "gamma")
    if gamma <= 1.0:
        raise ConfigError("key 'gamma' must exceed 1")

    kind = _need(raw, "flow.kind")
    if kind not in ("constant", "expansion", "grid"):
        raise ConfigError(f"key 'flow.kind' must be constant|expansion|grid, got {kind!r}")
    flow_params = _flow_params(raw, kind, dimension)

    volume = _volume_spec(raw, dimension)
    x0 = _as_floats(_need(raw, "x0"), "x0", dimension)
    epsilon = _float(raw, "epsilon")
    if epsilon <= 0.0:
        raise ConfigError("key 'epsilon' must be positive")
    qexp = _float(raw, "q")
    if not q_admissible(qexp, gamma, dimension):
        raise ConfigError(f"key 'q' must lie strictly below "
                          f"{q_admissible_bound(gamma, dimension)}, got {qexp}")
    horizon = _float(raw, "T")
    if not horizon > 0.0:
        raise ConfigError(f"key 'T' must be positive and finite, got {horizon}")
    reg_const = _float(raw, "M")
    if reg_const < 0.0:
        raise ConfigError("key 'M' must be nonnegative")
    dt = _float(raw, "dt", 1e-3)
    if not dt > 0.0:
        raise ConfigError(f"key 'dt' must be positive and finite, got {dt}")
    stride = _int(raw, "sample.stride", 10)
    if stride < 1:
        raise ConfigError("key 'sample.stride' must be at least 1")

    try:
        d0 = volume.distance(x0)
    except ValueError as exc:
        raise ConfigError(f"key 'x0': {exc}") from exc
    if epsilon >= d0:
        raise ConfigError(
            f"key 'epsilon': must be smaller than the initial boundary distance {d0}")

    verify_times = _as_floats(raw.get("verify.times", (0.2, 0.5, 0.8)), "verify.times")
    if not all(t >= 0.0 for t in verify_times):
        raise ConfigError(f"key 'verify.times' must be finite and nonnegative, "
                          f"got {verify_times}")

    cfg = ScenarioConfig(
        name=name, dimension=dimension, gamma=gamma, flow_kind=kind,
        flow_params=flow_params, volume=volume, x0=x0, epsilon=epsilon, q=qexp,
        T=horizon, M=reg_const, dt=dt, sample_stride=stride,
        verify_times=verify_times,
        sweep_q=_as_floats(raw.get("sweep.q", ()), "sweep.q") if raw.get("sweep.q") else (),
        sweep_epsilon=_as_floats(raw.get("sweep.epsilon", ()), "sweep.epsilon")
        if raw.get("sweep.epsilon") else (),
        out_format=str(raw.get("out.format", "report")),
    )
    if cfg.out_format not in ("report", "csv"):
        raise ConfigError("key 'out.format' must be report|csv")
    unread = [key for key in raw if key not in raw.read]
    if unread:
        raise ConfigError(f"key {unread[0]!r} is not a setting of this scenario")
    return cfg


def _flow_params(raw, kind, dimension):
    if kind == "constant":
        return {
            "rho0": _float(raw, "flow.rho0"),
            "V0": _as_floats(_need(raw, "flow.V0"), "flow.V0", dimension),
            "P0": _float(raw, "flow.P0"),
        }
    if kind == "expansion":
        return {
            "rho0": _float(raw, "flow.rho0"),
            "S0": _float(raw, "flow.S0", 0.0),
            "t_c": _float(raw, "flow.t_c"),
        }
    if dimension != 2:
        raise ConfigError("key 'flow.kind': grid flows are 2-D only")
    params = {
        "n": _int(raw, "flow.grid.n"),
        "box": _as_floats(_need(raw, "flow.grid.box"), "flow.grid.box", 2),
        "dt": _float(raw, "flow.grid.dt"),
        "rho": str(_need(raw, "flow.grid.rho")),
        "vx": str(_need(raw, "flow.grid.vx")),
        "vy": str(_need(raw, "flow.grid.vy")),
        "S": str(raw.get("flow.grid.S", "0.0")),
        "max_grad": _float(raw, "flow.grid.max_grad", math.inf),
    }
    if params["n"] < 16:
        raise ConfigError("key 'flow.grid.n' must be at least 16")
    if params["box"][1] <= params["box"][0]:
        raise ConfigError("key 'flow.grid.box' must be (min, max) with min < max")
    return params


def _volume_spec(raw, dimension):
    shape = _need(raw, "volume.shape")
    center = _as_floats(raw.get("volume.center", (0.0,) * dimension),
                        "volume.center", dimension)
    markers = _int(raw, "volume.markers", 256)
    quad_order = _int(raw, "volume.quad_order", 40)
    if quad_order < 1:
        raise ConfigError("key 'volume.quad_order' must be at least 1")
    refine = _int(raw, "volume.refine", 3)
    if shape == "disk":
        spec = dict(center=center, radius=_float(raw, "volume.radius"),
                    markers=markers, quad_order=quad_order)
    elif shape == "annulus":
        spec = dict(center=center,
                    radii=_as_floats(_need(raw, "volume.radii"), "volume.radii", 2),
                    markers=markers, quad_order=quad_order)
    elif shape == "polygon":
        verts = _need(raw, "volume.vertices")
        spec = dict(vertices=tuple(_as_floats(v, "volume.vertices", 2) for v in verts),
                    markers=markers, refine=refine)
    else:
        raise ConfigError(f"key 'volume.shape': unknown shape {shape!r}")
    try:
        return VolumeShapeSpec(shape=shape, **spec)
    except ValueError as exc:
        raise ConfigError(f"key 'volume.*': {exc}") from exc


_EXPR_NAMES = {
    "pi": np.pi, "e": np.e, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh,
    "cosh": np.cosh, "sinh": np.sinh, "abs": np.abs, "hypot": np.hypot,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
}


def _eval_field(expr, x, y):
    ns = dict(_EXPR_NAMES)
    ns.update({"x": x, "y": y, "r": np.hypot(x, y)})
    try:
        value = eval(expr, {"__builtins__": {}}, ns)  # noqa: S307 - local config files
    except Exception as exc:
        raise ConfigError(f"grid field expression {expr!r} failed: {exc}") from exc
    return np.broadcast_to(np.asarray(value, dtype=float), x.shape).copy()


def build_flow(cfg):
    """Instantiate the configured flow (grid flows are not yet advanced)."""
    if cfg.flow_kind in ("constant", "expansion"):
        return make_analytic_flow(cfg.flow_kind, cfg.dimension, cfg.gamma,
                                  cfg.flow_params)
    p = cfg.flow_params
    n = p["n"]
    lo, hi = p["box"]
    h = (hi - lo) / n
    coords = lo + h * np.arange(n)
    x, y = np.meshgrid(coords, coords, indexing="ij")
    state = GridState(rho=_eval_field(p["rho"], x, y),
                      vx=_eval_field(p["vx"], x, y),
                      vy=_eval_field(p["vy"], x, y),
                      entropy=_eval_field(p["S"], x, y),
                      gamma=cfg.gamma, origin=(lo, lo), spacing=(h, h), time=0.0)
    return GridFlow(state, step_dt=p["dt"], guard_threshold=p["max_grad"])


def build_volume(cfg, flow):
    return init_volume(cfg.volume, flow, np.asarray(cfg.x0), cfg.epsilon)


@dataclass(frozen=True)
class Scenario:
    """A built scenario: its flow and volume at time zero, the power-law
    profile, the time-zero sample `sample0` and the threshold inputs taken
    from them (the entropy floor `inp.s0` is the flow's).

    A grid flow is shared, not copied: advancing it for one use advances it
    for every later use of the same scenario.
    """

    cfg: ScenarioConfig
    flow: FlowField
    vol: MaterialVolume
    phi: PhiSpec
    sample0: FunctionalSample
    inp: CriteriaInputs


def build_scenario(cfg):
    """Build the flow (grid flows are not yet advanced), the volume and the
    time-zero data of a config."""
    flow = build_flow(cfg)
    vol = build_volume(cfg, flow)
    phi = PhiSpec.power_law(cfg.q)
    sample0 = sample(flow, vol, phi, cfg.epsilon)
    inp = CriteriaInputs(
        q=cfg.q, gamma=cfg.gamma, n=cfg.dimension, s0=flow.entropy_floor, m=sample0.m,
        E=sample0.E, M=cfg.M, epsilon=cfg.epsilon, T=cfg.T, G0=sample0.G,
        cond10=condition10(vol, flow, cfg.q), d_init=boundary_distance(vol))
    return Scenario(cfg=cfg, flow=flow, vol=vol, phi=phi, sample0=sample0, inp=inp)
