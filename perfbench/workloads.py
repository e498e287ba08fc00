"""The benchmark's workloads: generated scenario configs, the CLI operations
run on them, and the outcome each operation must produce.

Every config is a shipped file from `scripts/configs` with override lines
appended (later keys win in the config format), written to the benchmark's
work directory.  Only the seed-dependent values differ between seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Exit codes the CLI documents: 0 pass, 1 a check failed, 2 config/precondition.
DOCUMENTED_EXIT_CODES = (0, 1, 2)


@dataclass
class Operation:
    label: str
    argv: list                     # CLI arguments without --out
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    configs: dict                  # config name -> generated file path
    operations: list


def _write_config(work, shipped, source, overrides=(), name=None):
    text = (shipped / f"{source}.cfg").read_text()
    lines = [text.rstrip("\n"), "", "# benchmark overrides"]
    lines += [f"{key} = {value}" for key, value in overrides]
    path = work / "configs" / f"{name or source}.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def build(name, seed, root, work):
    """Generate the configs of workload `name` for `seed` under `work`."""
    shipped = root / "scripts" / "configs"
    if name == "analytic_run":
        # The disk centre cx moves the hit time (cx - r - eps) / |V0|.  The
        # inflow also runs at the mirrored centre 6 - cx, so the two hit times
        # add up to the same advection work for every seed.
        cx = random.Random(seed).uniform(2.5, 3.5)
        radius, eps, speed, dt = 1.0, 0.5, 1.0, 1e-3
        cfgs, ops = {}, []
        for label, centre in (("constant_inflow", cx), ("constant_inflow_mirror", 6.0 - cx)):
            cfgs[label] = _write_config(
                work, shipped, "constant_inflow",
                [("name", label), ("volume.center", f"{centre!r}, 0.0")], name=label)
            ops.append(Operation(
                f"run {label}", ["run", "--config", cfgs[label]],
                {"verdict": "consistent_hit",
                 "hit_time_near": ((centre - radius - eps) / speed, 2.0 * dt)}))
        for label in ("constant_receding", "expansion_outflow", "sweep_annulus"):
            cfgs[label] = _write_config(work, shipped, label)
        no_claim = {"verdict": "consistent_no_claim", "hit_time": "none"}
        ops += [
            Operation("run constant_receding",
                      ["run", "--config", cfgs["constant_receding"]], no_claim),
            Operation("run expansion_outflow",
                      ["run", "--config", cfgs["expansion_outflow"]], no_claim),
            Operation("criteria sweep_annulus",
                      ["criteria", "--config", cfgs["sweep_annulus"]],
                      {"csv_rows": 1}),
            Operation("sweep sweep_annulus",
                      ["sweep", "--config", cfgs["sweep_annulus"]],
                      {"csv_rows": 16}),
        ]
    elif name == "verify_oracle":
        cfgs = {"lemmas_expansion": _write_config(work, shipped, "lemmas_expansion")}
        ops = [Operation("verify lemmas_expansion",
                         ["verify", "--config", cfgs["lemmas_expansion"],
                          "--seed", str(seed)],
                         {"result": "pass", "oracle_failed": "0",
                          "oracle_max_rel_gap_le": 1e-6})]
    elif name == "grid_run":
        cfgs = {
            "radial_inflow": _write_config(work, shipped, "radial_inflow"),
            # Half the grid dt keeps the 256^2 variant under the CFL limit.
            "radial_inflow_256": _write_config(
                work, shipped, "radial_inflow",
                [("name", "radial_inflow_256"), ("flow.grid.n", 256),
                 ("flow.grid.dt", "2.5e-3")], name="radial_inflow_256"),
        }
        # Verdicts the solver-backed runs give at the benchmark's first commit.
        no_claim = {"verdict": "consistent_no_claim", "hit_time": "none"}
        ops = [
            Operation("run radial_inflow",
                      ["run", "--config", cfgs["radial_inflow"]], no_claim),
            Operation("run radial_inflow_256",
                      ["run", "--config", cfgs["radial_inflow_256"]], no_claim),
            # Raises SmoothnessLost at the first commit; it stays in the
            # workload so that the defect shows as a failed operation.
            Operation("verify radial_inflow",
                      ["verify", "--config", cfgs["radial_inflow"]]),
        ]
    else:
        raise KeyError(name)
    ops = [Operation(op.label, [str(a) for a in op.argv], op.expect) for op in ops]
    return Workload(name, cfgs, ops)


NAMES = ("analytic_run", "verify_oracle", "grid_run")


def read_report(path):
    """Parse a `key: value` report or a one-header CSV into (fields, rows)."""
    lines = path.read_text().splitlines()
    if lines and ": " in lines[0]:
        return dict(line.split(": ", 1) for line in lines), 0
    return {}, max(len(lines) - 1, 0)


def check(op, code, error, files):
    """Judge one operation: None when it met its expectation, else
    (kind, reason) with kind "error" when it raised or left the documented
    exit codes, and "wrong" when its output misses the expected value."""
    if error is not None:
        return "error", f"raised {error}"
    if code not in DOCUMENTED_EXIT_CODES:
        return "error", f"exit code {code!r} outside {DOCUMENTED_EXIT_CODES}"
    if not op.expect:
        return None
    reports = [p for p in files if not p.name.endswith("_series.csv")]
    if len(reports) != 1:
        return "wrong", f"expected one report file, found {[p.name for p in reports]}"
    fields, rows = read_report(reports[0])
    for key, want in op.expect.items():
        if key == "csv_rows":
            if rows != want:
                return "wrong", f"{rows} rows, expected {want}"
        elif key == "hit_time_near":
            centre, tol = want
            got = fields.get("hit_time", "none")
            if got == "none" or not math.isclose(float(got), centre, abs_tol=tol):
                return "wrong", f"hit_time {got}, expected {centre} +- {tol}"
        elif key == "oracle_max_rel_gap_le":
            got = float(fields.get("oracle_max_rel_gap", "inf"))
            if not got <= want:
                return "wrong", f"oracle_max_rel_gap {got} > {want}"
        elif fields.get(key) != want:
            return "wrong", f"{key} = {fields.get(key)!r}, expected {want!r}"
    return None
