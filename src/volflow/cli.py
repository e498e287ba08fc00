"""Command-line front end: criteria, run, verify and sweep subcommands.

    volflow {criteria,run,sweep} --config FILE [--out DIR]
    volflow verify --config FILE [--out DIR] [--seed N]

`--out` (default `out`) is the output directory and `--seed` (default 0, a
non-negative integer) seeds the randomized oracle cases of `verify`; every
other setting comes from the config file.  Its `out.format` key picks flat
`key: value` reports (`report`) or one-header CSV (`csv`) for `criteria`,
`run` and `sweep`; `verify` always writes `key: value` lines.  Time series
land in a fixed-schema CSV (`t,m,E,G,F,I1,I2,I3,I4,reg,dist,Qq`).  All
floating-point output goes through repr() of a Python float, so identical
configurations and seeds produce byte-identical files and stdout.

Exit codes: 0 when everything passed, 1 when some check failed (a VIOLATION
verdict, a failed lemma/oracle check, a bounds-chain failure), 2 for
configuration, precondition or output errors, each as one line on stderr.

The rule of the exit-2 lines: a ValueError is always the config's fault,
and its message names the key at fault.  `main` prints every ValueError
that reaches it as a `config error:` line: a `config.ConfigError`, a
run that `verify` refuses over its work budget, and a not-smooth flow
(`flowfield.NotSmooth`) or a node at the target
(`functionals.TargetReached`), which the subcommand that read them
re-raises naming its key (`verify.times`, `sweep.q`; `run` instead ends
its horizon there and reports it).  The errors of a run
that are not ValueErrors name no key, and `main` names it for the three
that reach it: `solver.CFLViolation` (`flow.grid.dt`),
`matvol.SelfIntersection` (`volume.markers`) and `OverflowError` (`q` or
`epsilon`; `sweep.q` or `sweep.epsilon` for `sweep`).  An output
directory or file that cannot be created or written is one `output
error:` line.

Among the config errors: a config file that cannot be read, a
command-line argument argparse rejects (such as a negative `--seed`), a
config key the loader does not read, a size key (`volume.markers`,
`volume.quad_order`, `volume.refine`, `flow.grid.n`) out of its range, a
`flow.grid.dt` above the grid solver's CFL limit at some step, a `run` or
`verify` whose `dt` is longer than `T`, or whose work (the RK steps of
its markers and nodes, and the grid solver's steps of its cells, up to
`T` and `verify.times`) `verify` estimates over its budget of
`verify.MAX_WORK_S` seconds, or that takes more than `verify.MAX_SAMPLES`
sample instants, `verify.times` whose lemma differences (step h) reach
outside the flow's time window, past the time
at which a grid solver loses smoothness, or to a flow that is not smooth
where they read it, or that put the boundary within epsilon of x0, or x0
inside the volume, at a lemma time, a `q` and an `epsilon` that put a
power of epsilon in the threshold algebra out of float range, a
time-zero sample that is not finite (naming the keys its failed
functionals read; `sweep.q` for the exponents of `sweep`), a `sweep`
without `sweep.q` or `sweep.epsilon`, an `x0` so far from `volume.center`
(or `volume.vertices`) that their distance overflows, `volume.vertices`
that do not make a simple polygon of nonzero area, and a boundary loop
that crosses itself or another loop after an advection (`volume.markers`
too few to resolve it).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import criteria as crit_mod
from . import verify as verify_mod
from .config import ConfigError, build_scenario, load_config
from .functionals import sample
# boundary_distance is not called here; the benchmark's tracer
# (perfbench/spans.py) wraps this module's binding of it.
from .matvol import SelfIntersection, advect, boundary_distance  # noqa: F401
from .solver import CFLViolation, SmoothnessLost

__all__ = ["main", "entry", "CSV_HEADER"]

CSV_HEADER = ",".join(verify_mod.SeriesRow._fields)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


class _OutputError(Exception):
    """An output directory or file that cannot be created or written."""


def _write(path, lines):
    """Write `lines` to `path`, one per line, and return the text: the one
    writer of output files."""
    text = "\n".join(lines) + "\n"
    try:
        path.write_text(text)
    except OSError as exc:
        raise _OutputError(f"cannot write '{path}': {exc.strerror or exc}") from exc
    return text


def _emit(lines, out_path):
    """Write `lines` to `out_path`, then to stdout."""
    sys.stdout.write(_write(out_path, lines))


def _kv_lines(pairs):
    return [f"{k}: {_fmt(v)}" for k, v in pairs]


def _csv_lines(header, rows):
    return [header, *(",".join(_fmt(v) for v in row) for row in rows)]


def _emit_report(cfg, pairs, out_dir, kind):
    """Write (key, value) pairs as `key: value` lines or a one-row CSV, as
    `out.format` asks, to `<name>_<kind>.txt` or `.csv`."""
    if cfg.out_format == "csv":
        lines = _csv_lines(",".join(k for k, _ in pairs), [[v for _, v in pairs]])
        suffix = "csv"
    else:
        lines = _kv_lines(pairs)
        suffix = "txt"
    _emit(lines, out_dir / f"{cfg.name}_{kind}.{suffix}")


def _criteria_pairs(cfg, inp, report):
    pairs = [
        ("report", "criteria"), ("name", cfg.name),
        ("dimension", inp.n), ("gamma", cfg.gamma), ("q", cfg.q),
        ("epsilon", cfg.epsilon), ("T", cfg.T), ("M", cfg.M), ("s0", inp.s0),
        ("m", inp.m), ("E", inp.E), ("G0", inp.G0), ("d_init", inp.d_init),
        ("sigma_n", report.sigma_n), ("C1", report.C1), ("C3", report.C3),
        ("C", report.C), ("Q0", report.Q0), ("R0", report.R0),
        ("case", report.case), ("delta", report.delta),
        ("cond10", report.cond10), ("cond10_holds", report.cond10_holds),
        ("nec_ok", report.nec_ok),
    ]
    for rec in report.nec_detail:
        pairs += [(f"nec[{rec.name}].lhs", rec.lhs),
                  (f"nec[{rec.name}].rhs", rec.rhs),
                  (f"nec[{rec.name}].slack", rec.slack),
                  (f"nec[{rec.name}].ok", rec.ok)]
    return pairs


def _cmd_criteria(scenario, out_dir):
    cfg, inp = scenario.cfg, scenario.inp
    report = crit_mod.evaluate(inp)
    _emit_report(cfg, _criteria_pairs(cfg, inp, report), out_dir, "criteria")
    return 0


def _cmd_run(scenario, out_dir):
    cfg = scenario.cfg
    report = verify_mod.run_theorem_scenario(scenario)
    pairs = [
        ("report", "run"), ("name", cfg.name), ("verdict", report.verdict),
        ("hit_time", report.hit_time), ("horizon", report.horizon),
        ("T", cfg.T), ("dt", cfg.dt), ("epsilon", cfg.epsilon), ("q", cfg.q),
        ("M", cfg.M), ("case", report.criteria.case),
        ("Q0", report.criteria.Q0), ("R0", report.criteria.R0),
        ("delta", report.criteria.delta), ("cond10", report.criteria.cond10),
        ("cond10_holds", report.criteria.cond10_holds), ("nec_ok", report.criteria.nec_ok),
        ("E_drift", report.E_drift), ("reg_max", report.reg_max),
        ("bounds_checked", report.bounds_checked),
        ("bounds_failed", len(report.bounds_failures)),
        ("series_rows", len(report.series)),
        ("detail", report.detail or "none"),
    ]
    # The series first, so that an output error leaves stdout empty.
    _write(out_dir / f"{cfg.name}_series.csv", _csv_lines(CSV_HEADER, report.series))
    _emit_report(cfg, pairs, out_dir, "report")
    return 1 if report.verdict == "VIOLATION" or report.bounds_failures else 0


def _check_pairs(idx, rep):
    tag = f"check[{idx}]"
    return [(f"{tag}.name", rep.name), (f"{tag}.t", rep.t),
            (f"{tag}.lhs", rep.lhs), (f"{tag}.rhs", rep.rhs),
            (f"{tag}.slack", rep.slack), (f"{tag}.passed", rep.passed)]


def _lemma_checks(flow, vol, t, cfg):
    """The lemma checks at time t, on `vol` advected there unless it is at
    t, and the volume at t; a ValueError is the fault of 'verify.times'."""
    try:
        if vol.time != t:
            vol = advect(vol, flow, t, cfg.dt)
        return vol, verify_mod.check_lemma_suite(flow, vol, cfg.q, cfg.epsilon)
    except ValueError as exc:
        # Among them a flow that is not smooth where the lemmas read it, a
        # node at the target, x0 inside the volume and a boundary within
        # epsilon of x0 at a lemma time, which the lemmas refuse.
        raise ConfigError(f"key 'verify.times': {exc}") from exc


def _cmd_verify(scenario, out_dir, seed):
    cfg, flow = scenario.cfg, scenario.flow
    times = sorted(cfg.verify_times)
    h = verify_mod.LEMMA_H
    # Built first, the stepper refuses a run over the work budget before
    # the precondition pass steps the flow.
    steps = verify_mod._SampleSteps(scenario, times)
    try:
        # The lemma differences reach t - h, which must lie in the flow's
        # time window, and t + h, up to which the flow must stay smooth.
        # The check holds only the last few snapshots; the theorem run
        # re-steps the rest once from time zero.
        flow.keep_from(times[-1] + 2.0 * h)
        flow.advance_to(times[-1] + 2.0 * h)
        flow.check_time(times[0] - h)
    except SmoothnessLost as exc:
        raise ConfigError(
            f"key 'verify.times': the grid solver lost smoothness at "
            f"t={exc.time}, before the lemma times {cfg.verify_times}") from exc
    except ValueError as exc:
        raise ConfigError(f"key 'verify.times': {exc}") from exc

    # One pass advects the volume: the lemmas are checked as the theorem run
    # passes each lemma time, on the run's own volume at a sample instant,
    # else on the sampled volume before it, advected there.  The lemma times
    # past the run's end (T, a hit, a flow that is not smooth) advect on
    # from its last sampled volume, each from the one before.
    pending, samples, checks = list(times), [], []
    for prev, vol, s, dist in steps:
        while pending and pending[0] <= vol.time:
            t = pending.pop(0)
            checks += _lemma_checks(flow, vol if t == vol.time else prev, t, cfg)[1]
        samples.append((s, dist))
    for t in pending:
        vol, found = _lemma_checks(flow, vol, t, cfg)
        checks += found

    run_report = verify_mod._theorem_report(steps, samples)
    checks += verify_mod.check_inequality17(run_report.series, scenario.inp,
                                            run_report.criteria.C)
    checks += run_report.bounds_failures
    oracle_cases, oracle_failed, max_gap = verify_mod.score_oracle(seed)

    failed = [c for c in checks if not c.passed]
    pairs = [
        ("report", "verify"), ("name", cfg.name), ("seed", seed),
        ("checks_total", len(checks)), ("checks_failed", len(failed)),
        ("oracle_cases", oracle_cases), ("oracle_failed", oracle_failed),
        ("oracle_max_rel_gap", max_gap), ("run_verdict", run_report.verdict),
        ("result", "pass" if not failed and not oracle_failed else "fail"),
    ]
    for idx, rep in enumerate(checks):
        pairs += _check_pairs(idx, rep)
    _emit(_kv_lines(pairs), out_dir / f"{cfg.name}_verify.txt")
    return 1 if failed or oracle_failed else 0


def _cmd_sweep(scenario, out_dir):
    cfg, flow, vol = scenario.cfg, scenario.flow, scenario.vol
    if not cfg.sweep_q or not cfg.sweep_epsilon:
        key = "sweep.epsilon" if cfg.sweep_q else "sweep.q"
        raise ConfigError(f"key {key!r}: sweep needs both 'sweep.q' and 'sweep.epsilon'")
    for qv in cfg.sweep_q:
        if not crit_mod.q_admissible(qv, cfg.gamma, flow.dimension):
            bound = crit_mod.q_admissible_bound(cfg.gamma, flow.dimension)
            raise ConfigError(f"key 'sweep.q': {qv} not admissible (needs < {bound})")
    d_init = scenario.inp.d_init
    for ev in cfg.sweep_epsilon:
        if not 0.0 < ev < d_init:
            raise ConfigError(
                f"key 'sweep.epsilon': {ev} must satisfy 0 < epsilon < {d_init}")

    rows = []
    for qv in cfg.sweep_q:
        try:
            g0 = sample(flow, vol, qv).G
        except ValueError as exc:
            raise ConfigError(f"key 'sweep.q': {qv}: {exc}") from exc
        c10 = crit_mod.condition10(vol, flow, qv)
        for ev in cfg.sweep_epsilon:
            # Mass, energy and d_init do not depend on q or epsilon.
            report = crit_mod.evaluate(
                replace(scenario.inp, q=qv, epsilon=ev, G0=g0, cond10=c10))
            rows.append((qv, ev, report.Q0, report.R0, report.case, report.delta,
                         c10, report.nec_ok))

    header = "q,epsilon,Q0,R0,case,delta,cond10,nec_ok"
    if cfg.out_format == "report":
        pairs = [("report", "sweep"), ("name", cfg.name), ("rows", len(rows))]
        for i, row in enumerate(rows):
            for key, v in zip(header.split(","), row):
                pairs.append((f"row[{i}].{key}", v))
        lines = _kv_lines(pairs)
        suffix = "txt"
    else:
        lines = _csv_lines(header, rows)
        suffix = "csv"
    _emit(lines, out_dir / f"{cfg.name}_sweep.{suffix}")
    return 0


def _seed(text):
    """The `--seed` value: a non-negative integer, in decimal digits."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="volflow",
        description="Material-volume attainment thresholds in smooth compressible flows")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("criteria", "run", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default="out", help="output directory")
        if name == "verify":
            p.add_argument("--seed", type=_seed, default=0,
                           help="seed of the randomized oracle cases")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        scenario = build_scenario(cfg)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _OutputError(f"cannot create the output directory '{out_dir}': "
                               f"{exc.strerror or exc}") from exc
        if args.command == "criteria":
            return _cmd_criteria(scenario, out_dir)
        if args.command == "run":
            return _cmd_run(scenario, out_dir)
        if args.command == "verify":
            return _cmd_verify(scenario, out_dir, args.seed)
        return _cmd_sweep(scenario, out_dir)
    except CFLViolation as exc:
        print(f"config error: key 'flow.grid.dt': {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        # Python float powers raise it: in the threshold algebra and its
        # checks, the powers of epsilon whose exponents are made of q.
        keys = ("'sweep.q' or 'sweep.epsilon'" if args.command == "sweep"
                else "'q' or 'epsilon'")
        print(f"config error: key {keys}: a power of epsilon overflows", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except SelfIntersection as exc:
        print(f"config error: key 'volume.markers': {exc}; too few markers "
              f"to resolve the boundary", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
