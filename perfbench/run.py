"""volflow benchmark: times the public CLI on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from `src/`.
One single-threaded process drives `volflow.cli.main` in-process, with the
BLAS/OpenMP thread pools pinned to one thread.  The seed only shapes the
generated scenario configs (and the `--seed` of `verify`).

Each run first measures set-up in fresh processes (`probe.py`), then runs one
warm-up pass over the workload's operations, then timed passes until
`--seconds` is spent (at least two).  Every operation of every pass is
checked against its expected outcome (`workloads.check`).  A fixed reference
computation is timed before each operation and after the last; `wall_rel`
is the median over passes of the sum of each operation's time divided by
the mean reference time around it.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates traced
and untraced passes and prints the per-layer metrics (`spans.py`) together
with the tracing overhead against the untraced passes of the same run.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller record (provenance, per-pass times, per-operation
outcomes and sha256 of every file an operation wrote) goes to
`.perfbench_work/results/`, which `compare.py` reads.
"""

import os

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set before numpy is imported here or in any probe process.
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
MIN_TIMED_PASSES = 2
PROBE_TIMEOUT_S = 60
REF_SHARE = 0.05
_REF_POINTS = np.random.default_rng(20051108).random((4096, 2))


def _probe(*args):
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def provenance(seed):
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            git_sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "volflow").rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy
    return {
        "git_sha": git_sha, "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {var: os.environ.get(var) for var in PINNED_THREADS},
        "seed": seed,
    }


def reference_seconds():
    """Time a fixed computation in the style of the program's hot loops:
    array updates over a point cloud and many small-array tests from a
    Python loop.

    It runs between operations.  Dividing operation times by it removes
    much of the drift in machine speed between runs, which on a shared host
    is larger than the bounds the benchmark wants to resolve.  It never
    calls the program, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    x = _REF_POINTS
    acc = 0.0
    for _ in range(200):
        v = np.stack([x[:, 1], -x[:, 0]], axis=-1)
        x = x + 1e-3 * v
        r = np.linalg.norm(x, axis=1)
        acc += float(np.einsum("i,i->", r, r))
        for j in range(12):
            d = x[j + 1:j + 20] - x[j]
            cross = d[:, 0] * v[j, 1] - d[:, 1] * v[j, 0]
            acc += float(np.any(np.minimum(cross, 0.0) < -1e9))
    return time.perf_counter() - t0


def _reference_samples(neighbour_seconds):
    """Time the reference until it has run for REF_SHARE of the longer
    neighbouring operation (from the previous pass), at least once."""
    budget = REF_SHARE * max(neighbour_seconds, default=0.0)
    samples = [reference_seconds()]
    while sum(samples) < budget:
        samples.append(reference_seconds())
    return samples


def run_pass(volflow, workload, work, tracer=None, previous=None):
    """Run every operation once, with the reference timed before each and
    after the last.  `previous` holds the operation times of the previous
    pass; a long operation gets more reference samples around it.

    Returns the summed operation time, the sum of each operation's time over
    the mean of the reference samples on both sides of it, the reference
    samples and the outcomes."""
    out_dirs = [work / "out" / str(i) for i in range(len(workload.operations))]
    for d in out_dirs:
        shutil.rmtree(d, ignore_errors=True)
    patches = spans.Patches(tracer) if tracer is not None else None
    if patches is not None:
        spans.install(patches, volflow)
    gc.collect()
    prev = previous or [0.0] * len(workload.operations)
    raw, refs = [], []
    try:
        for i, (op, out_dir) in enumerate(zip(workload.operations, out_dirs)):
            refs.append(_reference_samples(prev[max(i - 1, 0):i + 1]))
            code = error = None
            buf = io.StringIO()
            t_op = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    code = volflow.cli.main(op.argv + ["--out", str(out_dir)])
            except Exception as exc:  # an operation's failure is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            raw.append((time.perf_counter() - t_op, code, error))
        refs.append(_reference_samples(prev[-1:]))
    finally:
        if patches is not None:
            patches.restore()

    outcomes = []
    for op, out_dir, (seconds, code, error) in zip(workload.operations, out_dirs, raw):
        files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
        verdict = workloads.check(op, code, error, files)
        outcomes.append({
            "op": op.label, "seconds": seconds, "exit_code": code,
            "failure": None if verdict is None else verdict[0],
            "reason": None if verdict is None else verdict[1],
            "sha256": {p.name: _sha256(p) for p in files},
        })
    return {"wall_s": sum(r[0] for r in raw),
            "wall_rel": sum(r[0] / statistics.mean(lo + hi)
                            for r, lo, hi in zip(raw, refs, refs[1:])),
            "ref_s": refs, "operations": outcomes}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "volflow" / "__init__.py").is_file() or \
            not (ROOT / "scripts" / "configs").is_dir():
        print(f"perfbench: no volflow sources under {ROOT}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, ROOT, work)
    cfg_paths = [str(p) for p in workload.configs.values()]

    setups = [_probe("setup", str(SRC), *cfg_paths) for _ in range(SETUP_PROBES)]
    scipy_probes = ([_probe("scipy") for _ in range(SETUP_PROBES)]
                    if args.trace else [])

    sys.path.insert(0, str(SRC))
    import volflow

    passes = []
    traced_totals = {}
    deadline = time.perf_counter() + args.seconds
    passes.append({"kind": "warmup", **run_pass(volflow, workload, work)})
    while True:
        count = {k: sum(p["kind"] == k for p in passes) for k in ("traced", "untraced")}
        if args.trace:
            need = {"traced": 1, "untraced": 1}
            kind = "traced" if count["traced"] <= count["untraced"] else "untraced"
        else:
            need = {"traced": 0, "untraced": MIN_TIMED_PASSES}
            kind = "untraced"
        typical = statistics.median(p["wall_s"] for p in passes)
        if all(count[k] >= n for k, n in need.items()) and \
                time.perf_counter() + typical > deadline:
            break
        tracer = spans.Tracer() if kind == "traced" else None
        previous = [o["seconds"] for o in passes[-1]["operations"]]
        passes.append({"kind": kind,
                       **run_pass(volflow, workload, work, tracer, previous)})
        if tracer is not None:
            spans.accumulate(traced_totals, tracer.spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_outcomes = [o for p in passes for o in p["operations"]]
    attempted = len(all_outcomes)
    failed = sum(o["failure"] is not None for o in all_outcomes)
    correct = not any(o["failure"] == "wrong" for o in all_outcomes)

    def med(key, rows):
        return statistics.median(r[key] for r in rows)

    untraced = [p for p in passes if p["kind"] == "untraced"]
    if args.trace:
        traced = [p for p in passes if p["kind"] == "traced"]
        metrics = {name: _metric(v, unit) for name, (v, unit) in
                   spans.layer_metrics(traced_totals, len(traced)).items()}
        metrics.update({
            "config.load_s": _metric(med("load_s", setups), "s"),
            "config.build_flow_s": _metric(med("build_flow_s", setups), "s"),
            "config.build_volume_s": _metric(med("build_volume_s", setups), "s"),
            "import.scipy_s": _metric(med("import_scipy_s", scipy_probes), "s"),
            "trace.wall_s": _metric(med("wall_s", traced), "s"),
            "trace.untraced_wall_s": _metric(med("wall_s", untraced), "s"),
            "trace.overhead_pct": _metric(
                100.0 * (med("wall_rel", traced) / med("wall_rel", untraced) - 1.0), "%"),
        })
    else:
        metrics = {
            "wall_rel": _metric(med("wall_rel", untraced), "ref"),
            "setup_s": _metric(med("setup_s", setups), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "pass_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed), "result": result,
        "setup_probes": setups, "scipy_probes": scipy_probes,
        "passes": passes,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for o in all_outcomes:
        if o["failure"] is not None:
            print(f"# failed: {o['op']}: {o['reason']}")
            break
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# untraced pass wall time: median {med('wall_s', untraced):.6g} s "
          f"over {len(untraced)} passes")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
