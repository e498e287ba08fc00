"""Compare two sets of benchmark records: a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or single files) of the records `run.py`
writes to `.perfbench_work/results/`, made with the same benchmark code and
`--seconds`.  Untraced records are paired by (workload, seed).  For every
end-to-end metric in BENCHMARK.json and every workload, the tool prints each
side's median and quartiles, the pairs the change won, and one verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither), its median beats the parent's by more than the
              parent's quartile spread, and no larger share of operations
              fails than at the parent
  no worse    the change's median is not worse than the parent's by more
              than the metric's bound
  worse       it is worse by more than the bound
  unresolved  the parent's quartile spread is wider than the bound, and not
              every change run reads better than every parent run
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path):
    """Untraced records under `path`, keyed by (workload, seed); last wins."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        rec = json.loads(f.read_text())
        if rec.get("trace") == 0:
            out[(rec["workload"], rec["seed"])] = rec
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _gain(old, new, better):
    """Positive when `new` reads better than `old`."""
    return old - new if better == "lower" else new - old


def wins(pairs, better):
    return sum(_gain(p, c, better) > 0 for p, c in pairs)


def verdict(parent, change, pairs, bound, better, fail_parent, fail_change):
    """Classify one (metric, workload); `pairs` holds (parent, change) values."""
    def gain(old, new):
        return _gain(old, new, better)

    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    spread = q3 - q1
    if (pairs and wins(pairs, better) >= WIN_SHARE * len(pairs)
            and gain(pm, cm) > spread and fail_change <= fail_parent):
        return "improved"
    scale = abs(pm) if pm else 1.0
    if len(parent) < 2 or spread > bound * scale:
        if all(gain(p, c) > 0 for p in parent for c in change):
            return "no worse"
        return "unresolved"
    return "worse" if -gain(pm, cm) > bound * scale else "no worse"


def _fail_share(records):
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / attempted


def compare(parent_recs, change_recs, spec):
    rows = []
    workloads = sorted({w for w, _ in parent_recs} & {w for w, _ in change_recs})
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for w in workloads:
            p_by_seed = {s: r for (wl, s), r in parent_recs.items() if wl == w}
            c_by_seed = {s: r for (wl, s), r in change_recs.items() if wl == w}

            def value(rec):
                return rec["result"]["metrics"][name]["value"]

            p_vals = [value(r) for r in p_by_seed.values()]
            c_vals = [value(r) for r in c_by_seed.values()]
            pairs = [(value(p_by_seed[s]), value(c_by_seed[s]))
                     for s in sorted(p_by_seed.keys() & c_by_seed.keys())]
            rows.append({
                "metric": name, "unit": metric["unit"], "workload": w,
                "parent": (statistics.median(p_vals), *_quartiles(p_vals), len(p_vals)),
                "change": (statistics.median(c_vals), *_quartiles(c_vals), len(c_vals)),
                "wins": wins(pairs, metric["better"]), "pairs": len(pairs),
                "verdict": verdict(p_vals, c_vals, pairs, metric["bound"],
                                   metric["better"],
                                   _fail_share(p_by_seed.values()),
                                   _fail_share(c_by_seed.values())),
            })
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    if not parent or not change:
        print("compare: no untraced records on one side", file=sys.stderr)
        return 2
    print(f"{'metric':<12} {'workload':<14} {'parent median [q1, q3] n':<34} "
          f"{'change median [q1, q3] n':<34} {'won':>7}  verdict")
    for row in compare(parent, change, spec):
        sides = ["%.4g [%.4g, %.4g] %d" % side for side in (row["parent"], row["change"])]
        print(f"{row['metric']:<12} {row['workload']:<14} {sides[0]:<34} "
              f"{sides[1]:<34} {row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}"
              f"  ({row['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
