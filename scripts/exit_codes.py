"""Tabulate the exit codes of `criteria` on bad values of every numeric key.

    python3 scripts/exit_codes.py [--root CHECKOUT]

For each config in `CHECKOUT/scripts/configs` and each key of it whose value
is numeric (one number, comma-separated numbers, or a `;`-separated list of
number pairs), sets every number of that value to each of `VALUES` in turn
and calls `volflow.cli.main(["criteria", ...])` in this process, with
`CHECKOUT/src` first on the import path.  The names, kinds, shapes, output
formats and grid field expressions are not numbers here and are not set.

Prints the number of calls, the calls by exit code, the exit-2 calls whose
stderr names no config key (no `key '`), grouped by their stderr, and the
calls that raised a `RuntimeWarning`.  Every failure of a bad value must
map to exit 2 with one line naming the key at fault, and print nothing else.
`CHECKOUT` defaults to the checkout this script lives in.

Exits 1, naming the calls on stderr, when a call raises (a traceback) or
returns an exit code other than 0, 1 or 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

VALUES = ("0", "-1", "1e300", "-1e300", "1e-300", "nan", "inf", "-inf", "1e20", "abc")

SKIPPED = {"name", "flow.kind", "volume.shape", "out.format", "flow.grid.rho",
           "flow.grid.vx", "flow.grid.vy", "flow.grid.S"}


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _groups(text):
    """The numbers of a value as text: its `;`-separated groups of non-blank
    `,`-separated parts."""
    return [[part for part in group.split(",") if part.strip()]
            for group in text.split(";") if group.strip()]


def overrides(text):
    """(key, value) of every numeric key of config `text`, each number of its
    value set to each of `VALUES`."""
    from volflow.config import parse_kv_text

    for key, value in parse_kv_text(text).items():
        groups = _groups(value)
        parts = [part for group in groups for part in group]
        if key in SKIPPED or not parts or not all(map(_is_number, parts)):
            continue
        for bad in VALUES:
            yield key, "; ".join(", ".join(bad for _ in group) for group in groups)


def criteria(path, out_dir):
    """(exit code, stderr, RuntimeWarning raised) of `criteria` on `path`."""
    from volflow.cli import main

    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(["criteria", "--config", str(path), "--out", str(out_dir)])
    return rc, err.getvalue(), any(issubclass(w.category, RuntimeWarning)
                                   for w in caught)


def table(configs, work):
    """The counts of every call on `configs`, and the labels of the calls
    that crashed."""
    counts = {"calls": 0, "exit": Counter(), "no_key": Counter(), "warned": 0}
    crashed = []
    for config in configs:
        text = config.read_text()
        for key, value in overrides(text):
            label = f"{config.stem}: {key} = {value}"
            path = work / "edited.cfg"
            path.write_text(f"{text}\n{key} = {value}\n")
            counts["calls"] += 1
            try:
                rc, err, warned = criteria(path, work / "out")
            except Exception as exc:                    # noqa: BLE001 - a traceback
                crashed.append(f"{label} ({type(exc).__name__}: {exc})")
                continue
            if rc not in (0, 1, 2):
                crashed.append(f"{label} (exit={rc})")
            counts["exit"][rc] += 1
            counts["warned"] += warned
            if rc == 2 and "key '" not in err:
                counts["no_key"][err.strip()] += 1
    return counts, crashed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and scripts/configs/ are run")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        counts, crashed = table(sorted((root / "scripts" / "configs").glob("*.cfg")),
                                Path(tmp))
    print(f"calls: {counts['calls']}")
    for rc, n in sorted(counts["exit"].items()):
        print(f"exit {rc}: {n}")
    print(f"exit 2 naming no key: {sum(counts['no_key'].values())}")
    for message, n in sorted(counts["no_key"].items()):
        print(f"  {n:4d}  {message}")
    print(f"calls with a RuntimeWarning: {counts['warned']}")
    for label in crashed:
        print(f"crashed: {label}", file=sys.stderr)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
