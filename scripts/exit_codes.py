"""Tabulate the exit codes of the CLI on bad values of every numeric key.

    python3 scripts/exit_codes.py [--root CHECKOUT]

For each config in `CHECKOUT/scripts/configs` and each key that
`volflow.config.load_config` reads of it, set or absent (a defaulted key
that the config leaves out gets rows too), sets every number of the key's
value to each of `VALUES` in turn, and to `HUGE` as well for the keys that
the loader parses as integers, and calls `volflow.cli.main` in this
process, with `CHECKOUT/src` first on the import path: `sweep` on the
`sweep.q` and `sweep.epsilon` rows, which only it reads, and `criteria` on
the others.  A sweep needs both keys, so a row of one of them on a config
that lacks the other sets the other too, to the config's own `q` or
`epsilon`, and reaches its bad value.  A value is one number,
comma-separated numbers, or a `;`-separated list of number pairs; an
absent key's value is one number.
The names, kinds, shapes, output formats and grid field expressions are
not numbers here and are not set.

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
from unittest import mock

VALUES = ("0", "-1", "1e300", "-1e300", "1e-300", "nan", "inf", "-inf", "1e20", "abc")
# A valid integer too large to build: the loader must refuse it by its size.
HUGE = str(10 ** 9)

# The other key of a sweep key, and the key whose value it takes.
SWEEP_PARTNERS = {"sweep.q": ("sweep.epsilon", "epsilon"),
                  "sweep.epsilon": ("sweep.q", "q")}

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


def read_keys(path):
    """The keys that `load_config` asks for on the config `path`, set or
    not, in the order it asks, and those of them it parses as integers.

    Hooks two private names of `volflow.config` for the one call: the
    parsed-key dict `_ReadKeys` (subclassed to record the loader's `in`
    tests) and the integer reader `_int` (wrapped to record its keys).  A
    renamed one fails the patch, and one that stops seeing the keys fails
    `tests/test_scripts.py::test_exit_codes_keys_come_from_the_loader`."""
    from volflow import config

    asked, integers = {}, set()

    class Asking(config._ReadKeys):
        def __contains__(self, key):
            asked[key] = None
            return super().__contains__(key)

    def integer(raw, key, default=None):
        integers.add(key)
        return parse_int(raw, key, default)

    parse_int = config._int
    with mock.patch.multiple(config, _ReadKeys=Asking, _int=integer):
        config.load_config(path)
    return list(asked), integers


def overrides(path):
    """(key, value) of every numeric key that `load_config` reads of the
    config `path`, each number of its value set to each of `VALUES` (and
    `HUGE` for an integer key)."""
    from volflow.config import parse_kv_text

    raw = parse_kv_text(path.read_text())
    keys, integers = read_keys(path)
    for key in keys:
        groups = _groups(raw.get(key, "0"))
        parts = [part for group in groups for part in group]
        if key in SKIPPED or not parts or not all(map(_is_number, parts)):
            continue
        for bad in VALUES + ((HUGE,) if key in integers else ()):
            yield key, "; ".join(", ".join(bad for _ in group) for group in groups)


def call(command, path, out_dir):
    """(exit code, stderr, RuntimeWarning raised) of `command` on `path`."""
    from volflow.cli import main

    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main([command, "--config", str(path), "--out", str(out_dir)])
    return rc, err.getvalue(), any(issubclass(w.category, RuntimeWarning)
                                   for w in caught)


def table(configs, work):
    """The counts of every call on `configs` (by exit code, the exit-2
    lines and those of them that name no key, and the calls that warned),
    and the labels of the calls that crashed."""
    from volflow.config import parse_kv_text

    counts = {"calls": 0, "exit": Counter(), "exit2": Counter(), "warned": 0}
    crashed = []
    for config in configs:
        text = config.read_text()
        raw = parse_kv_text(text)
        for key, value in overrides(config):
            label = f"{config.stem}: {key} = {value}"
            lines = f"{key} = {value}\n"
            other, source = SWEEP_PARTNERS.get(key, (None, None))
            if other is not None and other not in raw:
                lines += f"{other} = {raw[source]}\n"
            path = work / "edited.cfg"
            path.write_text(f"{text}\n{lines}")
            counts["calls"] += 1
            command = "sweep" if key.startswith("sweep.") else "criteria"
            try:
                rc, err, warned = call(command, path, work / "out")
            except Exception as exc:                    # noqa: BLE001 - a traceback
                crashed.append(f"{label} ({type(exc).__name__}: {exc})")
                continue
            if rc not in (0, 1, 2):
                crashed.append(f"{label} (exit={rc})")
            counts["exit"][rc] += 1
            counts["warned"] += warned
            if rc == 2:
                counts["exit2"][err.strip()] += 1
    counts["no_key"] = Counter({line: n for line, n in counts["exit2"].items()
                                if "key '" not in line})
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
