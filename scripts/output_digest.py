"""Digest every CLI output on the shipped configs, for byte-identity checks.

    python3 scripts/output_digest.py [--root CHECKOUT]

Runs `criteria`, `run` and `sweep` on every config in
`CHECKOUT/scripts/configs`, and `verify --seed 7` on lemmas_expansion,
expansion_outflow, radial_inflow and arc_live (those of them the checkout
ships), each as `python -m volflow` in a fresh process with
`PYTHONPATH=CHECKOUT/src`.  Prints one `sha256  artifact` line
per stdout, stderr, exit code and output file, in a fixed order, so that two
checkouts (say, a parent commit and a change) compare with `diff`.
`CHECKOUT` defaults to the checkout this script lives in.

Exits 1, naming the calls on stderr, when any call exits with a code other
than 0, 1 or 2 or writes a Python traceback to stderr: every failure of the
CLI must map to its documented exit codes.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VERIFY_CONFIGS = ("lemmas_expansion", "expansion_outflow", "radial_inflow",
                  "arc_live")
VERIFY_SEED = "7"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def operations(root):
    """(label, argv) of every digested CLI call, in output order."""
    configs = sorted((root / "scripts" / "configs").glob("*.cfg"))
    ops = []
    for command in ("criteria", "run", "sweep"):
        for path in configs:
            ops.append((f"{command}/{path.stem}", [command, "--config", str(path)]))
    for name in VERIFY_CONFIGS:
        path = root / "scripts" / "configs" / f"{name}.cfg"
        if not path.exists():           # an older checkout
            continue
        ops.append((f"verify/{name}",
                    ["verify", "--config", str(path), "--seed", VERIFY_SEED]))
    return ops


def digest(root, work, crashed):
    """Yield `sha256  artifact` lines for every operation of `root`; append
    the label of each call that crashed to `crashed`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for label, argv in operations(root):
        out_dir = work / label.replace("/", "_")
        proc = subprocess.run([sys.executable, "-m", "volflow", *argv,
                               "--out", str(out_dir)],
                              capture_output=True, env=env, cwd=work, timeout=600)
        if proc.returncode not in (0, 1, 2) or b"Traceback (most recent call last)" \
                in proc.stderr:
            crashed.append(f"{label} (exit={proc.returncode})")
        yield f"{_sha(proc.stdout)}  {label}/stdout"
        yield f"{_sha(proc.stderr)}  {label}/stderr"
        yield f"{_sha(str(proc.returncode).encode())}  {label}/exit={proc.returncode}"
        files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
        for path in files:
            yield f"{_sha(path.read_bytes())}  {label}/{path.name}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and scripts/configs/ are run")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    crashed = []
    with tempfile.TemporaryDirectory() as tmp:
        for line in digest(root, Path(tmp), crashed):
            print(line, flush=True)
    for label in crashed:
        print(f"crashed: {label}", file=sys.stderr)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
