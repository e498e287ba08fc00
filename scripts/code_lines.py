"""Count the code lines and the defaulted parameters of each `src/volflow`
module and their totals.

    python3 scripts/code_lines.py [--root CHECKOUT]

A code line is a source line that holds a token of code: blank lines,
comment lines and the lines of docstrings (the leading string of a module,
class or function body) do not count.  A defaulted parameter is a parameter
of a function or lambda that has a default value, or an annotated class
field with one (`name: type = value` in a class body, a dataclass or
NamedTuple constructor parameter): a value a caller may leave unset.  Prints one `lines  defaults  module` row per module of
`CHECKOUT/src/volflow`, sorted by name, then `lines  defaults  total`.
`CHECKOUT` defaults to the checkout this script lives in.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """The line numbers that docstrings span in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines of Python source `text`."""
    docstrings = _docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in docstrings)
    return len(lines)


def defaulted_params(text):
    """The number of function and lambda parameters and of annotated class
    fields with a default value in Python source `text`."""
    count = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += (len(node.args.defaults)
                      + sum(d is not None for d in node.args.kw_defaults))
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/volflow modules are counted")
    args = parser.parse_args(argv)
    total = defaults_total = 0
    for path in sorted((args.root / "src" / "volflow").glob("*.py")):
        text = path.read_text()
        count, defaults = code_lines(text), defaulted_params(text)
        total += count
        defaults_total += defaults
        print(f"{count:6d}  {defaults:4d}  {path.name}")
    print(f"{total:6d}  {defaults_total:4d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
