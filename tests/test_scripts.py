import importlib.util
from pathlib import Path

from volflow.cli import main
from volflow.config import _KEYS, load_config, parse_kv_text

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment counts as code


# a comment line
class A:
    """Class docstring."""

    x = (1,
         2)


def f(a):
    """Function docstring.

    More of it.
    """
    text = """a string
that is not a docstring"""
    return math.sqrt(a)
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # Code lines: the import, `class A:`, the two lines of x, `def f(a):`,
    # the two lines of the string assignment and the return.
    assert _load("code_lines").code_lines(SAMPLE) == 8


def test_code_lines_prints_each_module_and_the_total(capsys):
    code_lines = _load("code_lines")
    assert code_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(p.name for p in (SCRIPTS.parent / "src" / "volflow").glob("*.py"))
    assert [name for _, _, name in rows] == modules + ["total"]
    for column in (0, 1):           # code lines, defaulted parameters
        assert sum(int(row[column]) for row in rows[:-1]) == int(rows[-1][column])


def test_defaulted_params_count_every_parameter_with_a_default():
    # b, d (keyword-only), y (a lambda's), e (an async function's) and k (a
    # method's); c is keyword-only without a default.
    text = ("def f(a, b=1, *, c, d=2):\n    return lambda x, y=0: x\n\n\n"
            "async def g(e=None):\n    pass\n\n\n"
            "class A:\n    def m(self, k=3):\n        return k\n")
    code_lines = _load("code_lines")
    assert code_lines.defaulted_params(text) == 5
    assert code_lines.defaulted_params(SAMPLE) == 0


def test_defaulted_params_count_class_fields_with_a_default():
    # b and c are dataclass fields with a default, y a NamedTuple's; a has
    # none, and neither the plain assignment k nor the method body's
    # annotated local z is a field.
    text = ("@dataclass\nclass A:\n    a: int\n    b: int = 1\n"
            "    c: tuple = ()\n    k = 2\n\n"
            "    def m(self):\n        z: int = 0\n        return z\n\n\n"
            "class P(NamedTuple):\n    x: float\n    y: float = 0.0\n")
    assert _load("code_lines").defaulted_params(text) == 3


def test_output_digest_lists_every_shipped_config_and_the_verify_ones():
    digest = _load("output_digest")
    stems = sorted(p.stem for p in (SCRIPTS / "configs").glob("*.cfg"))
    labels = [label for label, _ in digest.operations(SCRIPTS.parent)]
    assert labels == ([f"{command}/{stem}" for command in ("criteria", "run", "sweep")
                       for stem in stems]
                      + [f"verify/{name}" for name in digest.VERIFY_CONFIGS])
    assert set(digest.VERIFY_CONFIGS) <= set(stems) and len(digest.VERIFY_CONFIGS) == 4


def test_output_digest_names_a_crashing_call_and_exits_1(tmp_path, capsys):
    # A checkout whose CLI raises: every call writes a traceback and exits 1.
    package = tmp_path / "src" / "volflow"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("raise RuntimeError('broken entry point')\n")
    (tmp_path / "scripts" / "configs").mkdir(parents=True)
    (tmp_path / "scripts" / "configs" / "demo.cfg").write_text("name = demo\n")
    assert _load("output_digest").main(["--root", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"crashed: {command}/demo (exit=1)"
                                         for command in ("criteria", "run", "sweep")]
    assert len(captured.out.splitlines()) == 9     # stdout, stderr, exit per call


def test_exit_codes_table_on_every_config(tmp_path):
    # Every numeric key whose row applies to each shipped config, with every
    # bad value (and 10**9 for an integer key) and each bound of its row and
    # the value across it: `sweep` on the sweep keys, `run` on the keys of a
    # run's work, `criteria` on the others.
    exit_codes = _load("exit_codes")
    counts, crashed = exit_codes.table(sorted((SCRIPTS / "configs").glob("*.cfg")),
                                       tmp_path)
    assert (counts["calls"], crashed, counts["warned"]) == (1409, [], 0)
    # A bad value is refused or makes no claim: it never fails a check.
    assert set(counts["exit"]) <= {0, 2}
    # Every refused value is named: the time-zero sample's, and a sweep
    # key that is missing.
    assert counts["no_key"] == {}
    # A sweep row sets the other sweep key too, so it reaches its bad value.
    assert not any("sweep needs both" in line for line in counts["exit2"])


def test_exit_codes_rows_come_from_the_table(tmp_path):
    # Keys that a config leaves out still get rows: volume.refine (read with
    # its default) and flow.grid.max_grad (read only when set).
    exit_codes = _load("exit_codes")
    rows = list(exit_codes.overrides(SCRIPTS / "configs" / "arc_live.cfg"))
    assert ("volume.refine", exit_codes.HUGE) in rows
    assert not any(key == "volume.quad_order" for key, _ in rows)    # a round key
    # A bound and the value across it: gamma > 1, a positive T.
    assert {("gamma", "1.0000000000000002"), ("gamma", "1.0"), ("T", "5e-324"),
            ("T", "0.0")} <= set(rows)
    text = (SCRIPTS / "configs" / "radial_inflow.cfg").read_text()
    path = tmp_path / "unguarded.cfg"
    path.write_text("\n".join(line for line in text.splitlines()
                              if not line.startswith("flow.grid.max_grad")))
    rows = list(exit_codes.overrides(path))
    assert ("flow.grid.max_grad", "abc") in rows
    assert {("flow.grid.n", exit_codes.HUGE), ("flow.grid.n", "15"),
            ("flow.grid.n", "1025")} <= set(rows)
    assert ("flow.grid.box", exit_codes.HUGE) not in rows
    # Just inside min < max: a box one float wide.
    assert ("flow.grid.box", "1e-300, 1.0000000000000002e-300") in rows
    assert len(rows) == len(set(rows))


def test_config_table_rows_are_the_keys_the_loader_accepts(tmp_path, capsys):
    # On every shipped config the rows of `_KEYS` whose scope holds its flow
    # kind and shape are the keys the loader accepts: setting one of them to
    # the config's value (or its default) loads the same config, and setting
    # a key of any other row exits 2, naming it.
    for path in sorted((SCRIPTS / "configs").glob("*.cfg")):
        text, cfg = path.read_text(), load_config(path)
        raw = parse_kv_text(text)
        edited = tmp_path / path.name
        for name, _, default, scope, _ in _KEYS:
            value = raw.get(name, default if isinstance(default, str) else "1.0")
            edited.write_text(f"{text}\n{name} = {value}\n")
            if scope is None or raw["flow.kind"] in scope or raw["volume.shape"] in scope:
                assert load_config(edited) == cfg, (path.stem, name)
                continue
            assert main(["criteria", "--config", str(edited), "--out",
                         str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == (
                f"config error: key {name!r} is not a setting of this scenario\n")
