import importlib.util
from pathlib import Path

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
    # Every numeric key the loader reads of each shipped config, with every
    # bad value (and 10**9 for an integer key): `sweep` on the sweep keys,
    # `criteria` on the others.
    exit_codes = _load("exit_codes")
    counts, crashed = exit_codes.table(sorted((SCRIPTS / "configs").glob("*.cfg")),
                                       tmp_path)
    assert (counts["calls"], crashed, counts["warned"]) == (1282, [], 0)
    assert set(counts["exit"]) <= {0, 1, 2}
    # Every refused value is named: the time-zero sample's, and a sweep
    # key that is missing.
    assert counts["no_key"] == {}
    # A sweep row sets the other sweep key too, so it reaches its bad value.
    assert not any("sweep needs both" in line for line in counts["exit2"])


def test_exit_codes_keys_come_from_the_loader(tmp_path):
    # Keys that a config leaves out still get rows: volume.refine (read with
    # its default) and flow.grid.max_grad (read only when set).
    exit_codes = _load("exit_codes")
    keys, integers = exit_codes.read_keys(SCRIPTS / "configs" / "arc_live.cfg")
    assert "volume.refine" in keys and "volume.refine" in integers
    assert "volume.quad_order" not in keys          # not a polygon's key
    text = (SCRIPTS / "configs" / "radial_inflow.cfg").read_text()
    path = tmp_path / "unguarded.cfg"
    path.write_text("\n".join(line for line in text.splitlines()
                              if not line.startswith("flow.grid.max_grad")))
    rows = list(exit_codes.overrides(path))
    assert ("flow.grid.max_grad", "abc") in rows
    assert ("flow.grid.n", exit_codes.HUGE) in rows
    assert ("flow.grid.box", exit_codes.HUGE) not in rows
