"""The registry reads a method's source off its code object's line table.

The text must parse and lower exactly as ``inspect.getsource``'s does —
for every shape in ``source_shapes.py``, for every function the six apps
register, and on the ``inspect`` fallback Python 3.10 takes — and a
module rewritten on disk and reloaded must be read afresh.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import source_shapes
from repro.apps import all_builders
from repro.ril import CFGRegistry, RegistrationError, fingerprint, registry
from repro.ril.lower import LoweringError, lower_function

LINE_TABLE = sys.version_info >= (3, 11)

METHOD_SHAPES = [f for f in vars(source_shapes.Shapes).values()
                 if inspect.isfunction(f)]
SHAPES = METHOD_SHAPES + [
    f for name, f in vars(source_shapes).items()
    if inspect.isfunction(f) and not name.startswith("_")]


def _front_end(text):
    """What the front end makes of ``text``: the parsed definition, and its
    parameters and fingerprint or the reason it does not lower."""
    tree = registry._parse_def(text)
    try:
        lowered = (registry._params_of(tree), fingerprint(lower_function(tree)))
    except LoweringError as exc:
        lowered = ("unlowerable", str(exc))
    return ast.dump(tree), lowered


def _same_as_inspect(fn):
    assert _front_end(registry._read_source(fn)) == \
        _front_end(inspect.getsource(fn))


def _force_fallback(monkeypatch):
    """Take the branch Python 3.10 takes: no ``co_positions``."""
    monkeypatch.setattr(registry, "sys",
                        types.SimpleNamespace(version_info=(3, 10, 13)))


class TestShapes:
    def test_the_fixture_has_every_shape(self):
        assert len(SHAPES) == 13
        assert not Path(source_shapes.__file__).read_text().endswith("\n")

    @pytest.mark.parametrize("fn", SHAPES, ids=lambda f: f.__name__)
    def test_lowers_as_inspect_does(self, fn):
        _same_as_inspect(fn)

    @pytest.mark.skipif(not LINE_TABLE, reason="no co_positions before 3.11")
    @pytest.mark.parametrize("fn", SHAPES, ids=lambda f: f.__name__)
    def test_reads_the_line_table_not_inspect(self, fn, monkeypatch):
        expected = inspect.getsource(fn)

        def refuse(obj):
            raise AssertionError("inspect.getsource was called")

        monkeypatch.setattr(inspect, "getsource", refuse)
        assert registry._read_source(fn) == expected

    @pytest.mark.parametrize("fn", SHAPES, ids=lambda f: f.__name__)
    def test_fallback_lowers_as_inspect_does(self, fn, monkeypatch):
        calls = []
        getsource = inspect.getsource

        def spy(obj):
            calls.append(obj)
            return getsource(obj)

        monkeypatch.setattr(inspect, "getsource", spy)
        _force_fallback(monkeypatch)
        _same_as_inspect(fn)
        assert calls and calls[0] is fn

    def test_registration_lowers_the_shapes(self):
        reg = CFGRegistry(memo=False)
        mir = reg.register_function("Shapes", "sig",
                                    source_shapes.Shapes.multiline_signature)
        assert mir.param_names() == ("first", "second", "rest")
        assert mir.source_file == source_shapes.__file__
        assert mir.source_line == \
            source_shapes.Shapes.multiline_signature.__code__.co_firstlineno
        with pytest.raises(RegistrationError, match="FunctionDef"):
            reg.register_function("Shapes", "nested",
                                  source_shapes.Shapes.nested_def_last)

    @pytest.mark.skipif(not LINE_TABLE, reason="no co_positions before 3.11")
    def test_code_without_position_ranges_falls_back_to_inspect(
            self, tmp_path):
        """``-X no_debug_ranges`` drops the end lines the block's end is
        read from; the registry then asks ``inspect`` instead."""
        probe = textwrap.dedent("""
            import inspect
            import source_shapes
            from repro.ril import registry
            fns = [f for f in vars(source_shapes.Shapes).values()
                   if inspect.isfunction(f)]
            assert all(registry._last_line(f.__code__) is None for f in fns)
            assert all(registry._read_source(f) == inspect.getsource(f)
                       for f in fns)
            print(len(fns))
        """)
        root = Path(__file__).resolve().parents[2]
        out = subprocess.run(
            [sys.executable, "-X", "no_debug_ranges",
             "-X", f"pycache_prefix={tmp_path}", "-c", probe],
            capture_output=True, text=True, timeout=60,
            env={**os.environ,
                 "PYTHONPATH": f"{root / 'src'}:{Path(__file__).parent}"})
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == str(len(METHOD_SHAPES))


# -- every function the six apps register -------------------------------------


@pytest.fixture(scope="module")
def app_functions():
    """Build each app and run one pass with ``inspect.getsource`` raising
    (on 3.11+, where it must not be needed); returns every function the
    registry read source for, by app."""
    registered = {}
    original = CFGRegistry.register_function

    def record(self, owner, name, fn, captures=None):
        fn = inspect.unwrap(getattr(fn, "__func__", fn))
        if getattr(fn, "__hb_source__", None) is None:
            registered.setdefault(app, {})[fn.__code__] = fn
        return original(self, owner, name, fn, captures)

    def refuse(obj):
        raise OSError("inspect.getsource is off in this test")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CFGRegistry, "register_function", record)
        if LINE_TABLE:
            mp.setattr(inspect, "getsource", refuse)
        for app, build in all_builders().items():
            world = build()
            world.seed()
            assert world.workload()
    return registered


@pytest.mark.skipif(not LINE_TABLE, reason="3.10 reads source via inspect")
@pytest.mark.parametrize("app", sorted(all_builders()))
def test_apps_build_and_run_without_inspect(app_functions, app):
    assert app_functions[app]


@pytest.mark.parametrize("app", sorted(all_builders()))
def test_every_app_function_lowers_as_inspect_does(app_functions, app):
    for fn in app_functions[app].values():
        _same_as_inspect(fn)


# -- freshness: a module rewritten on disk and reloaded ----------------------


_BEFORE = "def m(self, n):\n    return n\n"
_AFTER = "def m(self, n):\n    total = n + 1\n    return str(total)\n"


@pytest.mark.parametrize("fallback", [False, True],
                         ids=["line_table", "inspect_fallback"])
def test_reload_reads_the_rewritten_module(tmp_path, monkeypatch, fallback):
    if fallback:
        _force_fallback(monkeypatch)
    monkeypatch.syspath_prepend(str(tmp_path))
    path = tmp_path / "hb_reloaded_module.py"
    path.write_text(_BEFORE)
    module = importlib.import_module("hb_reloaded_module")
    try:
        reg = CFGRegistry()
        before = reg.register_function("Reloaded", "m", module.m)
        path.write_text(_AFTER)  # a different size: stale caches would show
        module = importlib.reload(module)
        after = reg.register_function("Reloaded", "m", module.m)
    finally:
        del sys.modules["hb_reloaded_module"]

    assert after.fingerprint != before.fingerprint
    assert after.fingerprint == \
        CFGRegistry().register_source("Reloaded", "m", _AFTER).fingerprint
    assert reg.lowerings == 2
