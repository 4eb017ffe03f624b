"""The engine's use of the IR front-end memo.

Re-registering a method body — a dev-mode reload back to an earlier
source, a repeated generated annotation — must be a memo hit, never a
skipped check: invalidation and re-checks stay exactly as without the
memo.  The counters are ``ir_lowerings`` / ``ir_lowering_hits`` in
``Engine.stats_snapshot()``.
"""

import gc
import weakref

import pytest

from repro import Engine
from repro.apps import all_builders
from repro.rdl.registry import INSTANCE

SRC_A = "def label(self, n):\n    return 'n=' + str(n)\n"
SRC_B = "def label(self, n):\n    return str(n) + '!'\n"


def _compiled(src):
    namespace = {}
    exec(src, namespace)
    return namespace["label"]


def _rolify():
    world = all_builders()["rolify"](Engine())
    world.seed()
    app = world.extras["app"]
    pat = world.extras["models"].User.all()[0]
    return world.engine, app, pat


def _grant(app, role):
    app.request("POST", "/roles/1/grant", {"role": role})


@pytest.mark.requires_caches
def test_alternating_reloads_lower_each_source_once_and_recheck_every_time():
    engine = Engine()

    class Labels:
        pass

    engine.register_class(Labels)
    obj = Labels()
    checks = []
    for i in range(6):
        src = SRC_A if i % 2 == 0 else SRC_B
        engine.define_method(Labels, "label", _compiled(src),
                             sig="(Integer) -> String", check=True,
                             source=src)
        before = engine.stats_snapshot()["static_checks"]
        assert obj.label(i) in (f"n={i}", f"{i}!")
        obj.label(i)
        checks.append(engine.stats_snapshot()["static_checks"] - before)
    snap = engine.stats_snapshot()
    # Every reload changed the body, so every one re-checked once.
    assert checks == [1] * 6
    assert snap["ir_lowerings"] == 2
    assert snap["ir_lowering_hits"] == 4


@pytest.mark.requires_caches
def test_repeated_grant_adds_no_lowerings():
    engine, app, _pat = _rolify()
    _grant(app, "professor")
    before = engine.stats_snapshot()
    for _ in range(5):
        _grant(app, "professor")
    after = engine.stats_snapshot()
    assert after["ir_lowerings"] == before["ir_lowerings"]
    assert after["ir_lowering_hits"] > before["ir_lowering_hits"]
    assert after["static_checks"] == before["static_checks"]


@pytest.mark.requires_specialization
def test_repeated_grant_keeps_the_granted_site_specialized():
    engine, app, pat = _rolify()
    _grant(app, "professor")
    for _ in range(engine.config.specialize_threshold + 5):
        pat.is_professor()
    key = ("User", "User", "is_professor", INSTANCE)
    assert engine._specializer.is_promoted(key)
    deopts = engine.stats.deopts
    for _ in range(3):
        _grant(app, "professor")
    assert engine._specializer.is_promoted(key)
    assert engine.stats.deopts == deopts
    assert pat.is_professor() is False  # roles live on the granted object


def test_cache_free_oracle_lowers_every_time():
    engine = Engine(disable_caches=True)

    class Labels:
        pass

    engine.register_class(Labels)
    for _ in range(3):
        engine.define_method(Labels, "label", _compiled(SRC_A),
                             sig="(Integer) -> String", check=True,
                             source=SRC_A)
    snap = engine.stats_snapshot()
    assert snap["ir_lowerings"] == 3
    assert snap["ir_lowering_hits"] == 0


@pytest.mark.parametrize("app", sorted(all_builders()))
def test_dropped_engine_and_world_are_collected(app):
    engine = Engine()
    world = all_builders()[app](engine)
    world.seed()
    world.workload()
    ref = weakref.ref(engine)
    del engine, world
    gc.collect()
    assert ref() is None
