"""Tier-3 frame proofs: what is provable, what must stay unproven.

The frame verdict (:func:`repro.core.elide.prove_frame`, the JIT
checker's walk with unpinned parameters typed ``%any``) drives static
check elimination, so its failure mode is asymmetric: a missed proof
costs a few nanoseconds per call, a wrong proof silently skips a safety
check.  These tests pin the conservative side of every judgment:

* frame elision only for bodies that provably never re-enter
  intercepted code (builtin-whitelist receivers with safe arguments);
  any call on an application class, an unknown class, or a builtin
  receiver with an app-class argument (reflected dunders!) forfeits it;
* every consulted mutable fact — signature slots (with negative
  probes), linearizations, field types — appears in
  ``report.resources`` so the elide glue can register dependency edges.
"""

import pytest

from repro import Engine, EngineConfig
from repro.core.elide import is_vacuous, prove_frame
from repro.rtypes.parser import parse_type


@pytest.fixture()
def engine():
    return Engine(EngineConfig())


def _define(engine, cls, name, body, sig, check=True):
    namespace = {}
    exec(body, namespace)  # noqa: S102 - fixed test templates
    engine.define_method(cls, name, namespace[name], sig=sig, check=check,
                         source=body)


def _analyze(engine, cls_name, name, seeds=None):
    mir = engine.cfgs.lookup(cls_name, name)
    assert mir is not None, f"no IR registered for {cls_name}#{name}"
    return prove_frame(engine, mir, cls_name, seeds)


def _world(engine, methods):
    cls = type("Ana", (object,), {})
    for name, body, sig, check in methods:
        _define(engine, cls, name, body, sig, check)
    return cls


# -- frame elision ------------------------------------------------------------


def test_builtin_only_body_is_frame_elidable_under_seed(engine):
    _world(engine, [("leaf", "def leaf(self, n):\n    return n + 1\n",
                     "(Integer) -> Integer", True)])
    # Seed-free the argument's class is unknown: no proof.
    assert _analyze(engine, "Ana", "leaf").frame_elidable is False
    # Seeded with the dominant profile the operator is builtin-on-builtin.
    assert _analyze(engine, "Ana", "leaf",
                    ("Integer",)).frame_elidable is True


def test_literal_only_body_is_frame_elidable_seed_free(engine):
    _world(engine, [("lit", "def lit(self, n):\n    return 'x'\n",
                     "(Integer) -> String", True)])
    assert _analyze(engine, "Ana", "lit").frame_elidable is True


def test_call_into_app_method_forfeits_frame_elision(engine):
    """An intercepted callee reads the checked-frame flag, so the frame
    push/pop around a body that reaches one can never be dropped."""
    _world(engine, [
        ("leaf", "def leaf(self, n):\n    return n + 1\n",
         "(Integer) -> Integer", True),
        ("caller", "def caller(self, n):\n    return self.leaf(n)\n",
         "(Integer) -> Integer", True),
    ])
    report = _analyze(engine, "Ana", "caller", ("Integer",))
    assert report.frame_elidable is False


def test_builtin_receiver_with_app_argument_forfeits_frame(engine):
    """``1 + app_obj`` can dispatch to the argument's reflected dunder —
    opaque host code — so a safe receiver is not enough: every argument
    class must be on the whitelist too."""
    _world(engine, [("mix", "def mix(self, a, b):\n    return a + b\n",
                     "(Integer, Ana) -> Integer", True)])
    assert _analyze(engine, "Ana", "mix",
                    ("Integer", "Ana")).frame_elidable is False
    assert _analyze(engine, "Ana", "mix",
                    ("Integer", "Integer")).frame_elidable is True


def test_unknown_callee_forfeits_frame_elision(engine):
    _world(engine, [("mystery", "def mystery(self, n):\n"
                     "    return self.undefined_helper(n)\n",
                     "(Integer) -> Integer", True)])
    assert _analyze(engine, "Ana", "mystery",
                    ("Integer",)).frame_elidable is False


def test_truthiness_of_unsafe_class_taints_frame(engine):
    """``if x:`` invokes the value's truthiness protocol; only
    whitelisted classes are trusted not to re-enter intercepted code."""
    _world(engine, [
        ("cond", "def cond(self, n):\n    if n:\n        return 1\n"
         "    return 2\n", "(Integer) -> Integer", True),
        ("condself", "def condself(self, n):\n    if self:\n"
         "        return 1\n    return 2\n", "(Integer) -> Integer", True),
    ])
    assert _analyze(engine, "Ana", "cond", ("Integer",)).frame_elidable
    assert _analyze(engine, "Ana", "condself",
                    ("Integer",)).frame_elidable is False


def test_loop_invariant_types_keep_the_frame(engine):
    """A loop-carried variable whose type is stable across iterations
    keeps its type through the checker's loop fixpoint, so operators on
    it stay frame-safe."""
    _world(engine, [
        ("accum", "def accum(self, n):\n"
         "    total = 0\n"
         "    while n > 0:\n        total = total + n\n        n = n - 1\n"
         "    return total\n", "(Integer) -> Integer", True),
    ])
    assert _analyze(engine, "Ana", "accum", ("Integer",)).frame_elidable


def test_if_join_decides_the_frame(engine):
    """A value that is an Integer on both branches stays frame-safe after
    the merge; one application-class arm makes the joined type unsafe."""
    _world(engine, [
        ("both", "def both(self, n):\n"
         "    if n > 0:\n        x = 1\n    else:\n        x = 2\n"
         "    return x + n\n", "(Integer) -> Integer", True),
        ("mixed", "def mixed(self, n):\n"
         "    if n > 0:\n        x = 1\n    else:\n        x = self\n"
         "    if x:\n        return 1\n    return 2\n",
         "(Integer) -> Integer", True),
    ])
    assert _analyze(engine, "Ana", "both", ("Integer",)).frame_elidable
    report = _analyze(engine, "Ana", "mixed", ("Integer",))
    assert report.frame_elidable is False
    assert any(code == "whitelist_miss" for code, _ in report.blockers)


def test_rejected_body_blocks_the_frame_with_type_error(engine):
    """A trusted signature's body is still walked by the checker; when
    it does not check, the frame is blocked (``type_error``) and nothing
    is raised."""
    _world(engine, [("liar", "def liar(self, n):\n    return 'x' + 1\n",
                     "(Integer) -> String", False)])
    arms = list(engine.types.lookup("Ana", "liar", "instance")
                .intersection())
    mir = engine.cfgs.register_function(
        "Ana", "liar", engine.lookup_callable("Ana", "liar"))
    report = prove_frame(engine, mir, "Ana", None, arms)
    assert report.frame_elidable is False
    assert [code for code, _ in report.blockers] == ["type_error"]


# -- resources (dependency edges) ---------------------------------------------


def test_operator_calls_record_signature_and_lin_edges(engine):
    _world(engine, [("leaf", "def leaf(self, n):\n    return n + 1\n",
                     "(Integer) -> Integer", True)])
    report = _analyze(engine, "Ana", "leaf", ("Integer",))
    assert ("sig", "Integer", "+", "instance") in report.resources
    assert ("lin", "Integer") in report.resources


def test_field_reads_record_field_edges(engine):
    cls = type("AnaField", (object,), {})
    engine.register_class(cls)
    engine.field_type(cls, "value", "Integer")
    _define(engine, cls, "read",
            "def read(self, n):\n    return self.value + n\n",
            "(Integer) -> Integer")
    mir = engine.cfgs.lookup("AnaField", "read")
    report = prove_frame(engine, mir, "AnaField", ("Integer",))
    assert ("field", "AnaField", "value") in report.resources
    assert report.frame_elidable is True  # Integer field + Integer arg


# -- vacuity --------------------------------------------------------------


def test_is_vacuous_matrix():
    assert is_vacuous(parse_type("%any"))
    assert is_vacuous(parse_type("u"))       # type variable
    assert is_vacuous(parse_type("self"))    # self type
    assert not is_vacuous(parse_type("Integer"))
    assert not is_vacuous(parse_type("Integer or String"))
    assert is_vacuous(parse_type("%any or Integer"))  # union: any arm
