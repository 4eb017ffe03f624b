"""Registry, JSON round-trip, and diff tests for the IR front end."""

import pytest

from repro.ril import (
    CFGRegistry, MethodIR, RegistrationError, bodies_differ, diff_registries,
    dumps, fingerprint, from_json, ir, loads, registry,
    snapshot_fingerprints, to_json,
)
from repro.rtypes import NominalType


# Module-level fixtures so inspect.getsource works.

def _sample(self, user, items=None):
    total = 0
    for item in items:
        total = total + item
    if user is None:
        return None
    return f"{user}: {total}"


def _varargs(self, first, *rest):
    return first


def _make_closure(role_name):
    def dynamic(self):
        return "is_" + role_name
    return dynamic


def _make_rebindable(value):
    """A closure plus a setter that rebinds its captured cell."""
    def current(self):
        return value

    def rebind(new):
        nonlocal value
        value = new
    return current, rebind


def _exec_with_source(src):
    namespace = {}
    exec(src, namespace)
    fn = namespace["m"]
    fn.__hb_source__ = src
    return fn


_SRC_A = "def m(self):\n    return 1\n"
_SRC_B = "def m(self):\n    return 'b'\n"


class TestRegistry:
    def test_register_function(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "sample", _sample)
        assert mir.owner == "Demo" and mir.name == "sample"
        assert reg.lookup("Demo", "sample") is mir

    def test_self_param_skipped(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "sample", _sample)
        assert mir.param_names() == ("user", "items")

    def test_default_marks_optional(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "sample", _sample)
        assert not mir.params[0].optional
        assert mir.params[1].optional

    def test_vararg_param(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "varargs", _varargs)
        assert mir.params[1].vararg

    def test_closure_captures_typed(self):
        reg = CFGRegistry()
        mir = reg.register_function("User", "is_prof", _make_closure("prof"))
        assert mir.captures["role_name"] == NominalType("String")

    def test_register_source(self):
        reg = CFGRegistry()
        mir = reg.register_source(
            "Demo", "double", "def double(self, x):\n    return x * 2\n")
        assert mir.param_names() == ("x",)
        assert isinstance(mir.body, ir.Return)

    def test_hb_source_attribute(self):
        namespace = {}
        src = "def tripled(self, x):\n    return x * 3\n"
        exec(src, namespace)
        fn = namespace["tripled"]
        fn.__hb_source__ = src
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "tripled", fn)
        assert mir.param_names() == ("x",)

    def test_no_source_raises(self):
        namespace = {}
        exec("def ghost(self): return 1", namespace)
        reg = CFGRegistry()
        with pytest.raises(RegistrationError):
            reg.register_function("Demo", "ghost", namespace["ghost"])

    def test_bad_source_raises(self):
        reg = CFGRegistry()
        with pytest.raises(RegistrationError):
            reg.register_source("Demo", "bad", "not python ][")

    def test_source_without_def_raises(self):
        reg = CFGRegistry()
        with pytest.raises(RegistrationError):
            reg.register_source("Demo", "bad", "x = 1")

    def test_forget(self):
        reg = CFGRegistry()
        reg.register_function("Demo", "sample", _sample)
        reg.forget("Demo", "sample")
        assert reg.lookup("Demo", "sample") is None

    def test_methods_of(self):
        reg = CFGRegistry()
        reg.register_function("Demo", "sample", _sample)
        reg.register_function("Demo", "varargs", _varargs)
        reg.register_function("Other", "sample", _sample)
        assert len(reg.methods_of("Demo")) == 2
        assert len(reg) == 3


class TestJsonRoundTrip:
    def test_round_trip(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "sample", _sample)
        assert loads(dumps(mir.body)) == mir.body

    def test_to_from_json(self):
        node = ir.If(ir.BoolLit(True), ir.IntLit(1), ir.IntLit(2))
        assert from_json(to_json(node)) == node

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            from_json({"kind": "Bogus"})

    def test_positions_preserved(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "sample", _sample)
        rt = loads(dumps(mir.body))
        positions = [n.pos for n in ir.walk(rt)]
        assert any(p.line > 0 for p in positions)


class TestFingerprintAndDiff:
    def test_fingerprint_ignores_positions(self):
        reg = CFGRegistry()
        a = reg.register_source("D", "m", "def m(self):\n    return 1\n")
        b = reg.register_source(
            "D", "m", "\n\n\ndef m(self):\n    return 1\n")
        assert a.fingerprint == b.fingerprint
        assert not bodies_differ(a, b)

    def test_fingerprint_sees_body_change(self):
        reg = CFGRegistry()
        a = reg.register_source("D", "m", "def m(self):\n    return 1\n")
        b = reg.register_source("D", "m", "def m(self):\n    return 2\n")
        assert bodies_differ(a, b)

    def test_param_change_counts(self):
        reg = CFGRegistry()
        a = reg.register_source("D", "m", "def m(self):\n    return 1\n")
        b = reg.register_source("D", "m", "def m(self, x):\n    return 1\n")
        assert bodies_differ(a, b)

    def test_diff_registries(self):
        reg = CFGRegistry()
        reg.register_source("D", "kept", "def kept(self):\n    return 1\n")
        reg.register_source("D", "edited", "def edited(self):\n    return 1\n")
        reg.register_source("D", "dropped", "def dropped(self):\n    return 1\n")
        before = snapshot_fingerprints(reg)

        reg.register_source("D", "edited", "def edited(self):\n    return 2\n")
        reg.register_source("D", "fresh", "def fresh(self):\n    return 3\n")
        reg.forget("D", "dropped")

        diff = diff_registries(before, reg)
        assert diff.changed == {("D", "edited")}
        assert diff.added == {("D", "fresh")}
        assert diff.removed == {("D", "dropped")}
        assert diff.invalidation_roots() == {("D", "edited"), ("D", "dropped")}


class TestFrontEndMemo:
    def test_reregistering_a_function_lowers_it_once(self):
        reg = CFGRegistry()
        first = reg.register_function("Demo", "sample", _sample)
        again = reg.register_function("Demo", "sample", _sample)
        other = reg.register_function("Other", "sample", _sample)
        assert reg.lowerings == 1 and reg.memo_hits == 2
        assert again is not first and again.body is first.body
        assert (other.owner, other.name) == ("Other", "sample")
        assert reg.lookup("Demo", "sample") is again

    def test_closures_of_one_factory_share_a_lowering(self):
        reg = CFGRegistry()
        prof = reg.register_function("User", "is_prof", _make_closure("p"))
        stud = reg.register_function("User", "is_stud", _make_closure("s"))
        assert reg.lowerings == 1
        assert stud.body is prof.body

    def test_changed_capture_type_is_retyped_on_reregistration(self):
        reg = CFGRegistry()
        fn, rebind = _make_rebindable(3)
        before = reg.register_function("Demo", "current", fn)
        rebind("three")
        after = reg.register_function("Demo", "current", fn)
        assert before.captures["value"] == NominalType("Integer")
        assert after.captures["value"] == NominalType("String")
        assert reg.lowerings == 1

    def test_alternating_sources_lower_each_source_once(self):
        reg = CFGRegistry()
        seen = []
        for i in range(6):
            src = _SRC_A if i % 2 == 0 else _SRC_B
            seen.append(reg.register_function("D", "m",
                                              _exec_with_source(src)))
        assert reg.lowerings == 2 and reg.memo_hits == 4
        # Every swap is still a body change the reload diff sees.
        assert all(bodies_differ(a, b) for a, b in zip(seen, seen[1:]))
        assert not bodies_differ(seen[0], seen[2])

    def test_register_source_shares_the_memo(self):
        reg = CFGRegistry()
        reg.register_source("D", "m", _SRC_A)
        reg.register_function("D", "m", _exec_with_source(_SRC_A))
        assert reg.lowerings == 1 and reg.memo_hits == 1

    @pytest.mark.parametrize("src", [
        "def m(self):\n    while self:\n        pass\n    else:\n"
        "        pass\n",                       # lowering fails
        "def m(self) return 1\n",              # parsing fails
    ])
    def test_failing_source_raises_on_every_attempt(self, src):
        reg = CFGRegistry()
        for attempt in range(1, 4):
            with pytest.raises(RegistrationError):
                reg.register_source("D", "m", src)
            assert reg.lowerings == attempt
        assert reg.memo_hits == 0 and reg.lookup("D", "m") is None

    def test_missing_source_raises_on_every_attempt(self):
        namespace = {}
        exec("def ghost(self): return 1", namespace)
        reg = CFGRegistry()
        for _ in range(2):
            with pytest.raises(RegistrationError):
                reg.register_function("Demo", "ghost", namespace["ghost"])
        assert reg.memo_hits == 0

    def test_memoized_fingerprint_matches_a_fresh_one(self):
        reg = CFGRegistry()
        first = reg.register_function("Demo", "sample", _sample)
        again = reg.register_function("Demo", "sample", _sample)
        fresh = fingerprint(loads(dumps(first.body)))
        assert first.fingerprint == again.fingerprint == fresh
        assert fingerprint(again.body) == fresh

    def test_hand_built_method_ir_fingerprints_its_body(self):
        reg = CFGRegistry()
        mir = reg.register_source("D", "m", _SRC_A)
        copy = MethodIR(mir.owner, mir.name, mir.params,
                        loads(dumps(mir.body)), source_file="<string>")
        assert copy.fingerprint == mir.fingerprint
        assert copy == mir  # the shared lowering is not part of equality

    def test_memo_off_lowers_every_time(self):
        reg = CFGRegistry(memo=False)
        for _ in range(3):
            reg.register_function("Demo", "sample", _sample)
            reg.register_source("D", "m", _SRC_A)
        assert reg.lowerings == 6 and reg.memo_hits == 0

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(registry, "MEMO_MAX", 2)
        reg = CFGRegistry()
        src_c = "def m(self):\n    return 3\n"
        for src in (_SRC_A, _SRC_B, src_c):
            reg.register_source("D", "m", src)
        reg.register_source("D", "m", src_c)
        assert reg.lowerings == 3
        reg.register_source("D", "m", _SRC_A)  # the oldest was dropped
        assert reg.lowerings == 4
