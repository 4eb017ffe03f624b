"""Span tracing for the traced (``--trace 1``) run.

The program itself carries no tracing.  :func:`install` patches the
public entry points of each layer from here, so every call records one
span: its name, start, end and the span open when it started (its
parent).  Spans live in flat in-memory arrays while the run lasts and
are written out once at the end (:meth:`Tracer.dump`).  A layer's self
time is its spans' time minus the time of their child spans.

The benchmark's own loops open *root* spans (``bench.pass``,
``bench.request``, ``bench.mutation``, ...) around each operation, so
every span belongs to one operation: its root is the operation's
identifier.

Recording is switched per operation: ``Tracer.side(hum)`` turns it on
only for Hum-side work during the traced phase, so Orig-side work (plain
Python, the correctness reference) and the untraced phase pay one
attribute test per patched call and record nothing.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns

#: engine counters read from ``Engine.stats_snapshot()`` at phase
#: boundaries; per-layer ratios and the integrity checks use their deltas.
COUNTERS = (
    "calls_intercepted", "fast_path_hits", "specialized_hits",
    "checks_elided", "static_checks", "cache_hits", "cache_misses",
    "promotions", "repromotions", "deopts", "elide_promotions",
    "plan_invalidations", "subtype_cache_hits", "subtype_cache_misses",
)

#: the public ``sqldb.Table`` methods counted as one database op each.
TABLE_METHODS = ("insert", "update", "delete", "clear", "find", "all_rows",
                 "where", "first_where", "count", "order_by")

MUTATION = "bench.mutation"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.flag = array("b")
        self._stack: List[int] = []
        #: phase switch: True only during the traced phase.
        self.enabled = False
        #: operation switch: enabled and the current operation is Hum's.
        self.active = False
        self._undo: List[tuple] = []

    def __len__(self) -> int:
        return len(self.start)

    def side(self, hum: bool) -> None:
        self.active = self.enabled and hum

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.flag.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def _close(self, idx: int, flag: int) -> None:
        self.end[idx] = _now()
        self.flag[idx] = flag
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-level span around one operation (no-op when off)."""
        if not self.active:
            yield
            return
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx, 0)

    # -- patching -------------------------------------------------------------

    def _wrap(self, span: str, fn: Callable,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.  ``before`` runs at entry
        with the call's arguments; ``after(state, result)`` turns its
        state and the result into the span's flag (what the integrity
        checks count)."""
        name_id = self._id(span)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = (before(*args, **kwargs) if before is not None
                     else None)
            idx = tracer._open(name_id)
            flag = 0
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    flag = after(state, result)
                return result
            finally:
                tracer._close(idx, flag)

        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = fn.__doc__
        return traced

    def patch_method(self, cls: type, attr: str, span: str, **hooks) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(span, original, **hooks))
        self._undo.append((cls, attr, original))

    def patch_function(self, module, attr: str, span: str) -> None:
        """Rebind a module-level function in every ``repro`` module that
        imported it by name, so ``from x import f`` call sites see it."""
        original = getattr(module, attr)
        traced = self._wrap(span, original)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis -------------------------------------------------------------

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, self time (ns), flagged calls, and the
        self time of calls whose root operation is a mutation."""
        n = len(self.start)
        start, end, parent, flag = self.start, self.end, self.parent, self.flag
        child = [0] * n
        root = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                root[i] = root[p]
            else:
                root[i] = i
        mutation = self._ids.get(MUTATION, -1)
        out: Dict[str, dict] = {
            name: {"calls": 0, "self_ns": 0, "flagged": 0,
                   "mutation_self_ns": 0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            own = end[i] - start[i] - child[i]
            row["calls"] += 1
            row["self_ns"] += own
            row["flagged"] += flag[i]
            if self.name[root[i]] == mutation:
                row["mutation_self_ns"] += own
        return out

    def promoted_elisions(self) -> int:
        """``Elider.analyze`` spans that produced an elision inside a
        ``maybe_promote`` span that really promoted: what
        ``Stats.elide_promotions`` counts."""
        promote = self._ids.get("core.specialize.maybe_promote", -1)
        analyze = self._ids.get("core.elide.analyze", -1)
        name, parent, flag = self.name, self.parent, self.flag
        return sum(1 for i in range(len(name))
                   if name[i] == analyze and flag[i] and parent[i] >= 0
                   and name[parent[i]] == promote and flag[parent[i]])

    def dump(self, path: str) -> None:
        """Write every span as columns (one JSON document)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "format": "perfbench spans v1: name[i] indexes names; parent[i] "
                      "is the index of the enclosing span or -1",
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "flag": self.flag.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _check_miss(engine, key, *_rest, **_kw) -> int:
    """At ``Engine.jit_check`` entry: will this call really check?"""
    return int(not (engine.config.caching and key in engine.cache))


def _was_promoted(spec, key, *_rest, **_kw) -> bool:
    return spec.is_promoted(key)


def install(tracer: Tracer) -> None:
    """Patch every traced layer boundary (undone by ``tracer.restore``)."""
    from repro.core.elide import Elider
    from repro.core.engine import Engine
    from repro.core.specialize import Specializer
    from repro.rails import typegen
    from repro.rails.application import RailsApp
    from repro.rails.reloader import Reloader
    from repro.ril.registry import CFGRegistry
    from repro.rtypes import parser
    from repro.sqldb.table import Table

    tracer.patch_method(Engine, "annotate", "core.annotations.annotate")
    tracer.patch_method(Engine, "invalidate", "core.engine.invalidate")
    tracer.patch_method(Engine, "jit_check", "core.checker.jit_check",
                        before=_check_miss,
                        after=lambda miss, _result: miss)
    tracer.patch_method(
        Specializer, "maybe_promote", "core.specialize.maybe_promote",
        before=_was_promoted,
        after=lambda was, result: int(result is True and not was))
    tracer.patch_method(Elider, "analyze", "core.elide.analyze",
                        after=lambda _s, result: int(result is not None))
    for attr in ("register_function", "register_source"):
        tracer.patch_method(CFGRegistry, attr, "ril.lower")
    for attr in ("parse_type", "parse_method_type"):
        tracer.patch_function(parser, attr, "rtypes.parse")
    tracer.patch_method(RailsApp, "request", "rails.request")
    for attr in ("generate_attribute_types", "generate_finder_types",
                 "generate_belongs_to_types", "generate_has_many_types"):
        tracer.patch_function(typegen, attr, "rails.typegen")
    tracer.patch_method(Reloader, "apply", "rails.reload")
    for attr in TABLE_METHODS:
        tracer.patch_method(Table, attr, "sqldb.table")


class CounterDeltas:
    """Sums engine-counter deltas over the engines a phase used."""

    def __init__(self) -> None:
        self.total: Counter = Counter()
        self._base: Dict[int, dict] = {}

    @staticmethod
    def read(engine) -> dict:
        snap = engine.stats_snapshot()
        return {k: snap[k] for k in COUNTERS}

    def begin(self, engine) -> None:
        self._base[id(engine)] = self.read(engine)

    def end(self, engine, fresh: bool = False) -> None:
        """Add ``engine``'s delta since :meth:`begin` (or since creation
        when ``fresh``)."""
        base = {} if fresh else self._base.pop(id(engine))
        for k, v in self.read(engine).items():
            self.total[k] += v - base.get(k, 0)


def integrity_errors(spans: Dict[str, dict], elisions: int,
                     deltas: Counter) -> List[str]:
    """Span counts that disagree with the engines' own counters over the
    same interval — either the patches missed a call path or a counter
    drifted from what it claims to count."""
    def flagged(name: str) -> int:
        return spans.get(name, {}).get("flagged", 0)

    pairs = (
        ("core.checker.jit_check spans that checked", flagged(
            "core.checker.jit_check"), "static_checks"),
        ("core.specialize.maybe_promote spans that promoted", flagged(
            "core.specialize.maybe_promote"), "promotions"),
        ("core.elide.analyze elisions installed by a promotion",
         elisions, "elide_promotions"),
    )
    return [f"{label}: {seen} != {counter} delta {deltas[counter]}"
            for label, seen, counter in pairs if seen != deltas[counter]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Dict[str, dict], deltas: Counter, *, rounds: int,
                  mutations: int, rechecks: int) -> Dict[str, float]:
    """The traced run's per-layer numbers.  Totals are per round (one
    sweep, cold round or churn cycle); ``*_us`` are per call or per
    mutation."""
    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def self_ms(name: str) -> float:
        return spans.get(name, {}).get("self_ns", 0) / 1e6 / rounds

    def self_us_per_call(name: str) -> float:
        row = spans.get(name, {})
        return _ratio(row.get("self_ns", 0) / 1e3, row.get("calls", 0))

    d = deltas
    intercepted = d["calls_intercepted"]
    return {
        "core.engine.calls_intercepted": intercepted / rounds,
        "core.engine.invalidate_us": _ratio(
            spans.get("core.engine.invalidate", {}).get(
                "mutation_self_ns", 0) / 1e3, mutations),
        "core.plans.fast_path_ratio": _ratio(d["fast_path_hits"],
                                             intercepted),
        "core.plans.invalidations": d["plan_invalidations"] / rounds,
        "core.specialize.specialized_ratio": _ratio(d["specialized_hits"],
                                                    intercepted),
        "core.specialize.promotions": d["promotions"] / rounds,
        "core.specialize.deopts": d["deopts"] / rounds,
        "core.specialize.repromotions": d["repromotions"] / rounds,
        "core.specialize.promote_ms": self_ms("core.specialize.maybe_promote"),
        "core.elide.elided_per_call": _ratio(d["checks_elided"], intercepted),
        "core.elide.analyze_ms": self_ms("core.elide.analyze"),
        "core.checker.static_checks": d["static_checks"] / rounds,
        "core.checker.check_ms": self_ms("core.checker.jit_check"),
        "core.checker.rechecks_per_mutation": _ratio(rechecks, mutations),
        "core.cache.hit_ratio": _ratio(
            d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
        "core.annotations.annotate_ms": self_ms("core.annotations.annotate"),
        "core.annotations.annotations":
            calls("core.annotations.annotate") / rounds,
        "rtypes.parse_ms": self_ms("rtypes.parse"),
        "rtypes.subtype_hit_ratio": _ratio(
            d["subtype_cache_hits"],
            d["subtype_cache_hits"] + d["subtype_cache_misses"]),
        "ril.lower_ms": self_ms("ril.lower"),
        "ril.methods_lowered": calls("ril.lower") / rounds,
        "rails.request_self_us": self_us_per_call("rails.request"),
        "rails.typegen_ms": self_ms("rails.typegen"),
        "rails.reload_us": self_us_per_call("rails.reload"),
        "sqldb.ops": calls("sqldb.table") / rounds,
        "sqldb.self_ms": self_ms("sqldb.table"),
    }
