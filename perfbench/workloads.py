"""The benchmark's three workloads: ``steady``, ``cold`` and ``churn``.

Every workload is a closed loop driven from one thread of one process:
the next operation starts when the previous one returned, and churn
steps run in that same thread between requests.  Hum (``Engine()``) and
Orig (``EngineConfig(intercept=False)``: the same program with no
checker) run the same operations alternately in the same process, the
side going first drawn from the seed, so host drift lands on both.
Every Hum output is compared with Orig's on the same input.

The gated end-to-end metrics are Hum/Orig pairs measured this way; the
absolute times are printed beside them (NOTES.md says why).  Why each
workload exists — which layer it loads, which it bypasses — is written
beside its function below and in NOTES.md.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import all_builders
from repro.concurrency.driver import normalize_outcome
from repro.core import Engine, EngineConfig
from repro.serving.churn import churn_suite
from repro.serving.recipes import (
    build_serving_world, mask_ids, scenario_thunks,
)

from tracing import MUTATION, CounterDeltas, Tracer, install, \
    integrity_errors, layer_metrics

HUM, ORIG, ORACLE = "hum", "orig", "oracle"
SIDES = (HUM, ORIG)

#: set-ups per run; ``setup_s`` is their median.  A churn set-up is
#: ~60 ms, so it repeats more; cold's set-up is every round's load.
SETUP_REPEATS = {"steady": 3, "churn": 9}
#: warm passes per app before steady timing starts.  The promotion
#: threshold is 50 warm hits per call site; talks, boxroom and rolify
#: call some checked sites once per pass, so only their 51st pass
#: promotes the last of them.  pubs, cct and countries hit every site
#: far more often per pass; later promotions there cover under 0.1% of
#: calls.
WARM_PASSES = {"talks": 52, "boxroom": 52, "rolify": 52,
               "pubs": 14, "cct": 3, "countries": 4}
#: Orig runs plain Python: one pass fills the interpreter's own caches.
ORIG_WARM_PASSES = 2
#: the apps with serving recipes and churn steps.
CHURN_APPS = ("boxroom", "countries", "rolify")
#: churn: one mutation after this many requests.
CYCLE_REQUESTS = 8
#: churn: passes over each app's request list before timing (as the
#: serving harness warms).
CHURN_WARM_ROUNDS = 4
#: churn: cycles replayed on the cache-free oracle (it is ~10x slower
#: than Hum, so it replays the first cycles, not all of them).
ORACLE_CYCLES = 100
#: steady: rotations of the probe through every churn step kind.
PROBE_CYCLES = 32
#: steady: probe rotations per block of one side order.  A step's cost
#: depends on its index modulo 4 (reloads alternate two sources, typegen
#: regenerates finders every 2nd step, retype adds a class every 4th),
#: so each order sees every residue.
PROBE_ORDER_BLOCK = 4
#: cold: ``peak_rss_mb`` is read after this many rounds.  The leak makes
#: the heap grow with every round, so a fixed round count keeps the
#: figure independent of how many rounds a slow host fits in a run.
COLD_RSS_ROUNDS = 6
#: churn: ``peak_rss_mb`` is read after this many cycles.  The samples
#: kept per request grow the heap by ~1.6 KB a cycle, so a read at the
#: end of the run moved with how many cycles the host fitted in it
#: (spread 0.08 over ten runs, against a bound of 0.1).
CHURN_RSS_CYCLES = 2000

_now = time.perf_counter_ns


def make_engine(side: str) -> Engine:
    if side == HUM:
        return Engine()
    if side == ORIG:
        return Engine(EngineConfig(intercept=False))
    return Engine(disable_caches=True)


# -- bookkeeping --------------------------------------------------------------


class Tally:
    """Operations attempted and failed (an output differing from Orig's,
    or a crash), with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def note(self, what: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(what)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(what)
        return ok


@dataclass
class Run:
    """One invocation's state, shared by its phases."""

    rng: random.Random
    seconds: float
    traced: bool
    tally: Tally = field(default_factory=Tally)
    tracer: Tracer = field(default_factory=Tracer)
    counters: CounterDeltas = field(default_factory=CounterDeltas)
    #: id(engine) -> (engine, static_checks before its first traced
    #: mutation): checks after that point are re-checks.
    recheck_base: Dict[int, tuple] = field(default_factory=dict)
    mutations: int = 0

    def sides(self) -> Tuple[str, str]:
        return SIDES if self.rng.random() < 0.5 else SIDES[::-1]

    def begin_trace(self, engines) -> None:
        self.tracer.enabled = True
        install(self.tracer)
        for engine in engines:
            self.counters.begin(engine)

    def end_trace(self, engines) -> None:
        for engine in engines:
            self.counters.end(engine)
        self.tracer.restore()
        self.tracer.enabled = False
        self.tracer.side(False)

    def rechecks(self) -> int:
        return sum(engine.stats.static_checks - base
                   for engine, base in self.recheck_base.values())


@dataclass
class Result:
    """What a workload measured: end-to-end metrics as
    ``name -> (value, samples)`` (units come from BENCHMARK.json),
    readable rows (absolute times, per-app figures), and the traced
    run's per-layer metrics."""

    metrics: Dict[str, Tuple[float, int]]
    rows: List[str]
    layers: Dict[str, float] = field(default_factory=dict)


def median(xs) -> float:
    return statistics.median(xs)


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(xs)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_mean(xs, share: float = 0.1) -> float:
    """Mean of the slowest ``share`` of ``xs``.  Unlike one percentile
    it cannot jump between request kinds when the mix puts a kind
    boundary near that percentile."""
    ordered = sorted(xs)
    k = max(1, int(len(ordered) * share))
    return sum(ordered[-k:]) / k


def geomean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def heap_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def _side_dict(factory):
    return {side: factory() for side in SIDES}


@dataclass
class Samples:
    """One phase's timings (ns), per side.

    ``ops`` are keyed by operation kind (an app's pass, or a churn
    request's place in its app's request list).  ``req`` are request
    latencies and ``busy`` the loop time that served them.  ``mut`` are
    churn step times; ``mut_rounds`` pairs the Hum and Orig totals of
    each rotation through every step kind, labelled with the side that
    applied each step first (empty when the order varied in it).
    """

    ops: Dict[str, dict] = field(
        default_factory=lambda: _side_dict(lambda: defaultdict(list)))
    mut: Dict[str, list] = field(default_factory=lambda: _side_dict(list))
    mut_rounds: List[Tuple[str, int, int]] = field(default_factory=list)
    _mut_open: Dict[str, int] = field(
        default_factory=lambda: _side_dict(int))
    req: Dict[str, list] = field(default_factory=lambda: _side_dict(list))
    busy: Dict[str, int] = field(default_factory=lambda: _side_dict(int))
    #: Hum calls intercepted per operation, by kind.
    calls: Dict[object, list] = field(
        default_factory=lambda: defaultdict(list))
    #: cold: Hum load time (engine creation to seeded world) per round.
    builds: List[int] = field(default_factory=list)
    rounds: int = 0

    def op_ms(self, side: str) -> float:
        """Sum over kinds of the median operation: one sweep (steady),
        one load plus first pass of every app (cold), one request of
        every kind (churn)."""
        return sum(median(v) for v in self.ops[side].values()) / 1e6

    def add_mut(self, side: str, elapsed: int) -> None:
        self.mut[side].append(elapsed)
        self._mut_open[side] += elapsed

    def close_mut_round(self, first: str = "") -> None:
        """End a rotation through every churn step kind."""
        self.mut_rounds.append(
            (first, self._mut_open[HUM], self._mut_open[ORIG]))
        self._mut_open = _side_dict(int)

    def tax_ns(self) -> float:
        """Hum's extra time per intercepted call."""
        extra = self.op_ms(HUM) - self.op_ms(ORIG)
        calls = sum(median(v) for v in self.calls.values())
        return extra * 1e6 / calls if calls else 0.0


def pair_median(hum, orig) -> float:
    """Median of Hum / Orig taken pair by pair.  The two samples of a
    pair ran back to back (same round, same cycle), so they share the
    host's speed at that moment.  On a shared 2-core host, five runs
    per workload put the spread of :func:`pairwise_ratio` at
    0.02-0.03, against 0.02-0.07 for median Hum / median Orig."""
    return median([h / o for h, o in zip(hum, orig)])


def pairwise_ratio(by_kind: Dict[str, dict]) -> float:
    """Geomean over kinds of each kind's :func:`pair_median`."""
    return geomean([pair_median(by_kind[HUM][k], by_kind[ORIG][k])
                    for k in by_kind[HUM]])


def mutation_ratio(mut_rounds: List[Tuple[str, int, int]]) -> float:
    """Geomean over first sides of the median Hum / Orig rotation ratio.
    Whichever side applies a step first pays more for it (in cold, a
    countries retype read Hum/Orig 3.2 with Hum first and 0.9 with Orig
    first), so a median over rotations of mixed order moved with the
    mix the seed drew."""
    by_first: Dict[str, Tuple[list, list]] = defaultdict(lambda: ([], []))
    for first, hum, orig in mut_rounds:
        by_first[first][0].append(hum)
        by_first[first][1].append(orig)
    return geomean([pair_median(hum, orig)
                    for hum, orig in by_first.values()])


def summarize(s: Samples, setups: List[float]) -> Result:
    """The gated end-to-end metrics, plus the absolute times as rows."""
    n_ops = min(len(v) for v in s.ops[HUM].values())
    req = s.req
    per_s = {side: len(req[side]) / (s.busy[side] / 1e9) for side in SIDES}
    metrics = {
        "setup_s": (median(setups), len(setups)),
        "hum_orig_ratio": (pairwise_ratio(s.ops), n_ops),
        "req_tail_ratio": (tail_mean(req[HUM]) / tail_mean(req[ORIG]),
                           len(req[HUM])),
        "req_per_s_ratio": (per_s[HUM] / per_s[ORIG], len(req[HUM])),
        "mutation_ratio": (mutation_ratio(s.mut_rounds),
                           len(s.mut_rounds)),
    }
    rows = []
    for side in SIDES:
        muts = s.mut[side]
        rows.append(
            f"absolute {side}: op_ms = {s.op_ms(side):.3f} ms (n={n_ops}), "
            f"req_p50_us = {median(req[side]) / 1e3:.2f} us, "
            f"req_p99_us = {percentile(req[side], 0.99) / 1e3:.2f} us "
            f"(n={len(req[side])}), req_per_s = {per_s[side]:.1f} 1/s, "
            f"mutation_p50_us = {median(muts) / 1e3:.2f} us (n={len(muts)})")
    p99 = percentile(req[HUM], 0.99) / percentile(req[ORIG], 0.99)
    rows.append(f"absolute tax_ns = {s.tax_ns():.1f} ns per intercepted "
                f"call; req_p99_ratio = {p99:.4f}")
    return Result(metrics, rows)


def app_rows(s: Samples) -> List[str]:
    """Steady and cold: one row per app (Table 1's per-app ratio)."""
    rows = []
    for n in s.ops[HUM]:
        h, o = median(s.ops[HUM][n]), median(s.ops[ORIG][n])
        calls = median(s.calls[n])
        ratio = pair_median(s.ops[HUM][n], s.ops[ORIG][n])
        rows.append(f"app {n:<10} hum_orig_ratio = {ratio:.4f} x "
                    f"(n={len(s.ops[HUM][n])})  hum_ms = {h / 1e6:.3f}  "
                    f"orig_ms = {o / 1e6:.3f}  calls_intercepted = "
                    f"{calls:.0f}  tax_ns = {(h - o) / calls:.1f}")
    return rows


# -- operations ---------------------------------------------------------------


def probe_order(block: int) -> Tuple[str, str]:
    """Side order of the mutation probes (steady, cold): Hum first in
    even blocks, Orig first in odd ones, so both orders weigh alike in
    :func:`mutation_ratio` whatever the seed."""
    return SIDES if block % 2 == 0 else SIDES[::-1]


def clock_requests(world) -> List[int]:
    """Time each ``RailsApp.request`` the world's own workload issues;
    returns the list the latencies (ns) are appended to.  The class
    attribute is looked up per call, so the traced run's patch of
    ``RailsApp.request`` still sees every request."""
    samples: List[int] = []
    if not world.uses_rails:
        return samples
    app = world.extras["app"]
    cls = type(app)

    def timed(*args):
        t0 = _now()
        try:
            return cls.request(app, *args)
        finally:
            samples.append(_now() - t0)

    app.request = timed
    return samples


def run_pass(run: Run, world, hum: bool) -> Tuple[int, int, Optional[str]]:
    """One Table 1 ``workload()`` pass after ``seed()``: (ns, calls
    intercepted, normalized output or None on a crash)."""
    tracer = run.tracer
    stats = world.engine.stats
    tracer.side(hum)
    try:
        with tracer.root("bench.seed"):
            world.seed()
        calls = stats.calls_intercepted
        with tracer.root("bench.pass"):
            t0 = _now()
            out = world.workload()
            elapsed = _now() - t0
        return elapsed, stats.calls_intercepted - calls, mask_ids(repr(out))
    except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
        run.tally.note(f"{world.name} crashed: {exc!r}")
        return 0, 0, None
    finally:
        tracer.side(False)


def mutate(run: Run, step: Callable[[int], None], index: int, engine,
           hum: bool, what: str) -> int:
    """Apply one churn step; returns its duration (ns)."""
    tracer = run.tracer
    tracer.side(hum)
    if tracer.active:
        run.mutations += 1
        run.recheck_base.setdefault(
            id(engine), (engine, engine.stats.static_checks))
    ok = True
    with tracer.root(MUTATION):
        t0 = _now()
        try:
            step(index)
        except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
            ok = False
            what = f"{what}: {exc!r}"
        elapsed = _now() - t0
    tracer.side(False)
    run.tally.check(ok, what)
    return elapsed


def compare(run: Run, outs: Dict[str, Optional[str]], what: str) -> None:
    hum = outs[HUM]
    run.tally.check(hum is not None and hum == outs[ORIG],
                    f"{what}: Hum output differs from Orig")


# -- steady -------------------------------------------------------------------


def steady(run: Run) -> Result:
    """All six apps' Table 1 passes, warmed past promotion, Hum and Orig
    alternating pass by pass.

    Loads: the warm per-call wrappers (``core.plans``,
    ``core.specialize``, ``core.elide``, counter bookkeeping) — nearly
    all of Hum's extra time.  Bypasses: ``core.checker``, ``ril`` and
    ``rtypes``, which do no work once every body is checked; the
    workload on which checker and lowering changes must not move.
    After timing, a probe applies churn steps to the warm worlds of
    both sides (``mutation_ratio``: mutations landing on warm,
    promoted sites), each followed by a compared pass.
    """
    builders = all_builders()
    names = list(builders)
    setups, hum = [], {}
    for _ in range(SETUP_REPEATS["steady"]):
        t0 = time.perf_counter()
        hum = {}
        for n in names:
            world = builders[n](make_engine(HUM))
            for _ in range(WARM_PASSES[n]):
                world.seed()
                world.workload()
            hum[n] = world
        setups.append(time.perf_counter() - t0)
    orig = {}
    for n in names:
        orig[n] = builders[n](make_engine(ORIG))
        for _ in range(ORIG_WARM_PASSES):
            orig[n].seed()
            orig[n].workload()
    worlds = {HUM: hum, ORIG: orig}
    clocks = {side: {n: clock_requests(worlds[side][n]) for n in names}
              for side in SIDES}

    def sweeps(seconds: float) -> Samples:
        s = Samples()
        deadline = time.perf_counter() + seconds
        while s.rounds == 0 or time.perf_counter() < deadline:
            for n in run.rng.sample(names, len(names)):
                outs = {}
                for side in run.sides():
                    clock = clocks[side][n]
                    clock.clear()
                    elapsed, calls, outs[side] = run_pass(
                        run, worlds[side][n], side == HUM)
                    s.ops[side][n].append(elapsed)
                    s.req[side].extend(clock)
                    if clock:
                        s.busy[side] += elapsed
                    if side == HUM:
                        s.calls[n].append(calls)
                compare(run, outs, f"steady {n}")
            s.rounds += 1
        return s

    def probe(s: Samples) -> None:
        suites = {side: {n: churn_suite(worlds[side][n], "full")
                         for n in CHURN_APPS} for side in SIDES}
        # A fixed order: the cost of a step depends on the step before
        # it, and a seed-drawn order moved the ratio by 0.10 between runs.
        rotation = [(n, i) for n in CHURN_APPS
                    for i in range(len(suites[HUM][n]))]
        for cycle in range(PROBE_CYCLES):
            order = probe_order(cycle // PROBE_ORDER_BLOCK)
            for n, i in rotation:
                for side in order:
                    s.add_mut(side, mutate(
                        run, suites[side][n][i], cycle,
                        worlds[side][n].engine, side == HUM,
                        f"steady probe {side} {n}"))
                outs = {side: run_pass(run, worlds[side][n], side == HUM)[2]
                        for side in run.sides()}
                compare(run, outs, f"steady {n} after a churn step")
            s.close_mut_round(order[0])

    engines = [w.engine for w in hum.values()]
    if not run.traced:
        main = sweeps(run.seconds)
        probe(main)
        result = summarize(main, setups)
        result.rows += app_rows(main)
        return result

    heap0 = heap_objects()
    plain = sweeps(run.seconds / 2)
    heap1 = heap_objects()
    run.begin_trace(engines)
    traced = sweeps(run.seconds / 2)
    probe(traced)
    run.end_trace(engines)
    return traced_result(run, plain, traced, (heap1 - heap0) / plain.rounds,
                         app_rows(plain))


# -- cold ---------------------------------------------------------------------


def cold(run: Run) -> Result:
    """Per round, a fresh engine and world per app, seeded, then the
    first ``workload()`` pass; Hum and Orig alternate; all rounds run in
    one process.

    Loads: load-time work — ``Engine.annotate``, ``ril`` lowering,
    ``jit_check``, first promotions with ``Elider.analyze``, and
    ``rails.typegen``.  Bypasses: the warm wrappers, which serve few
    calls before the round ends; the workload on which warm-path
    changes must not move.  Keeping rounds in one process keeps the
    known leak visible: every Hum engine and world stays reachable from
    ``repro.rtypes.typeof._CLASS_NAME_MEMO`` (see NOTES.md), so the heap
    grows round by round.  After each app's first pass, every churn
    step kind lands once, in the suite's order, on each side's
    just-loaded world (``mutation_ratio``).  The order is fixed so
    every round's mutations have the same shape.
    """
    builders = all_builders()
    names = list(builders)
    tracer = run.tracer
    peak_rss = []

    def load_and_pass(n: str, side: str, s: Samples):
        """Build, seed and run the first pass; returns (world, output)."""
        tracer.side(side == HUM)
        try:
            with tracer.root("bench.build"):
                t0 = _now()
                world = builders[n](make_engine(side))
                world.seed()
                t1 = _now()
            clock = clock_requests(world)
            with tracer.root("bench.pass"):
                out = world.workload()
                t2 = _now()
        except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
            run.tally.note(f"cold {side} {n} crashed: {exc!r}")
            return None, None
        finally:
            tracer.side(False)
        s.ops[side][n].append(t2 - t0)
        s.req[side].extend(clock)
        if clock:
            s.busy[side] += t2 - t0
        if side == HUM:
            s.calls[n].append(world.engine.stats.calls_intercepted)
            s.builds[-1] += t1 - t0
        return world, mask_ids(repr(out))

    def rounds(seconds: float, heap: Optional[list]) -> Samples:
        s = Samples()
        deadline = time.perf_counter() + seconds
        while s.rounds == 0 or time.perf_counter() < deadline:
            if heap is not None:
                heap.append(heap_objects())
            else:
                gc.collect()
            s.builds.append(0)
            for n in run.rng.sample(names, len(names)):
                got = {side: load_and_pass(n, side, s)
                       for side in run.sides()}
                compare(run, {side: out for side, (_w, out) in got.items()},
                        f"cold {n}")
                if any(w is None for w, _out in got.values()):
                    continue
                if n in CHURN_APPS:
                    for side in probe_order(s.rounds):
                        world = got[side][0]
                        tracer.side(side == HUM)
                        with tracer.root("bench.probe_setup"):
                            suite = churn_suite(world, "full")
                        tracer.side(False)
                        for step in suite:
                            s.add_mut(side, mutate(
                                run, step, 0, world.engine, side == HUM,
                                f"cold probe {side} {n}"))
                if tracer.enabled:
                    run.counters.end(got[HUM][0].engine, fresh=True)
            s.close_mut_round(probe_order(s.rounds)[0])
            s.rounds += 1
            if s.rounds == COLD_RSS_ROUNDS:
                peak_rss.append(peak_rss_mb())
        if heap is not None:
            heap.append(heap_objects())
        return s

    if not run.traced:
        main = rounds(run.seconds, None)
        result = summarize(main, [b / 1e9 for b in main.builds])
        rss = peak_rss[0] if peak_rss else peak_rss_mb()
        result.metrics["peak_rss_mb"] = (rss, 1)
        result.rows += app_rows(main)
        return result

    heap: List[int] = []
    plain = rounds(run.seconds / 2, heap)
    run.begin_trace([])
    traced = rounds(run.seconds / 2, None)
    run.end_trace([])
    return traced_result(
        run, plain, traced, (heap[-1] - heap[0]) / plain.rounds,
        app_rows(plain) + [f"heap objects after gc.collect(), per round: "
                           f"{heap}"])


# -- churn --------------------------------------------------------------------


class ChurnSet:
    """One side's three serving worlds, their seed-permuted request
    lists and their churn steps, warmed like the serving harness."""

    def __init__(self, side: str, perms: Dict[str, List[int]],
                 rng: random.Random) -> None:
        self.worlds, self.thunks, self.suites = {}, {}, {}
        for app in CHURN_APPS:
            world = build_serving_world(app, engine=make_engine(side))
            thunks = scenario_thunks(world, "mixed")
            order = perms.setdefault(
                app, rng.sample(range(len(thunks)), len(thunks)))
            self.worlds[app] = world
            self.thunks[app] = [thunks[j] for j in order]
            self.suites[app] = churn_suite(world, "full")
        for _ in range(CHURN_WARM_ROUNDS):
            for app in CHURN_APPS:
                for thunk in self.thunks[app]:
                    thunk()
        #: (app, step kind) in the order churn steps are applied.
        self.rotation = [(app, k) for app in CHURN_APPS
                         for k in range(len(self.suites[app]))]

    def request(self, i: int):
        """Schedule position ``i`` (round-robin over the apps): the
        request's kind and thunk."""
        app = CHURN_APPS[i % len(CHURN_APPS)]
        thunks = self.thunks[app]
        j = (i // len(CHURN_APPS)) % len(thunks)
        return (app, j), thunks[j]

    def step(self, cycle: int, offset: int):
        """The churn step after ``cycle``'s requests: its kind, the
        step, and how many times that kind ran before."""
        pos = offset + cycle
        kind = self.rotation[pos % len(self.rotation)]
        return kind, self.suites[kind[0]][kind[1]], pos // len(self.rotation)

    def calls(self) -> int:
        return sum(w.engine.stats.calls_intercepted
                   for w in self.worlds.values())


def churn(run: Run) -> Result:
    """Mixed read/write requests to boxroom, countries and rolify in
    round-robin; after every 8 requests one churn step (retype,
    dev-mode reload or typegen) in the request thread.

    Loads: the same caches, plans and wrappers as steady, plus
    invalidation, re-checks, deopts and re-promotion landing on live
    requests.  A change that speeds the warm path by making
    invalidation or re-promotion dearer shows here, as does one that
    moves cost from the mutation onto the next request.  Outcomes must
    equal Orig's on the same schedule and a cache-free oracle's.
    """
    perms: Dict[str, List[int]] = {}
    setups, hum = [], None
    for _ in range(SETUP_REPEATS["churn"]):
        t0 = time.perf_counter()
        hum = ChurnSet(HUM, perms, run.rng)
        setups.append(time.perf_counter() - t0)
    offset = run.rng.randrange(len(hum.rotation))
    tracer = run.tracer
    prefix: List[tuple] = []  # Hum outcomes the oracle replays
    peak_rss = []

    def cycles(sets: Dict[str, ChurnSet], seconds: float) -> Samples:
        """Run the schedule from its first cycle on ``sets``."""
        s = Samples()
        keep_prefix = not prefix
        deadline = time.perf_counter() + seconds
        while s.rounds == 0 or time.perf_counter() < deadline:
            outs = {}
            for side in run.sides():
                world_set, is_hum = sets[side], side == HUM
                got = []
                t_cycle = _now()
                for j in range(CYCLE_REQUESTS):
                    kind, thunk = world_set.request(
                        s.rounds * CYCLE_REQUESTS + j)
                    calls = world_set.calls() if is_hum else 0
                    tracer.side(is_hum)
                    with tracer.root("bench.request"):
                        t0 = _now()
                        got.append(normalize_outcome(thunk))
                        elapsed = _now() - t0
                    tracer.side(False)
                    s.ops[side][kind].append(elapsed)
                    s.req[side].append(elapsed)
                    if is_hum:
                        s.calls[kind].append(world_set.calls() - calls)
                kind, step, index = world_set.step(s.rounds, offset)
                s.add_mut(side, mutate(
                    run, step, index, world_set.worlds[kind[0]].engine,
                    is_hum, f"churn {side} step on {kind[0]}"))
                s.busy[side] += _now() - t_cycle
                outs[side] = got
            for h, o in zip(outs[HUM], outs[ORIG]):
                run.tally.check(h == o and h[0] == "ok",
                                f"churn cycle {s.rounds}: Hum {h!r:.120} "
                                f"vs Orig {o!r:.120}")
            if keep_prefix and s.rounds < ORACLE_CYCLES:
                prefix.extend(outs[HUM])
            s.rounds += 1
            if s.rounds % len(hum.rotation) == 0:
                s.close_mut_round()
            if s.rounds == CHURN_RSS_CYCLES:
                peak_rss.append(peak_rss_mb())
        return s

    def oracle_replay() -> None:
        """Replay the first cycles on a cache-free engine
        (``Engine(disable_caches=True)``): every judgment recomputed."""
        oracle = ChurnSet(ORACLE, perms, run.rng)
        got = []
        for c in range(len(prefix) // CYCLE_REQUESTS):
            for j in range(CYCLE_REQUESTS):
                got.append(normalize_outcome(
                    oracle.request(c * CYCLE_REQUESTS + j)[1]))
            _kind, step, index = oracle.step(c, offset)
            step(index)
        run.tally.check(Counter(got) == Counter(prefix),
                        "churn: Hum outcome multiset differs from the "
                        "cache-free oracle's")
        for i, (h, o) in enumerate(zip(prefix, got)):
            run.tally.check(h == o, f"churn request {i}: Hum {h!r:.120} "
                                    f"vs cache-free {o!r:.120}")

    first = {HUM: hum, ORIG: ChurnSet(ORIG, perms, run.rng)}
    if not run.traced:
        main = cycles(first, run.seconds)
        oracle_replay()
        result = summarize(main, setups)
        rss = peak_rss[0] if peak_rss else peak_rss_mb()
        result.metrics["peak_rss_mb"] = (rss, 1)
        result.rows.append(f"cache-free oracle replayed {len(prefix)} "
                           f"requests")
        return result

    # Each half runs the schedule from its first cycle on fresh worlds,
    # so the traced half sees the same deopt and re-promotion phase as
    # the untraced one (both settle within the first second).
    heap0 = heap_objects()
    plain = cycles(first, run.seconds / 2)
    heap1 = heap_objects()
    second = {side: ChurnSet(side, perms, run.rng) for side in SIDES}
    engines = [w.engine for w in second[HUM].worlds.values()]
    run.begin_trace(engines)
    traced = cycles(second, run.seconds / 2)
    run.end_trace(engines)
    oracle_replay()
    return traced_result(run, plain, traced, (heap1 - heap0) / plain.rounds,
                         [])


# -- traced-run summary -------------------------------------------------------


def traced_result(run: Run, plain: Samples, traced: Samples,
                  heap_per_round: float, rows: List[str]) -> Result:
    """Per-layer metrics of the traced half, with the untraced half's
    tax and heap growth, and the integrity checks of the trace."""
    spans = run.tracer.summary()
    deltas = run.counters.total
    errors = integrity_errors(spans, run.tracer.promoted_elisions(), deltas)
    for error in errors:
        run.tally.check(False, f"trace integrity: {error}")
    if not errors:
        run.tally.check(True, "trace integrity")
    layers = layer_metrics(spans, deltas, rounds=traced.rounds,
                           mutations=run.mutations, rechecks=run.rechecks())
    layers["core.engine.tax_ns"] = plain.tax_ns()
    layers["heap.retained_objects_per_round"] = heap_per_round
    layers["trace.overhead_ratio"] = traced.op_ms(HUM) / plain.op_ms(HUM)
    return Result({}, rows, layers)


WORKLOADS = {"steady": steady, "cold": cold, "churn": churn}
