"""Chaos benchmarks: supervised recovery cost + breaker effectiveness.

The fault-tolerance claims of ``docs/robustness.md``, measured end to
end and committed as ``BENCH_chaos.json``:

* **Recovery** — a supervised fleet with scripted worker kills (the
  deterministic ``repro.faults`` plan) must still complete **100% of
  the schedule**, oracle-identically, with the accounting invariant
  intact — and the recovery detour (detect, respawn, replay, backoff)
  must cost a bounded multiple of the fault-free run on identical
  traffic, not a timeout-shaped cliff.  A budget-exhaustion sub-block
  pins the degraded mode: an unrecoverable worker abandons exactly its
  own slice while every other worker's slice completes untouched.
* **Breaker** — a reload flap storm (promote -> same-signature reload
  -> deopt, repeated) against one engine with the deopt-storm breaker
  armed and one with it disabled, same workload, real clock.  The
  breaker must trip, stop the wasted re-promotions (exec compilation
  burned on a site that never stays warm), and cut the flapping site's
  tail latency — the inline promotion compile is exactly what lands in
  p999.  Both modes must stay outcome-identical: the breaker is a
  performance governor, never a soundness mechanism.

Two ways to run:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_chaos.py -q`` —
  asserts completion, accounting, oracle identity, breaker trips, and
  environment-tunable overhead ceilings (skips cleanly where ``fork``
  or specialization is unavailable);
* ``PYTHONPATH=src python benchmarks/bench_chaos.py [--smoke]`` —
  prints the committed ``BENCH_chaos.json`` baseline JSON.
"""

import json
import os
import sys
import time

import pytest

from repro.concurrency import fork_available
from repro.core import Engine, EngineConfig
from repro.faults import KILL, Fault, FaultPlan
from repro.serving import (
    Scenario, run_scenario, summarize_samples,
)

#: recovery block: boxroom read traffic, 4 workers, kills scripted at
#: fixed (worker, ordinal) coordinates — the same run every time.
IO_WAIT_S = 0.001
WORKERS = 4
REQUESTS = 240

fork_missing = pytest.mark.skipif(
    not fork_available(),
    reason="supervised serving requires the 'fork' start method")
specialize_missing = pytest.mark.skipif(
    os.environ.get("REPRO_DISABLE_SPECIALIZE") == "1",
    reason="the breaker governs tier-2 promotion, which is ablated")


# -- recovery ----------------------------------------------------------------


def _scenario(name: str, requests: int, **overrides) -> Scenario:
    kw = dict(app="boxroom", mix="read", substrate="fork", workers=WORKERS,
              requests=requests, io_wait_s=IO_WAIT_S, warm_rounds=4,
              cfg={"view_cost": 40}, max_retries=2, backoff_base_s=0.01,
              backoff_cap_s=0.05, hang_timeout_s=5.0)
    kw.update(overrides)
    return Scenario(name, **kw)


def _kill_plan(requests: int) -> FaultPlan:
    """Three workers die at staggered points in their slices: early,
    mid, and late — early kills replay almost a whole slice, late kills
    test detection when the slice is nearly drained."""
    per_worker = requests // WORKERS
    return FaultPlan([
        Fault(KILL, 0, max(1, per_worker // 8)),
        Fault(KILL, 2, per_worker // 2),
        Fault(KILL, 3, max(2, (3 * per_worker) // 4)),
    ])


def measure_recovery(requests: int = REQUESTS) -> dict:
    clean = run_scenario(_scenario("clean", requests))
    faulted = run_scenario(_scenario("kills", requests),
                           faults=_kill_plan(requests))
    assert clean.accounting_ok and faulted.accounting_ok
    overhead = faulted.elapsed_s / max(clean.elapsed_s, 1e-9)
    return {
        "app": "boxroom",
        "workers": WORKERS,
        "requests": requests,
        "kills_scripted": 3,
        "restarts": faulted.restarts,
        "requests_replayed": faulted.requests_replayed,
        "completion_rate": round(faulted.completed / requests, 4),
        "abandoned": faulted.abandoned,
        "accounting_ok": int(faulted.accounting_ok),
        "oracle_match": int(clean.oracle_match_cache_free
                            and faulted.oracle_match_cache_free),
        "clean_rps": round(clean.rps, 1),
        "faulted_rps": round(faulted.rps, 1),
        #: recovery detour cost: wall clock vs the fault-free run on
        #: identical traffic (replays + backoff + respawn forks).
        "recovery_overhead": round(overhead, 2),
        "latency_replayed_p99_ms": (
            faulted.replay_latency.as_ms_dict()["p99_ms"]
            if faulted.replay_latency else None),
        "abandonment": measure_abandonment(requests),
    }


def measure_abandonment(requests: int = REQUESTS) -> dict:
    """Degraded mode: worker 1 dies at its first request on every
    attempt; with the retry budget exhausted its slice is abandoned —
    and *only* its slice."""
    per_worker = requests // WORKERS
    plan = FaultPlan([Fault(KILL, 1, 0, attempt=a) for a in range(4)])
    report = run_scenario(
        _scenario("exhausted", requests, max_retries=2), faults=plan)
    return {
        "max_retries": 2,
        "abandoned": report.abandoned,
        "restarts": report.restarts,
        "accounting_ok": int(report.accounting_ok),
        #: the blast radius stays one slice: every *other* request
        #: completed, oracle-identically.
        "isolated": int(report.abandoned == per_worker
                        and report.completed == requests - per_worker
                        and report.oracle_match_cache_free),
    }


# -- breaker ----------------------------------------------------------------


_BUMP = "def bump(self, n):\n    return n + 1\n"
FLAP_CYCLES = 40
CALLS_PER_CYCLE = 8
BREAKER_THRESHOLD = 3


def _flap_world(breaker: bool):
    engine = Engine(EngineConfig(
        specialize_threshold=BREAKER_THRESHOLD, breaker=breaker,
        breaker_flap_limit=4, breaker_window_s=600.0,
        breaker_cooldown_s=600.0, breaker_wave_limit=10 ** 9))
    namespace = {}
    exec(_BUMP, namespace)  # noqa: S102 - fixed benchmark template
    cls = type("ChaosFlappy", (object,), {})
    engine.define_method(cls, "bump", namespace["bump"],
                         sig="(Integer) -> Integer", check=True,
                         source=_BUMP)
    return engine, cls()


def _storm(breaker: bool, cycles: int) -> dict:
    """One flap storm: each cycle warms the site hot enough to promote
    (when allowed), then a same-signature reload deopts it.  Per-call
    latency of the site's own calls is recorded — the inline promotion
    compile is what the breaker keeps out of the tail."""
    engine, obj = _flap_world(breaker)
    clock = time.perf_counter
    samples = []
    outcomes = []
    t0 = clock()
    for _ in range(cycles):
        for i in range(CALLS_PER_CYCLE):
            started = clock()
            outcomes.append(obj.bump(i))
            samples.append(clock() - started)
        engine.types.replace("ChaosFlappy", "bump",
                             "(Integer) -> Integer", check=True)
    elapsed = clock() - t0
    stats = engine.stats
    return {
        "elapsed_s": elapsed,
        "latency": summarize_samples(samples).as_ms_dict(),
        # The second half of the run: by then the armed breaker has
        # tripped, so this is the steady tail each mode settles into.
        # The full-run percentiles are ~equal by construction — both
        # modes pay the pre-trip promotion compiles, and p999 of a
        # storm this size is the max — so the recurring-spike claim
        # lives in the steady half, not the full run.
        "steady_latency": summarize_samples(
            samples[len(samples) // 2:]).as_ms_dict(),
        "outcomes": outcomes,
        "promotions": stats.promotions,
        "trips": stats.breaker_trips,
        "demotions": stats.breaker_demotions,
    }


def measure_breaker(cycles: int = FLAP_CYCLES) -> dict:
    armed = _storm(breaker=True, cycles=cycles)
    unarmed = _storm(breaker=False, cycles=cycles)
    steady_armed = armed["steady_latency"]["p999_ms"]
    steady_unarmed = unarmed["steady_latency"]["p999_ms"]
    return {
        "flap_cycles": cycles,
        "calls_per_cycle": CALLS_PER_CYCLE,
        "trips": armed["trips"],
        "demotions": armed["demotions"],
        "promotions_armed": armed["promotions"],
        "promotions_unarmed": unarmed["promotions"],
        #: exec compilations the breaker refused to burn on a site that
        #: never stays warm — the whole point of the governor.
        "wasted_promotions_avoided": (unarmed["promotions"]
                                      - armed["promotions"]),
        "p999_armed_ms": armed["latency"]["p999_ms"],
        "p999_unarmed_ms": unarmed["latency"]["p999_ms"],
        #: the headline tail claim, over the post-trip steady half of
        #: the storm: armed serves plain tier-1 calls; unarmed keeps
        #: paying a promotion compile per flap cycle, and that compile
        #: IS its p999.
        "steady_p999_armed_ms": steady_armed,
        "steady_p999_unarmed_ms": steady_unarmed,
        #: << 1 when the breaker holds; the CI gate caps this loosely
        #: (shared-runner noise on microsecond-scale calls).
        "steady_p999_ratio": round(
            steady_armed / max(steady_unarmed, 1e-9), 3),
        #: the breaker is not a soundness mechanism: identical results.
        "soundness": int(armed["outcomes"] == unarmed["outcomes"]
                         and unarmed["trips"] == 0),
    }


def measure(requests: int = REQUESTS, cycles: int = FLAP_CYCLES) -> dict:
    return {
        "recovery": measure_recovery(requests),
        "breaker": measure_breaker(cycles),
    }


# -- pytest entry points -----------------------------------------------------
# NOTE: these use skipif directly (not the conftest markers) because
# benchmarks/ runs under its own conftest, which has no marker hooks.


@fork_missing
def test_supervised_fleet_completes_under_kills():
    """Acceptance criterion: scripted kills cost restarts and replays,
    never requests — 100% completion, oracle-identical, accounting
    intact, and the detour bounded (CHAOS_MAX_OVERHEAD tunes the
    ceiling for shared runners)."""
    result = measure_recovery(requests=120)
    assert result["completion_rate"] == 1.0, result
    assert result["abandoned"] == 0, result
    assert result["accounting_ok"] == 1, result
    assert result["oracle_match"] == 1, result
    assert result["restarts"] == 3, result
    assert result["requests_replayed"] >= 3, result
    cap = float(os.environ.get("CHAOS_MAX_OVERHEAD", "10.0"))
    assert result["recovery_overhead"] <= cap, result


@fork_missing
def test_budget_exhaustion_abandons_one_slice_only():
    result = measure_abandonment(requests=120)
    assert result["accounting_ok"] == 1, result
    assert result["isolated"] == 1, result
    assert result["restarts"] == 2, result


@specialize_missing
def test_breaker_stops_promotion_churn_and_stays_sound():
    """Acceptance criterion: the armed breaker trips on the flap storm,
    avoids the wasted re-promotions, and changes no outcome."""
    result = measure_breaker(cycles=20)
    assert result["trips"] >= 1, result
    assert result["demotions"] >= 1, result
    assert result["wasted_promotions_avoided"] >= 1, result
    assert result["promotions_armed"] < result["promotions_unarmed"], result
    assert result["soundness"] == 1, result
    # Post-trip steady tail: armed must be meaningfully shorter than
    # the keep-promoting tail (CHAOS_MAX_STEADY_TAIL_RATIO tunes the
    # cap for noisy shared runners).
    cap = float(os.environ.get("CHAOS_MAX_STEADY_TAIL_RATIO", "0.9"))
    assert result["steady_p999_ratio"] <= cap, result


# -- baseline script ---------------------------------------------------------


def main(argv) -> int:
    if not fork_available():
        print(json.dumps({"skipped": "fork start method unavailable"}))
        return 0
    smoke = "--smoke" in argv
    result = measure(requests=120 if smoke else REQUESTS,
                     cycles=20 if smoke else FLAP_CYCLES)
    print(json.dumps(result, indent=2))
    recovery, breaker = result["recovery"], result["breaker"]
    cap = float(os.environ.get("CHAOS_MAX_OVERHEAD", "10.0"))
    ok = (recovery["completion_rate"] == 1.0
          and recovery["accounting_ok"] == 1
          and recovery["oracle_match"] == 1
          and recovery["restarts"] >= 1
          and recovery["recovery_overhead"] <= cap
          and recovery["abandonment"]["isolated"] == 1
          and breaker["trips"] >= 1
          and breaker["wasted_promotions_avoided"] >= 1
          and breaker["steady_p999_ratio"] <= 0.9
          and breaker["soundness"] == 1)
    if not ok:
        print("FAIL: a fault was not recovered, accounting broke, the "
              "breaker never tripped, or an outcome diverged",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
