"""Concurrency benchmarks: the multi-threaded request workload.

The tentpole claim: the engine's warm path takes no global lock, so N
request threads sharing one engine scale aggregate throughput with N
whenever per-request I/O dominates — and a dev-mode reload churning the
type table mid-flight neither corrupts a cache nor collapses the warm
hit rate.

Two ways to run:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_concurrency.py -q``
  — asserts the >= 3x aggregate-throughput scaling at 8 threads versus
  1 thread on the warm path, identical outcome multisets between the
  concurrent run and a single-threaded oracle (with and without
  churn), and a still-warm hit rate under churn;
* ``PYTHONPATH=src python benchmarks/bench_concurrency.py [--smoke]``
  — prints a JSON report (the committed ``BENCH_concurrency.json``
  baseline format) for perf-trajectory tracking across PRs.

``IO_WAIT_S`` models the off-CPU time (database, network, template
writes) a real Rails request spends per hit; ``time.sleep`` releases
the GIL, so it is exactly the window in which other request threads
make progress.  The interpreter-bound portion stays serialized by the
GIL — the point of the measurement is that the *engine* adds no lock
that would serialize the I/O window too.
"""

import json
import os
import sys

from repro.concurrency import (
    Driver, build_concurrent_world, churn_recipe, request_thunks,
)

#: per-request simulated I/O window; chosen so the pubs request mix is
#: I/O-dominated (CPU per request is ~a third of this on a dev box).
IO_WAIT_S = 0.004
#: total requests per measured configuration.
REQUESTS = 480
#: thread counts compared for the scaling headline.
THREADS_LOW, THREADS_HIGH = 1, 8


def _warm(thunks, rounds: int = 2) -> None:
    """Drive every request once (twice) so annotations have executed,
    bodies are checked, and call plans are built before timing."""
    for _ in range(rounds):
        for thunk in thunks:
            thunk()


def measure_scaling(requests: int = REQUESTS,
                    io_wait_s: float = IO_WAIT_S) -> dict:
    """Aggregate warm-path throughput at 1 vs 8 threads, same schedule."""
    world = build_concurrent_world("pubs")
    thunks = request_thunks(world)
    _warm(thunks)
    runs = {}
    for threads in (THREADS_LOW, THREADS_HIGH):
        driver = Driver(thunks, workers=threads, requests=requests,
                        io_wait_s=io_wait_s)
        run = driver.run()
        # A crashed/hung worker would shrink elapsed time while its
        # requests went unserved — never let that inflate the headline.
        assert not run.crashes, run.crashes
        assert run.completed == requests, (run.completed, requests)
        runs[threads] = run
    low, high = runs[THREADS_LOW], runs[THREADS_HIGH]
    stats = world.engine.stats
    return {
        "requests": requests,
        "io_wait_ms": round(io_wait_s * 1000, 3),
        "threads_low": THREADS_LOW,
        "threads_high": THREADS_HIGH,
        "rps_1": round(low.throughput_rps, 1),
        f"rps_{THREADS_HIGH}": round(high.throughput_rps, 1),
        "scaling": round(high.throughput_rps / low.throughput_rps, 2),
        "warm_hit_rate": round(
            stats.fast_path_hits / max(1, stats.calls_intercepted), 4),
    }


def measure_churn(threads: int = THREADS_HIGH,
                  requests: int = REQUESTS,
                  churn_interval_s: float = 0.005) -> dict:
    """8 request threads + a dev-mode reload churn thread retyping a hot
    method every few milliseconds: outcomes must match the no-churn
    oracle (semantics-preserving churn), nothing may crash, and most
    calls must still ride warm plans between invalidation waves."""
    world = build_concurrent_world("pubs")
    thunks = request_thunks(world)
    _warm(thunks)
    stats = world.engine.stats
    hits0, calls0 = stats.fast_path_hits, stats.calls_intercepted
    invalidations0 = stats.plan_invalidations
    driver = Driver(thunks, workers=threads, requests=requests,
                    io_wait_s=IO_WAIT_S, churn=churn_recipe(world),
                    churn_interval_s=churn_interval_s)
    run = driver.run()
    # Snapshot the deltas *before* the oracle replay: its fully-warm
    # requests hit the same engine and would dilute the churn-period
    # miss rate into a vacuously high number.
    hits_delta = stats.fast_path_hits - hits0
    calls = stats.calls_intercepted - calls0
    oracle = driver.run_single_threaded_oracle()
    return {
        "threads": threads,
        "requests": requests,
        "churn_applied": run.churn_applied,
        "plans_invalidated": stats.plan_invalidations - invalidations0,
        "errors": len(run.error_outcomes),
        "crashes": list(run.crashes),
        "outcomes_match_oracle":
            run.outcome_multiset() == oracle.outcome_multiset(),
        "warm_hit_rate_under_churn": round(hits_delta / max(1, calls), 4),
    }


def measure(requests: int = REQUESTS) -> dict:
    return {
        "scaling": measure_scaling(requests),
        "churn": measure_churn(requests=requests),
    }


# -- pytest entry points -----------------------------------------------------


def test_concurrent_scaling_at_least_3x():
    """Acceptance criterion: >= 3x aggregate throughput at 8 threads vs
    1 thread on the warm path.

    Shared CI runners are noisy and core-starved; CI exports
    CONCURRENCY_MIN_SCALING=2 as its alarm threshold while local runs
    enforce the full 3x.
    """
    floor = float(os.environ.get("CONCURRENCY_MIN_SCALING", "3.0"))
    result = measure_scaling()
    assert result["scaling"] >= floor, result
    assert result["warm_hit_rate"] > 0.9, result


def test_concurrent_outcomes_match_single_thread_oracle():
    """Threaded differential soundness, benchmark-sized: the concurrent
    run's outcome multiset equals a single-threaded oracle replay."""
    world = build_concurrent_world("pubs")
    thunks = request_thunks(world)
    _warm(thunks)
    driver = Driver(thunks, workers=THREADS_HIGH, requests=160)
    run = driver.run()
    oracle = driver.run_single_threaded_oracle()
    assert not run.crashes, run.crashes
    assert run.outcome_multiset() == oracle.outcome_multiset()


def test_churn_under_load_is_sound_and_stays_warm():
    """Dev-mode reload churn against live traffic: no crashes, no
    divergent outcomes, and the warm hit rate survives (the whole point
    of per-key invalidation — one retyped method must not cold-start
    the world on every wave)."""
    result = measure_churn(requests=240)
    assert not result["crashes"], result
    assert result["errors"] == 0, result
    assert result["outcomes_match_oracle"], result
    assert result["churn_applied"] > 0, result
    assert result["warm_hit_rate_under_churn"] > 0.5, result


# -- baseline script ---------------------------------------------------------


def main(argv) -> int:
    requests = 160 if "--smoke" in argv else REQUESTS
    result = measure(requests)
    print(json.dumps(result, indent=2))
    scaling = result["scaling"]["scaling"]
    floor = 2.0 if "--smoke" in argv else 3.0
    ok = (scaling >= floor
          and result["churn"]["outcomes_match_oracle"]
          and not result["churn"]["crashes"])
    if not ok:
        print(f"FAIL: scaling {scaling} < {floor}x or churn unsound",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
