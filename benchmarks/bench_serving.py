"""Serving benchmarks: production-shaped traffic with tail-latency gates.

The concurrency suite proved lock-free scaling on a warm read path;
this suite measures what a deploy actually feels: write-heavy and mixed
request mixes exercising the sqldb create/update/destroy paths, dev-mode
reload + typegen churn landing mid-traffic from dedicated mutator
threads, and per-request latency percentiles — because a deopt storm
that averages away still shows up in p999.

Three committed scenarios (``BENCH_serving.json``):

* ``read_heavy``  — boxroom read mix (index pages included), 8 threads,
  warmed past the tier-2 promotion threshold: the steady-state ceiling;
* ``write_heavy`` — boxroom write cycles from all threads: the sqldb
  write path plus per-request view rendering under load;
* ``mixed_churn`` — boxroom mixed traffic while retype + dev-mode
  reload + typegen mutators run on their own threads: the dev-loop
  worst case, with deopt storms counted per churn step.

Every scenario is differentially verified in-run: the threaded outcome
multiset must equal both a single-threaded replay on the same warm
engine and a replay on a fresh cache-free oracle world.  A report whose
oracle bits are not 1 is a soundness bug, not a slow run.

Two ways to run:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q`` —
  asserts soundness (oracle match, zero errors, no crashes, churn
  actually applied) plus an environment-tunable p99 ceiling;
* ``PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]`` —
  prints the committed-baseline JSON (``--smoke`` shrinks volumes for
  CI wall clocks; the committed baseline uses full volumes).
"""

import json
import os
import sys

from repro.serving import Scenario, run_scenario

#: per-request simulated I/O window (released GIL) — same rationale as
#: bench_concurrency: the engine must not serialize this window.
IO_WAIT_S = 0.002
THREADS = 8
REQUESTS = 480
#: read_heavy warms past EngineConfig.specialize_threshold (50) so the
#: measured phase rides tier-2 wrappers — the steady-state number.
STEADY_WARM_ROUNDS = 60


def _scenarios(requests: int, warm_rounds: int):
    return [
        Scenario(
            name="read_heavy", app="boxroom", mix="read",
            workers=THREADS, requests=requests, io_wait_s=IO_WAIT_S,
            churn="none", warm_rounds=warm_rounds,
            cfg={"view_cost": 40}),
        Scenario(
            name="write_heavy", app="boxroom", mix="write",
            workers=THREADS, requests=requests, io_wait_s=IO_WAIT_S,
            churn="none", warm_rounds=max(4, warm_rounds // 10),
            cfg={"view_cost": 40}),
        Scenario(
            name="mixed_churn", app="boxroom", mix="mixed",
            workers=THREADS, requests=requests, io_wait_s=IO_WAIT_S,
            churn="full", churn_interval_s=0.005,
            warm_rounds=max(4, warm_rounds // 10),
            cfg={"view_cost": 40}),
    ]


def measure(requests: int = REQUESTS,
            warm_rounds: int = STEADY_WARM_ROUNDS) -> dict:
    out = {}
    for scenario in _scenarios(requests, warm_rounds):
        report = run_scenario(scenario)
        out[scenario.name] = report.as_dict()
    return {"scenarios": out}


# -- pytest entry points -----------------------------------------------------


def test_read_heavy_steady_state_is_sound_and_fast():
    """Warmed past the promotion threshold, the read mix must be
    oracle-identical with zero errors, and its p99 must clear an
    environment-tunable ceiling (CI exports a lenient SERVING_MAX_P99_MS
    for noisy shared runners)."""
    ceiling_ms = float(os.environ.get("SERVING_MAX_P99_MS", "50"))
    report = run_scenario(Scenario(
        name="read_heavy", app="boxroom", mix="read", workers=THREADS,
        requests=160, io_wait_s=IO_WAIT_S, churn="none",
        warm_rounds=STEADY_WARM_ROUNDS, cfg={"view_cost": 40}))
    assert report.crashes == [], report.crashes
    assert report.errors == 0
    assert report.oracle_match and report.oracle_match_cache_free
    p99_ms = report.latency.p99 * 1000
    assert p99_ms <= ceiling_ms, (
        f"read-heavy p99 {p99_ms:.2f}ms > {ceiling_ms}ms ceiling")


def test_write_heavy_is_oracle_identical():
    """The write path under 8 threads: every create/update/destroy
    cycle lands exactly as the cache-free oracle says it should."""
    report = run_scenario(Scenario(
        name="write_heavy", app="boxroom", mix="write", workers=THREADS,
        requests=160, io_wait_s=IO_WAIT_S, churn="none", warm_rounds=4,
        cfg={"view_cost": 40}))
    assert report.crashes == [], report.crashes
    assert report.errors == 0
    assert report.completed == report.requests
    assert report.oracle_match and report.oracle_match_cache_free


def test_mixed_traffic_survives_full_churn():
    """The dev-loop worst case: mixed traffic while reload/typegen/
    retype mutators run.  Soundness is absolute; churn must actually
    have landed for the run to count."""
    report = run_scenario(Scenario(
        name="mixed_churn", app="boxroom", mix="mixed", workers=THREADS,
        requests=240, io_wait_s=IO_WAIT_S, churn="full",
        churn_interval_s=0.003, warm_rounds=4, cfg={"view_cost": 40}))
    assert report.crashes == [], report.crashes
    assert report.errors == 0
    assert report.churn_applied > 0, "mutator threads never ran"
    assert report.oracle_match and report.oracle_match_cache_free


# -- baseline script ---------------------------------------------------------


def main(argv) -> int:
    smoke = "--smoke" in argv
    requests = 160 if smoke else REQUESTS
    warm_rounds = STEADY_WARM_ROUNDS  # promotion depends on it; keep it
    result = measure(requests, warm_rounds)
    print(json.dumps(result, indent=2))
    bad = []
    for name, scenario in result["scenarios"].items():
        if not (scenario["oracle_match"]
                and scenario["oracle_match_cache_free"]):
            bad.append(f"{name}: oracle divergence")
        if scenario["errors"] or scenario["crashes"]:
            bad.append(f"{name}: {scenario['errors']} errors, "
                       f"{scenario['crashes']} crashes")
    if result["scenarios"]["mixed_churn"]["churn_applied"] < 1:
        bad.append("mixed_churn: churn never applied")
    if bad:
        print("FAIL: " + "; ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
