"""``repro.serving`` — the end-to-end load harness (ROADMAP item 4).

The concurrency layer proved the engine sound and scalable under
read-only traffic; this package proves it under *production-shaped*
traffic: write-heavy and mixed read/write request mixes over the
boxroom / countries / rolify apps (the ``sqldb`` create/update/destroy
paths), dev-mode reload and schema-retype churn running from dedicated
mutator threads while N request threads are in flight, and per-request
latency percentiles (p50/p95/p99/p999) so promotion and deopt waves
surface as tail latency instead of averaging away.

* :mod:`~repro.serving.latency` — per-thread reservoir latency
  recorder, nearest-rank percentiles, exact merge;
* :mod:`~repro.serving.recipes` — request mixes built on a
  disjoint-resource discipline that keeps every outcome
  interleaving-independent (so the differential oracle bar stays
  absolute even for writes);
* :mod:`~repro.serving.churn` — reloader/typegen/retype mutator
  recipes plus deopt-storm accounting;
* :mod:`~repro.serving.harness` — one
  :class:`~repro.serving.harness.Scenario` type and one
  :func:`~repro.serving.harness.run_scenario` runner for every
  substrate (worker threads, or workers forked from a possibly
  snapshot-warmed parent, optionally supervised with respawns),
  producing a :class:`~repro.serving.harness.Report` (rps,
  percentiles, tier transitions, recovery accounting, and per-index
  oracle verdicts).

``benchmarks/bench_serving.py`` builds the committed
``BENCH_serving.json`` baseline on top of these;
``tests/serving/`` holds the differential and stress suites.
"""

from .churn import churn_suite, count_storms, reload_churn, retype_churn, typegen_churn
from .harness import Report, Scenario, run_scenario
from .latency import (
    DEFAULT_CAPACITY, LatencyRecorder, LatencySummary, Reservoir, nearest_rank,
    summarize_samples,
)
from .recipes import (
    build_serving_world, mask_ids, mixed_thunks, read_thunks, scenario_thunks,
    write_heavy_thunks, write_thunks,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "LatencyRecorder",
    "LatencySummary",
    "Report",
    "Reservoir",
    "Scenario",
    "build_serving_world",
    "churn_suite",
    "count_storms",
    "mask_ids",
    "mixed_thunks",
    "nearest_rank",
    "read_thunks",
    "reload_churn",
    "retype_churn",
    "run_scenario",
    "scenario_thunks",
    "summarize_samples",
    "typegen_churn",
    "write_heavy_thunks",
    "write_thunks",
]
