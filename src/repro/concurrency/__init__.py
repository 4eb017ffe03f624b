"""``repro.concurrency`` — the request driver (worker threads or processes).

The ROADMAP north star is a production-scale system serving heavy
traffic, which means many request threads hitting the same engine — the
same call plans, check cache, and subtype memo — concurrently.  The
engine's locking discipline (lock-free warm reads, one writer lock,
epoch-guarded memo stores; see ``docs/performance.md`` "Concurrency")
makes that safe; this package makes it *drivable and measurable*:

* :class:`~repro.concurrency.driver.Driver` — replays a request mix
  from N workers over one round-robin schedule.  Workers are threads
  sharing one engine (optionally beside dev-mode churn threads
  retyping/redefining methods mid-flight) or processes forked from a
  warm parent, each reporting over its own single-writer pipe; with
  ``max_retries`` > 0 a dead, crashed, or hung worker's remainder is
  respawned from the warm parent.  The :class:`~repro.concurrency.driver.Run`
  it returns keys outcomes by schedule index, so any run can be checked
  index by index against an oracle replay, and partitions the schedule
  exactly into first-attempt, replayed, and abandoned requests;
* :mod:`~repro.concurrency.workload` — the pubs/cct/talks request
  mixes (read-only, so concurrent outcomes are deterministic and
  comparable against a single-threaded oracle) and reload-churn
  recipes.

``benchmarks/bench_concurrency.py`` builds the committed
``BENCH_concurrency.json`` baseline on top of these, and
``tests/core/test_thread_safety.py`` uses the same driver for the
threaded differential-soundness harness.
"""

from .driver import (
    TRANSITION_FIELDS, Driver, Run, fork_available, normalize_outcome,
)
from .workload import (
    build_concurrent_world, churn_recipe, request_thunks,
)

__all__ = [
    "TRANSITION_FIELDS",
    "Driver",
    "Run",
    "fork_available",
    "normalize_outcome",
    "build_concurrent_world",
    "churn_recipe",
    "request_thunks",
]
