"""Per-request latency recording for the serving harness.

Throughput averages away exactly the thing the ROADMAP's production-
realism item cares about: a deopt storm or an invalidation wave stalls
*some* requests badly while the mean barely moves.  The recorder makes
those waves visible as tail percentiles (p99/p999) instead.

Design constraints, in order:

* **No allocation, no locking on the hot record path.**  Each recording
  thread owns a :class:`Reservoir` — a preallocated buffer of float
  slots — reached through a ``threading.local``; ``record()`` is an
  index store plus an increment.  Shard creation (once per thread) is
  the only locked, allocating step, mirroring ``Stats.local()``.
* **Exact percentiles whenever the data fits.**  Per-thread buffers are
  merged and sorted at summary time; as long as no reservoir
  overflowed, the merged sample *is* the full population and the
  nearest-rank percentiles are exact (the unit tests assert this
  merge-exactness).  On overflow a reservoir degrades to uniform
  reservoir sampling (Vitter's R) with a deterministic per-shard seed,
  and the summary flags itself ``exact=False``.
* **Percentile convention: nearest-rank** (the value at index
  ``ceil(q*n) - 1`` of the sorted sample).  Every reported percentile
  is a latency that actually occurred — no interpolation between two
  requests that never happened — which is the convention tail-latency
  SLOs use.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from typing import List, Optional

#: default per-thread capacity; the benchmarks schedule far fewer
#: requests per thread than this, so their percentiles are exact.
DEFAULT_CAPACITY = 16384


def nearest_rank(sorted_values: List[float], q: float) -> float:
    """The q-th percentile (0 < q <= 1) of an ascending-sorted sample,
    nearest-rank convention."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q!r} outside (0, 1]")
    return sorted_values[max(0, math.ceil(q * n) - 1)]


class Reservoir:
    """One thread's latency samples: a preallocated buffer of floats.

    Below capacity every sample is kept (exact).  Past capacity, slot
    replacement follows uniform reservoir sampling so the kept subset
    stays an unbiased sample of the whole stream; the RNG is seeded per
    reservoir so runs are reproducible.
    """

    __slots__ = ("_buf", "_cap", "_count", "_rng")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, seed: int = 0):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self._buf = [0.0] * capacity
        self._cap = capacity
        self._count = 0
        self._rng = random.Random(seed)

    def record(self, value: float) -> None:
        """Record one sample.  The non-overflow path allocates nothing
        and takes no lock: one list-slot store and one increment."""
        i = self._count
        if i < self._cap:
            self._buf[i] = value
        else:
            j = self._rng.randrange(i + 1)
            if j < self._cap:
                self._buf[j] = value
        self._count = i + 1

    @property
    def count(self) -> int:
        """Samples recorded (including any sampled away by overflow)."""
        return self._count

    @property
    def overflowed(self) -> bool:
        return self._count > self._cap

    def samples(self) -> List[float]:
        """The kept samples (a copy; order is not meaningful)."""
        return self._buf[:min(self._count, self._cap)]


def summarize_samples(samples: List[float],
                      count: Optional[int] = None) -> "LatencySummary":
    """Build a summary from an unsorted merged sample list.  ``count``
    is the number of latencies *recorded* (>= the samples retained when
    a reservoir overflowed) — e.g. a recorder's summed reservoir
    counts."""
    if not samples:
        raise ValueError("no latency samples recorded")
    merged = sorted(samples)
    count = len(merged) if count is None else count
    return LatencySummary(
        count=count,
        sampled=len(merged),
        exact=(count == len(merged)),
        p50=nearest_rank(merged, 0.50),
        p95=nearest_rank(merged, 0.95),
        p99=nearest_rank(merged, 0.99),
        p999=nearest_rank(merged, 0.999),
        max=merged[-1],
        mean=sum(merged) / len(merged),
    )


@dataclass(frozen=True)
class LatencySummary:
    """Merged percentile view across every recording thread."""

    count: int           # samples recorded
    sampled: int         # samples retained (== count unless overflow)
    exact: bool          # percentiles computed over the full population
    p50: float
    p95: float
    p99: float
    p999: float
    max: float
    mean: float

    def as_ms_dict(self) -> dict:
        """The committed-baseline JSON shape (milliseconds, rounded)."""
        return {
            "count": self.count,
            "latency_exact": self.exact,
            "p50_ms": round(self.p50 * 1000, 3),
            "p95_ms": round(self.p95 * 1000, 3),
            "p99_ms": round(self.p99 * 1000, 3),
            "p999_ms": round(self.p999 * 1000, 3),
            "max_ms": round(self.max * 1000, 3),
            "mean_ms": round(self.mean * 1000, 3),
        }


class LatencyRecorder:
    """Per-thread reservoirs merged into one percentile summary.

    Unlike ``Stats``, dead threads' shards are *kept* — their samples
    are part of the run being measured — until :meth:`reset`.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._shards: List[Reservoir] = []
        self._lock = threading.Lock()
        self._tl = threading.local()

    def record(self, seconds: float) -> None:
        """Record one request latency (hot path: shard lookup + store)."""
        shard = getattr(self._tl, "shard", None)
        if shard is None:
            shard = self._new_shard()
        shard.record(seconds)

    def _new_shard(self) -> Reservoir:
        with self._lock:
            shard = Reservoir(self.capacity, seed=len(self._shards))
            self._shards.append(shard)
        self._tl.shard = shard
        return shard

    def timed(self, thunk, clock=None):
        """Wrap a zero-arg request thunk so its wall-clock is recorded —
        exceptions included (an erroring request still has a latency)."""
        import time
        clock = clock or time.perf_counter
        record = self.record

        def run():
            t0 = clock()
            try:
                return thunk()
            finally:
                record(clock() - t0)
        return run

    @property
    def count(self) -> int:
        with self._lock:
            return sum(s.count for s in self._shards)

    def merged_samples(self) -> List[float]:
        """All retained samples across shards (unsorted copy)."""
        with self._lock:
            shards = list(self._shards)
        merged: List[float] = []
        for shard in shards:
            merged.extend(shard.samples())
        return merged

    def summary(self) -> LatencySummary:
        with self._lock:
            shards = list(self._shards)
        count = sum(s.count for s in shards)
        merged: List[float] = []
        for shard in shards:
            merged.extend(shard.samples())
        return summarize_samples(merged, count)

    def reset(self) -> None:
        """Drop every shard; every thread re-registers on next record.
        Only safe between runs — a thread mid-``record`` may still hold
        a reference to a dropped shard and its sample would be lost."""
        with self._lock:
            self._shards = []
        self._tl = threading.local()
