"""Known-answer verdicts checked once per invocation.

These are checks, not metrics: the paper's claims that a single run can
confirm.  Their inputs are fixed; the seed does not reach them.

* Table 2 (``run_update_experiment``): seven rows; every update
  re-checks fewer methods than the full load, and within one of
  dMeth + Added + Deps.
* Every ``HISTORICAL_ERRORS`` entry is DETECTED by
  ``run_error_experiment``.
* Orig < Hum << No$ on reduced pubs and cct passes (an unreduced No$
  cct pass takes seconds).
"""

from __future__ import annotations

import gc
import time
from statistics import median
from typing import Dict, List, Tuple

from repro.apps import all_builders
from repro.apps.talks.updates import run_update_experiment
from repro.core import Engine, EngineConfig
from repro.evalharness.errors import run_error_experiment

#: reduced Table 1 inputs for the No$ ordering check.
REDUCED = (("pubs", {"publications": 12}), ("cct", {"repeats": 3}))
#: rounds of back-to-back Orig, Hum and No$ passes, in rotating order
#: so no mode always follows No$'s cache-thrashing pass.  No$ is far
#: slower, so it runs in the first rounds only.  A reduced pass takes
#: ~3 ms and a burst of load on a shared host doubles single passes, so
#: the median needs many rounds: over 9, cct's Hum/Orig (~1.25) read
#: 0.99 once in about 60 runs.
ROUNDS = 45
NOCACHE_ROUNDS = 5
#: "<<": No$ must take at least this many times Hum's time.
NOCACHE_FACTOR = 3.0

Verdict = Tuple[str, bool]


def table2() -> List[Verdict]:
    rows = run_update_experiment()
    out = [(f"table2 has 7 rows (got {len(rows)})", len(rows) == 7)]
    baseline = rows[0].checked_with_helpers
    for row in rows[1:]:
        expected = row.delta_meth + row.added + row.deps
        got = row.checked_without_helpers
        out.append((f"table2 {row.version}: re-checked {got} < full load "
                    f"{baseline}", got < baseline))
        out.append((f"table2 {row.version}: re-checked {got} within 1 of "
                    f"dMeth+Added+Deps = {expected}",
                    abs(got - expected) <= 1))
    return out


def historical_errors() -> List[Verdict]:
    return [(f"historical error {version} DETECTED", matched)
            for version, matched, _message in run_error_experiment()]


def _engine(mode: str) -> Engine:
    if mode == "orig":
        return Engine(EngineConfig(intercept=False))
    if mode == "nocache":
        return Engine(EngineConfig(caching=False))
    return Engine()


def ordering() -> List[Verdict]:
    out = []
    builders = all_builders()
    for app, cfg in REDUCED:
        worlds = {m: builders[app](_engine(m), **cfg)
                  for m in ("orig", "hum", "nocache")}
        for world in worlds.values():
            world.seed()
            world.workload()
        # Each comparison is the median of per-round ratios: the passes
        # of one round run back to back and share the host's speed, so
        # a slow second on a shared host cannot reorder them.  (Fastest
        # pass per mode, compared across modes, flipped Orig < Hum in 2
        # of 60 checks.)  As in ``timeit``, the collector is off inside
        # a timed pass: these passes take ~3 ms, a full collection over
        # the heap a workload leaves behind takes longer, and the fixed
        # pass order let collections land on the same mode round after
        # round (Hum/Orig read 0.98 once after a churn run).
        # The heap a workload leaves behind is frozen first, so the
        # collection before each pass scans only what the passes made.
        times: Dict[str, List[float]] = {m: [] for m in worlds}
        modes = list(worlds)
        gc.collect()
        gc.freeze()
        try:
            for i in range(ROUNDS):
                for mode in modes[i % 3:] + modes[:i % 3]:
                    if mode == "nocache" and i >= NOCACHE_ROUNDS:
                        continue
                    world = worlds[mode]
                    world.seed()
                    gc.collect()
                    gc.disable()
                    try:
                        t0 = time.perf_counter()
                        world.workload()
                        times[mode].append(time.perf_counter() - t0)
                    finally:
                        gc.enable()
        finally:
            gc.unfreeze()
        hum_orig = median([h / o for h, o in zip(times["hum"],
                                                 times["orig"])])
        nocache_hum = median([n / h for n, h in zip(times["nocache"],
                                                    times["hum"])])
        out.append((f"{app} reduced: Orig < Hum (Hum/Orig = "
                    f"{hum_orig:.3f})", hum_orig > 1))
        out.append((f"{app} reduced: Hum << No$ (No$/Hum = "
                    f"{nocache_hum:.1f} >= {NOCACHE_FACTOR:g})",
                    nocache_hum >= NOCACHE_FACTOR))
    return out


def all_verdicts() -> List[Verdict]:
    return table2() + historical_errors() + ordering()
