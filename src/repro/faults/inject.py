"""Deterministic, seed-driven fault injection for the serving stack.

The ROADMAP's north star is traffic from millions of users; at that
scale workers crash mid-slice, requests wedge, snapshots truncate in
transit, and mutator threads die between invalidation waves.  This
module is the *instrumentation* half of the fault-tolerance story: a
:class:`FaultPlan` is a finite script of :class:`Fault` records keyed
by **(worker slot, attempt, request ordinal)** — pure data, installed
into :class:`~repro.concurrency.driver.Driver` and the serving harness
through an optional ``faults=`` parameter.

Design rules:

* **Deterministic.**  A fault fires iff its exact coordinate is
  reached.  :func:`generate_fault_plan` derives scripts from a seed via
  ``random.Random``, so a chaos run is replayable bit-for-bit: same
  seed, same kills, same recovery path.
* **Outside the measured semantics.**  Faults fire *around* request
  thunks, never inside them: an injected error is raised by the
  injection point before the thunk runs, so it can never be mistaken
  for a request outcome — the differential oracle compares completed
  requests only, and a faulted attempt completes nothing.
* **Zero cost when absent.**  Every driver hook is guarded by
  ``if faults is not None``; production paths with ``faults=None``
  execute exactly the pre-existing code.

Fault kinds:

``KILL``
    Worker death at a request boundary.  In a forked worker the
    injection point calls ``os._exit(KILL_EXIT_CODE)`` — no cleanup,
    no flush, exactly like a segfault or an OOM kill.  In a
    worker *thread* (where ``_exit`` would take the whole process) it
    raises :class:`InjectedFaultError` out of the worker loop instead,
    which the driver handles like any other worker crash.
``ERROR``
    An infrastructure exception at the injection point (a poisoned
    deserializer, a dead database handle).  Raised before the thunk
    runs; escapes the worker loop as a crash.
``HANG``
    A stuck request: the injection point sleeps ``delay_s`` before the
    thunk runs.  Under supervision a hang past the heartbeat timeout
    gets the worker killed and its remainder reassigned.
``CHURN_DIE``
    Mutator-thread death mid-wave-sequence: the churn wrapper raises at
    the scripted step, killing the mutator while request threads keep
    serving.  (Invalidation waves themselves are atomic under the
    engine's writer lock, so death *between* waves is the only
    reachable interleaving — which is exactly why it must be harmless.)

Snapshot corruption helpers (:func:`truncate_file`,
:func:`corrupt_file`) damage warm-state files deterministically; the
snapshot loader must degrade every such file to a clean cold start.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: exit status a KILL fault dies with — distinguishable from a clean
#: exit (0) and from a Python traceback exit (1) in supervisor logs.
KILL_EXIT_CODE = 87

KILL = "kill"
ERROR = "error"
HANG = "hang"
CHURN_DIE = "churn_die"

FAULT_KINDS = (KILL, ERROR, HANG, CHURN_DIE)


class InjectedFaultError(RuntimeError):
    """An injected infrastructure failure (never a request outcome)."""


@dataclass(frozen=True)
class Fault:
    """One scripted fault at an exact execution coordinate.

    ``worker`` is the worker slot (or, for ``CHURN_DIE``, the churn
    recipe index); ``ordinal`` is the 0-based position within the
    worker's schedule slice (or the churn step); ``attempt`` is the
    supervision retry generation — 0 on first execution, so a replayed
    remainder does not re-trip a first-attempt fault unless a fault is
    scripted for the retry attempt too.
    """

    kind: str
    worker: int
    ordinal: int
    attempt: int = 0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")


class FaultPlan:
    """A finite fault script with O(1) lookup per injection point."""

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._requests: Dict[Tuple[int, int, int], Fault] = {}
        self._churn: Dict[Tuple[int, int], Fault] = {}
        for fault in faults:
            if fault.kind == CHURN_DIE:
                self._churn[(fault.worker, fault.ordinal)] = fault
            else:
                key = (fault.worker, fault.attempt, fault.ordinal)
                self._requests[key] = fault

    def __len__(self) -> int:
        return len(self._requests) + len(self._churn)

    def faults(self) -> List[Fault]:
        """Every scripted fault (introspection/repr order: requests
        then churn, each in insertion order)."""
        return list(self._requests.values()) + list(self._churn.values())

    def request_fault(self, worker: int, attempt: int,
                      ordinal: int) -> Optional[Fault]:
        """The fault scripted for this request coordinate, if any."""
        return self._requests.get((worker, attempt, ordinal))

    def churn_fault(self, churn_index: int, step: int) -> Optional[Fault]:
        """The fault scripted for this mutator step, if any."""
        return self._churn.get((churn_index, step))

    # -- injection points ---------------------------------------------------

    def on_request(self, worker: int, attempt: int, ordinal: int, *,
                   in_process: bool) -> None:
        """Fire the fault (if scripted) for one request coordinate.

        Called by drivers immediately *before* executing the request.
        ``in_process`` distinguishes a forked worker process (KILL may
        ``os._exit``) from a worker thread (KILL degrades to a raised
        crash so the host process survives).
        """
        fault = self._requests.get((worker, attempt, ordinal))
        if fault is None:
            return
        if fault.delay_s:
            time.sleep(fault.delay_s)
        if fault.kind == KILL:
            if in_process:
                os._exit(KILL_EXIT_CODE)  # noqa: SLF001 - the point
            raise InjectedFaultError(
                f"injected kill: worker {worker} attempt {attempt} "
                f"request #{ordinal}")
        if fault.kind == ERROR:
            raise InjectedFaultError(
                f"injected error: worker {worker} attempt {attempt} "
                f"request #{ordinal}")
        # HANG: the sleep above was the fault; the request proceeds.

    def on_churn_step(self, churn_index: int, step: int) -> None:
        """Fire the mutator-death fault (if scripted) for one churn
        step — called by the churn wrapper before applying the step."""
        fault = self._churn.get((churn_index, step))
        if fault is None:
            return
        if fault.delay_s:
            time.sleep(fault.delay_s)
        raise InjectedFaultError(
            f"injected mutator death: churn {churn_index} step {step}")


def generate_fault_plan(seed: int, *, workers: int,
                        requests_per_worker: int,
                        kills: int = 0, errors: int = 0, hangs: int = 0,
                        churn_deaths: int = 0, churns: int = 1,
                        churn_steps: int = 50,
                        attempts: int = 1,
                        hang_delay_s: float = 0.05) -> FaultPlan:
    """Derive a deterministic fault script from ``seed``.

    Coordinates are drawn uniformly (without replacement per kind) over
    ``workers x attempts x requests_per_worker``; the same seed always
    yields the same script, so chaos suites pin seeds and stay
    replayable.  ``attempts`` > 1 lets a script also fault retry
    generations (testing retry-budget exhaustion).
    """
    rng = random.Random(seed)
    coords = [(w, a, o) for w in range(workers)
              for a in range(attempts)
              for o in range(requests_per_worker)]
    rng.shuffle(coords)
    faults: List[Fault] = []
    take = 0
    for kind, count in ((KILL, kills), (ERROR, errors), (HANG, hangs)):
        for _ in range(count):
            if take >= len(coords):
                break
            w, a, o = coords[take]
            take += 1
            delay = hang_delay_s if kind == HANG else 0.0
            faults.append(Fault(kind, w, o, attempt=a, delay_s=delay))
    churn_coords = [(c, s) for c in range(max(1, churns))
                    for s in range(churn_steps)]
    rng.shuffle(churn_coords)
    for c, s in churn_coords[:churn_deaths]:
        faults.append(Fault(CHURN_DIE, c, s))
    return FaultPlan(faults)


# -- snapshot corruption -----------------------------------------------------


def truncate_file(path: str, size: int) -> int:
    """Truncate ``path`` to exactly ``size`` bytes (the mid-write /
    mid-transfer snapshot).  Returns the original size."""
    original = os.path.getsize(path)
    with open(path, "rb+") as handle:
        handle.truncate(max(0, size))
    return original


def corrupt_file(path: str, seed: int, flips: int = 8) -> None:
    """Deterministically flip ``flips`` bytes of ``path`` in place (the
    bit-rotted / torn-page snapshot)."""
    rng = random.Random(seed)
    with open(path, "rb+") as handle:
        blob = bytearray(handle.read())
        if not blob:
            return
        for _ in range(flips):
            index = rng.randrange(len(blob))
            blob[index] ^= 1 << rng.randrange(8)
        handle.seek(0)
        handle.write(bytes(blob))
        handle.truncate(len(blob))
