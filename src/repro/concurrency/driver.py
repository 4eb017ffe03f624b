"""The request driver: one schedule, one worker loop, one run record.

Models the production shape the ROADMAP aims at: N workers pull
requests from a shared round-robin schedule and push them through the
engine.  The *substrate* decides what a worker is:

* ``"thread"`` — worker threads sharing one engine, optionally beside
  *churn* (mutator) threads — one per recipe — performing dev-mode
  reload mutations (retype/redefine/reload/typegen) mid-flight.
  Workers never take the engine's writer lock (a request's warm path
  is lock-free), so aggregate throughput scales with threads whenever
  per-request I/O dominates, which is exactly the Rails profile the
  paper measures;
* ``"fork"`` — the pre-fork serving shape: workers are processes
  forked from the (optionally snapshot-warmed) parent, each inheriting
  the whole warm engine copy-on-write.  Request thunks close over live
  app objects and are deliberately unpicklable, so fork inheritance is
  the transport.

``io_wait_s`` simulates per-request I/O with a sleep, which releases
the GIL: the stand-in for the time a real request spends off-CPU.

**Transport.**  Every worker *attempt* gets its own
``Pipe(duplex=False)`` and is its only writer: a ``("ready", t)``
message at loop start (the start gate — the run's clock starts at the
earliest ``t``), one ``("req", index, outcome, seconds)`` per request
(a worker thread hands these straight to :meth:`Run.accept` instead),
and a terminal ``("done", stats_delta, first_pass_s)`` or ``("crash",
traceback)``.  Sends are synchronous and no lock is shared between
writers, so a worker killed mid-send can tear only its own pipe.  The
parent multiplexes the pipes with ``multiprocessing.connection.wait``;
end-of-file without ``done`` is a death, seen the moment the writer's
end closes, so ``hang_timeout_s`` covers true hangs only (forked
workers only: a thread cannot be killed, so the run deadline bounds
it).

**Recovery.**  A failed attempt (death, crash message, or silence past
``hang_timeout_s``) has its unfinished remainder respawned as the next
attempt — forked from the parent's still-warm engine, after an
exponential backoff — until the slot has used ``max_retries``
respawns; then the remainder is abandoned.  ``max_retries=0`` is plain
unsupervised serving.  Every scheduled request ends in exactly one
bucket::

    requests == completed_first + completed_retried + abandoned

Outcomes are recorded per schedule index with :func:`normalize_outcome`
— the ``("ok", repr) | ("err", type, str)`` shape the differential
cache-soundness harness uses — first report wins, so a run can be
checked index by index against an oracle replay of the same schedule.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, Dict, List, Sequence, Tuple, Union

Churn = Callable[[int], object]

#: the whole run's deadline; a deadlock fails the run instead of
#: hanging it.
JOIN_TIMEOUT_S = 120.0

#: engine counters whose delta across the run a :class:`Run` reports:
#: the tier-transition story (how much cold start the workers paid,
#: how hard churn waved).  Forked workers each ship their own engine
#: copy's delta; threads share the parent engine's.
TRANSITION_FIELDS = (
    "static_checks", "cache_hits", "cache_misses", "promotions",
    "repromotions", "deopts", "elide_promotions", "plan_invalidations",
)

SUBSTRATES = ("thread", "fork")


def normalize_outcome(thunk: Callable[[], object]) -> tuple:
    """Run ``thunk``; normalize result-or-error exactly like the
    differential harness (the *error identity* is part of the outcome)."""
    try:
        return ("ok", repr(thunk()))
    except Exception as exc:  # noqa: BLE001 - identity is the point
        return ("err", type(exc).__name__, str(exc))


def fork_available() -> bool:
    """Whether this platform can pre-fork workers (the ``fork`` start
    method: thunks are unpicklable, so workers must inherit them)."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


@dataclass
class Run:
    """One driver execution: accepted outcomes + exact accounting."""

    workers: int
    requests: int
    elapsed_s: float = 0.0
    #: outcomes accepted from first attempts (attempt 0).
    completed_first: int = 0
    #: outcomes accepted from respawned attempts — the requests that
    #: only completed because supervision replayed them.
    completed_retried: int = 0
    #: scheduled requests left unfinished when their slot exhausted the
    #: retry budget (or the run deadline fired).
    abandoned: int = 0
    #: respawns performed (mirrors ``stats.workers_restarted``).
    restarts: int = 0
    #: schedule index -> (worker slot, attempt, outcome tuple).
    outcomes: Dict[int, Tuple[int, int, tuple]] = field(default_factory=dict)
    #: thunk-only latencies of accepted first-attempt outcomes.
    first_samples: List[float] = field(default_factory=list)
    #: thunk-only latencies of accepted replayed outcomes — kept apart
    #: so recovery cost cannot hide in the steady-state tail.
    replay_samples: List[float] = field(default_factory=list)
    #: slowest worker's first full pass over the thunk list — the
    #: cold-start window (near zero when snapshot-warmed).
    first_pass_s: float = 0.0
    #: TRANSITION_FIELDS deltas: the whole run, and per forked slot
    #: (summed over the slot's attempts that finished).
    stats_delta: Dict[str, int] = field(default_factory=dict)
    worker_deltas: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: mutations the churn threads applied, summed across them.
    churn_applied: int = 0
    #: supervision events (deaths, crashes, hangs, respawns, budget
    #: exhaustion) in order.
    restart_log: List[str] = field(default_factory=list)
    abandoned_indices: List[int] = field(default_factory=list)
    #: failures that cost requests (``worker <slot>: ...``), churn
    #: thread deaths, and protocol violations; empty on a healthy run.
    crashes: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.completed_first + self.completed_retried

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def error_outcomes(self) -> List[Tuple[int, int, tuple]]:
        return [o for o in self.outcomes.values() if o[2][0] == "err"]

    def accounting_ok(self) -> bool:
        """Every scheduled request is in exactly one bucket."""
        return (self.requests
                == self.completed_first + self.completed_retried
                + self.abandoned)

    def outcome_multiset(self) -> Counter:
        """Outcome tuple -> count, ignoring worker and schedule index."""
        return Counter(outcome for _, _, outcome in self.outcomes.values())

    def accept(self, slot: int, attempt: int, index: int, outcome: tuple,
               seconds: float) -> None:
        """Record one reported outcome; the first report for an index
        wins.  A later report that disagrees would be a soundness bug
        (outcomes are deterministic per index), so it is a crash."""
        prior = self.outcomes.get(index)
        if prior is not None:
            if prior[2] != outcome:
                self.crashes.append(
                    f"outcome disagreement at schedule index {index}: "
                    f"{prior[2]!r} vs {outcome!r}")
            return
        self.outcomes[index] = (slot, attempt, outcome)
        if attempt == 0:
            self.completed_first += 1
            self.first_samples.append(seconds)
        else:
            self.completed_retried += 1
            self.replay_samples.append(seconds)


@dataclass
class _Attempt:
    """Parent-side handle on one worker attempt."""

    slot: int
    attempt: int
    indices: Sequence[int]
    conn: object
    worker: object          # threading.Thread | multiprocessing.Process
    last_seen: float

    def stop(self) -> str:
        """Make sure the attempt is over; returns its exit diagnosis.
        A thread cannot be killed; it is only ever stopped after its
        terminal message, or at the run deadline."""
        worker = self.worker
        if isinstance(worker, threading.Thread):
            self.conn.close()
            return "thread"
        if worker.is_alive():
            worker.terminate()
        worker.join(5.0)
        self.conn.close()
        return f"exit code {worker.exitcode}"


class Driver:
    """Replay ``thunks`` (zero-arg request callables) from ``workers``
    workers on ``substrate``; see the module docstring.

    ``engine`` (optional) is probed for TRANSITION_FIELDS deltas and
    receives the ``workers_restarted`` / ``requests_replayed`` counts.
    ``faults`` is an optional :class:`repro.faults.FaultPlan`; None
    keeps every loop on the fault-free path.  ``churn`` (thread
    substrate only) is one mutation recipe or a list, each run by its
    own mutator thread every ``churn_interval_s``.
    """

    def __init__(self, thunks: Sequence[Callable[[], object]], *,
                 workers: int = 4, requests: int = 400,
                 substrate: str = "thread", io_wait_s: float = 0.0,
                 engine=None,
                 churn: Union[Churn, Sequence[Churn], None] = None,
                 churn_interval_s: float = 0.01, faults=None,
                 max_retries: int = 0, backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 1.0,
                 hang_timeout_s: float = 5.0) -> None:
        if not thunks:
            raise ValueError("need at least one request thunk")
        if substrate not in SUBSTRATES:
            raise ValueError(f"substrate must be one of {SUBSTRATES}")
        if substrate == "fork" and not fork_available():
            raise RuntimeError(
                "the fork substrate requires the 'fork' start method")
        self.thunks = list(thunks)
        self.workers = workers
        self.requests = requests
        self.substrate = substrate
        self.io_wait_s = io_wait_s
        self.engine = engine
        self.churns: List[Churn] = (
            [churn] if callable(churn) else list(churn or ()))
        if self.churns and substrate == "fork":
            raise ValueError("churn threads need the thread substrate")
        self.churn_interval_s = churn_interval_s
        self.faults = faults
        self.max_retries = max(0, max_retries)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.hang_timeout_s = hang_timeout_s
        self._accept_lock = threading.Lock()

    def schedule_indices(self, worker: int) -> range:
        """Worker ``worker``'s contiguous slice of the schedule; each
        worker starts at a different offset, so concurrent traffic mixes
        request kinds.  Index ``i`` runs ``thunks[i % len(thunks)]``."""
        per, extra = divmod(self.requests, self.workers)
        start = worker * per + min(worker, extra)
        return range(start, start + per + (worker < extra))

    def _stats_probe(self) -> Dict[str, int]:
        if self.engine is None:
            return {}
        snap = self.engine.stats_snapshot()
        return {name: int(snap.get(name, 0)) for name in TRANSITION_FIELDS}

    def _bump_engine(self, name: str, amount: int = 1) -> None:
        if self.engine is not None and amount:
            stats = self.engine.stats
            setattr(stats, name, getattr(stats, name) + amount)

    # -- worker side ---------------------------------------------------------

    def _attempt_main(self, slot: int, attempt: int,
                      indices: Sequence[int], conn,
                      report: Callable[[tuple], None]) -> None:
        in_process = self.substrate == "fork"
        thunks, n = self.thunks, len(self.thunks)
        faults, io_wait = self.faults, self.io_wait_s
        first_pass = min(n, len(indices))
        clock = time.perf_counter
        try:
            # Threads share the parent's engine; its delta is probed
            # around the whole run instead.
            before = self._stats_probe() if in_process else {}
            start = clock()
            conn.send(("ready", start))
            first_pass_s = 0.0
            for ordinal, index in enumerate(indices):
                if faults is not None:
                    # Fires *before* the request, so an injected fault
                    # is never mistaken for an outcome.  A forked KILL
                    # is os._exit: no cleanup, its pipe just ends.
                    faults.on_request(slot, attempt, ordinal,
                                      in_process=in_process)
                started = clock()
                outcome = normalize_outcome(thunks[index % n])
                report(("req", index, outcome, clock() - started))
                if ordinal + 1 == first_pass:
                    first_pass_s = clock() - start
                if io_wait:
                    time.sleep(io_wait)
            after = self._stats_probe() if in_process else {}
            conn.send(("done", {name: after[name] - before[name]
                                for name in before}, first_pass_s))
        except Exception:  # noqa: BLE001 - infra failure, not outcome
            try:
                conn.send(("crash", traceback.format_exc()))
            except Exception:  # noqa: BLE001 - pipe closed by the parent
                pass
        finally:
            conn.close()

    def _start(self, ctx, run: Run, slot: int, attempt: int,
               indices: Sequence[int]) -> _Attempt:
        reader, writer = multiprocessing.Pipe(duplex=False)
        if ctx is None:
            # A thread reports each outcome straight into the run; only
            # its ready and terminal messages travel over the pipe.
            def report(message: tuple) -> None:
                with self._accept_lock:
                    run.accept(slot, attempt, *message[1:])

            worker = threading.Thread(
                target=self._attempt_main,
                args=(slot, attempt, indices, writer, report), daemon=True)
            worker.start()
        else:
            worker = ctx.Process(
                target=self._attempt_main,
                args=(slot, attempt, indices, writer, writer.send),
                daemon=True)
            worker.start()
            # The child holds the only writer end now, so its exit is
            # an end-of-file here — no later fork inherits it.
            writer.close()
        return _Attempt(slot, attempt, indices, reader, worker,
                        time.perf_counter())

    def _churner(self, idx: int, fn: Churn, stop: threading.Event,
                 applied: List[int], run: Run) -> None:
        step = 0
        try:
            while not stop.is_set():
                if self.faults is not None:
                    # Mutator death mid-wave-sequence: requests keep
                    # serving; the writer lock made each wave atomic.
                    self.faults.on_churn_step(idx, step)
                fn(step)
                step += 1
                applied[idx] = step
                if stop.wait(self.churn_interval_s):
                    break
        except Exception as exc:  # noqa: BLE001 - driver-level crash
            run.crashes.append(f"churn step {step}: {exc!r}")

    # -- parent side ---------------------------------------------------------

    def run(self) -> Run:
        ctx = (multiprocessing.get_context("fork")
               if self.substrate == "fork" else None)
        run = Run(self.workers, self.requests)
        clock = time.perf_counter
        before = self._stats_probe()
        live: Dict[object, _Attempt] = {}
        for slot in range(self.workers):
            att = self._start(ctx, run, slot, 0,
                              self.schedule_indices(slot))
            live[att.conn] = att
        stop_churn = threading.Event()
        applied = [0] * len(self.churns)
        churners = [threading.Thread(
            target=self._churner, args=(i, fn, stop_churn, applied, run),
            daemon=True) for i, fn in enumerate(self.churns)]
        for thread in churners:
            thread.start()
        opened = clock()
        deadline = opened + JOIN_TIMEOUT_S
        started = None
        # Thread outcomes bypass the pipe, so it carries no heartbeat for
        # them — and a thread cannot be killed: only the deadline applies.
        hang = self.hang_timeout_s if ctx is not None else JOIN_TIMEOUT_S

        def fail(att: _Attempt, reason: str) -> None:
            del live[att.conn]
            diagnosis = att.stop()
            if reason == "died":
                reason = f"died ({diagnosis})"
            note = f"slot {att.slot} attempt {att.attempt} {reason}"
            remainder = [i for i in att.indices if i not in run.outcomes]
            if not remainder:
                run.restart_log.append(f"{note}; nothing left to replay")
                return
            if att.attempt >= self.max_retries:
                run.restart_log.append(
                    f"{note}; retry budget exhausted, abandoning "
                    f"{len(remainder)} request(s)")
                run.crashes.append(
                    f"worker {att.slot}: {reason}; abandoned "
                    f"{len(remainder)} request(s)")
                run.abandoned += len(remainder)
                run.abandoned_indices.extend(remainder)
                return
            backoff = min(self.backoff_cap_s,
                          self.backoff_base_s * (2 ** att.attempt))
            run.restart_log.append(
                f"{note}; respawning {len(remainder)} request(s) after "
                f"{backoff:.3f}s")
            if backoff:
                time.sleep(backoff)
            run.restarts += 1
            self._bump_engine("workers_restarted")
            # Forked from the parent's still-warm engine: the respawn
            # starts with every plan/cache/wrapper the parent has.
            new = self._start(ctx, run, att.slot, att.attempt + 1,
                              remainder)
            live[new.conn] = new

        while live:
            now = clock()
            if now > deadline:
                for att in list(live.values()):
                    del live[att.conn]
                    att.stop()
                    remainder = [i for i in att.indices
                                 if i not in run.outcomes]
                    run.abandoned += len(remainder)
                    run.abandoned_indices.extend(remainder)
                run.crashes.append(
                    f"supervision deadline ({JOIN_TIMEOUT_S}s) hit")
                break
            quiet = min(att.last_seen for att in live.values())
            timeout = min(deadline, quiet + hang) - now
            for conn in connection.wait(list(live), max(0.0, timeout)):
                att = live.get(conn)
                if att is None:  # retired earlier in this batch
                    continue
                message = _recv(conn)
                if message is None:
                    fail(att, "died")
                    continue
                att.last_seen = clock()
                kind = message[0]
                if kind == "ready":
                    # perf_counter is system-wide monotonic, so a forked
                    # worker's start time is on the parent's clock.
                    started = min(started or message[1], message[1])
                elif kind == "req":
                    run.accept(att.slot, att.attempt, *message[1:])
                elif kind == "done":
                    del live[conn]
                    att.stop()
                    _, delta, first_pass_s = message
                    slot_delta = run.worker_deltas.setdefault(att.slot, {})
                    for name, value in delta.items():
                        slot_delta[name] = slot_delta.get(name, 0) + value
                    run.first_pass_s = max(run.first_pass_s, first_pass_s)
                else:  # "crash"
                    fail(att, "crashed: "
                         + message[1].strip().splitlines()[-1])
            now = clock()
            for att in list(live.values()):
                if now - att.last_seen > hang and not att.conn.poll():
                    fail(att, f"hung (silent for {hang}s)")
        run.elapsed_s = clock() - (started or opened)
        stop_churn.set()
        for thread in churners:
            thread.join(max(1.0, deadline - clock()))
            if thread.is_alive():
                run.crashes.append(f"churn thread {thread.name} hung")
        run.churn_applied = sum(applied)
        after = self._stats_probe()
        run.stats_delta = {name: after[name] - before[name]
                           for name in before}
        for delta in run.worker_deltas.values():
            for name, value in delta.items():
                run.stats_delta[name] = run.stats_delta.get(name, 0) + value
        self._bump_engine("requests_replayed", run.completed_retried)
        return run

    def run_single_threaded_oracle(self) -> Run:
        """The comparison baseline: the same schedule on one thread, no
        churn, no faults."""
        return Driver(self.thunks, workers=1,
                      requests=self.requests).run()


def _recv(conn):
    """One message, or None at end of stream — a clean end-of-file or a
    frame torn by a writer that died mid-send."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        return None
