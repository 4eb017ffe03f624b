"""The end-to-end serving harness: scenarios in, latency-graded and
differentially-verified reports out.

One :class:`Scenario` names an app, a request mix (read / write /
mixed), a substrate (worker threads or forked workers), a worker
count, a churn kind, and a retry policy; :func:`run_scenario`:

1. builds and seeds the world, optionally warm-starts its engine from a
   snapshot, and warms the schedule (annotations executed, bodies
   checked, plans built — tier promotion is left to happen *during*
   the measured run unless the scenario warms past the promotion
   threshold, because promotion waves are part of the tail story);
2. replays the schedule through one
   :class:`~repro.concurrency.driver.Driver`, with one dedicated
   mutator thread per churn recipe, every request timed, and the
   tier-transition counters (promotions, deopts, plan invalidations)
   the run paid collected;
3. verifies the run differentially, **per schedule index**: every
   accepted outcome — replays included — must equal a single-threaded
   replay of that index on the same warm engine (``oracle_match``)
   **and** on a fresh cache-free oracle world
   (``Engine(disable_caches=True)``, ``oracle_match_cache_free``) — the
   acceptance bar every scale of this repo answers to.

The recipes' disjoint-resource discipline (see ``recipes``) is what
makes step 3 exact for every substrate: each thunk's outcome is
interleaving-independent, so any divergence is a soundness bug, not
scheduling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..concurrency.driver import Driver, normalize_outcome
from ..core import Engine, EngineConfig
from ..snapshot import load_snapshot
from .churn import churn_suite, count_storms
from .latency import LatencySummary, summarize_samples
from .recipes import build_serving_world, scenario_thunks


@dataclass
class Scenario:
    """One serving measurement configuration."""

    name: str
    app: str = "boxroom"
    mix: str = "mixed"             # read | write | mixed
    substrate: str = "thread"      # thread | fork
    workers: int = 8
    requests: int = 400
    io_wait_s: float = 0.002
    churn: str = "none"            # none | retype | full (threads only)
    churn_interval_s: float = 0.005
    #: sequential passes over the schedule before timing starts (forked
    #: workers and every respawn inherit the warm engine).
    warm_rounds: int = 4
    cfg: Optional[dict] = None
    #: a snapshot path or document to warm-start the engine from;
    #: None = cold start.
    snapshot: Optional[object] = None
    #: override EngineConfig.specialize_threshold (None = default).
    specialize_threshold: Optional[int] = None
    max_retries: int = 0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    hang_timeout_s: float = 5.0


@dataclass
class Report:
    """Everything one scenario run measured, recovered, and verified."""

    scenario: str
    app: str
    mix: str
    substrate: str
    workers: int
    requests: int
    completed_first: int
    completed_retried: int
    abandoned: int
    restarts: int
    elapsed_s: float
    rps: float
    #: every accepted outcome's latency (None if nothing completed).
    latency: Optional[LatencySummary]
    #: replayed outcomes only — recovery cost gets its own percentile
    #: column instead of silently fattening the steady-state tail.
    replay_latency: Optional[LatencySummary]
    errors: int
    crashes: List[str]
    restart_log: List[str]
    churn_applied: int
    deopt_storms: int
    #: slowest worker's first full pass — the cold-start window.
    first_pass_s: float
    #: TRANSITION_FIELDS deltas the measured run paid, and per forked
    #: worker slot.
    transitions: Dict[str, int] = field(default_factory=dict)
    per_worker: List[Dict[str, int]] = field(default_factory=list)
    #: the SnapshotLoad.as_dict() of the warm-start attempt ({} = cold).
    snapshot: Dict[str, object] = field(default_factory=dict)
    #: parent-engine deltas of the fault-tolerance counters.
    workers_restarted: int = 0
    requests_replayed: int = 0
    #: per worker slot: its accepted outcomes all match the cache-free
    #: oracle.
    worker_oracle_matches: List[bool] = field(default_factory=list)
    #: accepted outcomes vs the same warm engine, single-threaded.
    oracle_match: bool = False
    #: accepted outcomes vs a fresh cache-free oracle world.
    oracle_match_cache_free: bool = False

    @property
    def completed(self) -> int:
        return self.completed_first + self.completed_retried

    @property
    def accounting_ok(self) -> bool:
        """requests == completed_first + completed_retried + abandoned."""
        return self.requests == self.completed + self.abandoned

    def as_dict(self) -> dict:
        """The committed-baseline JSON shape for this scenario."""
        out = {
            "app": self.app,
            "mix": self.mix,
            "substrate": self.substrate,
            "workers": self.workers,
            "requests": self.requests,
            "completed": self.completed,
            "completed_retried": self.completed_retried,
            "abandoned": self.abandoned,
            "restarts": self.restarts,
            "rps": round(self.rps, 1),
            "errors": self.errors,
            "crashes": len(self.crashes),
            "churn_applied": self.churn_applied,
            "deopt_storms": self.deopt_storms,
            "first_pass_ms": round(self.first_pass_s * 1000, 3),
            "transitions": dict(self.transitions),
            "snapshot_loaded": int(bool(self.snapshot.get("loaded"))),
            "accounting_ok": int(self.accounting_ok),
            "oracle_match": int(self.oracle_match),
            "oracle_match_cache_free": int(self.oracle_match_cache_free),
        }
        if self.latency is not None:
            out.update(self.latency.as_ms_dict())
        if self.replay_latency is not None:
            out["replayed"] = self.replay_latency.as_ms_dict()
        return out


def run_scenario(scenario: Scenario, *, faults=None) -> Report:
    """Run one scenario end to end; see the module docstring.

    ``faults`` (a :class:`repro.faults.FaultPlan`) scripts worker and
    mutator failures into the measured run; injected faults surface as
    restarts, abandoned requests, and crashes, never as outcomes.  The
    accounting invariant is enforced, not just reported: a run whose
    buckets do not partition the schedule raises."""
    engine = None
    if scenario.specialize_threshold is not None:
        engine = Engine(EngineConfig(
            specialize_threshold=scenario.specialize_threshold))
    world = build_serving_world(scenario.app, engine=engine,
                                cfg=scenario.cfg)
    engine = world.engine
    snapshot: Dict[str, object] = {}
    if scenario.snapshot is not None:
        snapshot = load_snapshot(engine, scenario.snapshot).as_dict()

    thunks = scenario_thunks(world, scenario.mix)
    for _ in range(scenario.warm_rounds):
        for thunk in thunks:
            thunk()

    stats = engine.stats
    storms = []
    churns = []
    for recipe in churn_suite(world, scenario.churn):
        storms.append({"count": 0})
        churns.append(count_storms(recipe, stats, storms[-1]))
    restarted_before = stats.workers_restarted
    replayed_before = stats.requests_replayed

    run = Driver(
        thunks, workers=scenario.workers, requests=scenario.requests,
        substrate=scenario.substrate, io_wait_s=scenario.io_wait_s,
        engine=engine, churn=churns,
        churn_interval_s=scenario.churn_interval_s, faults=faults,
        max_retries=scenario.max_retries,
        backoff_base_s=scenario.backoff_base_s,
        backoff_cap_s=scenario.backoff_cap_s,
        hang_timeout_s=scenario.hang_timeout_s).run()
    if not run.accounting_ok():
        raise RuntimeError(
            f"accounting violated: first={run.completed_first} "
            f"retried={run.completed_retried} abandoned={run.abandoned} "
            f"!= scheduled={scenario.requests}")

    samples = run.first_samples + run.replay_samples
    report = Report(
        scenario=scenario.name, app=scenario.app, mix=scenario.mix,
        substrate=scenario.substrate, workers=scenario.workers,
        requests=scenario.requests,
        completed_first=run.completed_first,
        completed_retried=run.completed_retried,
        abandoned=run.abandoned, restarts=run.restarts,
        elapsed_s=run.elapsed_s, rps=run.throughput_rps,
        latency=summarize_samples(samples) if samples else None,
        replay_latency=(summarize_samples(run.replay_samples)
                        if run.replay_samples else None),
        errors=len(run.error_outcomes), crashes=list(run.crashes),
        restart_log=list(run.restart_log),
        churn_applied=run.churn_applied,
        deopt_storms=sum(s["count"] for s in storms),
        first_pass_s=run.first_pass_s,
        transitions=dict(run.stats_delta),
        per_worker=[run.worker_deltas[slot]
                    for slot in sorted(run.worker_deltas)],
        snapshot=snapshot,
        workers_restarted=stats.workers_restarted - restarted_before,
        requests_replayed=stats.requests_replayed - replayed_before)

    accepted = sorted(run.outcomes.items())
    n = len(thunks)
    # (a) Same warm engine, one thread, no churn: isolates concurrency,
    # churn, and recovery as the only variables.
    report.oracle_match = all(
        normalize_outcome(thunks[index % n]) == outcome
        for index, (_, _, outcome) in accepted)
    # (b) A fresh world on a cache-free engine: every judgment
    # recomputed from scratch — the absolute acceptance bar.  Checked
    # per slot so a single worker gone wrong cannot hide.
    oracle_world = build_serving_world(
        scenario.app, engine=Engine(disable_caches=True), cfg=scenario.cfg)
    oracle_thunks = scenario_thunks(oracle_world, scenario.mix)
    wrong = {slot for index, (slot, _, outcome) in accepted
             if normalize_outcome(oracle_thunks[index % n]) != outcome}
    report.worker_oracle_matches = [slot not in wrong
                                    for slot in range(scenario.workers)]
    report.oracle_match_cache_free = not wrong
    return report
