"""The fault-injection layer itself: determinism, coordinate lookup,
zero-cost passthrough, and the thread-mode driver integration.

The fork-mode behaviors (``os._exit`` kills, supervised recovery) live
in ``test_supervised_recovery.py``; this file covers everything that
runs in-process.
"""

import time

import pytest

from repro.concurrency import Driver
from repro.faults import (
    CHURN_DIE, ERROR, FAULT_KINDS, HANG, KILL, Fault, FaultPlan,
    InjectedFaultError, corrupt_file, generate_fault_plan, truncate_file,
)

# -- the plan data model -----------------------------------------------------


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError):
        Fault("meteor", 0, 0)


def test_plan_lookup_is_exact_coordinates():
    plan = FaultPlan([Fault(KILL, 1, 4), Fault(ERROR, 0, 2, attempt=1),
                      Fault(CHURN_DIE, 0, 7)])
    assert len(plan) == 3
    assert plan.request_fault(1, 0, 4).kind == KILL
    assert plan.request_fault(1, 0, 3) is None       # wrong ordinal
    assert plan.request_fault(1, 1, 4) is None       # wrong attempt
    assert plan.request_fault(0, 1, 2).kind == ERROR
    assert plan.request_fault(0, 0, 2) is None       # attempt-0 clean
    assert plan.churn_fault(0, 7).kind == CHURN_DIE
    assert plan.churn_fault(1, 7) is None


def test_generate_fault_plan_is_seed_deterministic():
    kw = dict(workers=4, requests_per_worker=25, kills=3, errors=2,
              hangs=2, churn_deaths=1, churn_steps=40)
    a = generate_fault_plan(42, **kw)
    b = generate_fault_plan(42, **kw)
    c = generate_fault_plan(43, **kw)
    assert a.faults() == b.faults()
    assert a.faults() != c.faults()
    assert len(a) == 8
    kinds = [f.kind for f in a.faults()]
    for kind, want in ((KILL, 3), (ERROR, 2), (HANG, 2), (CHURN_DIE, 1)):
        assert kinds.count(kind) == want
        assert kind in FAULT_KINDS


def test_no_fault_is_a_passthrough():
    plan = FaultPlan([Fault(ERROR, 3, 9)])
    plan.on_request(0, 0, 0, in_process=False)  # nothing scripted here
    plan.on_churn_step(0, 0)


def test_error_and_thread_kill_raise():
    plan = FaultPlan([Fault(ERROR, 0, 0), Fault(KILL, 1, 1)])
    with pytest.raises(InjectedFaultError):
        plan.on_request(0, 0, 0, in_process=False)
    with pytest.raises(InjectedFaultError):
        # In a worker *thread* a KILL degrades to a raised crash — the
        # host process must survive.
        plan.on_request(1, 0, 1, in_process=False)


def test_hang_sleeps_then_proceeds():
    plan = FaultPlan([Fault(HANG, 0, 0, delay_s=0.05)])
    t0 = time.perf_counter()
    plan.on_request(0, 0, 0, in_process=False)  # no raise
    assert time.perf_counter() - t0 >= 0.04


# -- file corruption helpers -------------------------------------------------


def test_truncate_file(tmp_path):
    path = tmp_path / "snap.json"
    path.write_bytes(b"x" * 100)
    assert truncate_file(str(path), 37) == 100
    assert path.stat().st_size == 37


def test_corrupt_file_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    blob = bytes(range(256)) * 4
    a.write_bytes(blob)
    b.write_bytes(blob)
    corrupt_file(str(a), seed=7)
    corrupt_file(str(b), seed=7)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != blob
    assert a.stat().st_size == len(blob)


# -- thread-mode driver integration ------------------------------------------


def _thunks(n=5):
    def mk(i):
        return lambda: i * 10
    return [mk(i) for i in range(n)]


@pytest.mark.requires_threads
def test_thread_kill_loses_slice_and_is_reported():
    plan = FaultPlan([Fault(KILL, 1, 3)])
    driver = Driver(_thunks(), workers=4, requests=80, faults=plan)
    run = driver.run()
    assert len(run.crashes) == 1 and "worker 1" in run.crashes[0]
    # Worker 1 completed 3 of its 20 before the kill; the rest is lost
    # and *visible* as completed < requests, never silently absorbed.
    assert run.completed == 80 - 20 + 3
    # The injected fault never shows up as a request outcome.
    assert all(outcome[0] == "ok" for _, _, outcome in run.outcomes.values())


@pytest.mark.requires_threads
def test_fault_free_plan_changes_nothing():
    driver = Driver(_thunks(), workers=4, requests=80,
                    faults=FaultPlan())
    run = driver.run()
    assert not run.crashes and run.completed == 80
    baseline = Driver(_thunks(), workers=4, requests=80).run()
    assert run.outcome_multiset() == baseline.outcome_multiset()


@pytest.mark.requires_threads
def test_churn_death_kills_mutator_but_requests_survive():
    applied = {"steps": 0}

    def churn(step):
        applied["steps"] += 1

    plan = FaultPlan([Fault(CHURN_DIE, 0, 2)])
    # io_wait keeps the run alive long enough for the mutator to reach
    # its scripted death step.
    driver = Driver(_thunks(), workers=4, requests=80,
                    io_wait_s=0.005, churn=churn,
                    churn_interval_s=0.0001, faults=plan)
    run = driver.run()
    assert any("churn step 2" in crash for crash in run.crashes)
    assert run.completed == 80          # requests keep serving
    assert applied["steps"] == 2        # the mutator died mid-sequence
    assert run.churn_applied == 2
