"""Differential verification of the serving workloads: every
write-heavy / mixed scenario must produce the exact outcome multiset of
a cache-free oracle — single-threaded and under N-thread churn.

The recipes' disjoint-resource discipline is what makes the comparison
exact rather than statistical: each write thunk runs a self-contained
create→read→update→destroy cycle over resources no other thunk can
observe, with autoincrement ids masked, so outcomes are
interleaving-independent by construction.  These tests are the proof
that the discipline actually holds for all three apps."""

from collections import Counter

import pytest

from repro.core import Engine
from repro.serving import (
    Scenario, build_serving_world, run_scenario, scenario_thunks,
)

APPS = ["boxroom", "countries", "rolify"]
MIXES = ["write", "mixed"]

#: small-world knobs: fast views, no artificial io wait, modest volume.
CFG = {"view_cost": 10}


def _cfg(app):
    """Fast-view knobs where the builder supports them (countries has
    no view layer)."""
    return None if app == "countries" else CFG


def _outcomes(world, mix):
    """One sequential pass over the scenario schedule."""
    from repro.concurrency.driver import normalize_outcome
    results = []
    for thunk in scenario_thunks(world, mix):
        results.append(normalize_outcome(thunk))
    return results


# -- single-threaded: cached engine vs cache-free oracle, exact order --------


@pytest.mark.requires_caches
@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("mix", MIXES)
def test_sequential_outcomes_match_cache_free_oracle(app, mix):
    """With one thread there is no interleaving to hide behind: the
    cached engine must agree with the cache-free oracle outcome-for-
    outcome, in order, over repeated passes (covering cold and warm
    cache states)."""
    cached = build_serving_world(app, cfg=_cfg(app))
    oracle = build_serving_world(
        app, engine=Engine(disable_caches=True), cfg=_cfg(app))
    for _ in range(3):
        assert _outcomes(cached, mix) == _outcomes(oracle, mix)


# -- threaded: multiset equality vs both oracles -----------------------------


@pytest.mark.requires_threads
@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("mix", MIXES)
def test_threaded_scenario_matches_both_oracles(app, mix):
    report = run_scenario(Scenario(
        name=f"test-{app}-{mix}", app=app, mix=mix, workers=4,
        requests=64, io_wait_s=0.0, warm_rounds=2, cfg=_cfg(app),
    ))
    assert report.crashes == []
    assert report.errors == 0
    assert report.completed == report.requests
    assert report.oracle_match, (
        f"{app}/{mix}: threaded outcomes diverged from the "
        f"single-threaded warm-engine replay")
    assert report.oracle_match_cache_free, (
        f"{app}/{mix}: threaded outcomes diverged from the "
        f"cache-free oracle")


@pytest.mark.requires_threads
@pytest.mark.parametrize("app", ["boxroom", "rolify"])
def test_write_heavy_under_full_churn_is_oracle_identical(app):
    """The headline acceptance criterion: write-heavy traffic from 4
    threads while reloader / typegen / retype mutators run from
    dedicated threads still reproduces the cache-free oracle's multiset
    exactly, with zero request errors."""
    report = run_scenario(Scenario(
        name=f"test-{app}-write-churn", app=app, mix="write", workers=4,
        requests=80, io_wait_s=0.001, churn="full",
        churn_interval_s=0.002, warm_rounds=2, cfg=_cfg(app),
    ))
    assert report.crashes == []
    assert report.errors == 0
    assert report.churn_applied > 0, "mutator threads never ran"
    assert report.oracle_match
    assert report.oracle_match_cache_free


@pytest.mark.requires_threads
def test_countries_mixed_under_retype_churn():
    report = run_scenario(Scenario(
        name="test-countries-churn", app="countries", mix="mixed",
        workers=4, requests=64, io_wait_s=0.001, churn="retype",
        churn_interval_s=0.002, warm_rounds=2,
    ))
    assert report.crashes == []
    assert report.errors == 0
    assert report.churn_applied > 0
    assert report.oracle_match
    assert report.oracle_match_cache_free


# -- exact stats totals ------------------------------------------------------


@pytest.mark.requires_threads
def test_request_accounting_is_exact():
    """Bookkeeping must be exact, not approximate: every scheduled
    request completes exactly once and is timed exactly once."""
    scenario = Scenario(
        name="test-accounting", app="boxroom", mix="mixed", workers=4,
        requests=64, io_wait_s=0.0, warm_rounds=1, cfg=CFG)
    report = run_scenario(scenario)
    assert report.completed == scenario.requests
    assert report.latency.count == scenario.requests
    # With no reservoir overflow the summary is exact and every sample
    # is a real request.
    assert report.latency.exact
    assert report.latency.sampled == scenario.requests
    assert report.latency.max >= report.latency.p999 >= report.latency.p50


@pytest.mark.requires_caches
def test_warm_schedule_is_deterministic_and_cached():
    """Two warm sequential passes over the same mixed schedule produce
    identical outcome multisets, and the warm pass is served with
    strictly fewer fresh typechecks than the cold one (the caches are
    actually carrying the traffic)."""
    world = build_serving_world("boxroom", cfg=CFG)
    stats = world.engine.stats

    def pass_multiset():
        return Counter(_outcomes(world, "mixed"))

    cold_checks = stats.static_checks
    first = pass_multiset()
    cold_delta = stats.static_checks - cold_checks

    warm_checks = stats.static_checks
    second = pass_multiset()
    warm_delta = stats.static_checks - warm_checks

    assert first == second
    assert warm_delta < cold_delta, (
        f"warm pass re-checked {warm_delta} bodies vs {cold_delta} cold "
        f"— caches are not serving the schedule")
