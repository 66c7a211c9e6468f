"""Tests for the concurrent crawl pipeline.

Politeness is checked as a *property over traces*: for every seed, the
governor's placed slots must respect the per-host overlap cap and
inter-request delay, and the wire-side :class:`PolitenessLog` must
account for exactly the requests the governor placed.  Resume is
checked end to end: a run paused mid-crawl and resumed must produce a
byte-identical report and spend no duplicate fetches.
"""

import hashlib
from collections import deque

import pytest

from repro.core.w3newer import (
    BrowserHistory,
    ChangeRateEstimator,
    CrawlCheckpoint,
    CrawlOptions,
    HostGovernor,
    ReportOptions,
    SchedulePolicy,
    W3Newer,
)
from repro.core.w3newer import crawl as crawl_module
from repro.core.w3newer.checker import UrlChecker
from repro.core.w3newer.hotlist import Hotlist
from repro.simclock import DAY, SimClock
from repro.web import Network, PolitenessLog, UserAgent
from repro.workloads import (
    apply_changes,
    build_crawl_hotlist,
    build_crawl_world,
    seed_estimator,
)

SEEDS = range(5)


def build_tracker(
    urls=60,
    hosts=3,
    workers=6,
    seed=0,
    budget=None,
    policy=SchedulePolicy.ADAPTIVE,
    max_checks=None,
    max_per_host=2,
    host_delay=2,
    render=False,
):
    """A seeded world plus a fully wired concurrent tracker."""
    clock = SimClock()
    clock.advance(100 * DAY)
    network = Network(clock)
    world = build_crawl_world(urls=urls, hosts=hosts, seed=11,
                              clock=clock, network=network)
    politeness = PolitenessLog()
    agent = UserAgent(network, clock, politeness=politeness)
    history = BrowserHistory()
    for url in world.urls:
        history.visit(url, clock.now)
    estimator = ChangeRateEstimator()
    seed_estimator(world, estimator)
    tracker = W3Newer(
        clock, agent, build_crawl_hotlist(world), history=history,
        crawl=CrawlOptions(
            workers=workers, budget=budget, policy=policy, seed=seed,
            max_checks=max_checks, max_per_host=max_per_host,
            host_delay=host_delay,
        ),
        estimator=estimator,
        report_options=ReportOptions(render=render),
    )
    return clock, world, tracker, politeness


def advance_and_run(clock, world, tracker, days=2):
    clock.advance(days * DAY)
    apply_changes(world)
    return tracker.run()


class TestPolitenessProperty:
    """The governor invariants must hold under every interleaving."""

    def check_trace(self, trace, max_per_host, host_delay):
        by_host = {}
        by_worker = {}
        for slot in trace:
            by_host.setdefault(slot.host, []).append(slot)
            by_worker.setdefault(slot.worker, []).append(slot)
        for host, slots in by_host.items():
            starts = [s.start for s in slots]
            # Per-host starts are monotone and spaced by the delay.
            for a, b in zip(starts, starts[1:]):
                assert b - a >= host_delay, (host, a, b)
            # At most max_per_host fetches overlap at any instant.
            for probe in slots:
                overlap = sum(
                    1 for s in slots
                    if s.start <= probe.start < s.finish
                )
                assert overlap <= max_per_host, (host, probe)
        # A worker never runs two fetches at once.
        for worker, slots in by_worker.items():
            ordered = sorted(slots, key=lambda s: s.start)
            for a, b in zip(ordered, ordered[1:]):
                assert b.start >= a.finish, (worker, a, b)

    def test_invariants_hold_for_every_seed(self):
        for seed in SEEDS:
            clock, world, tracker, politeness = build_tracker(seed=seed)
            advance_and_run(clock, world, tracker)
            trace = tracker.last_crawl["trace"]
            assert trace, "expected fetches to be placed"
            self.check_trace(trace, max_per_host=2, host_delay=2)

    def test_politeness_log_matches_governor_accounting(self):
        for seed in SEEDS:
            clock, world, tracker, politeness = build_tracker(seed=seed)
            advance_and_run(clock, world, tracker)
            governor = tracker.last_crawl["governor"]
            # Everything that went over the wire was placed, and
            # nothing else.
            assert politeness.total == governor["http_requests"]
            assert len(politeness.requests_by_host) == governor["hosts"]

    def test_single_host_serializes_to_the_cap(self):
        clock, world, tracker, _ = build_tracker(
            urls=20, hosts=1, workers=8, max_per_host=1, host_delay=3,
        )
        advance_and_run(clock, world, tracker)
        trace = tracker.last_crawl["trace"]
        self.check_trace(trace, max_per_host=1, host_delay=3)
        # One-at-a-time to one host: makespan is bounded below by the
        # delay between every consecutive pair of fetch starts.
        governor = tracker.last_crawl["governor"]
        assert governor["max_inflight"] == 1
        assert governor["makespan"] >= 3 * (governor["fetches"] - 1)


class TestThroughput:
    def test_more_workers_shrink_the_makespan(self):
        spans = {}
        for workers in (1, 8):
            clock, world, tracker, _ = build_tracker(
                urls=120, hosts=12, workers=workers, host_delay=1,
            )
            advance_and_run(clock, world, tracker)
            spans[workers] = tracker.last_crawl["governor"]["makespan"]
        assert spans[8] * 4 <= spans[1]

    def test_verdicts_do_not_depend_on_workers_or_seed(self):
        outcomes = []
        for workers, seed in ((1, 0), (4, 1), (8, 2)):
            clock, world, tracker, _ = build_tracker(
                workers=workers, seed=seed,
            )
            result = advance_and_run(clock, world, tracker)
            outcomes.append(
                [(o.url, o.state, o.http_requests) for o in result.outcomes]
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        reports, traces = [], []
        for _ in range(2):
            clock, world, tracker, _ = build_tracker(seed=3, render=True)
            result = advance_and_run(clock, world, tracker)
            reports.append(result.report_html)
            traces.append(tracker.last_crawl["trace"])
        assert reports[0] == reports[1]
        assert traces[0] == traces[1]
        assert reports[0]  # rendering was actually on


class TestResume:
    def test_pause_and_resume_completes_without_duplicate_fetches(self):
        # Interrupted: pause after 15 claimed checks, then finish.
        clock, world, tracker, politeness = build_tracker(
            urls=40, hosts=4, max_checks=15, render=True,
        )
        first = advance_and_run(clock, world, tracker)
        assert "paused" in first.aborted
        assert isinstance(tracker.checkpoint, CrawlCheckpoint)
        assert tracker.checkpoint.pending
        tracker.crawl.max_checks = None
        second = tracker.run()
        assert second.aborted == ""
        assert second.resumed_from is not None

        # Uninterrupted twin over an identical world.
        clock2, world2, tracker2, politeness2 = build_tracker(
            urls=40, hosts=4, render=True,
        )
        baseline = advance_and_run(clock2, world2, tracker2)

        assert second.report_html == baseline.report_html
        # No fetch ran twice: the interrupted pair spent exactly the
        # wire requests of the uninterrupted run (robots included,
        # because the checkpoint carries the robots verdicts).
        assert politeness.total == politeness2.total
        assert politeness.requests_by_host == politeness2.requests_by_host

    def test_checkpoint_ignored_when_hotlist_changes(self):
        clock, world, tracker, _ = build_tracker(
            urls=30, hosts=3, max_checks=5,
        )
        advance_and_run(clock, world, tracker)
        assert tracker.checkpoint is not None
        tracker.hotlist.add("http://crawl0.example.com/new.html",
                            title="new page")
        tracker.crawl.max_checks = None
        result = tracker.run()
        # Fresh start: the stale checkpoint must not leak outcomes.
        assert result.resumed_from is None
        assert len(result.outcomes) == 31


class TestGovernorUnit:
    def test_snapshot_restore_round_trip(self):
        governor = HostGovernor(workers=3, max_per_host=2, host_delay=2,
                                start=50)
        for i in range(7):
            governor.place("a.com" if i % 2 else "b.com", requests=2)
        snap = governor.snapshot()
        twin = HostGovernor(workers=3, max_per_host=2, host_delay=2,
                            start=50)
        twin.restore(snap)
        slot_a = governor.place("a.com", requests=1)
        slot_b = twin.place("a.com", requests=1)
        assert (slot_a.worker, slot_a.start, slot_a.finish) == (
            slot_b.worker, slot_b.start, slot_b.finish
        )
        assert governor.stats() == twin.stats()

    def test_ties_break_deterministically(self):
        governor = HostGovernor(workers=4, start=0)
        first = governor.place("x.com", requests=1)
        assert first.worker == 0  # all free: lowest index wins
        second = governor.place("y.com", requests=1)
        assert second.worker == 1


class _ClaimLog(deque):
    """The executor's task queue, logging every claim in order."""

    events: list = []

    def popleft(self):
        task = super().popleft()
        _ClaimLog.events.append(("claim", task.url))
        return task


class TestInterleavingGolden:
    """Pins the seeded interleaving itself, not just run-to-run equality.

    The digest covers every placed fetch slot and the interleaving of
    claims with check starts, so any change to how the executor picks
    the next worker shows up here even when reports still agree.
    """

    GOLDEN = {
        1: "a48245157bbd99d991d610a5fb0664813800ed11f27ff0671fcc86ed6d3111bc",
        3: "c21fd4d7b3c955ae6a4af55ccd0e4accc9ede3afe68ed1979086903675d440de",
        8: "8befb762edaab64cf4e31f2a05bc92064fa0394ab6c2001aefbdc75be9d27940",
    }

    def digest(self, monkeypatch, workers):
        check = UrlChecker.check

        def logged_check(checker, url, force=False):
            _ClaimLog.events.append(("check", url))
            return check(checker, url, force=force)

        monkeypatch.setattr(crawl_module, "deque", _ClaimLog)
        monkeypatch.setattr(UrlChecker, "check", logged_check)
        _ClaimLog.events = []
        clock, world, tracker, _ = build_tracker(
            urls=60, hosts=4, workers=workers, seed=5, host_delay=1,
        )
        advance_and_run(clock, world, tracker)
        trace = [(s.host, s.worker, s.start, s.finish, s.url)
                 for s in tracker.last_crawl["trace"]]
        claims = sum(1 for kind, _ in _ClaimLog.events if kind == "claim")
        assert trace and claims == tracker.last_crawl["claims"]
        blob = repr((trace, _ClaimLog.events)).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_interleaving_matches_golden(self, monkeypatch, workers):
        assert self.digest(monkeypatch, workers) == self.GOLDEN[workers]


class TestExecutorEdges:
    def test_empty_queue_with_zero_quota_is_reported_paused(self):
        clock = SimClock()
        tracker = W3Newer(
            clock, UserAgent(Network(clock), clock), Hotlist(),
            crawl=CrawlOptions(workers=4, max_checks=0),
        )
        result = tracker.run()
        assert "paused" in result.aborted
        assert tracker.last_crawl["claims"] == 0
        assert tracker.checkpoint.pending == []

    def test_check_error_propagates_at_once(self, monkeypatch):
        clock, world, tracker, _ = build_tracker(workers=8)
        started = []
        check = UrlChecker.check

        def failing_check(checker, url, force=False):
            started.append(url)
            if len(started) == 3:
                raise RuntimeError("checker bug")
            return check(checker, url, force=force)

        monkeypatch.setattr(UrlChecker, "check", failing_check)
        with pytest.raises(RuntimeError, match="checker bug"):
            advance_and_run(clock, world, tracker)
        # No other worker started a check after the failing one.
        assert len(started) == 3
