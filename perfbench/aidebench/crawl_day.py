"""``crawl_day``: one w3newer day over a 100k-URL hotlist.

The hotlist spans 200 hosts of a seeded crawl world that has churned
for one day since the user last looked.  The tracker runs the adaptive
policy with an 8,000-fetch budget and 8 workers, and renders the
Figure-1 report.  The timed operation is one ``W3Newer.run()``: it
decides every hotlist URL and ends with the report, so each URL's
verdict reaches the user when the day's run returns.  A day is thus
one latency sample (its wall time) and 100,000 operations; a run takes
at least ``DAYS`` days, so its latency median is a median of days.  With
so few samples none lies beyond the p99, which is the slowest day.

This exercises the w3newer layers and URL canonicalization with no
serve, HtmlDiff or archive work.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List

URLS = 100_000
HOSTS = 200
BUDGET = 8_000
WORKERS = 8
#: Crawl days (latency samples) an untraced run takes at the least.
DAYS = 3

_ROW = re.compile(r'<LI>(<B>)?<A HREF="([^"]*)">')


@dataclass
class State:
    world: object
    tracker: object
    result: object = None


class CrawlDay:
    """One adaptive crawl day; see the module docstring."""

    name = "crawl_day"

    def __init__(self, urls: int = URLS, hosts: int = HOSTS,
                 budget: int = BUDGET) -> None:
        self.urls = urls
        self.hosts = hosts
        self.budget = budget
        self.ops_per_round = urls
        self.min_samples = DAYS

    def setup(self, seed: int) -> State:
        from repro.core.w3newer import (
            BrowserHistory, ChangeRateEstimator, CrawlOptions, ReportOptions,
            SchedulePolicy)
        from repro.core.w3newer.runner import W3Newer
        from repro.simclock import DAY, SimClock
        from repro.web.client import UserAgent
        from repro.web.network import Network
        from repro.web.politeness import PolitenessLog
        from repro.workloads import (
            apply_changes, build_crawl_hotlist, build_crawl_world,
            seed_estimator)

        clock = SimClock()
        clock.advance(100 * DAY)
        network = Network(clock)
        world = build_crawl_world(urls=self.urls, hosts=self.hosts,
                                  seed=seed, clock=clock, network=network)
        agent = UserAgent(network, clock, politeness=PolitenessLog())
        history = BrowserHistory()
        for url in world.urls:
            history.visit(url, clock.now)
        estimator = ChangeRateEstimator()
        seed_estimator(world, estimator)
        tracker = W3Newer(
            clock, agent, build_crawl_hotlist(world), history=history,
            crawl=CrawlOptions(
                workers=WORKERS, budget=self.budget,
                policy=SchedulePolicy.ADAPTIVE, seed=seed,
                record_decisions=False),
            estimator=estimator,
            report_options=ReportOptions(render=True),
        )
        clock.advance(DAY)
        apply_changes(world)
        return State(world, tracker)

    def run(self, state: State, timer) -> List[int]:
        token = timer.begin(0)
        state.result = state.tracker.run()
        return [timer.end(token)]

    def check(self, state: State) -> int:
        """Hotlist URLs missing from the report, plus fetched URLs whose
        reported changed/unchanged verdict disagrees with the world's
        ground truth (the page changed since the user's last visit)."""
        reported: Dict[str, bool] = {
            url: bool(bold)
            for bold, url in _ROW.findall(state.result.report_html)
        }
        world = state.world
        failed = {url for url in world.urls if url not in reported}
        for outcome in state.result.outcomes:
            if outcome.http_requests > 0 and outcome.url in reported:
                if reported[outcome.url] != (world.applied[outcome.url] > 0):
                    failed.add(outcome.url)
        return len(failed)

    def state_metrics(self, state: State) -> Dict[str, float]:
        from repro.core.w3newer import UrlState

        result = state.result
        detections = sum(1 for outcome in result.outcomes
                         if outcome.state is UrlState.CHANGED)
        requests = result.http_requests
        return {
            "w3newer.report.bytes": len(result.report_html),
            "w3newer.http_requests": requests,
            "w3newer.detections_per_fetch": (detections / requests
                                             if requests else 0.0),
            "modeled_makespan_s":
                state.tracker.last_crawl["governor"]["makespan"],
        }
