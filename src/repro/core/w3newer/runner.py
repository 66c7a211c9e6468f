"""One periodic w3newer run, and its cron wiring.

"Currently, w3newer is invoked directly by the user, probably by a
crontab entry, and generates an HTML document indicating which pages
have changed."  :class:`W3Newer` owns the per-user state (hotlist,
history, status cache, flags) and produces a :class:`RunResult` per
invocation; :meth:`W3Newer.schedule` hangs it off the simulation cron.

Aborting is no longer losing: when the systemic-failure detector fires,
the position in the hotlist (and every outcome already computed) is
parked in a :class:`RunCheckpoint`, and the next invocation resumes
mid-list — the paper's "abort and try again later" without repeating
the work already done.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

from ...obs import NOOP as NOOP_OBS
from ...simclock import DAY, CronScheduler, SimClock
from ...web.client import UserAgent
from ...web.proxy import ProxyCache
from ...web.robots import RobotsFile
from .checker import CheckerFlags, UrlChecker
from .crawl import CrawlExecutor, CrawlOptions, HostGovernor
from .errors import CheckOutcome, RunAborted, SystemicFailureDetector, UrlState
from .estimator import ChangeRateEstimator
from .history import BrowserHistory
from .hotlist import Hotlist
from .localfs import LocalFiles
from .report import ReportOptions, render_report
from .scheduler import (
    CrawlSchedule,
    ScheduledCheck,
    SchedulePolicy,
    build_schedule,
)
from .statuscache import StatusCache
from .thresholds import ThresholdConfig

__all__ = ["RunResult", "RunCheckpoint", "CrawlCheckpoint", "W3Newer"]


@dataclass
class RunCheckpoint:
    """Where an aborted run stopped, so the next one can resume.

    ``next_index`` is the hotlist position of the URL whose check
    triggered the abort (it gets retried first); ``outcomes`` carries
    everything already decided, so the resumed run's report still
    covers the whole hotlist.  A checkpoint is only honored while the
    hotlist has the same length — an edited hotlist restarts cleanly.
    """

    next_index: int
    hotlist_size: int
    started_at: int
    outcomes: List[CheckOutcome] = field(default_factory=list)


@dataclass
class CrawlCheckpoint:
    """Where an interrupted *concurrent* run stopped.

    Unlike the serial checkpoint, position is not one hotlist index:
    the budgeted schedule was already fixed when the run began, so the
    checkpoint parks the **remaining scheduled checks** verbatim (never
    re-screened against the now-mutated caches — re-screening would
    change the check set and break byte-identity with an uninterrupted
    run), every outcome already decided, the governor's virtual
    timeline, and the per-run robots verdicts so resuming does not
    re-fetch robots.txt for hosts already asked.
    """

    hotlist_size: int
    started_at: int
    pending: List[ScheduledCheck] = field(default_factory=list)
    outcomes: Dict[int, CheckOutcome] = field(default_factory=dict)
    governor_state: Dict[str, object] = field(default_factory=dict)
    robots_by_host: Dict[str, RobotsFile] = field(default_factory=dict)
    robots_errors: Dict[str, str] = field(default_factory=dict)
    failed_hosts: Set[str] = field(default_factory=set)


@dataclass
class RunResult:
    """Everything one w3newer invocation produced."""

    started_at: int
    outcomes: List[CheckOutcome] = field(default_factory=list)
    aborted: str = ""
    report_html: str = ""
    #: Hotlist index this run resumed from (None = started fresh).
    resumed_from: Optional[int] = None

    @property
    def changed(self) -> List[CheckOutcome]:
        return [o for o in self.outcomes if o.is_new_to_user]

    @property
    def errors(self) -> List[CheckOutcome]:
        return [o for o in self.outcomes if o.state is UrlState.ERROR]

    @property
    def stale(self) -> List[CheckOutcome]:
        """Degraded-mode verdicts served from the status cache."""
        return [o for o in self.outcomes if o.state is UrlState.STALE]

    @property
    def quarantined(self) -> List[CheckOutcome]:
        """URLs whose content tripped an ingest guard."""
        return [o for o in self.outcomes
                if o.state is UrlState.QUARANTINED]

    @property
    def http_requests(self) -> int:
        return sum(o.http_requests for o in self.outcomes)

    @property
    def checked_via_http(self) -> int:
        return sum(1 for o in self.outcomes if o.http_requests > 0)

    @property
    def skipped(self) -> int:
        return sum(
            1 for o in self.outcomes
            if o.state in (UrlState.NOT_CHECKED, UrlState.NEVER_CHECK,
                           UrlState.DEFERRED)
        )

    @property
    def deferred(self) -> int:
        """URLs the fetch budget pushed past this run."""
        return sum(
            1 for o in self.outcomes if o.state is UrlState.DEFERRED
        )


class W3Newer:
    """The per-user change tracker."""

    def __init__(
        self,
        clock: SimClock,
        agent: UserAgent,
        hotlist: Hotlist,
        config: Optional[ThresholdConfig] = None,
        history: Optional[BrowserHistory] = None,
        cache: Optional[StatusCache] = None,
        proxy: Optional[ProxyCache] = None,
        local_files: Optional[LocalFiles] = None,
        flags: Optional[CheckerFlags] = None,
        report_options: Optional[ReportOptions] = None,
        abort_after_failures: int = 5,
        obs=None,
        crawl: Optional[CrawlOptions] = None,
        estimator: Optional[ChangeRateEstimator] = None,
        guard=None,
        quarantine=None,
    ) -> None:
        self.clock = clock
        self.agent = agent
        self.hotlist = hotlist
        self.config = config if config is not None else ThresholdConfig.default_config()
        # NOTE: explicit None checks — an empty BrowserHistory/StatusCache
        # is falsy (it defines __len__), and `or` would silently replace a
        # shared-but-empty instance with a private new one.
        self.history = history if history is not None else BrowserHistory()
        self.cache = cache if cache is not None else StatusCache()
        self.proxy = proxy
        self.local_files = local_files or LocalFiles()
        self.flags = flags or CheckerFlags()
        self.report_options = report_options or ReportOptions()
        self.abort_after_failures = abort_after_failures
        self.runs: List[RunResult] = []
        #: Set when a run aborts; the next run resumes from it.  Holds
        #: a :class:`RunCheckpoint` (serial path) or a
        #: :class:`CrawlCheckpoint` (concurrent path).
        self.checkpoint = None
        #: None = the paper's serial walk; a CrawlOptions = the
        #: budgeted concurrent pipeline.
        self.crawl = crawl
        if estimator is None and crawl is not None \
                and crawl.policy is SchedulePolicy.ADAPTIVE:
            estimator = ChangeRateEstimator()
        self.estimator = estimator
        #: Optional hostile-content hardening: a ContentGuard applied
        #: to every fetched body, and a QuarantineJournal holding the
        #: offending bytes for `aide quarantine list/retry/purge`.
        self.guard = guard
        self.quarantine = quarantine
        #: The last screening pass (PolicyDecisions for ``--explain``).
        self.last_schedule: Optional[CrawlSchedule] = None
        #: Governor/scheduling stats of the last concurrent run.
        self.last_crawl: Dict[str, object] = {}
        self.obs = obs if obs is not None else NOOP_OBS
        self._c_runs = self.obs.counter("w3newer.runs")
        self._c_checks = self.obs.counter("w3newer.checks")
        self._c_http = self.obs.counter("w3newer.http_requests")
        self._c_aborts = self.obs.counter("w3newer.run_aborts")
        self._h_check_cost = self.obs.histogram(
            "w3newer.check.http_requests", buckets=(0, 1, 2, 3, 5, 8, 13),
        )
        self._h_priority = self.obs.histogram(
            "w3newer.crawl.priority",
            buckets=(0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0),
        )
        self._g_inflight = self.obs.gauge("w3newer.crawl.max_host_inflight")
        self._g_makespan = self.obs.gauge("w3newer.crawl.makespan")

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Check every hotlist URL; abort early on systemic failure.

        If the previous invocation aborted, this one picks up from its
        checkpoint instead of restarting: outcomes already computed are
        carried over and checking continues mid-list.

        With :class:`CrawlOptions` configured, the run goes through the
        budgeted concurrent pipeline instead (see :meth:`_run_crawl`).
        """
        if self.crawl is not None:
            return self._run_crawl()
        entries = list(self.hotlist)
        start_index = 0
        carried: List[CheckOutcome] = []
        resumed_from: Optional[int] = None
        if (
            isinstance(self.checkpoint, RunCheckpoint)
            and self.checkpoint.hotlist_size == len(entries)
        ):
            start_index = self.checkpoint.next_index
            carried = list(self.checkpoint.outcomes)
            resumed_from = start_index
        self.checkpoint = None
        result = RunResult(started_at=self.clock.now,
                           resumed_from=resumed_from)
        result.outcomes.extend(carried)
        checker = UrlChecker(
            clock=self.clock,
            agent=self.agent,
            config=self.config,
            history=self.history,
            cache=self.cache,
            proxy=self.proxy,
            local_files=self.local_files,
            flags=self.flags,
            failure_detector=SystemicFailureDetector(self.abort_after_failures),
            obs=self.obs,
            guard=self.guard,
            quarantine=self.quarantine,
        )
        self._c_runs.inc()
        index = start_index
        with self.obs.span(
            "w3newer.run", urls=len(entries),
            resumed=resumed_from is not None,
        ) as run_span:
            try:
                while index < len(entries):
                    url = entries[index].url
                    # One span per hotlist URL: the state/source pair
                    # names the ladder rung that decided it (threshold
                    # skip, proxy/status-cache verdict, HEAD, checksum
                    # fallback, degraded STALE).
                    with self.obs.span("w3newer.check", url=url) as span:
                        outcome = checker.check(url)
                        span.set(
                            state=outcome.state.name.lower(),
                            source=outcome.source.value,
                            http_requests=outcome.http_requests,
                        )
                    result.outcomes.append(outcome)
                    self._c_checks.inc()
                    self._c_http.inc(outcome.http_requests)
                    self._h_check_cost.observe(outcome.http_requests)
                    self.obs.counter(
                        "w3newer.state." + outcome.state.name.lower()
                    ).inc()
                    index += 1
            except RunAborted as exc:
                result.aborted = str(exc)
                self._c_aborts.inc()
                self.obs.event("w3newer.run_aborted", reason=str(exc),
                               next_index=index)
                # Park the position: the aborting URL itself is retried
                # first next time (its outcome was never recorded).
                self.checkpoint = RunCheckpoint(
                    next_index=index,
                    hotlist_size=len(entries),
                    started_at=result.started_at,
                    outcomes=list(result.outcomes),
                )
            run_span.set(
                checked=len(result.outcomes),
                http_requests=result.http_requests,
                aborted=bool(result.aborted),
            )
        self._render_into(result)
        self.runs.append(result)
        return result

    # ------------------------------------------------------------------
    # The concurrent pipeline
    # ------------------------------------------------------------------
    def _run_crawl(self) -> RunResult:
        """One budgeted, concurrent, politeness-governed run.

        Screening (:func:`build_schedule`) synthesizes every outcome
        the checker ladder would decide without HTTP and picks the
        fetch set under the budget; the executor drains the scheduled
        checks on ``workers`` seeded generator tasks while the
        :class:`HostGovernor` places every fetch on a virtual timeline
        under the per-host politeness limits.  Same seed, same inputs
        ⇒ byte-identical report and fetch trace.
        """
        entries = list(self.hotlist)
        opts = self.crawl
        now = self.clock.now
        resumed_from: Optional[int] = None
        outcomes: Dict[int, CheckOutcome] = {}
        governor = HostGovernor(
            workers=max(1, opts.workers),
            max_per_host=opts.max_per_host,
            host_delay=opts.host_delay,
            request_cost=opts.request_cost,
            start=now,
            record_trace=opts.record_trace,
        )
        checkpoint = self.checkpoint
        self.checkpoint = None
        schedule: Optional[CrawlSchedule] = None
        if (
            isinstance(checkpoint, CrawlCheckpoint)
            and checkpoint.hotlist_size == len(entries)
        ):
            pending = list(checkpoint.pending)
            outcomes = dict(checkpoint.outcomes)
            governor.restore(checkpoint.governor_state)
            resumed_from = len(outcomes)
            started_at = checkpoint.started_at
        else:
            checkpoint = None
            started_at = now
            schedule = build_schedule(
                entries,
                now=now,
                config=self.config,
                history=self.history,
                cache=self.cache,
                proxy=self.proxy,
                flags=self.flags,
                policy=opts.policy,
                budget=opts.budget,
                estimator=self.estimator,
                record_decisions=opts.record_decisions,
            )
            self.last_schedule = schedule
            pending = list(schedule.checks)
            outcomes.update(dict(schedule.synthesized))
            for name, value in schedule.counters.items():
                self.obs.counter("w3newer.crawl." + name).inc(value)
            for check in schedule.checks:
                if check.expects_http:
                    self._h_priority.observe(check.priority)

        checker = UrlChecker(
            clock=self.clock,
            agent=self.agent,
            config=self.config,
            history=self.history,
            cache=self.cache,
            proxy=self.proxy,
            local_files=self.local_files,
            flags=self.flags,
            failure_detector=SystemicFailureDetector(self.abort_after_failures),
            obs=self.obs,
            guard=self.guard,
            quarantine=self.quarantine,
        )
        if checkpoint is not None:
            checker._robots_by_host.update(checkpoint.robots_by_host)
            checker._robots_errors.update(checkpoint.robots_errors)
            checker._failed_hosts.update(checkpoint.failed_hosts)

        self._c_runs.inc()
        result = RunResult(started_at=started_at, resumed_from=resumed_from)
        with self.obs.span(
            "w3newer.crawl_run", urls=len(entries),
            policy=opts.policy.value, workers=opts.workers,
            resumed=resumed_from is not None,
        ) as run_span:
            executor = CrawlExecutor(checker, governor, opts, obs=self.obs)
            crawl = executor.run(pending)
            for task, outcome in crawl.completed:
                outcomes[task.index] = outcome
                for dup in task.coalesced:
                    outcomes[dup] = replace(outcome, url=entries[dup].url)
                self._feed_estimator(task.url, outcome, now)
                self._c_checks.inc()
                self._c_http.inc(outcome.http_requests)
                self._h_check_cost.observe(outcome.http_requests)
                self.obs.counter(
                    "w3newer.state." + outcome.state.name.lower()
                ).inc()
            if crawl.aborted:
                result.aborted = crawl.aborted
            elif crawl.paused:
                result.aborted = (
                    f"crawl paused: check quota ({opts.max_checks}) reached"
                )
            if result.aborted:
                self._c_aborts.inc()
                self.obs.event("w3newer.run_aborted", reason=result.aborted,
                               pending=len(crawl.pending))
                self.checkpoint = CrawlCheckpoint(
                    hotlist_size=len(entries),
                    started_at=started_at,
                    pending=list(crawl.pending),
                    outcomes=dict(outcomes),
                    governor_state=governor.snapshot(),
                    robots_by_host=dict(checker._robots_by_host),
                    robots_errors=dict(checker._robots_errors),
                    failed_hosts=set(checker._failed_hosts),
                )
            run_span.set(
                checked=len(crawl.completed),
                http_requests=governor.requests,
                makespan=governor.makespan,
                aborted=bool(result.aborted),
            )
        result.outcomes = [outcomes[i] for i in sorted(outcomes)]
        self._g_inflight.set(governor.max_inflight)
        self._g_makespan.set(governor.makespan)
        self.last_crawl = {
            "policy": opts.policy.value,
            "budget": opts.budget,
            "governor": governor.stats(),
            "trace": governor.trace,
            "schedule": dict(schedule.counters) if schedule else {},
            "claims": crawl.claims,
        }
        if opts.advance_clock and governor.makespan > 0:
            self.clock.advance(governor.makespan)
        self._render_into(result)
        self.runs.append(result)
        return result

    def _feed_estimator(self, url: str, outcome: CheckOutcome,
                        now: int) -> None:
        """Turn one verdict into change-rate evidence."""
        if self.estimator is None:
            return
        state = outcome.state
        if state is UrlState.CHANGED:
            self.estimator.observe(url, now, changed=True)
        elif state in (UrlState.SEEN, UrlState.MOVED, UrlState.NEVER_SEEN):
            self.estimator.observe(url, now, changed=False)
        elif state in (UrlState.ERROR, UrlState.STALE,
                       UrlState.QUARANTINED):
            # A quarantined fetch taught us nothing about change rate;
            # like errors, it counts as a miss so the estimator cools
            # the URL's priority instead of re-spending budget on it.
            self.estimator.observe_miss(url, now)

    def _render_into(self, result: RunResult) -> None:
        """Render the Figure-1 report into the result (if enabled)."""
        if not self.report_options.render:
            return
        result.report_html = render_report(
            result.outcomes,
            list(self.hotlist),
            options=self.report_options,
            now=self.clock.now,
            aborted=result.aborted,
            summary=(self._run_summary(result)
                     if self.report_options.run_summary else None),
        )

    # ------------------------------------------------------------------
    # Surfaces
    # ------------------------------------------------------------------
    def explain(self, url: str) -> Dict[str, object]:
        """The ``aide newer --explain URL`` payload.

        Combines the estimator's model view (predicted change rate,
        next-due time) with the last screening pass's policy decision
        for the URL, when either exists.
        """
        now = self.clock.now
        if self.estimator is not None:
            info = self.estimator.explain(url, now)
        else:
            info = {"url": url, "tracked": False}
        decision = None
        if self.last_schedule is not None:
            decision = self.last_schedule.decisions.get(url)
        if decision is not None:
            info["last_decision"] = {
                "action": decision.action,
                "reason": decision.reason,
                "priority": round(decision.priority, 6),
            }
        else:
            info["last_decision"] = None
        record = self.cache.peek(url)
        if record is not None:
            info["last_http_check"] = record.last_http_check
            info["last_observed_change"] = record.last_change_at
        return info

    def crawl_stats(self) -> Dict[str, object]:
        """The ``crawl`` block for ``store.stats()`` / CGI stats."""
        if self.crawl is None:
            return {"attached": False}
        out: Dict[str, object] = {
            "attached": True,
            "policy": self.crawl.policy.value,
            "workers": self.crawl.workers,
            "budget": self.crawl.budget,
            "runs": len(self.runs),
        }
        if self.last_crawl:
            out["last_run"] = {
                "governor": self.last_crawl.get("governor", {}),
                "schedule": self.last_crawl.get("schedule", {}),
            }
        if self.estimator is not None:
            out["estimator"] = self.estimator.stats()
        return out

    def _run_summary(self, result: RunResult) -> dict:
        """The report's opt-in run-summary block: per-run cost totals
        in the spirit of the paper's Table 1 accounting.  Derived from
        the RunResult alone (deterministic, works with observability
        disabled); opt-in because it changes the report's bytes."""
        return {
            "urls": len(result.outcomes),
            "changed": len(result.changed),
            "errors": len(result.errors),
            "stale": len(result.stale),
            "quarantined": len(result.quarantined),
            "skipped": result.skipped,
            "checked_via_http": result.checked_via_http,
            "http_requests": result.http_requests,
            "resumed_from": result.resumed_from,
            "aborted": result.aborted or "",
        }

    def schedule(self, cron: CronScheduler, period: int = DAY):
        """Hang this tracker off the simulated crontab."""
        return cron.schedule(period, lambda now: self.run(), name="w3newer")

    # ------------------------------------------------------------------
    def mark_page_viewed(self, url: str) -> None:
        """The user visited a page directly (updates browser history).

        Note: viewing a page *through HtmlDiff* does not call this —
        Section 6 points out that "the browser records the URL that was
        used to invoke HtmlDiff", so the page keeps showing as modified
        until visited directly.  The integration tests rely on exactly
        that wart.
        """
        self.history.visit(url, self.clock.now)
