"""Budgeted check scheduling: which URLs get this run's fetches?

The paper's w3newer walks the whole hotlist every run.  At 100k URLs
with a bounded fetch budget that is no longer a plan — this module
screens every hotlist entry the way :class:`UrlChecker`'s decision
ladder would, predicts which ones will need real HTTP, and picks the
check set that maximizes expected freshness gain:

* ``never`` thresholds still win unconditionally (Table-1 compat);
* checks that the ladder will answer for free (cached verdicts,
  ``file:`` URLs, cached robot exclusions) are always scheduled —
  they cost no budget;
* the remaining fetch candidates compete for the budget.  The STATIC
  policy keeps hotlist order (the paper's behavior, truncated); the
  ADAPTIVE policy ranks by expected-change probability since the URL
  was last verified, from :class:`ChangeRateEstimator`.

Whatever the budget excludes is synthesized as a DEFERRED outcome so
the report still covers the whole hotlist and the user can see what
the budget cost them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ...simclock import NEVER
from ...web.proxy import ProxyCache
from ...web.url import canonical_url, parse_url
from .checker import CheckerFlags
from .errors import CheckOutcome, CheckSource, UrlState, quarantine_backoff
from .estimator import ChangeRateEstimator
from .history import BrowserHistory
from .hotlist import HotlistEntry
from .statuscache import StatusCache
from .thresholds import ThresholdConfig

__all__ = [
    "SchedulePolicy",
    "ScheduledCheck",
    "PolicyDecision",
    "CrawlSchedule",
    "build_schedule",
]


class SchedulePolicy(Enum):
    """How fetch candidates compete for the budget."""

    #: Hotlist order, Table-1 thresholds as rate limiters (the paper).
    STATIC = "static"
    #: Ranked by expected-change probability from the estimator.
    ADAPTIVE = "adaptive"

    @classmethod
    def parse(cls, text: str) -> "SchedulePolicy":
        """Parse a policy name (CLI surface)."""
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown schedule policy {text!r}; "
                f"expected one of: {', '.join(p.value for p in cls)}"
            )


@dataclass(frozen=True)
class ScheduledCheck:
    """One unit of work the crawl executor will run.

    ``expects_http`` is the screening *prediction* used for budgeting;
    the governor accounts the requests the check actually spends.
    ``force`` tells the checker the scheduler already decided to spend
    HTTP, so threshold rate limits and cached unmodified verdicts must
    not suppress the fetch (``never`` and robots still win).
    ``coalesced`` lists hotlist indexes that share this URL — they get
    a copy of the outcome instead of their own fetch.
    """

    index: int
    url: str
    priority: float = 0.0
    expects_http: bool = True
    force: bool = False
    coalesced: Tuple[int, ...] = ()


@dataclass(frozen=True)
class PolicyDecision:
    """Why the scheduler did what it did with one URL (``--explain``)."""

    url: str
    action: str  # "fetch" | "free" | "deferred" | "never" | "not-due" | "coalesced"
    reason: str
    priority: float = 0.0


@dataclass
class CrawlSchedule:
    """Everything one screening pass decided."""

    policy: SchedulePolicy
    budget: Optional[int]
    #: Work for the executor, in hotlist order.
    checks: List[ScheduledCheck] = field(default_factory=list)
    #: Outcomes decided without running anything: (hotlist index, outcome).
    synthesized: List[Tuple[int, CheckOutcome]] = field(default_factory=list)
    #: Per-URL decisions (only when recording is enabled — it is a
    #: per-URL dict, which matters at 100k URLs).
    decisions: Dict[str, PolicyDecision] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class _Candidate:
    """Mutable scratch entry while the schedule is being built."""

    index: int
    url: str
    priority: float = 0.0
    expects_http: bool = True
    force: bool = False
    last_seen: Optional[int] = None
    coalesced: List[int] = field(default_factory=list)

    def freeze(self) -> ScheduledCheck:
        """The immutable form handed to the executor."""
        return ScheduledCheck(
            index=self.index,
            url=self.url,
            priority=self.priority,
            expects_http=self.expects_http,
            force=self.force,
            coalesced=tuple(self.coalesced),
        )


def _cached_says_changed(
    record, proxy: Optional[ProxyCache], url: str, last_seen: Optional[int]
) -> bool:
    """Will a cheap modification source answer changed-since-seen?

    Mirrors the checker's step 3: a "modified since seen" verdict from
    the status cache or the proxy cache is actionable at any age and
    costs no HTTP.
    """
    if record is not None and record.modification_date is not None \
            and record.date_obtained_at is not None:
        if last_seen is None or record.modification_date > last_seen:
            return True
    if proxy is not None:
        info = proxy.cached_last_modified(parse_url(url))
        if info is not None and (last_seen is None or info[0] > last_seen):
            return True
    return False


def _cached_fresh_unmodified(
    record, proxy: Optional[ProxyCache], url: str, last_seen: Optional[int],
    threshold: int, flags: CheckerFlags, now: int,
) -> bool:
    """Will step 3 answer "unmodified, and I still trust that"?

    Mirrors the checker's trust windows: status-cache info for the
    staleness horizon, proxy info only while current with respect to
    the threshold; a zero threshold never trusts an unmodified verdict.
    """
    if threshold == 0:
        return False
    candidates = []
    if record is not None and record.modification_date is not None \
            and record.date_obtained_at is not None:
        candidates.append(
            (record.modification_date, record.date_obtained_at,
             flags.stale_after)
        )
    if proxy is not None:
        info = proxy.cached_last_modified(parse_url(url))
        if info is not None:
            candidates.append(
                (info[0], info[1], min(threshold, flags.stale_after))
            )
    candidates.sort(key=lambda c: -c[1])
    for mod_date, obtained_at, trust_window in candidates:
        if last_seen is not None and mod_date <= last_seen \
                and now - obtained_at < trust_window:
            return True
    return False


def _verified_reference(record, last_seen: Optional[int]) -> Optional[int]:
    """When was this URL last *verified* by anything we trust?

    The adaptive priority is the probability of a change since this
    instant.  Any of: the user viewing the page, a direct HTTP check,
    or the moment cached modification info was obtained.
    """
    stamps = [last_seen]
    if record is not None:
        stamps.extend(
            [record.last_http_check, record.date_obtained_at,
             record.checksum_obtained_at]
        )
    known = [s for s in stamps if s is not None]
    return max(known) if known else None


def build_schedule(
    entries: Sequence[HotlistEntry],
    now: int,
    config: ThresholdConfig,
    history: BrowserHistory,
    cache: StatusCache,
    proxy: Optional[ProxyCache] = None,
    flags: Optional[CheckerFlags] = None,
    policy: SchedulePolicy = SchedulePolicy.STATIC,
    budget: Optional[int] = None,
    estimator: Optional[ChangeRateEstimator] = None,
    record_decisions: bool = True,
) -> CrawlSchedule:
    """Screen the hotlist and pick this run's check set.

    Deterministic: same inputs, same schedule.  ``budget`` bounds the
    number of *fetch* checks (screening's prediction); free checks are
    always scheduled.  The ADAPTIVE policy requires an ``estimator``.
    """
    flags = flags or CheckerFlags()
    if policy is SchedulePolicy.ADAPTIVE and estimator is None:
        raise ValueError("the adaptive policy needs a ChangeRateEstimator")
    schedule = CrawlSchedule(policy=policy, budget=budget)
    counters = {
        "scheduled": 0, "free": 0, "fetch": 0, "deferred": 0,
        "never": 0, "not_due": 0, "coalesced": 0, "quarantined": 0,
    }
    free: List[_Candidate] = []
    fetch: List[_Candidate] = []
    owners: Dict[str, _Candidate] = {}

    def decide(url: str, action: str, reason: str, priority: float = 0.0) -> None:
        if record_decisions:
            schedule.decisions[url] = PolicyDecision(
                url=url, action=action, reason=reason, priority=priority
            )

    for index, entry in enumerate(entries):
        url = entry.url
        canon = canonical_url(url)
        owner = owners.get(canon)
        if owner is not None:
            # Same page elsewhere in the hotlist: one fetch, fanned out.
            owner.coalesced.append(index)
            counters["coalesced"] += 1
            decide(url, "coalesced", f"duplicate of hotlist entry {owner.index}")
            continue

        threshold = config.threshold_for(url)
        if threshold == NEVER:
            schedule.synthesized.append(
                (index, CheckOutcome(url=url, state=UrlState.NEVER_CHECK))
            )
            counters["never"] += 1
            decide(url, "never", "threshold is 'never'")
            continue

        last_seen = history.last_seen(canon)
        record = cache.peek(canon)

        if canon.startswith("file:"):
            candidate = _Candidate(index=index, url=url, expects_http=False,
                                   last_seen=last_seen)
            free.append(candidate)
            owners[canon] = candidate
            decide(url, "free", "file: URL, one local stat")
            continue

        if policy is SchedulePolicy.STATIC and threshold > 0 \
                and last_seen is not None and now - last_seen < threshold:
            schedule.synthesized.append(
                (index, CheckOutcome(url=url, state=UrlState.NOT_CHECKED,
                                     last_seen=last_seen))
            )
            counters["not_due"] += 1
            decide(url, "not-due", "visited within the threshold")
            continue

        if record is not None and record.robot_forbidden \
                and not flags.ignore_robots:
            candidate = _Candidate(index=index, url=url, expects_http=False,
                                   last_seen=last_seen)
            free.append(candidate)
            owners[canon] = candidate
            decide(url, "free", "cached robot exclusion, no HTTP")
            continue

        if record is not None and record.quarantine_count > 0 \
                and record.quarantined_at is not None \
                and now - record.quarantined_at < quarantine_backoff(
                    record.quarantine_count,
                    flags.quarantine_backoff_base):
            # Mirrors the checker's quarantine backoff: a poison page
            # answers QUARANTINED for free instead of burning budget.
            schedule.synthesized.append(
                (index, CheckOutcome(url=url, state=UrlState.QUARANTINED,
                                     error=record.last_error,
                                     error_count=record.quarantine_count,
                                     last_seen=last_seen))
            )
            counters["quarantined"] += 1
            decide(url, "quarantined", "in quarantine backoff")
            continue

        if _cached_says_changed(record, proxy, url, last_seen):
            candidate = _Candidate(index=index, url=url, expects_http=False,
                                   last_seen=last_seen)
            free.append(candidate)
            owners[canon] = candidate
            decide(url, "free", "cached verdict: modified since seen")
            continue

        if policy is SchedulePolicy.STATIC:
            if _cached_fresh_unmodified(record, proxy, url, last_seen,
                                        threshold, flags, now):
                candidate = _Candidate(index=index, url=url,
                                       expects_http=False,
                                       last_seen=last_seen)
                free.append(candidate)
                owners[canon] = candidate
                decide(url, "free", "cached unmodified verdict still fresh")
                continue
            if threshold > 0 and record is not None \
                    and record.last_http_check is not None \
                    and now - record.last_http_check < threshold:
                schedule.synthesized.append(
                    (index, CheckOutcome(url=url, state=UrlState.NOT_CHECKED,
                                         last_seen=last_seen))
                )
                counters["not_due"] += 1
                decide(url, "not-due", "checked within the threshold")
                continue
            candidate = _Candidate(index=index, url=url, last_seen=last_seen)
            fetch.append(candidate)
            owners[canon] = candidate
            decide(url, "fetch", "due under the static thresholds")
            continue

        # ADAPTIVE: rank by expected change probability since the URL
        # was last verified.  A URL no layer has ever observed gets
        # p=1.0 (must-explore); the estimator's own history stands in
        # when the status cache has nothing.
        reference = _verified_reference(record, last_seen)
        if reference is None:
            estimate = estimator.peek(canon)
            if estimate is not None:
                reference = estimate.last_check_at
        elapsed = None if reference is None else max(0, now - reference)
        p = estimator.p_changed(canon, elapsed)
        candidate = _Candidate(index=index, url=url, priority=p, force=True,
                               last_seen=last_seen)
        fetch.append(candidate)
        owners[canon] = candidate
        decide(url, "fetch", "competing for budget", priority=p)

    # ------------------------------------------------------------------
    # Budget: free checks always run; fetch candidates compete.
    # ------------------------------------------------------------------
    if budget is None or budget >= len(fetch):
        selected = fetch
        deferred: List[_Candidate] = []
    elif policy is SchedulePolicy.ADAPTIVE:
        ranked = sorted(fetch, key=lambda c: (-c.priority, c.index))
        selected, deferred = ranked[:budget], ranked[budget:]
    else:
        selected, deferred = fetch[:budget], fetch[budget:]

    for candidate in deferred:
        schedule.synthesized.append(
            (candidate.index,
             CheckOutcome(url=candidate.url, state=UrlState.DEFERRED,
                          last_seen=candidate.last_seen))
        )
        counters["deferred"] += 1
        decide(candidate.url, "deferred", "over the fetch budget",
               priority=candidate.priority)
        # A deferred owner still answers for its duplicates.
        for dup in candidate.coalesced:
            schedule.synthesized.append(
                (dup, CheckOutcome(url=entries[dup].url,
                                   state=UrlState.DEFERRED,
                                   last_seen=candidate.last_seen))
            )

    chosen = sorted(free + selected, key=lambda c: c.index)
    schedule.checks = [c.freeze() for c in chosen]
    counters["free"] = len(free)
    counters["fetch"] = len(selected)
    counters["scheduled"] = len(schedule.checks)
    schedule.counters = counters
    return schedule
