"""Harvest-style lazy change notification (paper Section 3.1).

"Instead, one could envision using something like the Harvest
replication and caching services to notify interested parties in a lazy
fashion.  A user who expresses an interest in a page, or a browser that
is currently caching a page, could register an interest in the page
with its local caching service.  The caching service would in turn
register an interest with an Internet-wide, distributed service that
would make a best effort to notify the caching service of changes in a
timely fashion...  the mechanism for discovering when a page changes
could be left to a negotiation between the distributed repository and
the content provider: either the content provider notifies the
repository of changes, or the repository polls it periodically.  Either
way, there would not be a large number of clients polling each
interesting HTTP server."

The model:

* :class:`DistributedRepository` — the Internet-wide service.  Each
  tracked page has a discovery mode: ``provider-notify`` (the content
  provider calls :meth:`DistributedRepository.provider_changed`) or
  ``poll`` (the repository checks on its own schedule).  It keeps one
  replicated copy per page and best-effort-notifies subscribed caches.
* :class:`RegionalCache` — the user-side caching service.  Users
  register interest locally; the cache subscribes upstream once per
  page and queues notifications for its users to collect lazily.

Best effort is literal: a configurable, deterministic fraction of
notifications is dropped in transit; subscribers recover on the next
poll round or provider event (at-least-once over time, not per event).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.w3newer.checker import content_checksum
from ..simclock import CronScheduler, SimClock
from ..web.client import UserAgent
from ..web.http import NetworkError
from ..web.url import canonical_key, canonical_url

__all__ = ["DistributedRepository", "RegionalCache", "ChangeNotice"]


@dataclass(frozen=True)
class ChangeNotice:
    """One change notification as delivered to a cache or user."""

    url: str
    changed_at: int
    delivered_at: int

    @property
    def latency(self) -> int:
        return self.delivered_at - self.changed_at


class DistributedRepository:
    """The Internet-wide replication + notification service."""

    def __init__(
        self,
        clock: SimClock,
        agent: UserAgent,
        drop_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        self.clock = clock
        self.agent = agent
        self.drop_rate = drop_rate
        self._rng = random.Random(seed)
        self._modes: Dict[str, str] = {}  # url -> "poll" | "provider-notify"
        self._replicas: Dict[str, str] = {}  # url -> replicated content
        self._checksums: Dict[str, str] = {}
        self._subscribers: Dict[str, List["RegionalCache"]] = {}
        self.poll_requests = 0
        self.notifications_sent = 0
        self.notifications_dropped = 0

    # ------------------------------------------------------------------
    def track(self, url: str, mode: str = "poll") -> None:
        """Begin tracking a page (negotiated with its provider)."""
        if mode not in ("poll", "provider-notify"):
            raise ValueError(f"unknown discovery mode: {mode}")
        key = canonical_url(url)
        self._modes[key] = mode
        if key not in self._checksums:
            self._refresh(key, notify=False)

    def subscribe(self, url: str, cache: "RegionalCache") -> None:
        key = canonical_url(url)
        subscribers = self._subscribers.setdefault(key, [])
        if cache not in subscribers:
            subscribers.append(cache)
        if key not in self._modes:
            self.track(key)

    def replica(self, url: str) -> Optional[str]:
        """The replicated page content — served without touching the
        origin ("pages would already be replicated, with server load
        distributed")."""
        return self._replicas.get(canonical_key(self._replicas, url))

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def provider_changed(self, url: str) -> None:
        """The content provider tells us a page changed (push mode)."""
        key = canonical_url(url)
        if self._modes.get(key) != "provider-notify":
            raise ValueError(f"{key} is not in provider-notify mode")
        self._refresh(key, notify=True)

    def poll_round(self) -> int:
        """Poll every page in poll mode once; returns changes found."""
        changed = 0
        for url, mode in sorted(self._modes.items()):
            if mode != "poll":
                continue
            if self._refresh(url, notify=True):
                changed += 1
        return changed

    def schedule(self, cron: CronScheduler, period: int):
        return cron.schedule(period, lambda now: self.poll_round(),
                             name="harvest-repository")

    def _refresh(self, url: str, notify: bool) -> bool:
        try:
            result = self.agent.get(url)
        except NetworkError:
            return False
        if not result.response.ok:
            return False
        self.poll_requests += 1
        body = result.response.body
        checksum = content_checksum(body)
        previous = self._checksums.get(url)
        self._checksums[url] = checksum
        self._replicas[url] = body
        if previous is None or previous == checksum:
            return False
        if notify:
            self._notify(url)
        return True

    def _notify(self, url: str) -> None:
        for cache in self._subscribers.get(url, ()):
            self.notifications_sent += 1
            if self._rng.random() < self.drop_rate:
                self.notifications_dropped += 1
                continue  # best effort: this one is lost
            cache.deliver(ChangeNotice(
                url=url, changed_at=self.clock.now,
                delivered_at=self.clock.now,
            ))


class RegionalCache:
    """A local caching service holding its users' interests."""

    def __init__(self, name: str, repository: DistributedRepository,
                 clock: SimClock) -> None:
        self.name = name
        self.repository = repository
        self.clock = clock
        self._interests: Dict[str, Set[str]] = {}  # url -> users
        self._inboxes: Dict[str, List[ChangeNotice]] = {}
        self.notices_received = 0

    # ------------------------------------------------------------------
    def register_interest(self, user: str, url: str) -> None:
        """A user (or their browser's cache) cares about a page.

        The upstream subscription happens once per page, however many
        local users register — the fan-in the design is about.
        """
        key = canonical_url(url)
        first = key not in self._interests
        self._interests.setdefault(key, set()).add(user)
        if first:
            self.repository.subscribe(key, self)

    def deliver(self, notice: ChangeNotice) -> None:
        """Upstream notification arrives; fan out to local inboxes."""
        self.notices_received += 1
        for user in self._interests.get(notice.url, ()):
            self._inboxes.setdefault(user, []).append(
                ChangeNotice(url=notice.url, changed_at=notice.changed_at,
                             delivered_at=self.clock.now)
            )

    def collect(self, user: str) -> List[ChangeNotice]:
        """The lazy part: the user picks up notices when they get
        around to it (e.g. from their next w3newer report)."""
        return self._inboxes.pop(user, [])

    def page(self, url: str) -> Optional[str]:
        """Serve a page from the replicated repository, not the origin."""
        return self.repository.replica(url)
