"""Service replication and admission control (paper Section 4.2).

"The need to execute HtmlDiff on the server can result in high
processor loads if the facility is heavily used.  These loads can be
alleviated by caching the output of HtmlDiff for a while...  The
facility could also impose a limit on the number of simultaneous
users, or replicate itself among multiple computers, as many W3
services do."

Two mechanisms, composable:

* :class:`AdmissionControl` — a concurrent-request limiter per
  simulated instant; excess requests get 503 Service Unavailable
  (clients retry later, as 1995 browsers told users to);
* :class:`ReplicatedSnapshotService` — N service replicas behind a
  URL-hash router, so each page's archive lives on exactly one replica
  (no replication of state, which is what AIDE's shared-RCS design
  wants) while load spreads across machines.
"""

from __future__ import annotations

import hashlib
from typing import List

from ...simclock import SimClock
from ...web.cgi import parse_query_string
from ...web.http import Request, Response, make_response
from ...web.url import canonical_url
from .service import SnapshotService

__all__ = ["AdmissionControl", "ReplicatedSnapshotService"]


class AdmissionControl:
    """503 everything past N requests in one simulated instant."""

    def __init__(self, service, clock: SimClock, limit: int,
                 retry_after: int = 1) -> None:
        if limit < 1:
            raise ValueError("limit must be at least 1")
        if retry_after < 1:
            raise ValueError("retry_after must be at least 1")
        self.service = service
        self.clock = clock
        self.limit = limit
        #: The window resets every simulated instant, so one second is
        #: always enough — advertised so clients back off exactly that
        #: long instead of guessing with blind exponential delays.
        self.retry_after = retry_after
        self._instant = -1
        self._count = 0
        self.admitted = 0
        self.rejected = 0

    def __call__(self, request: Request, now: int) -> Response:
        """CGI entry point with the limiter in front."""
        if self.clock.now != self._instant:
            self._instant = self.clock.now
            self._count = 0
        self._count += 1
        if self._count > self.limit:
            self.rejected += 1
            response = make_response(
                503,
                "<P>The snapshot facility is at its simultaneous-user "
                "limit; please retry shortly.</P>",
            )
            response.headers.set("Retry-After", str(self.retry_after))
            return response
        self.admitted += 1
        return self.service(request, now)


class ReplicatedSnapshotService:
    """N snapshot replicas, pages partitioned by URL hash.

    Partitioning (rather than mirroring) keeps the design's core
    economy — one stored copy per page version — while dividing fetch
    and HtmlDiff load by the replica count.
    """

    def __init__(self, replicas: List[SnapshotService]) -> None:
        if not replicas:
            raise ValueError("at least one replica is required")
        self.replicas = replicas
        self.routed = [0] * len(replicas)

    # ------------------------------------------------------------------
    def replica_for(self, url: str) -> int:
        """Stable URL → replica index (hash partitioning)."""
        key = canonical_url(url)
        digest = hashlib.md5(key.encode("utf-8")).hexdigest()
        return int(digest[:8], 16) % len(self.replicas)

    def __call__(self, request: Request, now: int) -> Response:
        """Route by the ``url`` parameter; no-url requests (the blank
        registration form) go to replica 0."""
        if request.method == "POST":
            params = parse_query_string(request.body)
        else:
            params = parse_query_string(request.url.query)
        url = params.get("url", "")
        index = self.replica_for(url) if url else 0
        self.routed[index] += 1
        return self.replicas[index](request, now)

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(r.store.total_bytes() for r in self.replicas)

    @property
    def url_count(self) -> int:
        return sum(r.store.url_count() for r in self.replicas)

    def htmldiff_invocations(self) -> int:
        return sum(r.store.htmldiff_invocations for r in self.replicas)
