"""Browser-side integration (paper Sections 6 and 8.4).

Two browser shortcomings shape AIDE's rough edges:

1. **History decoupling** (Section 6): "Viewing a page with HtmlDiff
   does not cause the browser to record that the page has just been
   seen; instead, the browser records the URL that was used to invoke
   HtmlDiff...  the user must view a page directly as well as via
   HtmlDiff."  The paper suggests client-side execution ("Java might be
   suitable for conveying that information to the server").
2. **Forms** (Section 8.4): "the browser could be modified to have
   better support for forms: it should store the filled-out version of
   a form in its bookmark file... [and] be able to pass a form directly
   to AIDE."

:class:`IntegratedBrowser` is that modified browser: an ordinary
user agent plus a history database, which — when the
``history_integration`` extension is on — recognizes AIDE diff URLs and
records the *underlying* page as seen; and a bookmark file that can
hold filled-out forms and replay them through a
:class:`~repro.aide.postforms.PostFormRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.w3newer.history import BrowserHistory
from ..memento.client import MementoClient, MementoClientError, MementoFetch
from ..simclock import SimClock
from ..web.cgi import encode_query_string, parse_query_string
from ..web.client import UserAgent
from ..web.http import Response, format_http_date
from ..web.url import canonical_url, parse_url

__all__ = ["IntegratedBrowser", "FormBookmark", "TimeTravelSession",
           "TimeTravelPage"]


@dataclass(frozen=True)
class FormBookmark:
    """A filled-out form saved in the bookmark file (§8.4's wish)."""

    name: str
    action_url: str
    fields: tuple  # sorted (key, value) pairs

    @property
    def body(self) -> str:
        return encode_query_string(dict(self.fields))


class IntegratedBrowser:
    """A browser with the AIDE-awareness the paper asks for."""

    def __init__(
        self,
        agent: UserAgent,
        clock: SimClock,
        history: Optional[BrowserHistory] = None,
        history_integration: bool = True,
        aide_script_paths: tuple = ("/cgi-bin/snapshot",),
    ) -> None:
        self.agent = agent
        self.clock = clock
        self.history = history if history is not None else BrowserHistory()
        #: The fix is an extension; turn it off to get 1995 behaviour.
        self.history_integration = history_integration
        self.aide_script_paths = aide_script_paths
        self.form_bookmarks: Dict[str, FormBookmark] = {}

    # ------------------------------------------------------------------
    # Browsing
    # ------------------------------------------------------------------
    def browse(self, url: str) -> Response:
        """Fetch a page and record history.

        For an AIDE diff/view URL, the stock browser records only the
        CGI URL; with the integration extension the underlying page is
        recorded as seen too, so w3newer stops re-reporting it.
        """
        result = self.agent.get(url)
        self.history.visit(url, self.clock.now)
        if self.history_integration:
            target = self._aide_target(url)
            if target is not None:
                self.history.visit(target, self.clock.now)
        return result.response

    def _aide_target(self, url: str) -> Optional[str]:
        parsed = parse_url(url)
        if parsed.path not in self.aide_script_paths:
            return None
        params = parse_query_string(parsed.query)
        if params.get("action") in ("diff", "view", "history"):
            return params.get("url") or None
        return None

    # ------------------------------------------------------------------
    # Form bookmarks (§8.4)
    # ------------------------------------------------------------------
    def bookmark_form(self, name: str, action_url: str,
                      fields: Dict[str, str]) -> FormBookmark:
        """"Store the filled-out version of a form in its bookmark
        file, so the user could jump directly to the output"."""
        bookmark = FormBookmark(
            name=name,
            action_url=canonical_url(action_url),
            fields=tuple(sorted(fields.items())),
        )
        self.form_bookmarks[name] = bookmark
        return bookmark

    def open_form_bookmark(self, name: str) -> Response:
        """Jump directly to the CGI output of a saved form."""
        bookmark = self._bookmark(name)
        result = self.agent.post(bookmark.action_url, body=bookmark.body)
        self.history.visit(bookmark.action_url, self.clock.now)
        return result.response

    def hand_form_to_aide(self, name: str, registry, user: str):
        """"Pass a form directly to AIDE... so that the output could be
        stored under RCS" — registers the saved form with the POST-form
        snapshot registry and remembers its current output."""
        bookmark = self._bookmark(name)
        registry.save_form(name, bookmark.action_url, dict(bookmark.fields))
        return registry.remember(user, name)

    def _bookmark(self, name: str) -> FormBookmark:
        bookmark = self.form_bookmarks.get(name)
        if bookmark is None:
            raise KeyError(f"no form bookmark named {name!r}")
        return bookmark


# ----------------------------------------------------------------------
# Datetime-pinned browsing (Memento §3: "navigating the past web")
# ----------------------------------------------------------------------
@dataclass
class TimeTravelPage:
    """One page of a pinned session: the memento plus its outlinks."""

    #: The original URL the user asked for.
    url: str
    #: The memento actually served (None when the archive had nothing
    #: old enough — a recorded *miss*, not an exception).
    memento: Optional[MementoFetch]
    #: Outgoing links of the memento body, as original-web URLs — the
    #: addresses the *next* negotiation will pin, not URI-Ms.
    links: List[str] = field(default_factory=list)

    @property
    def served(self) -> bool:
        return self.memento is not None

    @property
    def datetime(self) -> Optional[int]:
        return self.memento.datetime if self.memento else None


class TimeTravelSession:
    """Browse the archived web as it stood at one pinned instant.

    Every navigation — the entry page and every followed link — goes
    through the archive's TimeGate with ``Accept-Datetime`` set to the
    pin, so under the default ``past`` policy the session can *never*
    surface a page state newer than the pin: the reader sees the web
    of that day, spoiler-free.  Links inside a memento are the
    original web's addresses (the BASE rewrite keeps them resolvable),
    and following one re-negotiates rather than fetching the live page.

    A link whose URL the archive never captured (404) or only captured
    later than the pin (406 under ``past``) is recorded as a miss in
    :attr:`trail` — the dead ends of the archived web are part of the
    experience, not crashes.
    """

    def __init__(self, agent, endpoint: str, pin: int,
                 policy: str = "past", source: str = "archive") -> None:
        self.client = MementoClient(agent, endpoint, source=source)
        self.pin = pin
        self.policy = policy
        #: Every navigation in order: the served pages and the misses.
        self.trail: List[TimeTravelPage] = []
        self.current: Optional[TimeTravelPage] = None

    @property
    def pin_string(self) -> str:
        """The pinned instant as an HTTP date (what goes on the wire)."""
        return format_http_date(self.pin)

    # ------------------------------------------------------------------
    def browse(self, url: str) -> TimeTravelPage:
        """Negotiate ``url`` at the pin and make it the current page."""
        try:
            fetch = self.client.memento_at(url, self.pin, policy=self.policy)
        except MementoClientError:
            page = TimeTravelPage(url=url, memento=None)
        else:
            page = TimeTravelPage(
                url=url, memento=fetch,
                links=self._outlinks(fetch.body, url),
            )
        self.trail.append(page)
        self.current = page
        return page

    def follow(self, index: int) -> TimeTravelPage:
        """Follow the current page's ``index``-th link, pinned."""
        if self.current is None or not self.current.served:
            raise MementoClientError("no current page to follow links from")
        links = self.current.links
        if not links:
            raise MementoClientError(
                f"{self.current.url} has no followable links")
        return self.browse(links[index % len(links)])

    @staticmethod
    def _outlinks(body: str, base_url: str) -> List[str]:
        from .tracker import extract_links

        return extract_links(body, base_url)
