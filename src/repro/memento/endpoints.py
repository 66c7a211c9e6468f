"""Server-side Memento endpoints over a snapshot store.

Three CGI actions, mounted by
:class:`~repro.core.snapshot.service.SnapshotService` (and therefore by
every shard of the :class:`~repro.serve.server.DiffServer`):

* ``action=timegate&url=U`` — datetime content negotiation: a **302**
  to the URI-M of the revision :func:`~repro.memento.core.
  resolve_datetime` selects for the request's ``Accept-Datetime``
  header, with ``Vary: accept-datetime`` and a ``Link`` header naming
  the original, the TimeMap, and the first/last mementos;
* ``action=timemap&url=U`` — the ``application/link-format`` (or
  ``format=json``) listing of every archived revision;
* ``action=memento&url=U&rev=R`` — one archived revision (the URI-M),
  BASE-rewritten exactly like ``action=view`` so a TimeGate redirect
  and a direct ``view_at`` produce byte-identical bodies, stamped with
  ``Memento-Datetime`` and ``first``/``last``/``prev``/``next``
  navigation links.

Negotiation failures are verdicts, not crashes: an empty archive is a
404, a malformed ``Accept-Datetime`` is a 400, a policy that cannot be
satisfied (``exact`` miss, or ``past`` with nothing archived that
early) is a **406 Not Acceptable**, and a URL whose only history is a
quarantine-journal entry re-raises the stored
:class:`~repro.core.snapshot.store.ContentQuarantined` verdict so the
service's 422 path renders it.
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..core.snapshot.store import ContentQuarantined, SnapshotError
from ..web.url import canonical_key
from ..web.http import (
    Request,
    Response,
    format_http_date,
    make_response,
    parse_http_date,
)
from .core import (
    ACCEPT_DATETIME,
    LINK_FORMAT,
    MEMENTO_DATETIME,
    LinkEntry,
    Memento,
    NegotiationError,
    TimeMap,
    format_link_header,
    format_timemap,
    memento_uri,
    timegate_uri,
    timemap_uri,
    validate_policy,
)

__all__ = ["MementoEndpoints", "MementoHttpError", "MEMENTO_ACTIONS"]

#: The CGI actions this module serves (routing tables key off this).
MEMENTO_ACTIONS = ("timegate", "timemap", "memento")


class MementoHttpError(Exception):
    """A negotiation problem with a definite HTTP status (400/406).

    The service layer renders it through its standard error page, so
    the body shape matches every other refusal the CGI emits.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def parse_datetime_value(text: str) -> Optional[int]:
    """An ``Accept-Datetime``/CLI datetime: any HTTP date format, or a
    bare simulation timestamp (the sim tools' native spelling)."""
    ts = parse_http_date(text)
    if ts is not None:
        return ts
    stripped = (text or "").strip()
    if stripped.isdigit():
        return int(stripped)
    return None


class MementoEndpoints:
    """The three Memento actions bound to one store + script path."""

    def __init__(
        self,
        store,
        script_path: str = "/cgi-bin/snapshot",
        default_policy: str = "past",
    ) -> None:
        self.store = store
        self.script_path = script_path
        self.default_policy = validate_policy(default_policy)
        obs = store.obs
        self._c_timegate = obs.counter("memento.timegate.requests")
        self._c_redirects = obs.counter("memento.timegate.redirects")
        self._c_refused = obs.counter("memento.timegate.refused")
        self._c_timemap = obs.counter("memento.timemap.requests")
        self._c_memento = obs.counter("memento.memento.requests")

    # ------------------------------------------------------------------
    # Shared lookups
    # ------------------------------------------------------------------
    def _archive(self, url: str):
        """The URL's archive, or the appropriate refusal.

        No archive and a quarantine-journal entry → the stored 422
        verdict (the URL's only history is "we refused it"); no archive
        at all → the familiar 404.
        """
        key = canonical_key(self.store.archives, url)
        archive = self.store.archives.get(key)
        if archive is not None and archive.revision_count > 0:
            return key, archive
        quarantine = getattr(self.store, "quarantine", None)
        if quarantine is not None:
            entry = quarantine.get(key)
            if entry is not None:
                raise ContentQuarantined(key, entry.guard, entry.detail)
        raise SnapshotError(f"no mementos of {key} — Remember it first")

    def timemap_for(self, url: str) -> TimeMap:
        """The store's TimeMap of ``url`` (CGI-style URIs)."""
        key, archive = self._archive(url)
        mementos = [
            Memento(
                datetime=info.date,
                uri=memento_uri(self.script_path, key, info.number),
                revision=info.number,
                source="local",
            )
            for info in archive.revisions()
        ]
        return TimeMap(
            original=key,
            timegate=timegate_uri(self.script_path, key),
            timemap=timemap_uri(self.script_path, key),
            mementos=sorted(mementos),
        )

    # ------------------------------------------------------------------
    # TimeGate
    # ------------------------------------------------------------------
    def timegate(
        self,
        url: str,
        request: Request,
        policy: Optional[str] = None,
    ) -> Response:
        """Negotiate in the datetime dimension: 302 to a URI-M."""
        self._c_timegate.inc()
        key, archive = self._archive(url)
        try:
            chosen_policy = validate_policy(policy or self.default_policy)
        except NegotiationError as exc:
            raise MementoHttpError(400, str(exc))
        header = request.headers.get(ACCEPT_DATETIME)
        if header is None:
            # "If the request does not include an Accept-Datetime
            # header, the TimeGate must respond with the most recent
            # memento" — no negotiation, no policy involvement.
            info = archive.revisions()[-1]
        else:
            target = parse_datetime_value(header)
            if target is None:
                raise MementoHttpError(
                    400, f"malformed Accept-Datetime {header!r}"
                )
            info = archive.revision_at(target, policy=chosen_policy)
            if info is None:
                self._c_refused.inc()
                raise MementoHttpError(
                    406,
                    f"no memento of {key} satisfies "
                    f"{chosen_policy}-policy negotiation for "
                    f"{format_http_date(target)}",
                )
        self._c_redirects.inc()
        location = memento_uri(self.script_path, key, info.number)
        response = make_response(
            302,
            f"<P>Memento for {key}: revision {info.number} "
            f"({info.date_string}).</P>",
            location=location,
        )
        response.headers.set("Vary", "accept-datetime")
        response.headers.set(
            "Link", format_link_header(self._gate_links(key, archive))
        )
        return response

    def _gate_links(self, key: str, archive) -> List[LinkEntry]:
        revisions = archive.revisions()
        first, last = revisions[0], revisions[-1]
        entries = [
            LinkEntry(key, "original"),
            LinkEntry(timemap_uri(self.script_path, key), "timemap",
                      type=LINK_FORMAT),
            LinkEntry(memento_uri(self.script_path, key, first.number),
                      "first memento", datetime=first.date),
        ]
        if last.number != first.number:
            entries.append(
                LinkEntry(memento_uri(self.script_path, key, last.number),
                          "last memento", datetime=last.date)
            )
        return entries

    # ------------------------------------------------------------------
    # TimeMap
    # ------------------------------------------------------------------
    def timemap(self, url: str, fmt: str = "link") -> Response:
        """The URI-T listing, in link-format or JSON."""
        self._c_timemap.inc()
        timemap = self.timemap_for(url)
        if fmt == "json":
            payload = {
                "original": timemap.original,
                "timegate": timemap.timegate,
                "timemap": timemap.timemap,
                "mementos": [
                    {
                        "uri": m.uri,
                        "revision": m.revision,
                        "datetime": m.datetime,
                        "datetime_http": m.datetime_string,
                    }
                    for m in timemap.mementos
                ],
            }
            return make_response(200, json.dumps(payload, indent=2,
                                                 sort_keys=True),
                                 content_type="application/json")
        if fmt != "link":
            raise MementoHttpError(400, f"unknown timemap format {fmt!r}")
        return make_response(200, format_timemap(timemap),
                             content_type=LINK_FORMAT)

    # ------------------------------------------------------------------
    # Memento (URI-M)
    # ------------------------------------------------------------------
    def memento(self, url: str, revision: Optional[str],
                padding: str = "") -> Response:
        """One archived revision with its Memento headers."""
        self._c_memento.inc()
        key, archive = self._archive(url)
        if not revision:
            raise MementoHttpError(400, "missing the rev parameter")
        # view() renders the body — BASE rewrite included — through the
        # exact code path action=view uses, so a TimeGate redirect is
        # byte-identical to the view_at the negotiation stands in for.
        text = self.store.view(key, revision)
        try:
            info = archive.info(revision)
        except KeyError:
            raise SnapshotError(f"no such revision of {key}: {revision}")
        response = make_response(200, padding + text)
        response.headers.set(MEMENTO_DATETIME, format_http_date(info.date))
        entries = [
            LinkEntry(key, "original"),
            LinkEntry(timegate_uri(self.script_path, key), "timegate"),
            LinkEntry(timemap_uri(self.script_path, key), "timemap",
                      type=LINK_FORMAT),
        ]
        revisions = archive.revisions()
        index = next(
            (i for i, rev in enumerate(revisions)
             if rev.number == info.number), 0,
        )
        first, last = revisions[0], revisions[-1]
        if first.number != info.number:
            entries.append(
                LinkEntry(memento_uri(self.script_path, key, first.number),
                          "first memento", datetime=first.date))
        if last.number != info.number:
            entries.append(
                LinkEntry(memento_uri(self.script_path, key, last.number),
                          "last memento", datetime=last.date))
        if index > 0:
            prev = revisions[index - 1]
            entries.append(
                LinkEntry(memento_uri(self.script_path, key, prev.number),
                          "prev memento", datetime=prev.date))
        if index + 1 < len(revisions):
            nxt = revisions[index + 1]
            entries.append(
                LinkEntry(memento_uri(self.script_path, key, nxt.number),
                          "next memento", datetime=nxt.date))
        response.headers.set("Link", format_link_header(entries))
        return response
