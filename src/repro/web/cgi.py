"""CGI scripts for the simulated web.

The paper's world is full of CGI: output that carries no Last-Modified
header (so URL-minder/w3newer fall back to checksums), pages that embed
access counters or the current time ("noisy" modifications, Section
3.1), and services reachable only by POST (Section 8.4).  A
:class:`CgiScript` is a Python callable dispatched by the server; this
module also supplies the stock scripts those experiments need.
"""

from __future__ import annotations

import codecs
from typing import Callable, Dict, Optional
from urllib.parse import unquote_to_bytes

from .http import Request, Response, make_response

__all__ = [
    "CgiScript",
    "parse_query_string",
    "encode_query_string",
    "CounterScript",
    "ClockScript",
    "FormEchoScript",
    "StaticCgiScript",
]

#: A CGI script: (request, now) -> Response.
CgiScript = Callable[[Request, int], Response]


def parse_query_string(query: Optional[str]) -> Dict[str, str]:
    """Decode ``a=1&b=two`` (and ``+`` / ``%XX`` escapes) to a dict.

    Duplicate keys keep the last value — enough for AIDE's forms.
    """
    out: Dict[str, str] = {}
    if not query:
        return out
    for pair in query.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        out[_unescape(key)] = _unescape(value)
    return out


def encode_query_string(params: Dict[str, str]) -> str:
    """Inverse of :func:`parse_query_string`."""
    return "&".join(f"{_escape(k)}={_escape(v)}" for k, v in params.items())


def _invalid_run_as_percent(err: UnicodeError) -> tuple:
    """Codec error handler: render each invalid byte as a literal
    ``%XX`` escape instead of U+FFFD.

    ``decode("utf-8", "replace")`` folds every malformed run — overlong
    encodings, stray continuation bytes, truncated sequences — into the
    same replacement character, so distinct hostile query strings
    collapse into identical keys.  Re-emitting the offending bytes as
    percent escapes keeps distinct inputs distinct (and round-trips:
    re-submitting the decoded form resends the same bytes).
    """
    raw = err.object[err.start:err.end]
    return "".join(f"%{byte:02X}" for byte in raw), err.end


codecs.register_error("aide-percent", _invalid_run_as_percent)


def _unescape(text: str) -> str:
    """Decode ``+`` and ``%XX`` byte escapes (UTF-8 sequences included).

    Percent escapes are byte-level, so multi-byte characters arrive as
    several ``%XX`` runs; bytes are accumulated and decoded together.
    Only ``%`` followed by two ASCII hex digits is an escape (RFC
    3986): anything else — ``%+1``, ``%1 ``, ``%٣٤`` — passes through
    literally, as servers of the era did, so distinct malformed
    queries never decode to the same key.  Byte runs that are not
    valid UTF-8 (overlong encodings included) stay visible as literal
    ``%XX`` text rather than being folded into U+FFFD.
    """
    text = text.replace("+", " ")
    if "%" not in text:
        return text
    return unquote_to_bytes(text).decode("utf-8", "aide-percent")


_SAFE = set(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
            b"0123456789-_.~/")


def _escape(text: str) -> str:
    out = []
    for byte in text.encode("utf-8"):
        if byte in _SAFE:
            out.append(chr(byte))
        elif byte == 0x20:
            out.append("+")
        else:
            out.append(f"%{byte:02X}")
    return "".join(out)


class CounterScript:
    """A page embedding its own access count — the canonical noisy page.

    Section 3.1: "pages that report the number of times they have been
    accessed... will look different every time they are retrieved."
    CGI output carries no Last-Modified, so date-based checkers cannot
    even see it, and checksum-based checkers see a change on every hit.
    """

    def __init__(self, title: str = "Visitor counter") -> None:
        self.title = title
        self.hits = 0

    def __call__(self, request: Request, now: int) -> Response:
        self.hits += 1
        body = (
            f"<HTML><HEAD><TITLE>{self.title}</TITLE></HEAD><BODY>"
            f"<H1>{self.title}</H1>"
            f"<P>You are visitor number <B>{self.hits}</B>.</P>"
            "</BODY></HTML>"
        )
        return make_response(200, body)


class ClockScript:
    """A page embedding the current time — the other noisy archetype."""

    def __init__(self, title: str = "Current time") -> None:
        self.title = title

    def __call__(self, request: Request, now: int) -> Response:
        from ..simclock import format_timestamp

        body = (
            f"<HTML><HEAD><TITLE>{self.title}</TITLE></HEAD><BODY>"
            f"<P>The time is now {format_timestamp(now)}.</P>"
            "</BODY></HTML>"
        )
        return make_response(200, body)


class FormEchoScript:
    """A POST service whose output depends on the submitted form.

    Section 8.4's problem case: "services that use POST cannot be
    accessed [by AIDE], because the input to the services is not
    stored."  The AIDE POST extension replays stored form input against
    scripts like this one.
    """

    def __init__(self, title: str = "Query results") -> None:
        self.title = title
        #: Mutable backend state so that results can change between
        #: submissions of the identical form (a changing database).
        self.generation = 0

    def __call__(self, request: Request, now: int) -> Response:
        if request.method == "POST":
            params = parse_query_string(request.body)
        else:
            params = parse_query_string(request.url.query)
        rows = "".join(
            f"<LI>{key} = {value} (gen {self.generation})"
            for key, value in sorted(params.items())
        )
        body = (
            f"<HTML><HEAD><TITLE>{self.title}</TITLE></HEAD><BODY>"
            f"<H1>{self.title}</H1><UL>{rows}</UL></BODY></HTML>"
        )
        return make_response(200, body)


class StaticCgiScript:
    """CGI returning fixed content — dynamic transport, stable payload.

    Exercises the checksum path: no Last-Modified, yet the checksum
    does not change, so no (junk) notification should fire.
    """

    def __init__(self, body: str) -> None:
        self.body = body

    def __call__(self, request: Request, now: int) -> Response:
        return make_response(200, self.body)
