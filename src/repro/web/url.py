"""URL parsing, joining, and normalization (RFC 1738/1808 era).

AIDE handles ``http:`` and ``file:`` URLs (w3newer supports ``file:``
hotlist entries checked with a cheap ``stat``), resolves relative links
when rewriting snapshot pages with a ``BASE`` directive, and keys every
repository and cache on :func:`canonical_url` strings: total (any text
has a key) and idempotent (a key is its own key).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Mapping, Optional

__all__ = ["Url", "parse_url", "join_url", "canonical_url", "canonical_key"]

# Total: every string matches.  A port is at most five ASCII digits
# ending the authority; anything else after the host's ":" is path.
_URL_RE = re.compile(
    r"(?:(?P<scheme>[a-zA-Z][a-zA-Z0-9+.\-]*):)?"
    r"(?://(?P<host>[^/:?#]*)(?::(?P<port>[0-9]{1,5})(?![^/?#]))?)?"
    r"(?P<path>[^?#]*)"
    r"(?:\?(?P<query>[^#]*))?"
    r"(?:#(?P<fragment>.*))?",
    re.DOTALL,
)

_DEFAULT_PORTS = {"http": 80, "https": 443, "gopher": 70, "ftp": 21}
_HIERARCHICAL = ("http", "https", "ftp", "file")


@dataclass(frozen=True)
class Url:
    """A parsed URL.  Immutable; use :func:`join_url` to derive others."""

    scheme: str = ""
    host: str = ""
    port: Optional[int] = None
    path: str = ""
    query: Optional[str] = None
    fragment: Optional[str] = None

    @property
    def effective_port(self) -> Optional[int]:
        if self.port is not None:
            return self.port
        return _DEFAULT_PORTS.get(self.scheme)

    @property
    def request_path(self) -> str:
        """Path + query as sent in an HTTP request line."""
        path = self.path or "/"
        if self.query is not None:
            return f"{path}?{self.query}"
        return path

    @property
    def netloc(self) -> str:
        if self.port is not None and self.port != _DEFAULT_PORTS.get(self.scheme):
            return f"{self.host}:{self.port}"
        return self.host

    def normalized(self) -> "Url":
        """Canonical form: lowercased scheme/host, default port dropped,
        empty path of a host-full URL becomes "/", fragment dropped.

        Fragments never reach the server, so two URLs differing only in
        fragment are the same page for tracking purposes.
        """
        scheme = self.scheme.lower()
        host = self.host.lower()
        port = self.port
        if port is not None and port == _DEFAULT_PORTS.get(scheme):
            port = None
        path = self.path
        if host and not path:
            path = "/"
        return Url(scheme=scheme, host=host, port=port, path=path,
                   query=self.query, fragment=None)

    def without_fragment(self) -> "Url":
        return replace(self, fragment=None)

    def __str__(self) -> str:
        out = ""
        if self.scheme:
            out += f"{self.scheme}:"
        # "//" only where a re-parse reads the same authority back.
        if (self.host or self.port is not None or self.path.startswith("//")
                or (self.scheme in _HIERARCHICAL
                    and self.path[:1] in ("", "/"))):
            out += f"//{self.netloc}"
        out += self.path
        if self.query is not None:
            out += f"?{self.query}"
        if self.fragment is not None:
            out += f"#{self.fragment}"
        return out


def parse_url(text: str) -> Url:
    """Parse a URL string.  Forgiving: anything matches (worst case it
    all lands in ``path``), mirroring how 1995 tools treated hotlist
    lines."""
    parts = _URL_RE.fullmatch(text.strip()).groupdict()
    return Url(
        scheme=(parts["scheme"] or "").lower(),
        host=(parts["host"] or "").lower(),
        port=int(parts["port"]) if parts["port"] else None,
        path=parts["path"] or "",
        query=parts["query"],
        fragment=parts["fragment"],
    )


def canonical_url(text: str) -> str:
    """The key every repository, cache and table files ``text`` under.
    The fragment goes before whitespace is stripped: ``"http://a/b #f"``
    and ``"http://a/b"`` share a key."""
    return str(parse_url(text.partition("#")[0]).normalized())


def canonical_key(table: Mapping[str, object], url: str) -> str:
    """``url``'s key in ``table``, keyed by canonical URL: ``url`` itself
    if present (every key is canonical), else :func:`canonical_url`."""
    return url if url in table else canonical_url(url)


def _merge_paths(base: Url, path: str) -> str:
    if not path:
        return base.path or "/"
    if path.startswith("/"):
        return path
    base_path = base.path or "/"
    directory = base_path.rsplit("/", 1)[0]
    return f"{directory}/{path}"


def _remove_dot_segments(path: str) -> str:
    if not path:
        return path
    absolute = path.startswith("/")
    segments = path.split("/")
    out = []
    for segment in segments:
        if segment == ".":
            continue
        if segment == "..":
            if out and out[-1] not in ("", ".."):
                out.pop()
            elif not absolute:
                out.append("..")
            continue
        out.append(segment)
    # Preserve a trailing slash when the last segment vanished.
    if path.endswith(("/.", "/..", "/")) and (not out or out[-1] != ""):
        out.append("")
    result = "/".join(out)
    if absolute and not result.startswith("/"):
        result = "/" + result
    return result


def join_url(base: Url, reference: str) -> Url:
    """Resolve ``reference`` against ``base`` (RFC 1808 semantics).

    This is what a browser does with relative ``HREF``s, and what the
    snapshot facility's ``BASE`` rewriting has to emulate.
    """
    ref = parse_url(reference)
    if ref.scheme:
        resolved = replace(ref, path=_remove_dot_segments(ref.path)).normalized()
        return replace(resolved, fragment=ref.fragment)
    if ref.host:
        # Network-path reference ("//host/path"): adopt base's scheme.
        resolved = Url(
            scheme=base.scheme,
            host=ref.host,
            port=ref.port,
            path=_remove_dot_segments(ref.path),
            query=ref.query,
        ).normalized()
        return replace(resolved, fragment=ref.fragment)
    if not ref.path and ref.query is None:
        # Fragment-only reference: same document.
        return replace(base, fragment=ref.fragment)
    merged = _remove_dot_segments(_merge_paths(base, ref.path))
    return Url(
        scheme=base.scheme,
        host=base.host,
        port=base.port,
        path=merged,
        query=ref.query,
        fragment=ref.fragment,
    )
