"""Browser history: when did the user last see each URL?

"The time when the user has viewed the page comes from the W3 browser's
history."  The model is a Netscape-style history database: URL → last
visit time.  The integration wart the paper reports in Section 6 — that
viewing a page through HtmlDiff does NOT update the browser history, so
w3newer keeps reporting the page as modified — falls straight out of
this separation and is exercised in the integration tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ...web.url import canonical_key

__all__ = ["BrowserHistory"]


class BrowserHistory:
    """URL → last-visited timestamp, with normalization."""

    def __init__(self) -> None:
        self._visits: Dict[str, int] = {}

    def visit(self, url: str, when: int) -> None:
        """Record a page view (later of the two when already present)."""
        key = canonical_key(self._visits, url)
        existing = self._visits.get(key)
        if existing is None or when > existing:
            self._visits[key] = when

    def last_seen(self, url: str) -> Optional[int]:
        """Last visit time, or None if the user never viewed the page."""
        return self._visits.get(canonical_key(self._visits, url))

    def forget(self, url: str) -> None:
        self._visits.pop(canonical_key(self._visits, url), None)

    def __len__(self) -> int:
        return len(self._visits)

    def __contains__(self, url: str) -> bool:
        return canonical_key(self._visits, url) in self._visits

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(self._visits.items())

    # ------------------------------------------------------------------
    def serialize(self) -> str:
        """Netscape-ish on-disk form: ``<url> <timestamp>`` lines."""
        return "\n".join(f"{url} {when}" for url, when in sorted(self._visits.items()))

    @classmethod
    def deserialize(cls, text: str) -> "BrowserHistory":
        history = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            parts = line.rsplit(None, 1)
            if len(parts) != 2:
                continue
            try:
                history.visit(parts[0], int(parts[1]))
            except ValueError:
                continue
        return history
