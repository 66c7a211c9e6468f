"""POST-form snapshotting (paper Section 8.4).

"services that use POST cannot be accessed [by plain AIDE], because the
input to the services is not stored.  Both w3newer and snapshot would
have to be modified to support the POST protocol, in order to invoke a
service and see if the result has changed, and then to store away the
result and display the changes if it has...  It, in turn, would have to
make a copy of its input to pass along to the actual service."

A :class:`PostFormRegistry` stores the filled-out form (the paper's
proposed browser extension stores it in the bookmark file); remembering
or diffing a form replays the stored input against the service and
versions the *output* in the snapshot store under a synthetic key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.htmldiff.api import HtmlDiffResult, html_diff
from ..core.snapshot.store import RememberResult, SnapshotError, SnapshotStore
from ..web.cgi import encode_query_string
from ..web.http import NetworkError
from ..web.url import canonical_url

__all__ = ["StoredForm", "PostFormRegistry"]


@dataclass(frozen=True)
class StoredForm:
    """A filled-out form: the FORM tag's action URL plus its input."""

    name: str
    action_url: str
    fields: tuple  # sorted (key, value) pairs

    @property
    def body(self) -> str:
        return encode_query_string(dict(self.fields))

    @property
    def synthetic_url(self) -> str:
        """The archive key: the action URL with the form input folded
        into a synthetic query (POST bodies have no URL of their own)."""
        separator = "&" if "?" in self.action_url else "?"
        return f"{self.action_url}{separator}aide-post={self.body}"


class PostFormRegistry:
    """Stored forms plus remember/diff over their POST results."""

    def __init__(self, store: SnapshotStore) -> None:
        self.store = store
        self.forms: Dict[str, StoredForm] = {}

    def save_form(self, name: str, action_url: str,
                  fields: Dict[str, str]) -> StoredForm:
        form = StoredForm(
            name=name,
            action_url=canonical_url(action_url),
            fields=tuple(sorted(fields.items())),
        )
        self.forms[name] = form
        return form

    # ------------------------------------------------------------------
    def _invoke(self, form: StoredForm) -> str:
        """Replay the stored input against the service."""
        try:
            result = self.store.agent.post(form.action_url, body=form.body)
        except NetworkError as exc:
            raise SnapshotError(f"POST to {form.action_url} failed: {exc}")
        if not result.response.ok:
            raise SnapshotError(
                f"POST to {form.action_url}: HTTP {result.response.status}"
            )
        return result.response.body

    def remember(self, user: str, form_name: str) -> RememberResult:
        """POST the stored input; version the response."""
        form = self._form(form_name)
        body = self._invoke(form)
        key = form.synthetic_url
        archive = self.store.archive_for(key)
        revision, changed = archive.checkin(
            body, date=self.store.clock.now, author=user,
            log=f"POST result of form {form.name}",
        )
        self.store.users.record(user, key, revision, self.store.clock.now)
        return RememberResult(
            url=key, revision=revision, changed=changed,
            fetched_bytes=len(body), when=self.store.clock.now,
        )

    def diff(self, user: str, form_name: str) -> HtmlDiffResult:
        """Changes in the service's output since the user last saved it."""
        form = self._form(form_name)
        key = form.synthetic_url
        seen = self.store.users.last_seen_version(user, key)
        if seen is None:
            raise SnapshotError(
                f"{user} has no saved result for form {form.name!r}"
            )
        archive = self.store.archive_for(key)
        old = archive.checkout(seen.revision)
        new = self._invoke(form)
        return html_diff(old, new, options=self.store.diff_options)

    def _form(self, name: str) -> StoredForm:
        form = self.forms.get(name)
        if form is None:
            raise SnapshotError(f"no stored form named {name!r}")
        return form
