"""URL-hash sharding of the snapshot store (paper Section 4.2).

"The facility could also impose a limit on the number of simultaneous
users, or replicate itself among multiple computers, as many W3
services do."  This module partitions the store by URL hash; the
diff server (``repro.serve``) builds on it, with a bounded worker pool
per shard as the simultaneous-user limit:

* :class:`ShardRouter` — **rendezvous (highest-random-weight) hashing**
  from normalized URL to shard index.  Unlike ``hash mod N``, growing
  the fleet from N to N+1 shards moves only the ~1/(N+1) of URLs that
  now route to the *new* shard; every other archive stays where it is.
  That stability is what makes re-sharding an operational event rather
  than a full data migration, and it is pinned by a property test.
* :class:`ShardedSnapshotStore` — N independent
  :class:`~.store.SnapshotStore` shards behind one store-shaped facade.
  Every archive, per-user stamp, cache entry, journal, and WAL lives on
  exactly one shard (the design's one-copy economy, multiplied), while
  ``stats()`` / ``total_bytes()`` / ``fsck`` aggregate across the
  fleet.
* per-shard persistence — :func:`save_sharded` / :func:`append_sharded`
  / :func:`load_sharded` lay each shard out as its own repository
  directory (``shard-00/``, ``shard-01/``, ...) with its own journal,
  plus a ``SHARDS`` manifest; :func:`verify_sharded` runs the existing
  :func:`~.persistence.verify_store` fsck per shard and folds the
  reports into one.

Because both the router and every shard are deterministic, a sharded
deployment returns **byte-identical** responses to the single-store
reference service for every CGI action — the property
``benchmarks/bench_diff_server.py`` gates.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ...obs import NOOP as NOOP_OBS
from ...simclock import SimClock
from ...web.client import UserAgent
from ...web.url import canonical_url
from ..htmldiff.api import HtmlDiffResult
from ..htmldiff.options import HtmlDiffOptions
from .options import StoreOptions
from .persistence import (
    StoreVerification,
    append_store,
    load_store,
    save_store,
    verify_store,
)
from .store import RememberResult, SnapshotStore

__all__ = [
    "ShardConfigError",
    "ShardRouter",
    "ShardedSnapshotStore",
    "ShardedVerification",
    "SHARDS_MANIFEST",
    "ROUTE_MEMO_LIMIT",
    "shard_dirname",
    "save_sharded",
    "append_sharded",
    "load_sharded",
    "verify_sharded",
]

#: Manifest file naming the shard count, so loaders and ``fsck`` can
#: tell a sharded repository from a plain one.
SHARDS_MANIFEST = "SHARDS"

#: Most raw URLs one :class:`ShardRouter` remembers routing for.
ROUTE_MEMO_LIMIT = 16_384


class ShardConfigError(ValueError):
    """A shard-fleet configuration that cannot be honored safely.

    Raised instead of a bare ``ValueError`` so callers (CLI, server
    startup) can distinguish "the operator asked for an unsupported
    topology change" from data corruption.  The headline case is a
    shard-count *shrink*: rendezvous hashing guarantees growth moves
    only URLs won by the new shard, but removing a shard would scatter
    its URLs across every survivor — a data migration, not a config
    edit — so decommission is refused outright.
    """


def shard_dirname(index: int) -> str:
    """``shard-00``, ``shard-01``, ... — zero-padded so listings sort."""
    return f"shard-{index:02d}"


class ShardRouter:
    """Stable URL → shard routing by rendezvous hashing.

    For each shard *i* the router scores
    ``sha256(f"{i}|{normalized url}")`` and routes to the argmax.  Two
    consequences, both load-bearing:

    * the same URL maps to the same shard in every process and every
      run (no coordination state to replicate);
    * when the shard count grows, a URL's winner only changes if the
      **new** shard out-scores all old ones — existing shards never
      trade URLs among themselves.

    A router memoises raw URL → (canonical key, winning shard), so a
    repeat request costs one dictionary lookup instead of a URL parse
    and ``shard_count`` hashes.  The memo holds at most
    :data:`ROUTE_MEMO_LIMIT` URLs and starts over when full;
    :meth:`key` answers from it.
    """

    #: The routing key (plain :func:`~repro.web.url.canonical_url`).
    canonical = staticmethod(canonical_url)

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        self.shard_count = shard_count
        #: Requests routed per shard (the balance witness).
        self.routed = [0] * shard_count
        self._memo: Dict[str, Tuple[str, int]] = {}

    @staticmethod
    def _score(index: int, key: str) -> bytes:
        return hashlib.sha256(f"{index}|{key}".encode("utf-8")).digest()

    def _entry(self, url: str) -> Tuple[str, int]:
        """``url``'s (canonical key, winning shard), from the memo."""
        entry = self._memo.get(url)
        if entry is None:
            key = canonical_url(url)
            best_index = 0
            best_score = self._score(0, key)
            for index in range(1, self.shard_count):
                score = self._score(index, key)
                if score > best_score:
                    best_index, best_score = index, score
            entry = (key, best_index)
            if len(self._memo) >= ROUTE_MEMO_LIMIT:
                self._memo.clear()
            self._memo[url] = entry
        return entry

    def key(self, url: str) -> str:
        """``url``'s canonical key, from the memo."""
        return self._entry(url)[0]

    def shard_for(self, url: str) -> int:
        """The winning shard index for ``url`` (no counter side effect)."""
        return self._entry(url)[1]

    def route(self, url: str) -> int:
        """Like :meth:`shard_for`, but counts the routing decision."""
        index = self._entry(url)[1]
        self.routed[index] += 1
        return index

    def replicas_for(self, url: str, count: int) -> List[int]:
        """The top-``count`` shards for ``url`` in rendezvous order.

        Element 0 is :meth:`shard_for`'s winner (the *primary*), so a
        replica set at ``count=1`` degenerates to classic sharding.
        Because each shard's score depends only on ``(shard, url)``,
        growing the fleet N→N+1 can insert the new shard somewhere in
        the ranking but never reorders the existing shards relative to
        each other — replica sets are prefix-stable the same way
        single-shard routing is, and the property test pins it.
        """
        if count < 1:
            raise ValueError("replica count must be at least 1")
        if count > self.shard_count:
            raise ShardConfigError(
                f"cannot place {count} replicas on {self.shard_count} "
                f"shard(s); add shards before raising the replication "
                f"factor"
            )
        key = self.key(url)
        ranked = sorted(
            range(self.shard_count),
            key=lambda index: self._score(index, key),
            reverse=True,
        )
        return ranked[:count]


class ShardedSnapshotStore:
    """N snapshot-store shards behind one store-shaped facade.

    Drop-in for :class:`~.store.SnapshotStore` wherever the caller only
    uses the public operation surface (``remember`` / ``diff`` /
    ``history`` / ``view`` / ``view_at`` / ``checkin_content`` /
    batches / accounting): each call routes to the URL's shard.  The
    pieces a *single* store exposes for transactional plumbing
    (``wal``, ``failpoints``) stay per-shard — attach them shard by
    shard via :attr:`shards`.

    With a shared ``obs``, instrument counters (``snapshot.remember.
    requests`` etc.) aggregate naturally — every shard increments the
    same registry instruments — while ``stats()`` collectors are
    re-registered per shard (``snapshot.shard00`` ...) plus one
    aggregated ``snapshot.store`` view.
    """

    def __init__(
        self,
        clock: SimClock,
        agent: UserAgent,
        shard_count: int = 4,
        diff_options: Optional[HtmlDiffOptions] = None,
        diff_cache_ttl: int = 3600,
        diff_cache_size: int = 256,
        options: Optional[StoreOptions] = None,
        obs=None,
        guard=None,
        quarantine=None,
        store_factory: Optional[Callable[[int], SnapshotStore]] = None,
    ) -> None:
        self.clock = clock
        self.agent = agent
        self.obs = obs if obs is not None else NOOP_OBS
        self.router = ShardRouter(shard_count)
        if store_factory is None:
            def store_factory(index: int) -> SnapshotStore:
                return SnapshotStore(
                    clock, agent,
                    diff_options=diff_options,
                    diff_cache_ttl=diff_cache_ttl,
                    diff_cache_size=diff_cache_size,
                    options=options,
                    obs=self.obs,
                    guard=guard,
                    quarantine=quarantine,
                )
        self._store_factory = store_factory
        self.shards: List[SnapshotStore] = [
            store_factory(index) for index in range(shard_count)
        ]
        # Each SnapshotStore registered itself under "snapshot.store";
        # give every shard its own prefix and put the aggregate back.
        for index, shard in enumerate(self.shards):
            self.obs.register_stats(f"snapshot.shard{index:02d}", shard.stats)
        self.obs.register_stats("snapshot.store", self.stats)
        self._c_routes = [
            self.obs.counter(f"snapshot.sharding.route.shard{index:02d}")
            for index in range(shard_count)
        ]

    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_for(self, url: str) -> int:
        return self.router.shard_for(url)

    def shard(self, url: str) -> SnapshotStore:
        """The shard owning ``url``'s archive (counts the route)."""
        index = self.router.route(url)
        self._c_routes[index].inc()
        return self.shards[index]

    def replicas_for(self, url: str, count: int) -> List[int]:
        return self.router.replicas_for(url, count)

    def reset_shard(self, index: int) -> SnapshotStore:
        """Replace shard ``index`` with a factory-fresh empty store.

        This is the crash model for replication chaos runs: a killed
        shard loses its in-memory state entirely, and recovery must
        rebuild it from its on-disk journal and its replica peers.  The
        fresh store re-registers the shard's stats collector under the
        same name, keeping the observability wiring intact.
        """
        if not 0 <= index < self.shard_count:
            raise IndexError(f"no shard {index} in a "
                             f"{self.shard_count}-shard fleet")
        fresh = self._store_factory(index)
        self.shards[index] = fresh
        self.obs.register_stats(f"snapshot.shard{index:02d}", fresh.stats)
        return fresh

    # ------------------------------------------------------------------
    # The SnapshotStore operation surface, routed
    # ------------------------------------------------------------------
    def remember(self, user: str, url: str) -> RememberResult:
        return self.shard(url).remember(user, url)

    def remember_batch(self, users: List[str], url: str) -> List[RememberResult]:
        return self.shard(url).remember_batch(users, url)

    def checkin_content(self, user: str, url: str, body: str) -> RememberResult:
        return self.shard(url).checkin_content(user, url, body)

    def checkin_content_batch(
        self, users: List[str], url: str, body: str
    ) -> List[RememberResult]:
        return self.shard(url).checkin_content_batch(users, url, body)

    def diff(
        self,
        user: str,
        url: str,
        rev_old: Optional[str] = None,
        rev_new: Optional[str] = None,
    ) -> HtmlDiffResult:
        return self.shard(url).diff(user, url, rev_old=rev_old, rev_new=rev_new)

    def history(self, user: str, url: str):
        return self.shard(url).history(user, url)

    def view(self, url: str, revision: Optional[str] = None,
             rewrite_base: bool = True) -> str:
        return self.shard(url).view(url, revision, rewrite_base=rewrite_base)

    def view_at(self, url: str, date: int, rewrite_base: bool = True) -> str:
        return self.shard(url).view_at(url, date, rewrite_base=rewrite_base)

    def archive_for(self, url: str):
        return self.shard(url).archive_for(url)

    # ------------------------------------------------------------------
    # Aggregated accounting
    # ------------------------------------------------------------------
    @property
    def htmldiff_invocations(self) -> int:
        return sum(shard.htmldiff_invocations for shard in self.shards)

    def total_bytes(self) -> int:
        return sum(shard.total_bytes() for shard in self.shards)

    def url_count(self) -> int:
        return sum(shard.url_count() for shard in self.shards)

    def bytes_by_url(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for shard in self.shards:
            out.update(shard.bytes_by_url())
        return out

    def full_copy_bytes(self) -> int:
        return sum(shard.full_copy_bytes() for shard in self.shards)

    def attach_scheduler(self, scheduler) -> None:
        """Wire every shard's lock manager (and a fresh failpoint hub)
        to ``scheduler`` so concurrent simulated processes interleave
        deterministically across the whole fleet."""
        from .sched import Failpoints

        for shard in self.shards:
            shard.locks.attach(scheduler)
            if shard.failpoints is None:
                shard.attach_failpoints(Failpoints())
            shard.failpoints.attach(scheduler)

    def stats(self) -> Dict[str, object]:
        """Per-layer counters summed across shards, plus the routing
        balance.  Ratio fields (``hit_rate``, ``mean_chain_length``)
        are recomputed from the summed numerators/denominators rather
        than summed themselves."""
        merged = _merge_stats([shard.stats() for shard in self.shards])
        _fix_ratios(merged)
        merged["sharding"] = {
            "shards": self.shard_count,
            "routed": list(self.router.routed),
        }
        return merged


def _merge_stats(dicts: List[Dict[str, object]]) -> Dict[str, object]:
    """Recursively sum numeric leaves across shard stats dicts; a
    non-numeric leaf (strings, lists, bools) keeps the first shard's
    value — shard 0 is the representative for configuration fields."""
    merged: Dict[str, object] = {}
    for stats in dicts:
        for key, value in stats.items():
            if isinstance(value, dict):
                sub = merged.setdefault(key, {})
                if isinstance(sub, dict):
                    merged[key] = _merge_stats(
                        [sub, value] if sub else [value]
                    )
            elif isinstance(value, bool):
                merged.setdefault(key, value)
            elif isinstance(value, (int, float)):
                current = merged.get(key, 0)
                merged[key] = (current if isinstance(current, (int, float))
                               else 0) + value
            else:
                merged.setdefault(key, value)
    return merged


def _fix_ratios(stats: Dict[str, object]) -> None:
    """Recompute ratio leaves that summing would have corrupted."""
    for value in list(stats.values()):
        if isinstance(value, dict):
            _fix_ratios(value)
    if "hit_rate" in stats and "hits" in stats and "misses" in stats:
        lookups = stats["hits"] + stats["misses"]
        stats["hit_rate"] = (stats["hits"] / lookups) if lookups else 0.0
    if ("mean_chain_length" in stats and "delta_applications" in stats
            and "checkouts" in stats):
        checkouts = stats["checkouts"]
        stats["mean_chain_length"] = (
            stats["delta_applications"] / checkouts if checkouts else 0.0
        )


# ----------------------------------------------------------------------
# Per-shard persistence: one repository directory per shard
# ----------------------------------------------------------------------

def _write_manifest(directory: str, shard_count: int,
                    replication: int = 1) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = [f"{shard_count}\n"]
    if replication > 1:
        # Appended as a tagged second line so pre-replication loaders
        # (which read only the first line) still parse the manifest.
        lines.append(f"replication {replication}\n")
    with open(os.path.join(directory, SHARDS_MANIFEST), "w",
              encoding="utf-8") as handle:
        handle.writelines(lines)


def _read_manifest(directory: str) -> Optional[Tuple[int, int]]:
    """``(shard_count, replication)`` from the ``SHARDS`` manifest, or
    None when the directory is not a sharded repository."""
    path = os.path.join(directory, SHARDS_MANIFEST)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ValueError("empty SHARDS manifest")
    try:
        count = int(lines[0])
    except ValueError:
        raise ValueError(f"unparseable SHARDS manifest: {lines[0]!r}")
    if count < 1:
        raise ValueError(f"SHARDS manifest must name >= 1 shard, got {count}")
    replication = 1
    for line in lines[1:]:
        tag, _, value = line.partition(" ")
        if tag == "replication":
            try:
                replication = int(value)
            except ValueError:
                raise ValueError(
                    f"unparseable replication factor in SHARDS "
                    f"manifest: {value!r}"
                )
            if not 1 <= replication <= count:
                raise ShardConfigError(
                    f"SHARDS manifest names replication {replication} "
                    f"on {count} shard(s)"
                )
        # Unknown tagged lines are ignored for forward compatibility.
    return count, replication


def read_shard_count(directory: str) -> Optional[int]:
    """The shard count from a repository's ``SHARDS`` manifest, or
    None when the directory is not a sharded repository."""
    manifest = _read_manifest(directory)
    return None if manifest is None else manifest[0]


def read_replication_factor(directory: str) -> Optional[int]:
    """The replication factor from the ``SHARDS`` manifest (1 when the
    manifest predates replication), or None when not sharded."""
    manifest = _read_manifest(directory)
    return None if manifest is None else manifest[1]


__all__.append("read_shard_count")
__all__.append("read_replication_factor")


def save_sharded(store: ShardedSnapshotStore, directory: str,
                 replication: int = 1) -> int:
    """Full rewrite of every shard into ``directory/shard-NN/``;
    returns total bytes written.  Doubles as compaction, exactly like
    :func:`~.persistence.save_store` per shard."""
    _write_manifest(directory, store.shard_count, replication)
    total = 0
    for index, shard in enumerate(store.shards):
        total += save_store(shard, os.path.join(directory,
                                                shard_dirname(index)))
    return total


def append_sharded(store: ShardedSnapshotStore, directory: str,
                   replication: int = 1,
                   only: Optional[Iterable[int]] = None) -> int:
    """O(new data) journal append per shard; each shard keeps its own
    ``journal.log`` so shards sync (and recover) independently.

    ``only`` restricts the sync to the named shard indices — the
    replicated server passes its *live* set, because appending a
    crashed (freshly reset, empty) shard would rewrite its on-disk
    control file from empty state and destroy the very stamps its
    recovery is about to reload.
    """
    _write_manifest(directory, store.shard_count, replication)
    chosen = None if only is None else set(only)
    total = 0
    for index, shard in enumerate(store.shards):
        if chosen is not None and index not in chosen:
            continue
        total += append_store(shard, os.path.join(directory,
                                                  shard_dirname(index)))
    return total


def load_sharded(store: ShardedSnapshotStore, directory: str) -> int:
    """Load every shard from its own directory; returns revisions
    loaded.  The store's shard count must match the manifest — routing
    depends on it."""
    manifest = read_shard_count(directory)
    if manifest is not None and manifest != store.shard_count:
        if store.shard_count < manifest:
            raise ShardConfigError(
                f"repository at {directory} has {manifest} shard(s) but "
                f"the store expects only {store.shard_count}: shrinking "
                f"the fleet (decommission) is unsupported — rendezvous "
                f"routing would scatter the removed shards' URLs across "
                f"every survivor.  Load with {manifest} shard(s), or "
                f"migrate the data explicitly."
            )
        raise ShardConfigError(
            f"repository at {directory} has {manifest} shard(s) but the "
            f"store expects {store.shard_count}; growth is supported but "
            f"must re-shard explicitly (load at {manifest}, then save at "
            f"{store.shard_count}) instead of loading across layouts"
        )
    total = 0
    for index, shard in enumerate(store.shards):
        shard_dir = os.path.join(directory, shard_dirname(index))
        if os.path.isdir(shard_dir):
            total += load_store(shard, shard_dir)
    return total


@dataclass
class ShardedVerification:
    """Aggregated fsck over every shard of a sharded repository."""

    directory: str
    reports: List[Tuple[int, StoreVerification]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(report.ok for _index, report in self.reports)

    @property
    def problems(self) -> List[str]:
        return [
            f"[{shard_dirname(index)}] {problem}"
            for index, report in self.reports
            for problem in report.problems
        ]

    @property
    def notes(self) -> List[str]:
        return [
            f"[{shard_dirname(index)}] {note}"
            for index, report in self.reports
            for note in report.notes
        ]

    @property
    def repaired(self) -> List[str]:
        return [
            f"[{shard_dirname(index)}] {fix}"
            for index, report in self.reports
            for fix in report.repaired
        ]

    def summary(self) -> str:
        verdict = "consistent" if self.ok else "INCONSISTENT"
        clean = sum(1 for _index, report in self.reports if report.ok)
        return (
            f"sharded repository {verdict}: {clean}/{len(self.reports)} "
            f"shard(s) clean, {len(self.problems)} problem(s), "
            f"{len(self.notes)} note(s), {len(self.repaired)} repair(s)"
        )

    def summary_dict(self) -> Dict[str, object]:
        """One machine-readable rollup across the whole fleet, so
        callers (CI gates, ``aide fsck --json`` consumers) no longer
        walk ``per_shard`` to learn whether — and how much — repair
        happened."""
        failed = [shard_dirname(index) for index, report in self.reports
                  if not report.ok]
        return {
            "ok": self.ok,
            "shards": len(self.reports),
            "clean_shards": len(self.reports) - len(failed),
            "failed_shards": failed,
            "problem_count": len(self.problems),
            "note_count": len(self.notes),
            "repair_count": len(self.repaired),
            "repairs_by_shard": {
                shard_dirname(index): len(report.repaired)
                for index, report in self.reports
                if report.repaired
            },
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "shards": len(self.reports),
            "summary": self.summary_dict(),
            "problems": self.problems,
            "notes": self.notes,
            "repaired": self.repaired,
            "per_shard": {
                shard_dirname(index): report.to_dict()
                for index, report in self.reports
            },
        }


def verify_sharded(directory: str, repair: bool = False) -> ShardedVerification:
    """Run :func:`~.persistence.verify_store` on every shard directory
    named by the manifest and fold the reports into one."""
    count = read_shard_count(directory)
    if count is None:
        raise ValueError(f"{directory} has no {SHARDS_MANIFEST} manifest")
    verification = ShardedVerification(directory=directory)
    for index in range(count):
        shard_dir = os.path.join(directory, shard_dirname(index))
        verification.reports.append(
            (index, verify_store(shard_dir, repair=repair))
        )
    return verification
