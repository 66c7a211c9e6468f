"""Tests for URL-hash sharding of the snapshot store (§4.2).

The properties that make sharding safe to deploy: routing is stable
(including across fleet growth), a sharded deployment is byte-identical
to a single store for every CGI action, per-shard repositories fsck as
one, and scheduler-driven interleavings stay deterministic.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot.service import SnapshotService
from repro.core.snapshot.sharding import (
    ROUTE_MEMO_LIMIT,
    ShardConfigError,
    ShardRouter,
    ShardedSnapshotStore,
    load_sharded,
    read_replication_factor,
    read_shard_count,
    save_sharded,
    shard_dirname,
    verify_sharded,
)
from repro.core.snapshot.sched import SimScheduler
from repro.core.snapshot.store import SnapshotStore
from repro.simclock import DAY, SimClock
from repro.web.client import UserAgent
from repro.web.http import Request
from repro.web.network import Network
from repro.web.url import canonical_url

PAGES = 24


@pytest.fixture
def world():
    clock = SimClock()
    network = Network(clock)
    origin = network.create_server("site.com")
    for i in range(PAGES):
        origin.set_page(f"/p{i}.html", f"<P>page {i} first version.</P>")
    agent = UserAgent(network, clock)
    return clock, network, origin, agent


def urls():
    return [f"http://site.com/p{i}.html" for i in range(PAGES)]


class TestShardRouter:
    def test_routing_is_stable_across_instances(self):
        first, second = ShardRouter(4), ShardRouter(4)
        for url in urls():
            assert first.shard_for(url) == second.shard_for(url)

    def test_equivalent_urls_share_a_shard(self):
        router = ShardRouter(4)
        assert (router.shard_for("HTTP://Site.COM/p1.html")
                == router.shard_for("http://site.com/p1.html"))

    def test_growth_only_moves_urls_to_the_new_shard(self):
        """The rendezvous property: going N -> N+1 shards, a URL either
        stays put or moves to the newly added shard — old shards never
        trade URLs among themselves."""
        many = [f"http://site.com/page{i}.html" for i in range(300)]
        for n in (1, 2, 3, 4, 7):
            before = ShardRouter(n)
            after = ShardRouter(n + 1)
            for url in many:
                old, new = before.shard_for(url), after.shard_for(url)
                assert new == old or new == n
        # ...and growth does move *something*, or it would be useless.
        assert any(ShardRouter(5).shard_for(url) == 4 for url in many)

    def test_every_shard_gets_some_urls(self):
        router = ShardRouter(4)
        many = [f"http://site.com/page{i}.html" for i in range(300)]
        owners = {router.shard_for(url) for url in many}
        assert owners == {0, 1, 2, 3}

    def test_route_counts(self):
        router = ShardRouter(2)
        for url in urls():
            router.route(url)
        assert sum(router.routed) == PAGES

    def test_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


def _reference_ranking(url, shard_count):
    """Un-memoised rendezvous scoring: shards by descending
    sha256(f"{index}|{canonical url}")."""
    key = ShardRouter.canonical(url)
    return sorted(
        range(shard_count),
        key=lambda index: hashlib.sha256(
            f"{index}|{key}".encode("utf-8")).digest(),
        reverse=True,
    )


#: Spellings of one page that differ in case, default port, fragment
#: and (for the site root) the empty path.
_VARIANTS = [
    ("http://site.com/p1.html", "HTTP://Site.COM/p1.html",
     "http://site.com:80/p1.html", "http://site.com/p1.html#top",
     "http://SITE.com:80/p1.html#x"),
    ("http://site.com/", "http://site.com", "HTTP://SITE.COM:80",
     "http://site.com#frag"),
    ("http://other.org/a/b?q=1", "http://OTHER.org:80/a/b?q=1#f"),
]


class TestRouterMemo:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_memo_matches_unmemoised_scoring(self, shards):
        router = ShardRouter(shards)
        for group in _VARIANTS:
            canonical = {ShardRouter.canonical(url) for url in group}
            assert len(canonical) == 1
            for _ in range(2):  # the first pass fills the memo
                for url in group:
                    ranking = _reference_ranking(url, shards)
                    assert router.key(url) in canonical
                    assert router.shard_for(url) == ranking[0]
                    assert router.route(url) == ranking[0]
                    for count in range(1, shards + 1):
                        assert (router.replicas_for(url, count)
                                == ranking[:count])

    def test_canonical_on_the_class_is_the_plain_normalization(self):
        assert (ShardRouter.canonical("HTTP://Site.COM:80/p1.html#top")
                == canonical_url("http://site.com/p1.html"))

    def test_memo_stays_within_its_bound(self):
        router = ShardRouter(2)
        for i in range(200_000):
            router.route(f"http://host{i % 97}.example/page{i}.html")
            assert len(router._memo) <= ROUTE_MEMO_LIMIT
        assert sum(router.routed) == 200_000
        # Routing after the memo started over is still the reference.
        url = "http://host5.example/page5.html"
        assert router.shard_for(url) == _reference_ranking(url, 2)[0]


class TestShardedStoreIdentity:
    """A 4-shard store behind the CGI service answers byte-for-byte
    like the single-store reference, for every action."""

    def build_pair(self, world):
        clock, network, origin, agent = world
        sharded = ShardedSnapshotStore(clock, agent, shard_count=4)
        plain = SnapshotStore(clock, agent)
        return SnapshotService(sharded), SnapshotService(plain)

    @staticmethod
    def call(service, query, now=0):
        request = Request("GET", f"http://aide.att.com/cgi-bin/snapshot?{query}")
        return service(request, now)

    def test_all_actions_byte_identical(self, world):
        clock, network, origin, agent = world
        sut, ref = self.build_pair(world)
        queries = []
        for i, url in enumerate(urls()):
            queries.append(f"action=remember&url={url}&user=u{i % 3}@x.com")
        # Second revisions, so diffs and history have content.
        for i in range(PAGES):
            origin.set_page(f"/p{i}.html", f"<P>page {i} second version.</P>")
        clock.advance(DAY)
        for i, url in enumerate(urls()):
            queries.append(f"action=remember&url={url}&user=u{i % 3}@x.com")
        for i, url in enumerate(urls()):
            queries.extend([
                f"action=view&url={url}&rev=1.1",
                f"action=view&url={url}&rev=1.2",
                f"action=view&url={url}&date=0",
                f"action=diff&url={url}&user=u{i % 3}@x.com&r1=1.1&r2=1.2",
                f"action=history&url={url}&user=u{i % 3}@x.com",
            ])
        queries.append("")  # the registration form
        queries.append("action=view&url=http://site.com/missing.html")  # 404
        for query in queries:
            mine = self.call(sut, query, clock.now)
            theirs = self.call(ref, query, clock.now)
            assert (mine.status, mine.body) == (theirs.status, theirs.body), \
                f"diverged on {query!r}"

    def test_accounting_aggregates(self, world):
        clock, network, origin, agent = world
        store = ShardedSnapshotStore(clock, agent, shard_count=4)
        reference = SnapshotStore(clock, agent)
        for url in urls():
            store.remember("fred@x.com", url)
            reference.remember("fred@x.com", url)
        assert store.url_count() == reference.url_count() == PAGES
        assert store.total_bytes() == reference.total_bytes()
        assert store.bytes_by_url() == reference.bytes_by_url()
        # Archives are partitioned, not mirrored: each shard holds only
        # its own URLs, and together they hold all of them.
        per_shard = [shard.url_count() for shard in store.shards]
        assert sum(per_shard) == PAGES
        assert all(count < PAGES for count in per_shard)

    def test_stats_shape(self, world):
        clock, network, origin, agent = world
        store = ShardedSnapshotStore(clock, agent, shard_count=4)
        for url in urls():
            store.remember("fred@x.com", url)
            store.view(url)
        stats = store.stats()
        assert stats["sharding"]["shards"] == 4
        assert sum(stats["sharding"]["routed"]) >= PAGES
        assert stats["archives"]["count"] == PAGES
        assert stats["archives"]["revisions"] == PAGES
        # Recomputed ratio stays a ratio, not a sum of four ratios.
        assert 0.0 <= stats["checkout_cache"]["hit_rate"] <= 1.0


class TestShardedPersistence:
    def test_save_verify_load_roundtrip(self, world, tmp_path):
        clock, network, origin, agent = world
        store = ShardedSnapshotStore(clock, agent, shard_count=3)
        for url in urls():
            store.remember("fred@x.com", url)
        directory = str(tmp_path / "repo")
        save_sharded(store, directory)
        assert read_shard_count(directory) == 3

        report = verify_sharded(directory)
        assert report.ok
        assert len(report.reports) == 3
        assert "3/3 shard(s) clean" in report.summary()

        clock2 = SimClock()
        agent2 = UserAgent(network, clock2)
        loaded = ShardedSnapshotStore(clock2, agent2, shard_count=3)
        assert load_sharded(loaded, directory) > 0
        for url in urls():
            assert loaded.view(url, "1.1") == store.view(url, "1.1")

    def test_load_rejects_mismatched_shard_count(self, world, tmp_path):
        clock, network, origin, agent = world
        store = ShardedSnapshotStore(clock, agent, shard_count=3)
        store.remember("fred@x.com", urls()[0])
        directory = str(tmp_path / "repo")
        save_sharded(store, directory)
        other = ShardedSnapshotStore(clock, agent, shard_count=4)
        with pytest.raises(ValueError, match="re-shard"):
            load_sharded(other, directory)

    def test_corrupt_shard_is_named_in_the_aggregate(self, world, tmp_path):
        clock, network, origin, agent = world
        store = ShardedSnapshotStore(clock, agent, shard_count=3)
        for url in urls():
            store.remember("fred@x.com", url)
        directory = str(tmp_path / "repo")
        save_sharded(store, directory)
        # Find a shard that owns at least one archive and corrupt it.
        victim = store.shard_for(urls()[0])
        shard_dir = tmp_path / "repo" / shard_dirname(victim)
        doomed = next(path for path in shard_dir.rglob("*,v"))
        doomed.unlink()
        report = verify_sharded(str(directory))
        assert not report.ok
        assert any(f"[{shard_dirname(victim)}]" in problem
                   for problem in report.problems)
        # The other shards still check out clean in the per-shard view.
        clean = [index for index, sub in report.reports if sub.ok]
        assert len(clean) == 2 and victim not in clean

    def test_verify_requires_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="SHARDS"):
            verify_sharded(str(tmp_path))


class TestShardedScheduling:
    def run_interleaved(self, seed):
        clock = SimClock()
        network = Network(clock)
        origin = network.create_server("site.com")
        for i in range(PAGES):
            origin.set_page(f"/p{i}.html", f"<P>page {i} first version.</P>")
        agent = UserAgent(network, clock)
        store = ShardedSnapshotStore(clock, agent, shard_count=4)
        sched = SimScheduler(seed=seed)
        store.attach_scheduler(sched)
        for name, user in (("fred", "fred@x.com"), ("tom", "tom@x.com")):
            for i, url in enumerate(urls()):
                sched.spawn(f"{name}-{i}",
                            lambda u=user, target=url:
                            store.remember(u, target))
        procs = sched.run()
        sched.join_threads()
        assert all(p.state == "done" for p in procs.values())
        revisions = {url: store.archive_for(url).head_revision
                     for url in urls()}
        fetches = origin.get_count
        return revisions, fetches, list(sched.trace)

    def test_concurrent_remembers_are_deterministic(self):
        first = self.run_interleaved(seed=7)
        second = self.run_interleaved(seed=7)
        assert first == second

    def test_coalescing_still_works_per_shard(self):
        revisions, fetches, _trace = self.run_interleaved(seed=7)
        # Two users per URL but each page fetched once: the per-shard
        # lock manager coalesced the simultaneous remembers.
        assert fetches == PAGES
        assert all(head == "1.1" for head in revisions.values())

    def test_different_seeds_may_reorder_but_agree_on_state(self):
        first = self.run_interleaved(seed=1)
        second = self.run_interleaved(seed=2)
        assert first[0] == second[0]  # same final archives
        assert first[1] == second[1]  # same fetch count


class TestReplicaSets:
    def test_primary_replica_is_the_classic_route(self):
        router = ShardRouter(5)
        for url in urls():
            assert router.replicas_for(url, 2)[0] == router.shard_for(url)

    def test_replica_sets_are_distinct_and_stable(self):
        first, second = ShardRouter(5), ShardRouter(5)
        for url in urls():
            replicas = first.replicas_for(url, 3)
            assert len(set(replicas)) == 3
            assert replicas == second.replicas_for(url, 3)

    def test_too_many_replicas_is_a_config_error(self):
        router = ShardRouter(3)
        with pytest.raises(ShardConfigError):
            router.replicas_for("http://site.com/p1.html", 4)
        with pytest.raises(ValueError):
            router.replicas_for("http://site.com/p1.html", 0)

    @settings(deadline=None, max_examples=60)
    @given(
        path=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=24,
        ),
        shards=st.integers(min_value=2, max_value=9),
        factor=st.integers(min_value=2, max_value=3),
    )
    def test_growth_preserves_replica_ranking(self, path, shards, factor):
        """Rendezvous replica sets are prefix-stable: going N -> N+1
        shards, the new shard may insert itself into a URL's ranking,
        but the existing shards never reorder relative to each other —
        so at most one member of any replica set changes, and it can
        only change *to the new shard*."""
        url = f"http://site.com/{path}"
        factor = min(factor, shards)
        before = ShardRouter(shards).replicas_for(url, factor)
        after = ShardRouter(shards + 1).replicas_for(url, factor)
        # Old shards keep their relative order in the new ranking.
        surviving = [shard for shard in after if shard != shards]
        positions = [before.index(shard) for shard in surviving
                     if shard in before]
        assert positions == sorted(positions)
        # Any membership change is the new shard displacing the former
        # last member; the set never changes any other way.
        displaced = [shard for shard in before if shard not in after]
        if shards in after:
            assert displaced == [before[-1]]
            assert surviving == before[:-1]
        else:
            assert after == before


class TestReplicationManifest:
    def test_replication_factor_round_trips(self, world, tmp_path):
        clock, network, origin, agent = world
        store = ShardedSnapshotStore(clock, agent, shard_count=4)
        store.remember("fred@x.com", urls()[0])
        directory = str(tmp_path / "repo")
        save_sharded(store, directory, replication=2)
        assert read_shard_count(directory) == 4
        assert read_replication_factor(directory) == 2

    def test_bare_count_manifest_reads_as_unreplicated(self, tmp_path):
        # Pre-replication repositories wrote only the shard count; they
        # must keep loading, as R=1.
        (tmp_path / "SHARDS").write_text("3\n")
        assert read_shard_count(str(tmp_path)) == 3
        assert read_replication_factor(str(tmp_path)) == 1

    def test_unknown_manifest_tags_are_ignored(self, tmp_path):
        (tmp_path / "SHARDS").write_text(
            "4\nreplication 2\nfuture-knob on\n")
        assert read_shard_count(str(tmp_path)) == 4
        assert read_replication_factor(str(tmp_path)) == 2

    def test_oversized_replication_factor_is_rejected(self, tmp_path):
        (tmp_path / "SHARDS").write_text("2\nreplication 3\n")
        with pytest.raises(ShardConfigError):
            read_replication_factor(str(tmp_path))

    def test_load_refuses_shard_count_shrink(self, world, tmp_path):
        clock, network, origin, agent = world
        store = ShardedSnapshotStore(clock, agent, shard_count=4)
        store.remember("fred@x.com", urls()[0])
        directory = str(tmp_path / "repo")
        save_sharded(store, directory)
        shrunk = ShardedSnapshotStore(clock, agent, shard_count=3)
        with pytest.raises(ShardConfigError, match="decommission"):
            load_sharded(shrunk, directory)


class TestVerificationSummary:
    def test_summary_dict_aggregates_the_fleet(self, world, tmp_path):
        clock, network, origin, agent = world
        store = ShardedSnapshotStore(clock, agent, shard_count=3)
        for url in urls():
            store.remember("fred@x.com", url)
        directory = str(tmp_path / "repo")
        save_sharded(store, directory)
        summary = verify_sharded(directory).summary_dict()
        assert summary["ok"] is True
        assert summary["shards"] == 3
        assert summary["clean_shards"] == 3
        assert summary["failed_shards"] == []
        assert summary["problem_count"] == 0
        assert summary["repairs_by_shard"] == {}

    def test_summary_dict_names_the_failed_shard(self, world, tmp_path):
        clock, network, origin, agent = world
        store = ShardedSnapshotStore(clock, agent, shard_count=3)
        for url in urls():
            store.remember("fred@x.com", url)
        directory = str(tmp_path / "repo")
        save_sharded(store, directory)
        victim = store.shard_for(urls()[0])
        doomed = next((tmp_path / "repo" / shard_dirname(victim))
                      .rglob("*,v"))
        doomed.unlink()
        report = verify_sharded(directory)
        summary = report.summary_dict()
        assert summary["ok"] is False
        assert summary["failed_shards"] == [shard_dirname(victim)]
        assert summary["clean_shards"] == 2
        assert summary["problem_count"] >= 1
        # ...and the JSON body carries the rollup for fsck --json.
        assert report.to_dict()["summary"] == summary
