"""End-to-end tests for the sharded diff server: identity with the
reference service, response caching, backpressure that resilient
clients can act on, operator pages, and load-generator determinism."""

import pytest

from repro.core.snapshot.service import OperationCosts, SnapshotService
from repro.core.snapshot.sharding import save_sharded
from repro.core.snapshot.store import SnapshotStore
from repro.serve import (
    ClosedLoopLoad,
    DiffServer,
    build_world,
    seed_world,
)
from repro.web.client import UserAgent
from repro.web.http import Request
from repro.web.resilience import ResilientAgent, RetryPolicy
from repro.web.url import canonical_url

SEED = 7


def make_server(world, **kwargs):
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("workers_per_shard", 2)
    kwargs.setdefault("queue_limit", 8)
    return DiffServer(world.clock, world.agent, **kwargs)


def get(service, query, now=0):
    request = Request("GET", f"http://aide.example.com/cgi-bin/snapshot?{query}")
    return service(request, now)


class TestServeIdentity:
    def test_seeded_responses_match_reference(self):
        world = build_world(SEED, pages=8)
        server = make_server(world)
        revisions = seed_world(server, world, seed=SEED, rounds=2)

        ref_world = build_world(SEED, pages=8)
        reference = SnapshotService(
            SnapshotStore(ref_world.clock, ref_world.agent))
        assert seed_world(reference, ref_world, seed=SEED,
                          rounds=2) == revisions

        url = world.urls[0]
        for query in (
            f"action=view&url={url}&rev=1.1",
            f"action=view&url={url}&date=0",
            f"action=diff&url={url}&user=curator0@example.com&r1=1.1&r2=1.2",
            f"action=history&url={url}&user=curator0@example.com",
            "",
        ):
            mine = get(server, query, world.clock.now)
            theirs = get(reference, query, ref_world.clock.now)
            assert (mine.status, mine.body) == (theirs.status, theirs.body)

    def test_cache_hit_is_byte_identical_and_skips_the_store(self):
        world = build_world(SEED, pages=4)
        server = make_server(world)
        seed_world(server, world, seed=SEED, rounds=2)
        url = world.urls[0]
        query = f"action=diff&url={url}&user=curator0@example.com&r1=1.1&r2=1.2"
        invocations_before = server.store.htmldiff_invocations
        first = get(server, query, world.clock.now)
        cached = get(server, query, world.clock.now)
        assert first.body == cached.body
        assert server.cache_hits == 1
        # The repeat never reran HtmlDiff.
        assert server.store.htmldiff_invocations == invocations_before + 1

    def test_mutation_invalidates_volatile_views(self):
        world = build_world(SEED, pages=4)
        server = make_server(world)
        seed_world(server, world, seed=SEED, rounds=1)
        url = world.urls[0]
        date_query = f"action=view&url={url}&date={world.clock.now}"
        stale = get(server, date_query, world.clock.now)
        # New content checks in a new revision at a later instant...
        world.origin.set_page("/page000.html", "<P>changed.</P>")
        world.clock.advance(60)
        remember = get(server,
                       f"action=remember&url={url}&user=c@example.com",
                       world.clock.now)
        assert remember.status == 200
        # ...so the date-view is recomputed, not replayed from cache.
        fresh = get(server, date_query, world.clock.now)
        assert fresh.body == stale.body  # date pins to the same revision
        cache = server.response_caches[server._shard_index(url)]
        assert cache.invalidations >= 1

    def test_out_of_band_checkin_is_routed_once(self):
        world = build_world(SEED, pages=4)
        server = make_server(world)
        routed = sum(server.store.router.routed)
        server.checkin_content("curator0@example.com", world.urls[0],
                               "<P>archived out of band.</P>")
        assert sum(server.store.router.routed) == routed + 1


class TestShardPartitioning:
    def test_each_archive_lives_on_exactly_one_shard(self):
        world = build_world(SEED, pages=12)
        server = make_server(world, shards=3, queue_limit=32)
        for url in world.urls:
            resp = get(server, f"action=remember&url={url}&user=u@x.com",
                       world.clock.now)
            assert resp.status == 200
        held = [set(shard.bytes_by_url()) for shard in server.store.shards]
        for url in world.urls:
            assert sum(canonical_url(url) in urls for urls in held) == 1
        assert max(len(urls) for urls in held) < 12  # load spreads

    def test_live_diff_reaches_the_archiving_shard(self):
        world = build_world(SEED, pages=4)
        server = make_server(world, shards=3)
        url = world.urls[0]
        get(server, f"action=remember&url={url}&user=fred@x.com",
            world.clock.now)
        world.origin.set_page("/page000.html",
                              "<P>page 0 rewritten entirely anew.</P>")
        world.clock.advance(60)
        resp = get(server, f"action=diff&url={url}&user=fred@x.com",
                   world.clock.now)
        assert resp.status == 200
        # Any other shard answers 404: it holds no snapshot of the URL.
        assert "Internet Difference Engine" in resp.body


class TestBackpressure:
    def test_queue_full_returns_503_with_retry_after(self):
        world = build_world(SEED, pages=4)
        server = make_server(world, shards=1, workers_per_shard=1,
                             queue_limit=0)
        seed_world(server, world, seed=SEED, rounds=1)
        now = world.clock.now
        url = world.urls[0]
        first = get(server, f"action=view&url={url}&rev=1.1", now)
        assert first.status == 200
        other = world.urls[1]
        shed = get(server, f"action=view&url={other}&rev=1.1", now)
        assert shed.status == 503
        assert int(shed.headers.get("Retry-After")) >= 1
        assert server.shed == 1

    def test_resilient_agent_recovers_via_retry_after(self):
        """The advertised wait is real advice: a client with zero
        backoff of its own succeeds exactly when told to come back."""
        world = build_world(SEED, pages=4)
        server = make_server(world, shards=1, workers_per_shard=1,
                             queue_limit=0,
                             costs=OperationCosts(fetch=20, htmldiff=30,
                                                  cheap=5))
        seed_world(server, world, seed=SEED, rounds=1)
        aide = world.network.create_server("aide.example.com")
        aide.register_cgi("/cgi-bin/snapshot",
                          lambda request, now: server(request, now))
        url = world.urls[0]
        # Occupy the only worker for 5 simulated seconds.
        busy = get(server, f"action=view&url={url}&rev=1.1",
                   world.clock.now)
        assert busy.status == 200
        resilient = ResilientAgent(
            UserAgent(world.network, world.clock),
            policy=RetryPolicy(base_delay=0, jitter=0),
        )
        before = world.clock.now
        result = resilient.get(
            f"http://aide.example.com/cgi-bin/snapshot?"
            f"action=view&url={world.urls[1]}&rev=1.1"
        )
        assert result.response.status == 200
        assert resilient.retries == 1
        assert world.clock.now == before + 5  # waited the advertised time
        assert server.shed == 1

    def test_operator_pages_bypass_the_pools(self):
        world = build_world(SEED, pages=4)
        server = make_server(world, shards=1, workers_per_shard=1,
                             queue_limit=0)
        seed_world(server, world, seed=SEED, rounds=1)
        now = world.clock.now
        get(server, f"action=view&url={world.urls[0]}&rev=1.1", now)
        # The pool is saturated, but stats still answers 200.
        stats = get(server, "action=stats", now)
        assert stats.status == 200
        assert "Snapshot store statistics" in stats.body
        assert "sharding" in stats.body


class TestOperatorSurfaces:
    def test_stats_aggregates_across_shards(self):
        world = build_world(SEED, pages=8)
        server = make_server(world)
        seed_world(server, world, seed=SEED, rounds=1)
        page = get(server, "action=stats", world.clock.now)
        assert page.status == 200
        assert "routed" in page.body and "response_cache" in page.body

    def test_metrics_formats(self):
        world = build_world(SEED, pages=4)
        server = make_server(world)
        seed_world(server, world, seed=SEED, rounds=1)
        text = get(server, "action=metrics", world.clock.now)
        assert text.status == 200
        json_page = get(server, "action=metrics&format=json",
                        world.clock.now)
        assert json_page.headers.get("Content-Type") == "application/json"
        assert get(server, "action=metrics&format=xml",
                   world.clock.now).status == 400

    def test_fsck_over_a_sharded_repository(self, tmp_path):
        world = build_world(SEED, pages=8)
        server = make_server(world)
        seed_world(server, world, seed=SEED, rounds=1)
        directory = str(tmp_path / "repo")
        save_sharded(server.store, directory)
        server.repository_dir = directory
        page = get(server, "action=fsck", world.clock.now)
        assert page.status == 200
        assert "Repository check: consistent" in page.body
        assert "shard-03" in page.body

    def test_fsck_without_repository_is_an_error(self):
        world = build_world(SEED, pages=4)
        server = make_server(world)
        assert get(server, "action=fsck", 0).status == 400


class TestClosedLoopLoad:
    def build(self, users=120):
        world = build_world(SEED, pages=8)
        server = make_server(world, queue_limit=4)
        revisions = seed_world(server, world, seed=SEED, rounds=2)
        load = ClosedLoopLoad(SEED, world.urls, revisions, users=users,
                              requests_per_user=2, think_time=20,
                              arrival_window=60)
        return world, server, load

    def test_every_request_completes_despite_shedding(self):
        world, server, load = self.build()
        report = load.run(server, start=world.clock.now)
        assert report.completed == report.requests == 240
        assert report.shed > 0  # backpressure was exercised
        assert report.dispatches == report.requests + report.retries

    def test_runs_are_deterministic(self):
        first_world, first_server, first_load = self.build()
        first = first_load.run(first_server, start=first_world.clock.now)
        second_world, second_server, second_load = self.build()
        second = second_load.run(second_server,
                                 start=second_world.clock.now)
        assert first.to_dict() == second.to_dict()
        assert {k: (r.status, r.body) for k, r in first.responses.items()} \
            == {k: (r.status, r.body) for k, r in second.responses.items()}

    def test_replay_against_reference_is_identical(self):
        world, server, load = self.build(users=60)
        report = load.run(server, start=world.clock.now)
        ref_world = build_world(SEED, pages=8)
        reference = SnapshotService(
            SnapshotStore(ref_world.clock, ref_world.agent))
        seed_world(reference, ref_world, seed=SEED, rounds=2)
        replayed = ClosedLoopLoad.replay(report, reference,
                                         now=ref_world.clock.now)
        for key, response in report.responses.items():
            assert (response.status, response.body) \
                == (replayed[key].status, replayed[key].body)

    def test_livelock_guard_trips(self):
        world, server, load = self.build()
        load.max_dispatches = 10
        with pytest.raises(RuntimeError, match="livelocked"):
            load.run(server, start=world.clock.now)
