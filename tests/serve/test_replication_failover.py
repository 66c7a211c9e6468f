"""Replicated shards under fault: failover reads, hinted handoff,
read repair, anti-entropy scrub, torn-journal recovery, and the
operator surfaces that report it all."""

import json

import pytest

from repro.core.snapshot.journal import JOURNAL_NAME
from repro.serve import (
    ClosedLoopLoad,
    DiffServer,
    HandoffJournal,
    Rejection,
    ShardFaultPlan,
    build_world,
    seed_world,
    url_fingerprint,
)
from repro.obs import Observability
from repro.web.http import Request
from repro.web.url import canonical_url

SEED = 7


def make_server(world, **kwargs):
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("workers_per_shard", 2)
    kwargs.setdefault("queue_limit", 16)
    kwargs.setdefault("replication", 2)
    return DiffServer(world.clock, world.agent, **kwargs)


def get(service, query, now=0):
    request = Request("GET",
                      f"http://aide.example.com/cgi-bin/snapshot?{query}")
    return service(request, now)


def seeded(world, **kwargs):
    server = make_server(world, **kwargs)
    revisions = seed_world(server, world, seed=SEED, rounds=2)
    return server, revisions


def crash_now(server, shard, now, recover_at):
    """Inject a crash transition directly through the manager (tests
    that exercise one mechanism without scripting a whole plan)."""
    plan = ShardFaultPlan().crash(shard, now, recover_at)
    mgr = server.replicator
    mgr._transitions = plan.transitions()
    mgr._next_transition = 0
    mgr.advance(now)


class TestFaultPlan:
    def test_transitions_are_time_ordered(self):
        plan = ShardFaultPlan()
        plan.crash(1, at=50, recover_at=80)
        plan.slow(0, at=10, until=60, factor=3)
        events = [(t, e, f.shard) for t, _s, e, f in plan.transitions()]
        assert events == [(10, "slow_on", 0), (50, "crash", 1),
                          (60, "slow_off", 0), (80, "recover", 1)]

    def test_kill_each_once_never_overlaps(self):
        plan = ShardFaultPlan.kill_each_once(4, start=100, downtime=50)
        windows = sorted((f.at, f.recover_at) for f in plan.faults)
        assert len(windows) == 4
        for (_a0, r0), (a1, _r1) in zip(windows, windows[1:]):
            assert a1 >= r0

    def test_kill_each_once_rejects_overlapping_spacing(self):
        with pytest.raises(ValueError):
            ShardFaultPlan.kill_each_once(4, start=0, downtime=100,
                                          spacing=50)

    def test_bad_windows_rejected(self):
        with pytest.raises(ValueError):
            ShardFaultPlan().crash(0, at=10, recover_at=10)
        with pytest.raises(ValueError):
            ShardFaultPlan().slow(0, at=10, until=20, factor=0)


class TestFailover:
    def test_reads_survive_primary_shard_loss(self):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(world)
        mgr = server.replicator
        url = world.urls[0]
        primary = mgr.replica_set(url)[0]
        now = world.clock.now
        crash_now(server, primary, now, now + 10_000)

        response = get(server, f"action=view&url={url}&rev=1.1", now + 1)
        assert response.status == 200
        assert mgr.failovers > 0
        # Served by the surviving peer, byte-identical to the dead
        # primary's answer (same state, same rendering code).
        healthy_world = build_world(SEED, pages=8)
        healthy, _ = seeded(healthy_world)
        twin = get(healthy, f"action=view&url={url}&rev=1.1",
                   healthy_world.clock.now + 1)
        assert response.body == twin.body

    def test_whole_replica_set_down_is_shed_with_retry_after(self, tmp_path):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(world, repository_dir=str(tmp_path),
                                   sync_interval=1)
        mgr = server.replicator
        url = world.urls[0]
        replicas = mgr.replica_set(url)
        now = world.clock.now
        plan = ShardFaultPlan()
        for shard in replicas:
            plan.crash(shard, now, now + 500)
        mgr._transitions = plan.transitions()
        mgr._next_transition = 0

        response, schedule = server.dispatch(
            Request("GET", "http://aide.example.com/cgi-bin/snapshot?"
                           f"action=view&url={url}&rev=1.1"), now + 10)
        assert response.status == 503
        assert isinstance(schedule, Rejection)
        # Retry-After points at the earliest scheduled recovery.
        assert schedule.retry_after == 500 - 10
        assert mgr.stats()["unavailable"] == 1
        # After recovery the same request is served again.
        ok = get(server, f"action=view&url={url}&rev=1.1", now + 600)
        assert ok.status == 200

    def test_mutations_are_fanned_out_to_live_peers(self):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(world)
        mgr = server.replicator
        url = world.urls[0]
        a, b = mgr.replica_set(url)
        key = canonical_url(url)
        world.origin.set_page("/page000.html", "<HTML><BODY>new"
                                               "</BODY></HTML>")
        response = get(server, f"action=remember&url={url}"
                               f"&user=x@example.com", world.clock.now)
        assert response.status == 200
        fp_a = url_fingerprint(server.store.shards[a], key)
        fp_b = url_fingerprint(server.store.shards[b], key)
        assert fp_a == fp_b
        assert server.store.shards[b].archives[key].revision_count == 3


class TestHintedHandoff:
    def test_write_during_outage_queues_hint_and_replays_on_recovery(self):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(world)
        mgr = server.replicator
        url = world.urls[0]
        key = canonical_url(url)
        a, b = mgr.replica_set(url)
        now = world.clock.now
        crash_now(server, b, now, now + 5_000)

        world.origin.set_page("/page000.html", "<HTML><BODY>while-down"
                                               "</BODY></HTML>")
        response = get(server, f"action=remember&url={url}"
                               f"&user=x@example.com", now + 100)
        assert response.status == 200
        assert mgr.handoff.depth(b) == 1
        stats = mgr.stats()["handoff"]
        assert stats["queued"] == 1 and stats["depth"] == 1

        # Recovery drains the hint; the replica converges.
        mgr.advance(now + 5_000)
        assert mgr.handoff.depth(b) == 0
        assert mgr.stats()["handoff"]["replayed"] == 1
        assert (url_fingerprint(server.store.shards[a], key)
                == url_fingerprint(server.store.shards[b], key))
        assert server.store.shards[b].archives[key].revision_count == 3

    def test_handoff_journal_persists_and_truncates_torn_tail(self, tmp_path):
        journal = HandoffJournal(str(tmp_path))
        journal.queue(2, "http://a.example.com/x.html")
        journal.queue(2, "http://a.example.com/y.html")
        journal.queue(1, "http://a.example.com/z.html")
        journal.drain(1)

        reloaded = HandoffJournal(str(tmp_path))
        assert reloaded.depths() == {2: 2}
        assert reloaded.drain(2) == ["http://a.example.com/x.html",
                                     "http://a.example.com/y.html"]

        # Tear the tail: the damaged suffix is dropped, not fatal.
        path = tmp_path / "handoff.log"
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        torn = HandoffJournal(str(tmp_path))
        assert torn.torn_tail_truncations == 1


class TestReadRepair:
    def test_lagging_live_replica_is_repaired_on_read(self):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(world)
        mgr = server.replicator
        url = world.urls[0]
        key = canonical_url(url)
        a, b = mgr.replica_set(url)
        # Knock the secondary back to an empty store without marking it
        # dead — the "replica silently lost state" shape.
        server.store.reset_shard(b)
        server._on_shard_reset(b)
        assert server.store.shards[b].archives.get(key) is None

        response = get(server, f"action=view&url={url}&rev=1.2",
                       world.clock.now)
        assert response.status == 200
        assert mgr.read_repairs >= 1
        assert (url_fingerprint(server.store.shards[a], key)
                == url_fingerprint(server.store.shards[b], key))

    def test_repair_invalidates_stale_cached_responses(self):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(world)
        mgr = server.replicator
        url = world.urls[0]
        key = canonical_url(url)
        a, b = mgr.replica_set(url)
        # Render a response while the replicas agree, then poison
        # replica b with divergent state and cache the response as if b
        # had served it before diverging.
        response = get(server, f"action=view&url={url}&rev=1.1",
                       world.clock.now)
        stale = server.store.shards[b]
        del stale.archives[key]
        archive = stale.archive_for(key)
        archive.checkin("<HTML><BODY>impostor</BODY></HTML>", 1,
                        author="evil")
        cache = server.response_caches[b]
        cache.put(("view", key, "1.1", False), response)
        assert len(cache) == 1

        mgr.sync_url(a, b, key)
        assert mgr.divergence_rebuilds == 1
        # The repair dropped the pinned cached response too.
        assert cache._entries.get(("view", key, "1.1", False)) is None
        assert (url_fingerprint(server.store.shards[a], key)
                == url_fingerprint(server.store.shards[b], key))


class TestScrub:
    def test_scrub_converges_diverged_replicas_to_byte_identity(self):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(world, scrub_interval=100)
        mgr = server.replicator
        url = world.urls[0]
        key = canonical_url(url)
        a, b = mgr.replica_set(url)
        # Diverge b: same revision count, different content.
        stale = server.store.shards[b]
        del stale.archives[key]
        archive = stale.archive_for(key)
        archive.checkin("<HTML><BODY>one</BODY></HTML>", 1, author="evil")
        archive.checkin("<HTML><BODY>two</BODY></HTML>", 2, author="evil")
        assert not mgr.converged(url)

        repairs = mgr.scrub(world.clock.now)
        assert repairs >= 1
        assert mgr.converged(url)
        assert (url_fingerprint(server.store.shards[a], key)
                == url_fingerprint(server.store.shards[b], key))

    def test_scrub_runs_on_the_sim_clock_via_dispatch(self):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(world, scrub_interval=50)
        mgr = server.replicator
        before = mgr.scrub_runs
        get(server, f"action=view&url={world.urls[0]}&rev=1.1",
            world.clock.now + 10_000)
        assert mgr.scrub_runs == before + 1

    def test_converged_fleet_scrubs_clean(self):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(world, scrub_interval=100)
        mgr = server.replicator
        assert mgr.scrub(world.clock.now) == 0
        assert mgr.scrub_repairs == 0


class TestOperatorSurfaces:
    def test_stats_and_metrics_report_replication_under_shard_loss(self):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(world, obs=Observability(world.clock))
        mgr = server.replicator
        now = world.clock.now
        crash_now(server, 0, now, now + 10_000)

        block = server.stats()["replication"]
        assert block["factor"] == 2
        assert block["live_replicas"] == 3
        assert block["dead_replicas"] == 1
        assert block["dead"] == [0]
        assert "handoff" in block and "scrub" in block

        stats_page = get(server, "action=stats", now + 1)
        assert stats_page.status == 200
        assert "replication" in stats_page.body

        metrics = get(server, "action=metrics&format=json", now + 2)
        assert metrics.status == 200
        snapshot = json.loads(metrics.body)
        flat = json.dumps(snapshot)
        assert "serve.replication" in flat

    def test_urls_with_a_live_replica_keep_serving_200s(self):
        world = build_world(SEED, pages=16)
        server, revisions = seeded(world)
        mgr = server.replicator
        now = world.clock.now
        crash_now(server, 0, now, now + 100_000)
        for url in world.urls:
            response = get(server, f"action=view&url={url}&rev=1.1",
                           now + 1)
            assert response.status == 200


class TestDiskRecovery:
    def test_torn_journal_tail_is_recovered_and_peers_refill_the_gap(
            self, tmp_path):
        world = build_world(SEED, pages=8)
        server, revisions = seeded(
            world, repository_dir=str(tmp_path), sync_interval=1)
        mgr = server.replicator
        url = world.urls[0]
        key = canonical_url(url)
        a, b = mgr.replica_set(url)
        now = world.clock.now

        plan = ShardFaultPlan().crash(a, now + 10, now + 1_000,
                                      torn_tail=True)
        mgr._transitions = plan.transitions()
        mgr._next_transition = 0
        mgr.advance(now + 10)
        assert not mgr.alive[a]
        journal = tmp_path / f"shard-{a:02d}" / JOURNAL_NAME
        assert journal.exists()

        mgr.advance(now + 1_000)
        assert mgr.alive[a]
        assert mgr.journal_truncations >= 1
        assert (url_fingerprint(server.store.shards[a], key)
                == url_fingerprint(server.store.shards[b], key))
        response = get(server, f"action=view&url={url}&rev=1.2",
                       now + 1_001)
        assert response.status == 200


class TestChaosLoadEndToEnd:
    def test_kill_each_shard_once_serves_every_request_and_converges(self):
        world = build_world(SEED, pages=12)
        # Seeding with pages=12, rounds=2 ends at t=7920; the kill
        # schedule must land inside the load window to matter.
        plan = ShardFaultPlan.kill_each_once(4, start=8_200, downtime=300,
                                             spacing=600)
        server = make_server(world, fault_plan=plan, scrub_interval=200)
        revisions = seed_world(server, world, seed=SEED, rounds=2)
        load = ClosedLoopLoad(SEED, world.urls, revisions, users=150,
                              requests_per_user=6, think_time=200,
                              arrival_window=1_200, mutation_rate=0.05)
        report = load.run(server, start=world.clock.now)
        assert report.completed == report.requests
        assert all(response.status < 500
                   for response in report.responses.values())
        mgr = server.replicator
        # Drain any transitions past the last dispatch, then scrub the
        # whole URL space to a fixed point.
        mgr.advance(10**9)
        assert mgr.crashes == 4 and mgr.recoveries == 4
        # Post-run convergence: every URL's replicas byte-identical.
        for _ in range(5):
            mgr.scrub(10**9)
        assert all(mgr.converged(url) for url in mgr.known_urls())
        # Zero lost revisions: every acknowledged seed revision is on
        # every replica.
        for url, revs in revisions.items():
            key = canonical_url(url)
            for shard in mgr.replica_set(key):
                archive = server.store.shards[shard].archives[key]
                assert archive.revision_count >= len(revs)

    def test_chaos_run_is_deterministic(self):
        def run():
            world = build_world(SEED, pages=8)
            plan = ShardFaultPlan.kill_each_once(4, start=8_000,
                                                 downtime=300, spacing=600)
            server = make_server(world, fault_plan=plan,
                                 scrub_interval=200)
            revisions = seed_world(server, world, seed=SEED, rounds=2)
            load = ClosedLoopLoad(SEED, world.urls, revisions, users=80,
                                  requests_per_user=4, think_time=200,
                                  arrival_window=800, mutation_rate=0.05)
            report = load.run(server, start=world.clock.now)
            return report, server.replicator.stats()

        first_report, first_stats = run()
        second_report, second_stats = run()
        assert first_stats == second_stats
        assert first_report.to_dict() == second_report.to_dict()
        assert all(
            first_report.responses[key].body
            == second_report.responses[key].body
            for key in first_report.responses
        )


class TestUnreplicatedPathUnchanged:
    def test_r1_server_has_no_replicator_and_matches_old_routing(self):
        world = build_world(SEED, pages=8)
        server = DiffServer(world.clock, world.agent, shards=4)
        assert server.replicator is None
        assert "replication" not in server.stats()
