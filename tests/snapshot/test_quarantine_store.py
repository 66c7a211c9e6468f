"""Tests for hostile-content refusal in the snapshot store."""

import pytest

from repro.core.quarantine import QuarantineJournal
from repro.core.snapshot.service import SnapshotService
from repro.core.snapshot.sharding import ShardedSnapshotStore
from repro.core.snapshot.store import ContentQuarantined, SnapshotStore
from repro.core.snapshot.wal import WriteAheadLog
from repro.simclock import SimClock
from repro.web.client import UserAgent
from repro.web.guards import ContentGuard, GuardLimits
from repro.web.http import Request
from repro.web.network import Network
from repro.web.url import canonical_url, parse_url

BOMB_URL = "http://site.com/bomb"
CLEAN_URL = "http://site.com/clean"
BOMB = "<DIV>" * 200 + "boom"
CLEAN = "<HTML><BODY><P>a perfectly ordinary page.</P></BODY></HTML>"


def make_world(tmp_path=None, with_wal=False, journal=None):
    clock = SimClock()
    network = Network(clock)
    server = network.create_server("site.com")
    server.set_page("/bomb", BOMB)
    server.set_page("/clean", CLEAN)
    agent = UserAgent(network, clock)
    store = SnapshotStore(
        clock, agent,
        guard=ContentGuard(GuardLimits(max_nesting_depth=64)),
        quarantine=journal,
    )
    if with_wal:
        store.attach_wal(WriteAheadLog(store, str(tmp_path)))
    return clock, server, store


class TestStoreRefusal:
    def test_remember_refuses_hostile_fetch(self):
        _clock, _server, store = make_world()
        with pytest.raises(ContentQuarantined) as excinfo:
            store.remember("fred", BOMB_URL)
        assert excinfo.value.guard == "nesting-depth"
        # The archive was never created: no partial state.
        assert store.archives == {}
        assert store.users.versions_seen("fred", canonical_url(BOMB_URL)) == []

    def test_benign_remember_unaffected(self):
        _clock, _server, store = make_world()
        result = store.remember("fred", CLEAN_URL)
        assert result.changed

    def test_checkin_content_refuses_hostile_body(self):
        _clock, _server, store = make_world()
        with pytest.raises(ContentQuarantined):
            store.checkin_content("fred", BOMB_URL, BOMB)
        assert store.archives == {}

    def test_checkin_batch_refuses_hostile_body(self):
        _clock, _server, store = make_world()
        with pytest.raises(ContentQuarantined):
            store.checkin_content_batch(["a", "b"], BOMB_URL, BOMB)
        assert store.archives == {}

    def test_wal_rolls_back_atomically(self, tmp_path):
        _clock, _server, store = make_world(tmp_path, with_wal=True)
        before = store.wal.stats()["aborted"]
        with pytest.raises(ContentQuarantined):
            store.remember("fred", BOMB_URL)
        assert store.wal.stats()["aborted"] == before + 1
        # The store still works after the refusal.
        assert store.remember("fred", CLEAN_URL).changed

    def test_refusal_journaled(self):
        journal = QuarantineJournal()
        _clock, _server, store = make_world(journal=journal)
        with pytest.raises(ContentQuarantined):
            store.remember("fred", BOMB_URL)
        entry = journal.get(canonical_url(BOMB_URL))
        assert entry is not None
        assert entry.guard == "nesting-depth"

    def test_stats_surface_guard_and_quarantine(self):
        journal = QuarantineJournal()
        _clock, _server, store = make_world(journal=journal)
        with pytest.raises(ContentQuarantined):
            store.remember("fred", BOMB_URL)
        stats = store.stats()
        assert stats["guards"]["attached"]
        assert stats["guards"]["trips"]["nesting-depth"] == 1
        assert stats["quarantine"]["entries"] == 1

    def test_store_without_guard_admits_everything(self):
        clock = SimClock()
        network = Network(clock)
        network.create_server("site.com").set_page("/bomb", BOMB)
        store = SnapshotStore(clock, UserAgent(network, clock))
        assert store.remember("fred", BOMB_URL).changed
        assert store.stats()["guards"] == {"attached": False}

    def test_diff_degrades_under_budget(self):
        clock = SimClock()
        network = Network(clock)
        server = network.create_server("site.com")
        server.set_page("/clean", CLEAN)
        store = SnapshotStore(
            clock, UserAgent(network, clock),
            guard=ContentGuard(GuardLimits(max_diff_cost=4)),
        )
        store.remember("fred", CLEAN_URL)
        clock.advance(60)
        server.set_page(
            "/clean", CLEAN.replace("ordinary", "extraordinary")
        )
        store.remember("fred", CLEAN_URL)
        result = store.diff("fred", CLEAN_URL)
        assert result.degraded
        assert "coarse line diff" in result.html


class TestService422:
    def request(self, url):
        query = (f"action=remember&url={url.replace(':', '%3A').replace('/', '%2F')}"
                 f"&user=fred")
        return Request(
            method="GET",
            url=parse_url(f"http://aide.example/cgi-bin/snapshot?{query}"),
        )

    def test_hostile_remember_returns_422(self):
        _clock, _server, store = make_world()
        service = SnapshotService(store)
        response = service(self.request(BOMB_URL), 0)
        assert response.status == 422
        assert "nesting-depth" in response.body

    def test_benign_remember_still_200(self):
        _clock, _server, store = make_world()
        service = SnapshotService(store)
        response = service(self.request(CLEAN_URL), 0)
        assert response.status == 200


class TestShardedPassthrough:
    def test_sharded_store_refuses_hostile_fetch(self):
        clock = SimClock()
        network = Network(clock)
        server = network.create_server("site.com")
        server.set_page("/bomb", BOMB)
        server.set_page("/clean", CLEAN)
        store = ShardedSnapshotStore(
            clock, UserAgent(network, clock), shard_count=3,
            guard=ContentGuard(GuardLimits(max_nesting_depth=64)),
        )
        with pytest.raises(ContentQuarantined):
            store.remember("fred", BOMB_URL)
        assert store.remember("fred", CLEAN_URL).changed
