"""Tests for the §4.2 remedies — a limit on simultaneous users and
replication across machines — as :class:`~repro.serve.server.DiffServer`
provides them: each shard is one machine with a bounded worker pool."""

import pytest

from repro.core.snapshot.service import OperationCosts
from repro.serve.server import DiffServer
from repro.simclock import SimClock
from repro.web.client import UserAgent
from repro.web.network import Network
from repro.web.resilience import ResilientAgent, RetryPolicy


@pytest.fixture
def world():
    clock = SimClock()
    network = Network(clock)
    origin = network.create_server("site.com")
    for i in range(12):
        origin.set_page(f"/p{i}.html", f"<P>page {i} content.</P>")
    agent = UserAgent(network, clock)
    return clock, network, origin, agent


def make_server(clock, agent, shards):
    """One worker per machine and no queue: a second simultaneous
    request on the same machine is over the limit."""
    return DiffServer(clock, agent, shards=shards, workers_per_shard=1,
                      queue_limit=0)


def call(client, query):
    return client.get(f"http://aide.att.com/cgi-bin/snapshot?{query}").response


class TestAdmissionControl:
    def test_503_carries_retry_after(self, world):
        clock, network, origin, agent = world
        server = make_server(clock, agent, shards=1)
        aide = network.create_server("aide.att.com")
        aide.register_cgi("/cgi-bin/snapshot", server)
        client = UserAgent(network, clock)
        first = call(client, "action=remember&url=http://site.com/p0.html&user=a")
        assert first.status == 200
        rejected = call(client,
                        "action=remember&url=http://site.com/p1.html&user=a")
        assert rejected.status == 503
        # The worker frees once the first remember's fetch is done, and
        # the header says so.
        assert rejected.headers.get("Retry-After") == str(OperationCosts().fetch)

    def test_resilient_agent_honors_retry_after(self, world):
        """End to end: a ResilientAgent that would otherwise retry with
        zero backoff (base_delay=0, jitter=0) succeeds only because the
        503's Retry-After tells it to wait for the busy worker."""
        clock, network, origin, agent = world
        server = make_server(clock, agent, shards=1)
        aide = network.create_server("aide.att.com")
        aide.register_cgi("/cgi-bin/snapshot", server)
        resilient = ResilientAgent(
            UserAgent(network, clock),
            policy=RetryPolicy(base_delay=0, jitter=0),
        )
        # Occupy the only worker.
        call(UserAgent(network, clock),
             "action=remember&url=http://site.com/p0.html&user=a")
        before = clock.now
        result = resilient.get(
            "http://aide.att.com/cgi-bin/snapshot?"
            "action=remember&url=http://site.com/p1.html&user=a"
        )
        assert result.response.status == 200
        # The only wait in the policy is the advertised Retry-After.
        assert clock.now == before + OperationCosts().fetch
        assert resilient.retries == 1
        assert server.shed == 1 and server.pools[0].admitted == 2


class TestReplication:
    def test_routing_is_stable_and_partitioned(self, world):
        clock, network, origin, agent = world
        front = make_server(clock, agent, shards=3)
        twin = make_server(clock, agent, shards=3)
        urls = [f"http://site.com/p{i}.html" for i in range(12)]
        route = front.store.router.shard_for
        for url in urls:
            assert route(url) == route(url)
            assert route(url) == twin.store.router.shard_for(url)
        indices = {route(url) for url in urls}
        assert len(indices) > 1  # load actually spreads
