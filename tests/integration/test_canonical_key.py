"""One page, one key: every entry point files a URL under
``repro.web.url.canonical_url``, however the caller spelled it."""

from urllib.parse import quote

import pytest

from repro.aide.harvest import DistributedRepository
from repro.aide.tracker import CentralTracker
from repro.core.snapshot.service import SnapshotService
from repro.core.snapshot.store import SnapshotStore
from repro.core.w3newer.estimator import ChangeRateEstimator
from repro.core.w3newer.history import BrowserHistory
from repro.core.w3newer.statuscache import StatusCache
from repro.memento.endpoints import MementoEndpoints
from repro.serve import DiffServer
from repro.simclock import SimClock
from repro.web.client import UserAgent
from repro.web.http import Request
from repro.web.network import Network

KEY = "http://site.com/p.html"
SPELLINGS = [
    "HTTP://Site.COM:80/p.html#top",
    "http://site.com/p.html",
    "  http://site.com/p.html  ",
    "http://site.com:80/p.html",
]
BODY = "<HTML><BODY><P>hello</P></BODY></HTML>"


def make_world():
    clock = SimClock()
    network = Network(clock)
    network.create_server("site.com").set_page("/p.html", BODY)
    clock.advance(100)
    return clock, UserAgent(network, clock)


def cgi(service, clock, query):
    request = Request("GET", f"http://aide/cgi-bin/snapshot?{query}")
    return service(request, clock.now)


def through_store():
    store = SnapshotStore(*make_world())
    seen = [store.remember("u@e", url).url for url in SPELLINGS]
    return seen, set(store.archives)


def through_diff_server(shards):
    def run():
        clock, agent = make_world()
        server = DiffServer(clock, agent, shards=shards)
        seen = []
        for url in SPELLINGS:
            assert cgi(server, clock,
                       f"action=remember&user=u@e&url={quote(url)}"
                       ).status == 200
            view = cgi(server, clock, f"action=view&rev=1.1&url={quote(url)}")
            seen.append((view.status, view.body))
        return seen, {key for shard in server.store.shards
                      for key in shard.archives}
    return run


def through_timegate():
    clock, agent = make_world()
    store = SnapshotStore(clock, agent)
    store.remember("u@e", KEY)
    endpoints = MementoEndpoints(store)
    seen = [endpoints.timegate(url, Request("GET", "http://aide/"))
            .headers.get("Location") for url in SPELLINGS]
    return seen, set(store.archives)


def through_history():
    history = BrowserHistory()
    for when, url in enumerate(SPELLINGS):
        history.visit(url, when)
    return ([history.last_seen(url) for url in SPELLINGS],
            {url for url, _ in history.items()})


def through_status_cache():
    cache = StatusCache()
    seen = [id(cache.record_for(url)) for url in SPELLINGS]
    seen += [id(cache.peek(url)) for url in SPELLINGS]
    return seen, {record.url for record in cache.records()}


def through_estimator():
    estimator = ChangeRateEstimator()
    seen = [id(estimator.estimate_for(url)) for url in SPELLINGS]
    seen += [id(estimator.peek(url)) for url in SPELLINGS]
    return seen, {estimate.url for estimate in estimator.estimates()}


def through_tracker():
    clock, agent = make_world()
    tracker = CentralTracker(SnapshotStore(clock, agent), clock)
    for user, url in enumerate(SPELLINGS):
        tracker.subscribe(f"user{user}", url)
    tracker.poll()
    seen = [tuple(row.url for row in tracker.report_for(f"user{user}"))
            for user in range(len(SPELLINGS))]
    return seen, tracker.tracked_urls() | set(tracker.store.archives)


def through_harvest():
    clock, agent = make_world()
    repository = DistributedRepository(clock, agent)
    for url in SPELLINGS:
        repository.track(url)
    return ([repository.replica(url) for url in SPELLINGS],
            set(repository._modes))


ENTRY_POINTS = {
    "snapshot-store": through_store,
    "diff-server-1-shard": through_diff_server(1),
    "diff-server-4-shards": through_diff_server(4),
    "memento-timegate": through_timegate,
    "browser-history": through_history,
    "status-cache": through_status_cache,
    "change-rate-estimator": through_estimator,
    "central-tracker": through_tracker,
    "harvest-repository": through_harvest,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_spelling_reaches_one_record(entry):
    seen, keys = ENTRY_POINTS[entry]()
    assert len(seen) >= len(SPELLINGS)
    assert len(set(seen)) == 1 and seen[0] is not None
    assert keys == {KEY}


def test_newline_after_fragment_is_an_ordinary_request():
    """``%23x%0Ay`` decodes to a fragment holding a newline; both the
    single-store service and the sharded server answer it like any
    other spelling of the page, with the same status and bytes."""
    url = "http://site.com/p.html%23x%0Ay"
    clock, agent = make_world()
    service = SnapshotService(SnapshotStore(clock, agent))
    ref_clock, ref_agent = make_world()
    server = DiffServer(ref_clock, ref_agent, shards=4)
    for query in (f"action=remember&user=u@e&url={url}",
                  f"action=history&user=u@e&url={url}",
                  f"action=view&rev=1.1&url={url}",
                  f"action=diff&user=u@e&url={url}"):
        mine = cgi(service, clock, query)
        theirs = cgi(server, ref_clock, query)
        assert mine.status == 200
        assert (mine.status, mine.body) == (theirs.status, theirs.body)
    assert list(service.store.archives) == [KEY]
