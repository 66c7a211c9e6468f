"""``serve_read``: a 10k-user closed loop of reads against a 4-shard
``DiffServer``.

The archive is 128 pages x 3 revisions.  Each user sends two read
requests; after each reply the user thinks, and after a 503 the user
waits the ``Retry-After`` plus seeded exponential jitter (capped at
256 simulated seconds) and sends the same request again.  The loop runs
in virtual time, so admission and shedding are deterministic; the wall
time of every ``dispatch`` call is what the benchmark measures.  A
logical request's latency is the sum over all of its dispatches, shed
attempts included.

The working set fits the response cache and most dispatches are shed,
so wall time goes to the front end (query decode, routing, cache,
admission) and the 503 path; HtmlDiff does little work here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Tuple

from .harness import TAIL_SAMPLES, percentile

PAGES = 128
REVISIONS = 3
USERS = 10_000
REQUESTS_PER_USER = 2
SHARDS = 4
WORKERS_PER_SHARD = 8
QUEUE_LIMIT = 256
THINK_TIME = 30
ARRIVAL_WINDOW = 120
RETRY_JITTER_CAP = 256
CURATORS = 4
SEED_SPACING = 30
SEED_ROUND_GAP = 3600

ORIGIN = "tracked.example.com"
SCRIPT = "http://aide.example.com/cgi-bin/snapshot?"

#: Request kind -> share of the mix, in percent.
MIX = (("view", 35), ("diff", 25), ("history", 15), ("date", 10),
       ("timegate", 10), ("timemap", 5))


def _page(seed: int, index: int, revision: int) -> str:
    """Deterministic page text; about a third of its lines stay put
    between revisions so diffs have common context."""
    rng = random.Random(f"{seed}:page:{index}")
    lines = []
    for line in range(12):
        stable = rng.randrange(3) == 0
        word = rng.randrange(10_000)
        stamp = word if stable else (word * 31 + revision * 7919) % 10_000
        lines.append(f"<P>page {index} line {line} token {stamp}</P>")
    return (f"<HTML><HEAD><TITLE>Page {index}</TITLE></HEAD><BODY>"
            f"<H1>Tracked page {index} (revision {revision})</H1>"
            + "".join(lines) + "</BODY></HTML>")


def _query(params: Dict[str, str]) -> str:
    from repro.web.cgi import encode_query_string
    return SCRIPT + encode_query_string(params)


@dataclass
class World:
    clock: object
    origin: object
    agent: object
    urls: List[str]
    #: url -> (revision number, check-in date) in check-in order.
    revisions: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)


def build_world(seed: int, pages: int, revisions: int, service_factory):
    """A simulated web with ``pages`` origin pages, archived ``revisions``
    times through the service ``service_factory(clock, agent)`` builds."""
    from repro.simclock import SimClock
    from repro.web.client import UserAgent
    from repro.web.http import Request
    from repro.web.network import Network

    clock = SimClock()
    network = Network(clock)
    origin = network.create_server(ORIGIN)
    agent = UserAgent(network, clock)
    urls = [f"http://{ORIGIN}/page{i:03d}.html" for i in range(pages)]
    world = World(clock, origin, agent, urls, {url: [] for url in urls})
    service = service_factory(clock, agent)
    for revision in range(revisions):
        for index, url in enumerate(urls):
            origin.set_page(f"/page{index:03d}.html",
                            _page(seed, index, revision))
        for index, url in enumerate(urls):
            request = Request("GET", _query({
                "action": "remember", "url": url,
                "user": f"curator{index % CURATORS}@example.com"}))
            response = service(request, clock.now)
            if response.status != 200:
                raise RuntimeError(
                    f"seeding {url} failed with {response.status}")
            world.revisions[url].append((f"1.{revision + 1}", clock.now))
            clock.advance(SEED_SPACING)
        clock.advance(SEED_ROUND_GAP)
    return world, service


def request_stream(seed: int, world: World, users: int,
                   requests_per_user: int):
    """Every (user, step) request of the closed loop, drawn from the seed."""
    from repro.memento.core import ACCEPT_DATETIME
    from repro.web.http import Headers, Request, format_http_date

    rng = random.Random(f"{seed}:requests")
    kinds = [kind for kind, share in MIX for _ in range(share)]
    first_complete = max(dates[0][1] for dates in world.revisions.values())
    stream: Dict[Tuple[int, int], object] = {}
    for user in range(users):
        for step in range(requests_per_user):
            url = world.urls[rng.randrange(len(world.urls))]
            revs = [number for number, _ in world.revisions[url]]
            curator = f"curator{rng.randrange(CURATORS)}@example.com"
            kind = kinds[rng.randrange(len(kinds))]
            headers = Headers()
            if kind == "view":
                params = {"action": "view", "url": url,
                          "rev": revs[rng.randrange(len(revs))]}
            elif kind == "diff":
                first = rng.randrange(len(revs) - 1)
                second = rng.randrange(first + 1, len(revs))
                params = {"action": "diff", "url": url, "user": curator,
                          "r1": revs[first], "r2": revs[second]}
            elif kind == "history":
                params = {"action": "history", "url": url, "user": curator}
            elif kind == "date":
                params = {"action": "view", "url": url, "date": str(
                    rng.randrange(first_complete, world.clock.now))}
            elif kind == "timegate":
                params = {"action": "timegate", "url": url}
                headers.set(ACCEPT_DATETIME, format_http_date(
                    rng.randrange(first_complete, world.clock.now)))
            else:
                params = {"action": "timemap", "url": url}
            stream[(user, step)] = Request("GET", _query(params),
                                           headers=headers)
    return stream


def identity(response) -> str:
    """Digest of everything a client sees in a response: status, body,
    content type and the redirect / link headers."""
    headers = response.headers
    seen = (response.status, response.body, headers.get("Content-Type"),
            headers.get("Location"), headers.get("Link"))
    return hashlib.sha256(repr(seen).encode()).hexdigest()


@dataclass
class State:
    seed: int
    world: World
    server: object
    stream: Dict[Tuple[int, int], object]
    responses: Dict[Tuple[int, int], object] = field(default_factory=dict)
    modeled: List[int] = field(default_factory=list)
    waits: List[int] = field(default_factory=list)
    shed: int = 0


class ServeRead:
    """The closed loop; see the module docstring."""

    name = "serve_read"

    def __init__(self, pages: int = PAGES, users: int = USERS,
                 requests_per_user: int = REQUESTS_PER_USER) -> None:
        self.pages = pages
        self.users = users
        self.requests_per_user = requests_per_user
        self.ops_per_round = users * requests_per_user
        self.min_samples = 100 * TAIL_SAMPLES
        #: (input seed, response digests) of the last reference replay.
        self._reference: Tuple[int, Dict] = (-1, {})

    def setup(self, seed: int) -> State:
        from repro.serve.server import DiffServer

        world, server = build_world(
            seed, self.pages, REVISIONS,
            lambda clock, agent: DiffServer(
                clock, agent, shards=SHARDS,
                workers_per_shard=WORKERS_PER_SHARD,
                queue_limit=QUEUE_LIMIT))
        stream = request_stream(seed, world, self.users,
                                self.requests_per_user)
        return State(seed, world, server, stream)

    def run(self, state: State, timer) -> List[int]:
        from repro.serve.pool import Rejection

        seed, stream = state.seed, state.stream
        dispatch = state.server.dispatch
        start = state.world.clock.now
        arrivals = random.Random(f"{seed}:arrivals")
        jitter = random.Random(f"{seed}:jitter")
        heap: List[Tuple[int, int, int, int]] = []
        sequence = 0
        for user in range(self.users):
            arrival = start + arrivals.randrange(ARRIVAL_WINDOW + 1)
            heappush(heap, (arrival, sequence, user, 0))
            sequence += 1
        issued: Dict[Tuple[int, int], int] = {}
        attempts: Dict[Tuple[int, int], int] = {}
        wall: Dict[Tuple[int, int], int] = {}
        while heap:
            now, _, user, step = heappop(heap)
            key = (user, step)
            issued.setdefault(key, now)
            token = timer.begin(user * self.requests_per_user + step)
            response, schedule = dispatch(stream[key], now)
            wall[key] = wall.get(key, 0) + timer.end(token)
            if isinstance(schedule, Rejection):
                state.shed += 1
                attempt = attempts[key] = attempts.get(key, 0) + 1
                backoff = jitter.randrange(
                    min(1 << attempt, RETRY_JITTER_CAP) + 1)
                heappush(heap, (now + schedule.retry_after + backoff,
                                sequence, user, step))
                sequence += 1
                continue
            finish = schedule.finish if schedule is not None else now
            if schedule is not None:
                state.waits.append(schedule.start - now)
            state.responses[key] = response
            state.modeled.append(finish - issued[key])
            if step + 1 < self.requests_per_user:
                think = jitter.randrange(THINK_TIME + 1)
                heappush(heap, (finish + think, sequence, user, step + 1))
                sequence += 1
        return list(wall.values())

    # ------------------------------------------------------------------
    def _reference_for(self, seed: int) -> Dict:
        """Every request's response digest from a single-store
        SnapshotService seeded identically."""
        if self._reference[0] != seed:
            from repro.core.snapshot.service import SnapshotService
            from repro.core.snapshot.store import SnapshotStore

            world, service = build_world(
                seed, self.pages, REVISIONS,
                lambda clock, agent: SnapshotService(
                    SnapshotStore(clock, agent)))
            stream = request_stream(seed, world, self.users,
                                    self.requests_per_user)
            self._reference = (seed, {
                key: identity(service(request, world.clock.now))
                for key, request in stream.items()
            })
        return self._reference[1]

    def check(self, state: State) -> int:
        """Requests that never completed, or whose response differs
        from the single-store reference's, byte for byte."""
        expected = self._reference_for(state.seed)
        failed = 0
        for key in state.stream:
            response = state.responses.get(key)
            if response is None or identity(response) != expected[key]:
                failed += 1
        return failed

    def state_metrics(self, state: State) -> Dict[str, float]:
        return dict(
            server_metrics(state.server),
            **{"serve.pool.shed_per_request": state.shed / self.ops_per_round,
               "serve.pool.modeled_wait_p99_s": percentile(
                   sorted(state.waits), 0.99),
               "modeled_p99_s": percentile(sorted(state.modeled), 0.99)})


def server_metrics(server) -> Dict[str, float]:
    """Per-layer metrics read from a DiffServer's own counters: its
    response caches and its shards' checkout and diff caches."""
    cache = server.stats()["response_cache"]
    shards = [shard.stats() for shard in server.store.shards]

    def hit_rate(name: str) -> float:
        hits = sum(stats[name]["hits"] for stats in shards)
        lookups = hits + sum(stats[name]["misses"] for stats in shards)
        return hits / lookups if lookups else 0.0

    return {
        "serve.cache.lookups": cache["hits"] + cache["misses"],
        "serve.cache.hit_rate": cache["hit_rate"],
        "serve.cache.invalidations": cache["invalidations"],
        "store.checkout_cache.hit_rate": hit_rate("checkout_cache"),
        "store.diff_cache.hit_rate": hit_rate("diff_cache"),
    }
