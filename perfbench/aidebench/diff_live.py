"""``diff_live``: the paper's Diff link at archive scale.

A 4-shard ``DiffServer`` at replication 2, with the default
``ContentGuard`` and an on-disk journal synced every 25 mutations,
serves a stream of user requests over 20-40 KB pages.  Before every
request the benchmark edits the requested origin page with
``MutationMix.typical``, so each request checks in a new revision:

* 70% are unpinned ``diff``: fetch, check-in, then a cold HtmlDiff
  against the user's last-saved version;
* 30% are ``remember``: check-in, moving the user's baseline.

Requests are spaced in virtual time so that no pool ever sheds.  Every
diff misses every cache and writes sit beside reads, so HtmlDiff, RCS,
replication fan-out and the journal do the work.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .harness import TAIL_SAMPLES, Timer
from .serve_read import identity, server_metrics

PAGES = 50
USERS = 16
#: Each page is tracked by every USERS/TRACKERS_PER_PAGE-th user.
TRACKERS_PER_PAGE = 4
OPS_PER_ROUND = 250
DIFF_PERCENT = 70
SHARDS = 4
REPLICATION = 2
WORKERS_PER_SHARD = 8
QUEUE_LIMIT = 256
SYNC_INTERVAL = 25
#: Virtual seconds between requests: longer than a fetch plus an
#: HtmlDiff, so requests never queue.
SPACING = 60
MIN_PARAGRAPHS, MAX_PARAGRAPHS = 65, 130
#: ``MutationMix.typical``'s operator weights, in percent.
MUTATION_MIX = (("append_paragraph", 30), ("edit_sentence", 30),
                ("add_link", 20), ("delete_paragraph", 10),
                ("restructure", 5), ("rewrite", 5))

ORIGIN = "live.example.com"
SCRIPT = "http://aide.example.com/cgi-bin/snapshot?"


def _request(action: str, user: int, url: str):
    from repro.web.cgi import encode_query_string
    from repro.web.http import Request

    return Request("GET", SCRIPT + encode_query_string(
        {"action": action, "user": f"user{user}@example.com", "url": url}))


@dataclass
class World:
    clock: object
    origin: object
    agent: object
    urls: List[str]
    #: (user, page index) pairs: who tracks what.
    pairs: List[Tuple[int, int]]
    #: (user, page index, action, mutation) per request.
    ops: List[Tuple[int, int, str, str]] = field(default_factory=list)


def build_world(seed: int, pages: int, users: int, ops: int) -> World:
    """Origin pages, the tracking pairs and the seeded request list.

    Each round is stratified so that rounds differ only in order and in
    the details of each edit: page sizes are spread evenly over the
    size range, every page is requested equally often, and the action
    and mutation mixes hold their exact shares.
    """
    from repro.simclock import SimClock
    from repro.web.client import UserAgent
    from repro.web.network import Network
    from repro.workloads.pagegen import PageGenerator

    rng = random.Random(f"{seed}:world")
    clock = SimClock()
    network = Network(clock)
    origin = network.create_server(ORIGIN)
    agent = UserAgent(network, clock)
    generator = PageGenerator(seed=seed)
    sizes = [MIN_PARAGRAPHS + (MAX_PARAGRAPHS - MIN_PARAGRAPHS) * index
             // max(1, pages - 1) for index in range(pages)]
    rng.shuffle(sizes)
    urls = []
    for index in range(pages):
        origin.set_page(f"/p{index:03d}.html",
                        generator.page(paragraphs=sizes[index], links=15))
        urls.append(f"http://{ORIGIN}/p{index:03d}.html")
    pairs = [(user, index) for user in range(users) for index in range(pages)
             if (user + index) % TRACKERS_PER_PAGE == 0]
    world = World(clock, origin, agent, urls, pairs)
    trackers = {index: [user for user, page in pairs if page == index]
                for index in range(pages)}
    targets = _stratified(list(range(pages)), ops, rng)
    actions = _stratified(["diff"] * DIFF_PERCENT
                          + ["remember"] * (100 - DIFF_PERCENT), ops, rng)
    mutations = _stratified(
        [name for name, weight in MUTATION_MIX for _ in range(weight)],
        ops, rng)
    for index, action, mutation in zip(targets, actions, mutations):
        user = trackers[index][rng.randrange(len(trackers[index]))]
        world.ops.append((user, index, action, mutation))
    return world


def _stratified(population: List, count: int, rng: random.Random) -> List:
    """``count`` draws holding ``population``'s shares as exactly as
    ``count`` allows, in seeded order."""
    out = (population * (count // len(population) + 1))[:count]
    rng.shuffle(out)
    return out


def remember_baselines(world: World, service) -> None:
    """Every tracking user remembers its pages (set-up, untimed)."""
    for user, index in world.pairs:
        response = service(_request("remember", user, world.urls[index]),
                           world.clock.now)
        if response.status != 200:
            raise RuntimeError(f"baseline remember failed: {response.status}")
        world.clock.advance(SPACING)


def drive(world: World, dispatch, seed: int, timer, record) -> List[int]:
    """Edit each request's page, then time ``dispatch(request, now)``;
    ``record(response, schedule)`` sees every response."""
    from repro.workloads.mutate import MUTATORS

    rng = random.Random(f"{seed}:edits")
    latencies = []
    for number, (user, index, action, mutation) in enumerate(world.ops):
        path = f"/p{index:03d}.html"
        world.origin.set_page(path, MUTATORS[mutation](
            world.origin.get_page(path).body, rng))
        request = _request(action, user, world.urls[index])
        token = timer.begin(number)
        response, schedule = dispatch(request, world.clock.now)
        latencies.append(timer.end(token))
        record(response, schedule)
        world.clock.advance(SPACING)
    return latencies


def _history(store, url: str) -> List[str]:
    """sha256 of every stored revision text of ``url``, oldest first."""
    from repro.core.snapshot.sharding import ShardRouter

    archive = store.archives.get(ShardRouter.canonical(url))
    if archive is None:
        return []
    return [hashlib.sha256(archive.checkout(info.number).encode()).hexdigest()
            for info in archive.revisions()]


@dataclass
class Reference:
    """What a single-store SnapshotService answered for one seed."""

    responses: List[str]
    histories: Dict[str, List[str]]
    page_bytes: int


@dataclass
class State:
    seed: int  # the round's input seed
    world: World
    server: object
    directory: str
    identities: List[str] = field(default_factory=list)
    shed: int = 0
    #: Journal bytes the measured phase wrote (set-up's are subtracted).
    journal_bytes: int = 0
    disk_bytes: int = 0
    page_bytes: int = 1


class DiffLive:
    """Diff-link traffic; see the module docstring."""

    name = "diff_live"

    def __init__(self, work_dir: str, pages: int = PAGES, users: int = USERS,
                 ops: int = OPS_PER_ROUND) -> None:
        self.work_dir = work_dir
        self.pages = pages
        self.users = users
        self.ops_per_round = ops
        self.min_samples = 100 * TAIL_SAMPLES
        #: (input seed, reference) of the last reference pass.
        self._reference: Tuple[int, Reference] = (-1, None)
        self._rounds = 0

    def setup(self, seed: int) -> State:
        from repro.core.snapshot.sharding import append_sharded
        from repro.serve.server import DiffServer
        from repro.web.guards import ContentGuard

        self._rounds += 1
        directory = os.path.join(self.work_dir,
                                 f"diff_live-{os.getpid()}-{self._rounds}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        world = build_world(seed, self.pages, self.users, self.ops_per_round)
        server = DiffServer(
            world.clock, world.agent, shards=SHARDS,
            workers_per_shard=WORKERS_PER_SHARD, queue_limit=QUEUE_LIMIT,
            replication=REPLICATION, guard=ContentGuard(),
            repository_dir=directory, sync_interval=0)
        # The baselines are bulk-loaded and made durable with one sync:
        # a sync fsyncs every shard, and fsync time on shared storage
        # varies far more than the rest of set-up.
        remember_baselines(world, server)
        append_sharded(server.store, directory, replication=REPLICATION)
        server.sync_interval = SYNC_INTERVAL
        return State(seed, world, server, directory,
                     journal_bytes=-_journal_bytes(directory))

    def run(self, state: State, timer) -> List[int]:
        from repro.serve.pool import Rejection

        def record(response, schedule):
            if isinstance(schedule, Rejection):
                state.shed += 1
            state.identities.append(identity(response))

        return drive(state.world, state.server.dispatch, state.seed, timer,
                     record)

    # ------------------------------------------------------------------
    def _reference_for(self, seed: int) -> Reference:
        """The same requests, step for step against the same origin
        edits, through a single-store SnapshotService."""
        if self._reference[0] != seed:
            from repro.core.snapshot.service import SnapshotService
            from repro.core.snapshot.store import SnapshotStore
            from repro.web.guards import ContentGuard

            world = build_world(seed, self.pages, self.users,
                                self.ops_per_round)
            store = SnapshotStore(world.clock, world.agent,
                                  guard=ContentGuard())
            service = SnapshotService(store)
            remember_baselines(world, service)
            responses: List[str] = []
            drive(world, lambda request, now: (service(request, now), None),
                  seed, Timer(),
                  lambda response, schedule:
                  responses.append(identity(response)))
            histories = {url: _history(store, url) for url in world.urls}
            page_bytes = sum(
                len(archive.checkout(info.number))
                for archive in store.archives.values()
                for info in archive.revisions())
            self._reference = (seed, Reference(responses, histories,
                                               page_bytes))
        return self._reference[1]

    def check(self, state: State) -> int:
        """Failed operations: any response that differs from the
        reference's (a shed included), and -- after a clean shutdown
        sync and a reload from disk -- any request whose page's durable
        history (on every replica) lacks a revision the reference
        acknowledged.  A repository that fails ``verify_sharded`` fails
        the round."""
        from repro.core.snapshot.sharding import (
            ShardedSnapshotStore, append_sharded, load_sharded,
            verify_sharded)

        reference = self._reference_for(state.seed)
        try:
            state.journal_bytes += _journal_bytes(state.directory)
            append_sharded(state.server.store, state.directory,
                           replication=REPLICATION)
            state.disk_bytes = _tree_bytes(state.directory)
            state.page_bytes = reference.page_bytes
            if not verify_sharded(state.directory).ok:
                return self.ops_per_round
            reloaded = ShardedSnapshotStore(
                state.world.clock, state.world.agent, shard_count=SHARDS)
            load_sharded(reloaded, state.directory)
        finally:
            shutil.rmtree(state.directory, ignore_errors=True)
        durable = {
            url for url in state.world.urls
            if all(_history(reloaded.shards[index], url)
                   == reference.histories[url]
                   for index in reloaded.replicas_for(url, REPLICATION))
        }
        # A shed request's 503 differs from the reference's answer.
        return sum(
            1 for number, (user, index, *_) in enumerate(state.world.ops)
            if number >= len(state.identities)
            or state.identities[number] != reference.responses[number]
            or state.world.urls[index] not in durable)

    def state_metrics(self, state: State) -> Dict[str, float]:
        replication = state.server.stats()["replication"]
        return dict(
            server_metrics(state.server),
            **{"serve.pool.shed_per_request": state.shed / self.ops_per_round,
               "replication.write_syncs": replication["write_syncs"],
               "journal.bytes_written": state.journal_bytes,
               "stored_bytes_per_page_byte":
                   state.disk_bytes / state.page_bytes})


def _tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(directory) for name in names)


def _journal_bytes(directory: str) -> int:
    from repro.core.snapshot.journal import JOURNAL_NAME

    return sum(os.path.getsize(os.path.join(root, JOURNAL_NAME))
               for root, _, names in os.walk(directory)
               if JOURNAL_NAME in names)
