"""The program's layers as the traced run sees them.

:func:`layer_specs` names every function the traced run wraps, at the
attribute its callers look it up from, with the span name it records.
:func:`layer_metrics` turns one traced run's totals into the per-layer
metrics the benchmark reports.  Every metric is reported on every
workload; a layer the workload does not reach reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tracer import Tracer


def _on_dispatch(tracer: Tracer, result, args, duration) -> None:
    from repro.serve.pool import Rejection
    if isinstance(result[1], Rejection):
        tracer.count["serve.shed"] = tracer.count.get("serve.shed", 0) + 1
        tracer.count["serve.shed.ns"] = (
            tracer.count.get("serve.shed.ns", 0) + duration)


def _on_tokens(tracer: Tracer, result, args, duration) -> None:
    tracer.count["htmldiff.tokens"] = (
        tracer.count.get("htmldiff.tokens", 0) + len(result))


def _on_htmldiff(tracer: Tracer, result, args, duration) -> None:
    if result.degraded:
        tracer.count["htmldiff.degraded"] = (
            tracer.count.get("htmldiff.degraded", 0) + 1)


def layer_specs() -> List[Tuple[object, str, str, object]]:
    """``(owner, attribute, span name, on_result)`` for every layer."""
    from repro.core.htmldiff import api as htmldiff_api
    from repro.core.htmldiff import classify, tokenizer
    from repro.core.htmldiff.markup import MergedPageRenderer
    from repro.core.snapshot import persistence
    from repro.core.snapshot.service import SnapshotService
    from repro.core.snapshot.sharding import ShardRouter
    from repro.core.snapshot.sched import SimScheduler
    from repro.core.snapshot.store import SnapshotStore
    from repro.core.w3newer import report, scheduler
    from repro.core.w3newer.checker import UrlChecker
    from repro.core.w3newer.crawl import CrawlExecutor, HostGovernor
    from repro.memento.endpoints import MementoEndpoints
    from repro.rcs.archive import RcsArchive
    from repro.serve.cache import ResponseCache
    from repro.serve.pool import WorkerPool
    from repro.serve.replication import ReplicationManager
    from repro.serve.server import DiffServer
    from repro.web import cgi, url
    from repro.web.client import UserAgent
    from repro.web.guards import ContentGuard

    return [
        (cgi, "parse_query_string", "cgi.parse", None),
        (ShardRouter, "route", "sharding.route", None),
        (ShardRouter, "replicas_for", "sharding.route", None),
        (url, "parse_url", "url.parse", None),
        (DiffServer, "dispatch", "serve.dispatch", _on_dispatch),
        (WorkerPool, "admit", "serve.pool.admit", None),
        (ResponseCache, "get", "serve.cache", None),
        (ResponseCache, "put", "serve.cache", None),
        (ResponseCache, "invalidate_url", "serve.cache", None),
        (ReplicationManager, "on_write", "replication.on_write", None),
        (ReplicationManager, "on_read", "replication.on_read", None),
        (SnapshotService, "__call__", "service.call", None),
        (SnapshotStore, "view", "store.view", None),
        (SnapshotStore, "view_at", "store.view_at", None),
        (SnapshotStore, "history", "store.history", None),
        (SnapshotStore, "diff", "store.diff", None),
        (SnapshotStore, "remember", "store.remember", None),
        (persistence, "append_store", "journal.append", None),
        (RcsArchive, "checkin", "rcs.checkin", None),
        (RcsArchive, "checkout", "rcs.checkout", None),
        (UserAgent, "get", "web.fetch", None),
        (UserAgent, "head", "web.fetch", None),
        (ContentGuard, "admit", "guards.inspect", None),
        (ContentGuard, "admit_body", "guards.inspect", None),
        (htmldiff_api, "html_diff", "htmldiff", _on_htmldiff),
        (tokenizer, "tokenize_document", "htmldiff.tokenize", _on_tokens),
        (classify, "classify_documents", "htmldiff.classify", None),
        (MergedPageRenderer, "render_merged", "htmldiff.render", None),
        (MergedPageRenderer, "render_only_differences", "htmldiff.render",
         None),
        (MergedPageRenderer, "render_new_only", "htmldiff.render", None),
        (MementoEndpoints, "timegate", "memento.resolve", None),
        (MementoEndpoints, "timemap", "memento.timemap", None),
        (scheduler, "build_schedule", "w3newer.schedule", None),
        (CrawlExecutor, "run", "w3newer.execute", None),
        (UrlChecker, "check", "w3newer.check", None),
        (HostGovernor, "place", "w3newer.govern", None),
        (report, "render_report", "w3newer.report", None),
        (SimScheduler, "run", "sched", None),
    ]


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer, and count scheduler hand-offs."""
    from repro.core.snapshot.sched import SimScheduler

    tracer.install(layer_specs())
    tracer.count_calls(SimScheduler, "checkpoint", "sched.checkpoints")
    tracer.watch_gc()


#: Per-layer metric -> unit, in report order.  ``*.calls`` and counts
#: are per round; ``*.self_s`` is self time per round in wall seconds;
#: ``sim_s`` metrics are virtual-time model outputs, not wall-clock.
#: ``gc.*`` is the interpreter's cyclic collector, whichever layer it
#: interrupts (its pauses also count in that layer's self time).  The
#: last three are deterministic model outputs of single workloads (0
#: where they do not apply); they sit here because every end-to-end
#: metric must apply to every workload.
PER_LAYER_UNITS: Dict[str, str] = {
    "cgi.parse.calls": "count",
    "cgi.parse.self_s": "s",
    "sharding.route.calls": "count",
    "sharding.route.self_s": "s",
    "url.parse.calls": "count",
    "url.parse.calls_per_op": "calls/op",
    "url.parse.self_s": "s",
    "serve.dispatch.calls": "count",
    "serve.dispatch.self_s": "s",
    "serve.shed.wall_s": "s",
    "serve.shed.us_per_shed": "us",
    "serve.pool.admit.calls": "count",
    "serve.pool.admit.self_s": "s",
    "serve.pool.shed_per_request": "ratio",
    "serve.pool.modeled_wait_p99_s": "sim_s",
    "serve.cache.lookups": "count",
    "serve.cache.hit_rate": "ratio",
    "serve.cache.invalidations": "count",
    "serve.cache.self_s": "s",
    "replication.on_write.calls": "count",
    "replication.on_write.self_s": "s",
    "replication.on_read.calls": "count",
    "replication.on_read.self_s": "s",
    "replication.write_syncs": "count",
    "service.call.calls": "count",
    "service.call.self_s": "s",
    "store.view.calls": "count",
    "store.view.self_s": "s",
    "store.view_at.calls": "count",
    "store.view_at.self_s": "s",
    "store.history.calls": "count",
    "store.history.self_s": "s",
    "store.diff.calls": "count",
    "store.diff.self_s": "s",
    "store.remember.calls": "count",
    "store.remember.self_s": "s",
    "store.checkout_cache.hit_rate": "ratio",
    "store.diff_cache.hit_rate": "ratio",
    "journal.append.calls": "count",
    "journal.append.self_s": "s",
    "journal.bytes_written": "bytes",
    "rcs.checkin.calls": "count",
    "rcs.checkin.self_s": "s",
    "rcs.checkout.calls": "count",
    "rcs.checkout.self_s": "s",
    "web.fetch.calls": "count",
    "web.fetch.self_s": "s",
    "guards.inspect.calls": "count",
    "guards.inspect.self_s": "s",
    "htmldiff.calls": "count",
    "htmldiff.tokens": "count",
    "htmldiff.degraded": "count",
    "htmldiff.self_s": "s",
    "htmldiff.tokenize.self_s": "s",
    "htmldiff.classify.self_s": "s",
    "htmldiff.render.self_s": "s",
    "memento.resolve.calls": "count",
    "memento.resolve.self_s": "s",
    "memento.timemap.calls": "count",
    "memento.timemap.self_s": "s",
    "w3newer.schedule.self_s": "s",
    "w3newer.execute.self_s": "s",
    "w3newer.check.calls": "count",
    "w3newer.check.self_s": "s",
    "w3newer.govern.self_s": "s",
    "w3newer.report.self_s": "s",
    "w3newer.report.bytes": "bytes",
    "w3newer.http_requests": "count",
    "w3newer.detections_per_fetch": "ratio",
    "sched.checkpoints": "count",
    "sched.self_s": "s",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
    "modeled_p99_s": "sim_s",
    "modeled_makespan_s": "sim_s",
    "stored_bytes_per_page_byte": "ratio",
}

#: Span names whose ``.calls`` / ``.self_s`` metrics come from spans.
_SPAN_LAYERS = (
    "cgi.parse", "sharding.route", "url.parse", "serve.dispatch",
    "serve.pool.admit", "serve.cache", "replication.on_write",
    "replication.on_read", "service.call", "store.view", "store.view_at",
    "store.history", "store.diff", "store.remember", "journal.append",
    "rcs.checkin", "rcs.checkout", "web.fetch", "guards.inspect",
    "htmldiff", "htmldiff.tokenize", "htmldiff.classify", "htmldiff.render",
    "memento.resolve", "memento.timemap", "w3newer.schedule",
    "w3newer.execute", "w3newer.check", "w3newer.govern", "w3newer.report",
    "sched",
)


def layer_metrics(tracer: Tracer, ops: int,
                  state: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced round of ``ops`` operations.

    ``state`` carries what the workload read from the program's own
    counters and model outputs (cache hit rates, replication syncs,
    modeled latencies, ...) for that round.
    """
    count = tracer.count
    out: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    for span in _SPAN_LAYERS:
        if f"{span}.calls" in out:
            out[f"{span}.calls"] = tracer.calls(span)
        out[f"{span}.self_s"] = tracer.self_s(span)
    out["url.parse.calls_per_op"] = tracer.calls("url.parse") / ops
    shed, shed_ns = count.get("serve.shed", 0), count.get("serve.shed.ns", 0)
    out["serve.shed.wall_s"] = shed_ns / 1e9
    out["serve.shed.us_per_shed"] = shed_ns / 1e3 / shed if shed else 0.0
    for name in ("htmldiff.tokens", "htmldiff.degraded", "sched.checkpoints",
                 "gc.collections"):
        out[name] = count.get(name, 0)
    out["gc.pause_s"] = count.get("gc.pause_ns", 0) / 1e9
    out["trace.unattributed_share"] = tracer.unattributed_share()
    for name, value in state.items():
        if name not in out:
            raise KeyError(f"unknown per-layer metric {name!r}")
        out[name] = value
    return out
