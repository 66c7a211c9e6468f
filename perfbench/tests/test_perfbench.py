"""Fast checks of the benchmark harness: a tiny round of every workload,
the outside-in tracer, and the command's failure without the program.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from aidebench.crawl_day import CrawlDay
from aidebench.diff_live import DiffLive
from aidebench.harness import (
    Timer, end_to_end, measure_traced, peak_rss_mb, reset_peak_rss,
    run_rounds)
from aidebench.layers import PER_LAYER_UNITS
from aidebench.serve_read import ServeRead
from aidebench.tracer import SEGMENT, Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny(name, tmp_path):
    if name == "serve_read":
        return ServeRead(pages=8, users=40)
    if name == "diff_live":
        return DiffLive(str(tmp_path), pages=8, users=4, ops=12)
    return CrawlDay(urls=400, hosts=8, budget=40)


def _wrapped(owner, attribute):
    return hasattr(owner.__dict__[attribute], "__wrapped_by_tracer__")


@pytest.mark.parametrize("name", ["serve_read", "diff_live", "crawl_day"])
def test_tiny_round_is_correct_and_timed(name, tmp_path):
    from repro.serve.server import DiffServer

    workload = tiny(name, tmp_path)
    # A crawl day is one latency sample; a request is one each.
    per_round = 1 if name == "crawl_day" else workload.ops_per_round
    result = run_rounds(workload, seed=3, seconds=0, timer=Timer(),
                        min_samples=2 * per_round, max_rounds=3)
    assert result.rounds == 2
    assert result.failed == 0
    assert result.ops == 2 * workload.ops_per_round
    assert len(result.latencies_ns) == 2 * per_round
    metrics = end_to_end(result)
    assert all(value > 0 for value in metrics.values()), metrics
    assert not _wrapped(DiffServer, "dispatch")


@pytest.mark.parametrize("name", ["serve_read", "diff_live", "crawl_day"])
def test_tiny_traced_round_reports_every_layer(name, tmp_path):
    from repro.core.snapshot.store import SnapshotStore
    from repro.web import url

    original_parse = url.parse_url
    workload = tiny(name, tmp_path)
    spans_path = tmp_path / "spans.jsonl"
    rounds, metrics = measure_traced(workload, seed=5,
                                     spans_path=str(spans_path))
    assert rounds.failed == 0
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert metrics["url.parse.calls"] > 0
    assert metrics["trace.unattributed_share"] <= 0.10
    # Every wrapper is gone again.
    assert url.parse_url is original_parse
    assert not _wrapped(SnapshotStore, "diff")
    # The spans file holds the traced round, each span inside its parent.
    spans = [json.loads(line) for line in spans_path.open()]
    by_index = {span[1]: span for span in spans}
    assert sum(1 for span in spans if span[2] == "url.parse") \
        == metrics["url.parse.calls"]
    for _, _, name_, start, end, parent, request_id in spans:
        assert start <= end
        if name_ == SEGMENT:
            assert parent == -1
            continue
        outer = by_index[parent]
        assert outer[3] <= start and end <= outer[4]
        assert outer[6] == request_id


def test_deterministic_counts_repeat(tmp_path):
    spans = str(tmp_path / "spans.jsonl")
    first = measure_traced(tiny("diff_live", tmp_path), 7, spans)[1]
    second = measure_traced(tiny("diff_live", tmp_path), 7, spans)[1]
    for name in ("url.parse.calls_per_op", "htmldiff.calls",
                 "stored_bytes_per_page_byte", "replication.write_syncs"):
        assert first[name] == second[name], name


class _Allocates:
    """A workload that holds ``run_mb`` while timed and ``check_mb``
    while checked."""

    ops_per_round = 1
    min_samples = 1

    def __init__(self, run_mb, check_mb):
        self.run_mb, self.check_mb = run_mb, check_mb

    def setup(self, seed):
        return None

    def run(self, state, timer):
        token = timer.begin(0)
        held = b"r" * (self.run_mb << 20)
        del held
        return [timer.end(token)]

    def check(self, state):
        held = b"c" * (self.check_mb << 20)
        del held
        return 0

    def state_metrics(self, state):
        return {}


def test_peak_rss_counts_the_measured_phase_only():
    reset_peak_rss()
    base = peak_rss_mb()
    checked = run_rounds(_Allocates(0, 64), 1, 0, Timer(), max_rounds=1)
    assert checked.peak_rss_mb < base + 24
    measured = run_rounds(_Allocates(64, 0), 1, 0, Timer(), max_rounds=1)
    assert measured.peak_rss_mb > checked.peak_rss_mb + 40


def test_self_time_excludes_children():
    class Layer:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.03)

    tracer = Tracer()
    tracer.install([(Layer, "outer", "outer", None),
                    (Layer, "inner", "inner", None)])
    try:
        Layer().outer()  # outside a segment: not recorded
        segment = tracer.begin(1)
        Layer().outer()
        tracer.end(segment)
        tracer.fold()
    finally:
        tracer.uninstall()
    assert tracer.calls("outer") == 1 and tracer.calls("inner") == 1
    assert 0.015 < tracer.self_s("outer") < 0.028
    assert tracer.self_s("inner") >= 0.028
    assert tracer.wall_s("outer") >= tracer.self_s("outer") + 0.028
    assert tracer.unattributed_share() < 0.05
    assert tracer.calls(SEGMENT) == 1
    assert "__wrapped_by_tracer__" not in Layer.__dict__["outer"].__dict__


def test_from_imports_are_rebound_and_restored():
    from repro.core.snapshot import store
    from repro.web import url

    original = url.parse_url
    tracer = Tracer()
    tracer.install([(url, "parse_url", "url.parse", None)])
    try:
        assert store.parse_url is not original
        segment = tracer.begin(1)
        store.parse_url("http://example.com/a")
        tracer.end(segment)
        tracer.fold()
    finally:
        tracer.uninstall()
    assert store.parse_url is original
    assert tracer.calls("url.parse") == 1


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_command_prints_result_last(tmp_path):
    root = os.path.dirname(BENCH)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl_day",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
