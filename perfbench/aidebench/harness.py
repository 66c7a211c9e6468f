"""Round loop, timing and metric assembly shared by the workloads.

A *round* is one pass of a workload's seeded input: the workload
builds a fresh world (timed as set-up), the benchmark drives the round
through the program (the only timed part), and the round's outputs are
checked for correctness (untimed).  Round ``r`` of seed ``s`` draws its
input from :func:`round_seed`, so a run averages over several distinct
inputs, and the same seed always gives the same sequence of rounds.
Rounds repeat until the measured time reaches the run's budget.

Workloads implement four methods:

* ``setup(input_seed)`` -> a round state (the built world);
* ``run(state, timer)`` -> wall latencies in ns, one per latency
  sample (a logical operation, or a whole crawl day);
* ``check(state)`` -> how many operations failed their check;
* ``state_metrics(state)`` -> per-layer metrics read from the
  program's own counters and models, for this round.

and the attributes ``ops_per_round`` and ``min_samples`` (the latency
samples an untraced run collects at the least).

``peak_rss_mb`` is the program's own peak: the kernel's resident-memory
high-water mark is reset before the first round's set-up and read as
soon as that round's measured phase ends, before any check has run.
Later rounds are left out because they start from what the allocator
kept of the earlier rounds' checks (reference replays included).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .layers import install_layers, layer_metrics
from .tracer import Tracer

#: The percentile reported as the tail needs this many samples past it,
#: so a run of a request workload takes 100 times as many samples.
TAIL_SAMPLES = 10
#: Stop starting rounds once a run has taken this long in total, so a
#: run ends well inside its time limit on a slow machine.
WALL_LIMIT_S = 120.0

#: End-to-end metric -> unit, as every workload reports them.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class Timer:
    """Times the benchmark's calls into the program (segments)."""

    def __init__(self) -> None:
        self.total_ns = 0

    def begin(self, request_id: int) -> int:
        return time.perf_counter_ns()

    def end(self, token: int) -> int:
        elapsed = time.perf_counter_ns() - token
        self.total_ns += elapsed
        return elapsed


class TracedTimer(Timer):
    """A :class:`Timer` whose segments are also root spans."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def begin(self, request_id: int) -> int:
        return self.tracer.begin(request_id)

    def end(self, token: int) -> int:
        elapsed = self.tracer.end(token)
        self.total_ns += elapsed
        return elapsed


@dataclass
class Rounds:
    """What a sequence of rounds measured."""

    rounds: int = 0
    ops: int = 0
    failed: int = 0
    setup_s: List[float] = field(default_factory=list)
    latencies_ns: List[int] = field(default_factory=list)
    measured_ns: int = 0
    #: Resident-memory high-water mark of the first round's set-up and
    #: measured phase, in MB.
    peak_rss_mb: float = 0.0
    #: Per-layer state metrics, summed over rounds.
    state: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.measured_ns / 1e9) if self.measured_ns else 0.0


def percentile(sorted_values: List, fraction: float):
    """Nearest-rank percentile of an ascending list."""
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def reset_peak_rss() -> None:
    """Restart the kernel's record of this process's peak resident
    memory (Linux: ``clear_refs`` value 5 resets ``VmHWM``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def round_seed(seed: int, index: int) -> int:
    """The input seed of round ``index`` of a run with ``seed``."""
    return seed * 1000 + index


def run_rounds(workload, seed: int, seconds: float, timer: Timer,
               min_samples: int = 0, tracer: Optional[Tracer] = None,
               max_rounds: Optional[int] = None) -> Rounds:
    """Repeat rounds until ``seconds`` of measured time and
    ``min_samples`` latency samples are reached (at least one round, at
    most ``max_rounds``)."""
    started = time.perf_counter()
    out = Rounds()
    while True:
        gc.collect()
        if out.rounds == 0:
            reset_peak_rss()
        t0 = time.perf_counter()
        state = workload.setup(round_seed(seed, out.rounds))
        out.setup_s.append(time.perf_counter() - t0)
        before = timer.total_ns
        out.latencies_ns.extend(workload.run(state, timer))
        out.measured_ns += timer.total_ns - before
        if out.rounds == 0:
            out.peak_rss_mb = peak_rss_mb()
        if tracer is not None:
            tracer.fold()
        # The checks (reference replays included) are untimed; the
        # cyclic collector only slows them down.
        gc.disable()
        try:
            out.failed += workload.check(state)
            round_state = workload.state_metrics(state)
        finally:
            gc.enable()
        for name, value in round_state.items():
            out.state[name] = out.state.get(name, 0.0) + value
        out.rounds += 1
        out.ops += workload.ops_per_round
        del state
        if (out.measured_ns >= seconds * 1e9
                and len(out.latencies_ns) >= min_samples):
            break
        if max_rounds is not None and out.rounds >= max_rounds:
            break
        if time.perf_counter() - started > WALL_LIMIT_S:
            break
    return out


def end_to_end(result: Rounds) -> Dict[str, float]:
    latencies = sorted(result.latencies_ns)
    return {
        "setup_s": statistics.median(result.setup_s),
        "ops_per_s": result.ops_per_s,
        "latency_p50_ms": percentile(latencies, 0.50) / 1e6,
        "latency_p99_ms": percentile(latencies, 0.99) / 1e6,
        "peak_rss_mb": result.peak_rss_mb,
    }


def measure(workload, seed: int, seconds: float):
    """The untraced run: end-to-end metrics with no wrapper installed."""
    result = run_rounds(workload, seed, seconds, Timer(),
                        min_samples=workload.min_samples)
    return result, end_to_end(result)


def measure_traced(workload, seed: int, spans_path: str):
    """The traced run: the run's first round once untraced, for the
    reference throughput, then once more with every layer wrapped.  The
    per-layer metrics describe that one traced round, so counts repeat
    exactly for a seed.  Every span of the traced round is written to
    ``spans_path`` when the round ends (see :meth:`Tracer.fold`)."""
    plain = run_rounds(workload, seed, 0, Timer(), max_rounds=1)
    tracer = Tracer()
    install_layers(tracer)
    try:
        with open(spans_path, "w") as spans_out:
            tracer.spans_out = spans_out
            traced = run_rounds(workload, seed, 0, TracedTimer(tracer),
                                tracer=tracer, max_rounds=1)
    finally:
        tracer.spans_out = None
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced.ops, traced.state)
    metrics["trace.overhead_share"] = 1.0 - traced.ops_per_s / plain.ops_per_s
    combined = Rounds(
        rounds=plain.rounds + traced.rounds,
        ops=plain.ops + traced.ops,
        failed=plain.failed + traced.failed,
    )
    return combined, metrics
