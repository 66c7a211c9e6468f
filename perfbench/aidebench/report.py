"""Runs one workload and prints every metric by name with its unit."""

from __future__ import annotations

from typing import Dict

from .harness import END_TO_END_UNITS, measure, measure_traced
from .layers import PER_LAYER_UNITS

#: Modeled (virtual-time or storage-model) outputs shown beside the
#: wall-clock metrics in the untraced run's table.
MODELED = ("modeled_p99_s", "modeled_makespan_s",
           "stored_bytes_per_page_byte")


def _line(name: str, value: float, unit: str) -> str:
    return f"  {name:<34} {value:>16.6g} {unit}"


def run_benchmark(workload, seed: int, seconds: float, trace: bool,
                  spans_path: str) -> Dict[str, object]:
    """Measure, print the human-readable table, return the result.  A
    traced run writes its spans to ``spans_path``."""
    if trace:
        rounds, values = measure_traced(workload, seed, spans_path)
        print(f"spans written to {spans_path}")
        units = PER_LAYER_UNITS
    else:
        rounds, values = measure(workload, seed, seconds)
        units = END_TO_END_UNITS
    attempted = rounds.ops
    print(f"{workload.name}: seed {seed}, {rounds.rounds} rounds, "
          f"{attempted} operations ({workload.ops_per_round}/round)")
    print(f"  {'failed_share':<34} {rounds.failed / attempted:>16.6g} ratio")
    if trace:
        print("per-layer, one traced round (wall-clock unless unit is sim_s):")
    else:
        print(f"wall-clock end to end ({len(rounds.latencies_ns)} "
              f"latency samples):")
    for name, unit in units.items():
        print(_line(name, values[name], unit))
    if not trace:
        print("modeled (virtual time / storage model; mean over rounds, "
              "deterministic for a seed):")
        for name in MODELED:
            if name in rounds.state:
                print(_line(name, rounds.state[name] / rounds.rounds,
                            PER_LAYER_UNITS[name]))
    return {
        "correct": rounds.failed == 0,
        "attempted": attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
