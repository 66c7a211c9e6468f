"""AIDE wall-clock benchmark: workloads, harness and outside-in tracer."""
