"""Wall-clock benchmark of AIDE: one command, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_read --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper
installed; ``--trace 1`` measures the per-layer metrics and writes the
traced round's spans to ``.perfbench_work/spans-<workload>.jsonl``
(see ``perfbench/README.md``).  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported
from ``src/`` next to this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: String hashing is randomized per process by default, which moves
#: dict and set layouts -- and the program's timings -- from one run to
#: the next.  Runs use one fixed hash seed so they measure alike.
HASH_SEED = "0"


def main(argv=None) -> int:
    from aidebench.workloads import NAMES, make

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    source = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: the program's source is missing ({source}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)

    from aidebench.report import run_benchmark

    work_dir = os.path.join(root, ".perfbench_work")
    os.makedirs(work_dir, exist_ok=True)
    spans_path = os.path.join(work_dir, f"spans-{args.workload}.jsonl")
    result = run_benchmark(make(args.workload, work_dir), args.seed,
                           args.seconds, bool(args.trace), spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
