"""One batch of one workload, in a fresh single-threaded interpreter.

Started by run.py as ``python3 perfbench/child.py --workload W --seed S
--batch B --trace 0|1`` from the checkout root.  Prints one JSON line: the
monotonic time at which set-up ended (run.py subtracts its spawn time, so
set-up includes interpreter start), the batch wall time, per-op latencies,
digests and failure reasons, peak RSS and, when traced, the layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

WORK_DIR = HERE / ".work"


class OpClock:
    """Per-op latency; an op may be bracketed several times and accumulates."""

    def __init__(self, tracer=None):
        self.latency = {}
        self._began = None
        self._tracer = tracer

    def begin(self, op):
        if self._tracer is not None:
            self._tracer.set_op(op)
        self._began = time.perf_counter()

    def end(self, op):
        self.latency[op] = self.latency.get(op, 0.0) + time.perf_counter() - self._began
        if self._tracer is not None:
            self._tracer.set_op(-1)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    import modunits  # noqa: F401  (set-up: import and seeded input generation)

    inputs = workload.setup(args.seed, args.batch, WORK_DIR)
    setup_end = time.monotonic()

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    clock = OpClock(tracer)
    t0 = time.perf_counter()
    outputs = workload.run(inputs, clock)
    wall = time.perf_counter() - t0

    result = {"setup_end": setup_end, "wall_s": wall}
    if tracer is not None:
        from tracer import layer_metrics, span_cost

        result["unrestored"] = tracer.restore()
        result["layers"] = layer_metrics(tracer)
        result["span_cost_s"] = span_cost()
    checked = workload.check(inputs, outputs)
    result["ops"] = [
        [op, clock.latency.get(op), digest, reason] for op, (digest, reason) in checked.items()
    ]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
