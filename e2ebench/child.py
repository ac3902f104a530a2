"""One benchmark run in a fresh process: set up, run, report one JSON line.

    python3 e2ebench/child.py --workload NAME --seed N [--trace-out PATH]

The parent (``run.py``) starts one of these per run, so pooled objects,
class-level slabs and the message pool start cold, as they do for a user,
and the peak resident memory belongs to this run alone.  ``setup_s`` runs
from this process's first ``repro`` import to the first issued operation.
With ``--trace-out`` the layer entry points are wrapped before the stack is
built, and the sampled spans are written to PATH as Chrome trace JSON.

The host this runs on is shared, and its speed drifts by a third over
minutes.  So the child also times a fixed calibration workload, which uses
no simulator code, before set-up, between set-up and run, and after the
run.  Each phase's wall time is also reported scaled to the host speed of
:data:`CALIBRATION_NOMINAL_S`: ``wall * nominal / calibration``, where
calibration is the mean of the two timings around the phase.
"""

import argparse
import heapq
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: The unit of host-scaled time: about one calibration round on a 2-core
#: x86 container running CPython 3.11.  Any constant keeps scaled times
#: comparable between runs.
CALIBRATION_NOMINAL_S = 0.012
CALIBRATION_ROUNDS = 9


class _CalibrationNode:
    __slots__ = ("inbox", "count")

    def __init__(self) -> None:
        self.inbox: Dict[str, tuple] = {}
        self.count = 0

    def handle(self, key: str, value: tuple) -> int:
        self.count += 1
        self.inbox[key] = value
        return len(self.inbox)


def _calibration_round(events: int = 5_000, nodes: int = 1024) -> int:
    """A fixed event loop shaped like the simulator's: heap pops, method
    calls on slotted objects scattered over a few hundred kB, dict stores
    and small allocations."""
    members = [_CalibrationNode() for _ in range(nodes)]
    heap = [(i * 0.5, i, i % nodes) for i in range(256)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(events):
        at, index, node = heapq.heappop(heap)
        size = members[node].handle(f"k{index % 8192}", (at, index))
        seq += 1
        heapq.heappush(heap, (at + 1.0 + (size % 7) * 0.25, seq,
                              (node * 613 + seq) % nodes))
    return seq


def calibrate() -> float:
    """Median seconds of a few calibration rounds: the host's speed now."""
    times = []
    for _ in range(CALIBRATION_ROUNDS):
        start = time.perf_counter()
        _calibration_round()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at the reference host speed, from the calibrations
    taken just before and just after it."""
    return wall_s * CALIBRATION_NOMINAL_S / ((before_s + after_s) / 2.0)


def measure(workload: str, seed: int, trace_out: Optional[str] = None,
            scale: float = 1.0) -> Dict[str, Any]:
    """Set up and run one workload in this process; returns its record."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    calibration = [calibrate()]
    import_start = time.perf_counter()
    tracer = None
    if trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS, Phases
    import repro
    from repro.cassandra_sim.config import CassandraConfig
    from repro.workloads import fastrand

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"repro imported from {repro.__file__}, not {SRC}")
    phases = Phases()
    phases.seconds["import"] = time.perf_counter() - import_start
    try:
        stack = WORKLOADS[workload](seed, phases, scale)
        setup_end = time.perf_counter()
        calibration.append(calibrate())
        run_start = time.perf_counter()
        outcome = stack.run()
        run_end = time.perf_counter()
        calibration.append(calibrate())
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.write_chrome_trace(trace_out)

    env = stack.env
    record = {
        "workload": workload,
        "seed": seed,
        "traced": tracer is not None,
        "setup_s": setup_end - import_start,
        "phases_s": phases.seconds,
        "run_s": run_end - run_start,
        "calibration_s": calibration,
        "host_setup_s": host_scaled(setup_end - import_start, *calibration[:2]),
        "host_run_s": host_scaled(run_end - run_start, *calibration[1:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "issued": outcome.issued,
        "completed": outcome.completed,
        "failed": outcome.failed,
        "shed": outcome.shed,
        "model": outcome.model,
        "counts": outcome.counts,
        "invariants": outcome.invariants,
        "provenance": {
            "fastrand_backend": fastrand.BACKEND,
            "numpy": fastrand.HAVE_NUMPY,
            "network.fast_path": env.network.fast_path,
            "network.lean_ops": env.network.lean_ops,
            "scheduler.wheel": env.scheduler.wheel,
            "scheduler.batch_dispatch": env.scheduler.batch_dispatch,
            "columnar_storage": CassandraConfig().columnar_storage,
        },
    }
    if tracer is not None:
        record["layers"] = {layer: {"self_s": self_s, "calls": calls}
                            for layer, (self_s, calls) in tracer.totals.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.trace_out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
