"""End-to-end benchmark of the Correctables simulator.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) as a series of fresh, single-threaded
child processes (``child.py``), one after another, until ``S`` seconds have
passed, and reports medians over them.  Every child runs the same workload
at the same seed, so every child's model outputs must be identical.  The
end-to-end times are scaled to a reference host speed (see ``child.py``).

``--trace 0`` times untraced children and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced children and prints the
per-layer metrics: exact counts from the untraced children, and per-layer
self time and call counts from the traced ones, whose sampled spans are
written as Chrome trace JSON under ``e2ebench/out/``.  ``--workload all``
runs every workload both ways and ends with a table of all their metrics.

For one workload, the last line of standard output is one JSON object
with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passes, 1 when one fails, and 2 when the simulator
sources cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

WORKLOAD_NAMES = ("ycsb-a-closed", "crash-b-closed", "ads-speculate-open",
                  "tickets-zk-sellout")

COUNT_METRICS = ("sim.scheduler.events_per_op", "sim.network.bytes_per_op",
                 "sim.network.messages_per_op", "sim.network.pool_reuse_ratio",
                 "workloads.lean_accept_ratio", "cassandra_sim.retries_per_op",
                 "cassandra_sim.storage.reads_per_op",
                 "core.invocations_per_op", "apps.speculation_hit_ratio",
                 "zookeeper_sim.preliminary_ratio")

SETUP_PHASES = ("import", "dataset", "build", "preload")

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


# -- children ------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    """The child's environment: one thread, and this checkout's sources."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(workload: str, seed: int,
              trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run one fresh child process; returns its JSON record."""
    command = [sys.executable, CHILD, "--workload", workload,
               "--seed", str(seed)]
    if trace_out is not None:
        command += ["--trace-out", trace_out]
    proc = subprocess.run(command, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# -- output checks ---------------------------------------------------------------

def check_runs(workload: str, runs: List[Dict[str, Any]]) -> List[str]:
    """Every output check over one invocation's children; returns failures."""
    problems: List[str] = []
    reference = runs[0]["model"]
    for index, run in enumerate(runs):
        label = f"run {index} ({'traced' if run['traced'] else 'untraced'})"
        if run["model"] != reference:
            diff = {key: (reference.get(key), run["model"].get(key))
                    for key in sorted(set(reference) | set(run["model"]))
                    if reference.get(key) != run["model"].get(key)}
            problems.append(f"{label}: model outputs differ from run 0: {diff}")
        ended = run["completed"] + run["failed"] + run["shed"]
        if run["issued"] != ended:
            problems.append(f"{label}: issued {run['issued']} != completed "
                            f"{run['completed']} + failed {run['failed']} + "
                            f"shed {run['shed']}")
        problems += [f"{label}: {p}" for p in mechanism_problems(workload, run)]
    return problems


def mechanism_problems(workload: str, run: Dict[str, Any]) -> List[str]:
    """Whether the mechanism the workload exists to exercise was engaged."""
    counts = run["counts"]
    inv = run["invariants"]
    problems = []
    if workload == "ycsb-a-closed" and counts["workloads.lean_accept_ratio"] != 1.0:
        problems.append(f"lean path accepted {inv['lean_accepted']} of "
                        f"{inv['lean_offered']} ops, expected all")
    if workload == "crash-b-closed" and counts["workloads.lean_accept_ratio"] != 0.0:
        problems.append(f"lean path accepted {inv['lean_accepted']} of "
                        f"{inv['lean_offered']} ops, expected none")
    if workload == "ads-speculate-open" \
            and inv["columnar_replicas"] != inv["replicas"]:
        problems.append(f"only {inv['columnar_replicas']} of "
                        f"{inv['replicas']} replicas use ColumnarTable")
    if workload == "tickets-zk-sellout":
        if inv["sold"] > inv["stock"]:
            problems.append(f"oversold: {inv['sold']} tickets sold from a "
                            f"stock of {inv['stock']}")
        if inv["distinct_sold"] != inv["sold"]:
            problems.append(f"{inv['sold'] - inv['distinct_sold']} tickets "
                            f"sold twice")
        if inv["sold"] != inv["stock"]:
            problems.append(f"sold {inv['sold']} of {inv['stock']} tickets")
        if inv["sold_out_responses"] != inv["retailers"]:
            problems.append(f"{inv['sold_out_responses']} sold-out responses "
                            f"for {inv['retailers']} retailers")
    return problems


# -- metrics ---------------------------------------------------------------------

def end_to_end_metrics(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Medians over the children; times are host-scaled (see child.py)."""
    return {
        "ops_per_s": {"value": statistics.median(
            r["model"]["model.ops"] / r["host_run_s"] for r in runs),
            "unit": "1/s"},
        "setup_s": {"value": statistics.median(r["host_setup_s"] for r in runs),
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(
            r["peak_rss_mb"] for r in runs), "unit": "MB"},
    }


def failed_op_ratio(runs: List[Dict[str, Any]]) -> float:
    attempted = sum(r["issued"] for r in runs)
    return sum(lost_ops(r) for r in runs) / attempted


def lost_ops(run: Dict[str, Any]) -> int:
    """Ops that failed, were shed, or never completed."""
    return run["issued"] - run["completed"]


def per_layer_metrics(untraced: List[Dict[str, Any]],
                      traced: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    metrics: Dict[str, Dict[str, Any]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = {"value": statistics.median(
            r["layers"][layer]["self_s"] for r in traced), "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": statistics.median(
            r["layers"][layer]["calls"] for r in traced), "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": statistics.median(
        traced_wall(r) for r in traced) / statistics.median(
        traced_wall(r) for r in untraced), "unit": "ratio"}
    metrics["wall.ops_per_s"] = {"value": statistics.median(
        r["model"]["model.ops"] / r["run_s"] for r in untraced), "unit": "1/s"}
    metrics["wall.setup_s"] = {"value": statistics.median(
        r["setup_s"] for r in untraced), "unit": "s"}
    metrics["host.calibration_s"] = {"value": statistics.median(
        c for r in untraced for c in r["calibration_s"]), "unit": "s"}
    for name in COUNT_METRICS:
        metrics[name] = {"value": statistics.median(
            r["counts"][name] for r in untraced), "unit": "ratio"}
    for phase in SETUP_PHASES:
        metrics[f"setup.{phase}_s"] = {"value": statistics.median(
            r["phases_s"].get(phase, 0.0) for r in untraced), "unit": "s"}
    metrics["failed_op_ratio"] = {"value": failed_op_ratio(untraced),
                                  "unit": "ratio"}
    return metrics


def traced_wall(run: Dict[str, Any]) -> float:
    """Host-scaled time of the part of a child that tracing covers:
    everything after the imports (dataset, build, preload, run)."""
    after_imports = run["setup_s"] - run["phases_s"]["import"]
    return (after_imports * run["host_setup_s"] / run["setup_s"]
            + run["host_run_s"])


# -- reporting -------------------------------------------------------------------

def provenance(workload: str, seed: int, trace: bool,
               runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "host": platform.node(), "nproc": cpus,
        "python": platform.python_version(),
        "commit": commit(),
        "children": len(runs),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **runs[0]["provenance"],
    }


def commit() -> str:
    """The checkout's git commit, or "unknown" when it is not a repository
    of its own (git must not search the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def format_table(rows: List[List[str]], header: List[str]) -> str:
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    lines = ["  ".join(str(cell).ljust(width)
                       for cell, width in zip(row, widths))
             for row in [header] + rows]
    return "\n".join(lines)


def print_report(metrics: Dict[str, Dict[str, Any]],
                 runs: List[Dict[str, Any]],
                 traced: List[Dict[str, Any]]) -> None:
    print(format_table([[name, f"{m['value']:.6g}", m["unit"]]
                        for name, m in metrics.items()],
                       ["metric", "value", "unit"]))
    print()
    print(format_table([[key, repr(value)]
                        for key, value in runs[0]["model"].items()],
                       ["model output (printed, never gated)", "value"]))
    if traced:
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        rows = [[layer, f"{metrics[f'{layer}.self_s']['value']:.4f}",
                 f"{100.0 * metrics[f'{layer}.self_s']['value'] / total:.1f}%"
                 if total else "-",
                 f"{metrics[f'{layer}.calls']['value']:.0f}"]
                for layer in LAYERS]
        print()
        print(format_table(rows, ["layer", "self (s)", "share", "calls"]))
        print(f"trace.overhead_ratio = "
              f"{metrics['trace.overhead_ratio']['value']:.3f} "
              f"(traced wall / untraced wall)")


# -- main ------------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Correctables simulator.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them untraced and "
                             "traced followed by a summary table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> Optional[Dict[str, Any]]:
    """One invocation: run children for ``seconds``, check and report.

    Prints the report and, last, the result line; returns the result, or
    None when a child process failed.
    """
    tag = f"{workload}-seed{seed}-trace{trace}"
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = time.perf_counter()
    try:
        while not untraced or time.perf_counter() - started < seconds:
            untraced.append(run_child(workload, seed))
            if trace:
                trace_path = os.path.join(
                    OUT, f"{tag}-run{len(traced)}.trace.json")
                traced.append(run_child(workload, seed, trace_path))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    runs = untraced + traced
    problems = check_runs(workload, runs)
    if trace:
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced)
    record = provenance(workload, seed, bool(trace), runs)
    print(json.dumps({"provenance": record}))
    print_report(metrics, untraced, traced)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(r["issued"] for r in untraced),
        "failed": sum(lost_ops(r) for r in untraced),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as out:
        json.dump({"provenance": record, "result": result, "runs": runs},
                  out, indent=1)
    print(json.dumps(result))
    return result


def print_summary(results: Dict[tuple, Optional[Dict[str, Any]]]) -> None:
    """Every workload's end-to-end and per-layer metrics side by side."""
    merged: Dict[str, Dict[str, Any]] = {name: {} for name in WORKLOAD_NAMES}
    for (workload, _), result in sorted(results.items(),
                                        key=lambda item: item[0][1]):
        if result is not None:
            merged[workload].update(result["metrics"])
    names = dict.fromkeys(name for metrics in merged.values()
                          for name in metrics)
    rows = [[name] + [f"{m['value']:.6g} {m['unit']}"
                      if (m := merged[workload].get(name)) else "-"
                      for workload in WORKLOAD_NAMES]
            for name in names]
    print()
    print(format_table(rows, ["metric"] + list(WORKLOAD_NAMES)))
    for (workload, trace), result in results.items():
        if result is None or not result["correct"]:
            print(f"FAILED: {workload} --trace {trace}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        results = {(workload, trace): run_workload(workload, args.seed,
                                                   args.seconds, trace)
                   for workload in WORKLOAD_NAMES for trace in (0, 1)}
        print_summary(results)
    else:
        results = {(args.workload, args.trace): run_workload(
            args.workload, args.seed, args.seconds, args.trace)}
    ok = all(r is not None and r["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
