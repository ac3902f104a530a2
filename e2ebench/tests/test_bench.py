"""Tests for the benchmark's own code, at tiny scale.

Run with ``python3 -m pytest e2ebench/tests -q``.
"""

import copy
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import child
import run
import tracer
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

#: Small enough that every workload runs in well under a second.
SCALE = 0.02


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced tiny record per workload."""
    return {name: (child.measure(name, 3, scale=SCALE),
                   child.measure(name, 3, trace_out=os.devnull, scale=SCALE))
            for name in WORKLOADS}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run_main(monkeypatch, tmp_path, workload, trace):
    """``run.main`` with children measured in-process at tiny scale."""
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(
        run, "run_child",
        lambda name, seed, trace_out=None: child.measure(
            name, seed, trace_out, scale=SCALE))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "0", "--trace", str(trace)])
    return code, out.getvalue().strip().splitlines()


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in _benchmark_json()["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_printed_with_its_unit(monkeypatch, tmp_path, trace,
                                            section):
    code, lines = _run_main(monkeypatch, tmp_path, "tickets-zk-sellout",
                            trace)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    table = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in table.splitlines()), name
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_prints_every_metric_of_every_workload(monkeypatch, tmp_path):
    code, lines = _run_main(monkeypatch, tmp_path, "all", 0)
    # Ads at tiny scale stays below the columnar threshold, so its check
    # fails; everything else must pass.
    failed = [line for line in lines if line.startswith("FAILED:")]
    assert code == 1 and failed == ["FAILED: ads-speculate-open --trace 0",
                                    "FAILED: ads-speculate-open --trace 1"]
    header = next(i for i, line in enumerate(lines)
                  if line.split()[:1] == ["metric"]
                  and "tickets-zk-sellout" in line)
    rows = {line.split()[0]: line for line in lines[header + 1:]
            if line and not line.startswith("FAILED")}
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert list(rows) == names
    assert "-" not in rows["failed_op_ratio"].split()


def test_provenance_is_recorded(monkeypatch, tmp_path):
    _, lines = _run_main(monkeypatch, tmp_path, "ycsb-a-closed", 0)
    record = json.loads(lines[0])["provenance"]
    for key in ("host", "nproc", "python", "fastrand_backend", "numpy",
                "network.fast_path", "network.lean_ops", "scheduler.wheel",
                "scheduler.batch_dispatch", "columnar_storage", "seed",
                "commit"):
        assert key in record, key
    assert record["seed"] == 5


def test_traced_and_untraced_model_outputs_identical(records):
    for name, (untraced, traced) in records.items():
        assert set(untraced["model"]) == {
            "model.ops", "model.events", "model.final_p50_ms",
            "model.final_p99_ms", "model.prelim_p50_ms",
            "model.divergence_pct", "model.bytes"}, name
        assert untraced["model"] == traced["model"], name
        assert untraced["issued"] == traced["issued"], name
        assert traced["layers"] and not untraced.get("layers")


def test_clean_records_pass_the_checks(records):
    for name, (untraced, traced) in records.items():
        problems = run.check_runs(name, [untraced, traced])
        if name == "ads-speculate-open":
            # At tiny scale the preload stays below the columnar threshold.
            assert all("ColumnarTable" in p for p in problems), problems
        else:
            assert problems == [], problems


def _doctored(record, edit):
    doctored = copy.deepcopy(record)
    edit(doctored)
    return doctored


@pytest.mark.parametrize("workload,edit,expect", [
    ("ycsb-a-closed",
     lambda r: r["model"].__setitem__("model.events", r["model"]["model.events"] + 1),
     "model outputs differ"),
    ("crash-b-closed",
     lambda r: r["model"].__setitem__("model.final_p99_ms", 0.5),
     "model outputs differ"),
    ("ycsb-a-closed", lambda r: r.__setitem__("issued", r["issued"] + 1),
     "issued"),
    ("ycsb-a-closed",
     lambda r: r["counts"].__setitem__("workloads.lean_accept_ratio", 0.5),
     "lean path accepted"),
    ("crash-b-closed",
     lambda r: r["counts"].__setitem__("workloads.lean_accept_ratio", 0.1),
     "lean path accepted"),
    ("tickets-zk-sellout",
     lambda r: r["invariants"].__setitem__("sold", r["invariants"]["stock"] + 1),
     "oversold"),
    ("tickets-zk-sellout",
     lambda r: r["invariants"].__setitem__(
         "distinct_sold", r["invariants"]["sold"] - 1),
     "sold twice"),
])
def test_checks_trip_on_doctored_output(records, workload, edit, expect):
    untraced, _ = records[workload]
    problems = run.check_runs(workload, [untraced, _doctored(untraced, edit)])
    assert any(expect in p for p in problems), problems


def test_host_scaling():
    assert child.host_scaled(2.0, child.CALIBRATION_NOMINAL_S,
                             child.CALIBRATION_NOMINAL_S) == 2.0
    # A host running at half speed doubles both the wall time and the
    # calibration, so the scaled time is unchanged.
    assert child.host_scaled(4.0, 2 * child.CALIBRATION_NOMINAL_S,
                             2 * child.CALIBRATION_NOMINAL_S) == 2.0
    assert child.calibrate() > 0


def test_columnar_check_trips():
    record = {"counts": {}, "invariants": {"columnar_replicas": 2,
                                           "replicas": 3}}
    assert run.mechanism_problems("ads-speculate-open", record)
    record["invariants"]["columnar_replicas"] = 3
    assert not run.mechanism_problems("ads-speculate-open", record)


def test_checks_fail_the_run(monkeypatch, tmp_path):
    real = child.measure

    def _doctor(name, seed, trace_out=None):
        record = real(name, seed, trace_out, scale=SCALE)
        record["completed"] -= 1
        return record

    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "run_child", _doctor)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "tickets-zk-sellout", "--seed", "1",
                         "--seconds", "0", "--trace", "0"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == 1


def test_chrome_trace_export(tmp_path):
    path = str(tmp_path / "trace.json")
    record = child.measure("tickets-zk-sellout", 1, trace_out=path,
                           scale=SCALE)
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    events = trace["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert {e["cat"] for e in events} <= set(tracer.LAYERS)
    calls = sum(layer["calls"] for layer in record["layers"].values())
    assert trace["otherData"]["calls_total"] == calls
    sampled = [i for i in range(calls)
               if i % tracer.SAMPLE_PERIOD < tracer.SAMPLE_WINDOW]
    assert sorted(e["args"]["id"] for e in events) == sampled
    # A parent span always starts, and so is numbered, before its children.
    assert all(-1 <= e["args"]["parent"] < e["args"]["id"] for e in events)


def test_tracer_uninstall_restores_classes():
    from repro.sim.scheduler import Scheduler

    original = Scheduler.__dict__["run"]
    layer_tracer = tracer.Tracer()
    assert layer_tracer.install() > 0
    assert Scheduler.__dict__["run"] is not original
    layer_tracer.uninstall()
    assert Scheduler.__dict__["run"] is original


def test_dispatched_handlers_are_wrapped():
    """Every method the scheduler or network calls in another layer is an
    entry point the tracer wraps."""
    dispatchers = {os.path.join("repro", "sim", "scheduler.py"): "sim.scheduler",
                   os.path.join("repro", "sim", "network.py"): "sim.network"}
    classes = {cls.__qualname__: layer for layer, cls in tracer.layer_classes()}
    missed = set()

    def _profile(frame, event, arg):
        if event != "call" or frame.f_back is None:
            return
        caller = frame.f_back.f_code.co_filename
        source = next((layer for path, layer in dispatchers.items()
                       if caller.endswith(path)), None)
        qualname = frame.f_code.co_qualname
        owner, _, method = qualname.rpartition(".")
        if source is not None and classes.get(owner, source) != source \
                and not tracer.is_entry_point(method):
            missed.add(qualname)

    from workloads import Phases
    for build in WORKLOADS.values():
        stack = build(4, Phases(), SCALE)
        sys.setprofile(_profile)
        try:
            stack.run()
        finally:
            sys.setprofile(None)
    assert not missed, sorted(missed)


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "ycsb-a-closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
