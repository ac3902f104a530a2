"""Determinism regression tests guarding the simulator fast path.

The golden fingerprints in ``data/determinism_golden.json`` were recorded on
the pre-optimization simulator core: they hash the exact event execution
order of a closed-loop run and the rendered figure reports for fixed seeds.
Any rewrite of the scheduler/network/metrics hot path must keep every hash
bit-identical — same events in the same order, same figure numbers.

Regenerate only when *intentionally* changing simulation behaviour::

    PYTHONPATH=src python tests/bench/test_determinism.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterable

import pytest

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "determinism_golden.json"


def _sha(parts: Iterable) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def trace_fingerprint(fast_path: bool = True, lean_ops: bool = True,
                      lean_toggles: Iterable[float] = (),
                      lean_toggle_noop: bool = False) -> Dict[str, object]:
    """Event-trace + metrics fingerprint of a small closed-loop CC2 run.

    ``fast_path=False`` disables the fused protocol path so every hop is a
    real :class:`Message`; ``lean_ops=False`` disables the lean op pipeline
    so every completion rides the response-dict pipeline.  The fingerprint
    must be identical in every combination — both are amortizations, never
    reorderings.  ``lean_toggles`` schedules mid-run
    flips of the ``protocol.lean_ops`` switch at the given sim times, so
    operations in flight across a flip complete on the pipeline they were
    issued on while later ones take the other; ``lean_toggle_noop=True``
    schedules no-op events at the same instants instead (same event
    count/order), giving the toggle run an exactly comparable twin.
    """
    from repro.bench.common import (
        build_cassandra_scenario, cassandra_config_for, run_multi_region_load)
    from repro.sim.topology import Region
    from repro.workloads.ycsb import workload_by_name

    scenario = build_cassandra_scenario(
        seed=11, record_count=60,
        client_regions=(Region.IRL, Region.FRK),
        config=cassandra_config_for("CC2"))
    scenario.env.network.fast_path = fast_path
    scenario.env.network.lean_ops = lean_ops

    def _flip() -> None:
        scenario.env.network.lean_ops = not scenario.env.network.lean_ops

    def _noop() -> None:
        pass

    for at_ms in lean_toggles:
        scenario.env.scheduler.schedule_call_at(
            at_ms, _noop if lean_toggle_noop else _flip)
    trace = scenario.env.scheduler.start_trace()
    results = run_multi_region_load(
        scenario, "CC2", workload_by_name("A"), threads_per_client=2,
        duration_ms=2_500.0, warmup_ms=500.0, cooldown_ms=250.0, seed=11)
    summaries = [results[region].summary() for region in sorted(results)]
    return {
        "events": scenario.env.scheduler.events_executed,
        "messages": scenario.env.network.messages_sent,
        "total_bytes": scenario.env.network.total_bytes(),
        "trace_sha256": _sha(trace),
        "summary_sha256": _sha(summaries),
    }


def figure_fingerprints(jobs: int = 1) -> Dict[str, str]:
    """Hashes of the rendered quick-scale figure reports (fixed seeds).

    ``jobs`` routes the regeneration through the parallel sweep executor;
    the hashes must be identical at any job count (the sweep engine merges
    worker records in grid order).
    """
    from repro.bench.cli import run_figure

    return {name: _sha([run_figure(name, quick=True, jobs=jobs)])
            for name in ("fig06", "fig09", "fig10", "fig12", "fig14",
                         "fig15", "fig16")}


def _golden() -> Dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file missing: {GOLDEN_PATH}; regenerate with "
                    f"'python {__file__} --regenerate'")
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestDeterminism:
    def test_event_trace_matches_golden(self):
        assert trace_fingerprint() == _golden()["trace"]

    def test_event_trace_matches_golden_with_fast_path_off(self):
        """The classic message path reproduces the fused trace bit for bit."""
        assert trace_fingerprint(fast_path=False) == _golden()["trace"]

    def test_event_trace_matches_golden_all_switches_off(self):
        assert trace_fingerprint(fast_path=False, lean_ops=False) == \
            _golden()["trace"]

    def test_event_trace_matches_golden_with_lean_ops_off(self):
        """The response-dict pipeline reproduces the lean-op trace."""
        assert trace_fingerprint(lean_ops=False) == _golden()["trace"]

    def test_event_trace_identical_with_lean_ops_toggled_mid_run(self):
        """Mid-run ``protocol.lean_ops`` flips change nothing observable.

        The switch flips twice inside the measurement window (lean → dict
        → lean), so operations in flight at each flip complete on the
        pipeline they were issued on; the twin run schedules no-op events
        at the same instants, making the fingerprints exactly comparable.
        """
        toggles = (900.0, 1_700.0)
        assert trace_fingerprint(lean_toggles=toggles) == \
            trace_fingerprint(lean_toggles=toggles, lean_toggle_noop=True)

    def test_event_trace_is_repeatable(self):
        assert trace_fingerprint() == trace_fingerprint()

    def _run_pool_scenario(self, fast_path: bool):
        from repro.bench.common import (
            build_cassandra_scenario, cassandra_config_for,
            run_multi_region_load)
        from repro.sim.topology import Region
        from repro.workloads.ycsb import workload_by_name

        scenario = build_cassandra_scenario(
            seed=11, record_count=60, client_regions=(Region.IRL,),
            config=cassandra_config_for("CC2"))
        network = scenario.env.network
        network.pool_debug = True
        network.fast_path = fast_path
        run_multi_region_load(
            scenario, "CC2", workload_by_name("A"), threads_per_client=2,
            duration_ms=2_000.0, warmup_ms=250.0, cooldown_ms=250.0, seed=11)
        return scenario

    def test_pools_recycle_without_leaking(self):
        """Every pooled object acquired during a run goes back to its pool.

        Runs the classic message path (the fused path sends no messages)
        with the network pool's debug assertions armed (they fire on
        recycling a still-referenced message or double-recycling), then
        checks the counters: shells are actually reused, the free list only
        ever holds created shells, and no ICG per-op record stays
        outstanding once the run drains.
        """
        from repro.bench.common import _IcgReadOp

        icg_before = _IcgReadOp.pool_stats()
        outstanding_before = icg_before["created"] - icg_before["free"]
        scenario = self._run_pool_scenario(fast_path=False)
        stats = scenario.env.network.pool_stats()
        assert stats["reused"] > 0, "message pool never recycled a shell"
        assert stats["free"] <= stats["created"]
        assert stats["recycled"] >= stats["reused"]
        icg_after = _IcgReadOp.pool_stats()
        assert icg_after["created"] - icg_after["free"] == \
            outstanding_before, "an ICG per-op record leaked"

    def test_fused_pools_recycle_without_leaking(self):
        """A fused fault-free run sends zero messages and leaks no records.

        Every FusedRead/FusedWrite acquired during the run must be back in
        its pool once the run drains (outstanding = created + reused -
        recycled stays put), and the message pool must stay untouched —
        proof the whole protocol ran fused.
        """
        from repro.cassandra_sim.coordinator import FusedRead, FusedWrite

        def outstanding(pool) -> int:
            stats = pool.pool_stats()
            return stats["created"] + stats["reused"] - stats["recycled"]

        reads_before = outstanding(FusedRead)
        writes_before = outstanding(FusedWrite)
        acquired_before = FusedRead.created + FusedRead.reused
        scenario = self._run_pool_scenario(fast_path=True)
        stats = scenario.env.network.pool_stats()
        assert stats["created"] == 0, "a fused run materialized a Message"
        assert scenario.env.network.messages_sent > 0
        assert FusedRead.created + FusedRead.reused > acquired_before, \
            "the fused read path never ran"
        assert outstanding(FusedRead) == reads_before, \
            "a FusedRead record leaked"
        assert outstanding(FusedWrite) == writes_before, \
            "a FusedWrite record leaked"

    def test_live_counter_matches_scan_under_fused_load(self):
        """The O(1) live counter equals the O(n) queue scan throughout a run.

        Drives the fused closed-loop CC2 load (fast path on, the shipping
        default) in slices, auditing
        ``pending(live_only=True) == _scan_live()`` at every slice boundary
        — while timeouts are being scheduled and cancelled — and again
        after the full drain, where both must reach zero.
        """
        from repro.bench.common import (
            build_cassandra_scenario, cassandra_config_for,
            make_generator_factory, make_kv_issue)
        from repro.sim.topology import Region
        from repro.workloads.runner import ClosedLoopRunner
        from repro.workloads.ycsb import workload_by_name

        scenario = build_cassandra_scenario(
            seed=11, record_count=60,
            client_regions=(Region.IRL, Region.FRK),
            config=cassandra_config_for("CC2"))
        scheduler = scenario.env.scheduler
        assert scenario.env.network.fast_path
        spec = workload_by_name("A")
        runners = [
            ClosedLoopRunner(
                scheduler=scheduler,
                issue=make_kv_issue(client, "CC2"),
                make_generator=make_generator_factory(
                    spec, scenario.dataset, 11, f"CC2-{region}"),
                threads=2, duration_ms=2_500.0, warmup_ms=500.0,
                cooldown_ms=250.0, label=f"audit-{region}")
            for region, client in scenario.clients.items()]
        for runner in runners:
            runner.start()
        end = max(runner.end_time for runner in runners)
        for slice_index in range(1, 9):
            scenario.env.run(until=end * slice_index / 8.0)
            assert scheduler.pending(live_only=True) == \
                scheduler._scan_live()
        scenario.env.run_until_idle()
        assert scheduler.pending(live_only=True) == 0
        assert scheduler._scan_live() == 0

    @staticmethod
    def _forced_switches(fast_path: bool = True, lean_ops: bool = True):
        """Context: every Network built inside starts with the given
        kill-switch settings.  The figure harnesses build their
        environments internally, so the switches are applied at
        construction — before any event is scheduled."""
        import contextlib

        from repro.sim.network import Network

        @contextlib.contextmanager
        def forced():
            network_init = Network.__init__

            def patched_network(self, *args, **kwargs):
                network_init(self, *args, **kwargs)
                self.fast_path = fast_path
                self.lean_ops = lean_ops

            Network.__init__ = patched_network
            try:
                yield
            finally:
                Network.__init__ = network_init

        return forced()

    def test_fig13_slice_identical_with_switches_off(self):
        """A fault-injection slice is bit-identical without the fast path.

        The golden figure hashes only cover fig06/09/10/12/14/15/16; this pins
        the fault family (replica crash + recovery, client failover,
        timeout cancellation storms) to the same record under the unfused
        message path.
        """
        from repro.bench.fig13_faults import run_fig13_scenario

        kwargs = dict(workload="B", threads_per_client=2,
                      duration_ms=6_000.0, warmup_ms=1_500.0,
                      cooldown_ms=500.0, record_count=150)
        reference = run_fig13_scenario("replica-crash", **kwargs)
        with self._forced_switches(fast_path=False):
            assert run_fig13_scenario("replica-crash", **kwargs) == reference

    def test_fig13_fault_slice_identical_with_lean_ops_forced(self):
        """The fault family is invariant to the ``protocol.lean_ops`` switch.

        Fault configurations arm timeouts and fallback contacts, which the
        lean gate rejects per operation — so even with the switch forced on
        every operation falls back to the classic pipeline mid-flight, and
        the record matches the switch-off run bit for bit.
        """
        from repro.bench.fig13_faults import run_fig13_scenario

        kwargs = dict(workload="B", threads_per_client=2,
                      duration_ms=6_000.0, warmup_ms=1_500.0,
                      cooldown_ms=500.0, record_count=150)
        with self._forced_switches(lean_ops=True):
            reference = run_fig13_scenario("replica-crash", **kwargs)
        with self._forced_switches(lean_ops=False):
            assert run_fig13_scenario("replica-crash", **kwargs) == reference

    def test_fig14_open_loop_slice_identical_with_lean_ops_off(self):
        """An open-loop fig14 cell is bit-identical without lean ops.

        This covers the lean *open-loop* pipeline end to end — pooled
        runner op records as completion sinks, the session-rotation lean
        issue path, and the fused storage protocol underneath — against the
        classic Correctable/dict pipeline.
        """
        from repro.bench.fig14_open_loop import run_fig14_point
        from repro.bench.sweep import SweepPoint

        kwargs = dict(binding="cassandra", mode="open", policy="queue",
                      rate_ops_s=400.0, arrivals="poisson", sessions=60,
                      max_in_flight=16, queue_limit=64,
                      duration_ms=6_000.0, warmup_ms=1_000.0,
                      cooldown_ms=500.0, record_count=120, workload="A",
                      distribution="latest", seed=42)
        point = SweepPoint(index=0, family="fig14", kwargs=kwargs)
        reference = run_fig14_point(point)
        with self._forced_switches(lean_ops=False):
            assert run_fig14_point(point) == reference

    def test_open_loop_lean_pools_recycle_without_leaking(self):
        """Lean open-loop load leaks neither runner op records nor fused
        protocol records: everything acquired during the run is back on its
        free list once the run drains."""
        from repro.bench.fig14_open_loop import run_fig14_point
        from repro.bench.sweep import SweepPoint
        from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
        from repro.workloads.runner import _OpenOp

        def outstanding(stats):
            # FusedRead/FusedWrite count pool pops in ``reused``; the
            # unbounded _OpenOp pool counts only fresh constructions, so
            # its outstanding records are created - free.
            if "reused" in stats:
                return stats["created"] + stats["reused"] - stats["recycled"]
            return stats["created"] - stats["free"]

        ops_before = outstanding(_OpenOp.pool_stats())
        reads_before = outstanding(FusedRead.pool_stats())
        writes_before = outstanding(FusedWrite.pool_stats())
        created_before = _OpenOp.pool_stats()["created"]
        recycled_before = _OpenOp.pool_stats()["recycled"]
        run_fig14_point(SweepPoint(
            index=0, family="fig14",
            kwargs=dict(binding="cassandra", mode="open", policy="queue",
                        rate_ops_s=300.0, arrivals="poisson", sessions=40,
                        max_in_flight=16, queue_limit=64,
                        duration_ms=4_000.0, warmup_ms=500.0,
                        cooldown_ms=500.0, record_count=120, workload="A",
                        distribution="latest", seed=42)))
        stats = _OpenOp.pool_stats()
        assert stats["recycled"] > recycled_before, \
            "the pooled open-loop op records never cycled"
        assert stats["recycled"] - recycled_before > \
            stats["created"] - created_before, "op records were never reused"
        assert outstanding(stats) == ops_before, \
            "an open-loop op record leaked"
        assert outstanding(FusedRead.pool_stats()) == reads_before, \
            "a FusedRead record leaked"
        assert outstanding(FusedWrite.pool_stats()) == writes_before, \
            "a FusedWrite record leaked"

    def test_fig16_cell_identical_with_switches_off(self):
        """A 2PC coordinator-failover cell is invariant to the fast paths.

        Transactions exercise the one code path the closed-loop figures do
        not: long decision timeouts, cancelled en masse at failover.  Record and executed-event count
        must both match with every switch off.
        """
        from repro.bench.fig16_txn import run_fig16_cell

        kwargs = dict(scenario="coordinator-crash-mid-commit",
                      keys_per_txn=2, nodes=3, coordinators=2,
                      rate_txn_s=25.0, duration_ms=6_000.0,
                      fault_at_ms=2_500.0, fault_duration_ms=2_500.0,
                      decision_log_ms=2.0, record_count=120, seed=42)
        reference, reference_env = run_fig16_cell(**kwargs)
        with self._forced_switches(fast_path=False, lean_ops=False):
            record, env = run_fig16_cell(**kwargs)
        assert record == reference
        assert env.scheduler.events_executed == \
            reference_env.scheduler.events_executed

    @pytest.mark.slow
    def test_quick_figures_match_golden(self):
        assert figure_fingerprints() == _golden()["figures"]

    @pytest.mark.slow
    def test_quick_figures_match_golden_with_parallel_sweep(self):
        """--jobs 2 must reproduce the committed serial golden hashes."""
        assert figure_fingerprints(jobs=2) == _golden()["figures"]


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        raise SystemExit(f"usage: python {sys.argv[0]} --regenerate")
    golden = {"trace": trace_fingerprint(), "figures": figure_fingerprints()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    print(json.dumps(golden, indent=2))
