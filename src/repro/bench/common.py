"""Shared scenario construction for the benchmark harnesses.

A *scenario* bundles a simulation environment, a preloaded cluster, and the
client nodes the experiment drives.  The system labels follow the paper's
notation: ``C1``/``C2``/``C3`` are baseline Cassandra with read quorum 1/2/3,
``CC2``/``CC3`` are Correctable Cassandra issuing ICG reads whose final view
uses quorum 2/3, and ``*CC2`` is CC2 with the confirmation optimization.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.cassandra_sim.client import CassandraClient
from repro.cassandra_sim.config import CassandraConfig
from repro.core.cluster_spec import REMOTE_CONTACTS, BuiltCluster, ClusterSpec
from repro.sim.topology import Region, replica_regions_default
from repro.workloads.records import Dataset
from repro.workloads.runner import ClosedLoopRunner, RunResult
from repro.workloads.ycsb import OperationGenerator, WorkloadSpec
from repro.sim.rand import derive_rng

#: System label -> (read quorum of the final view, uses ICG).
CASSANDRA_SYSTEMS: Dict[str, Dict[str, Any]] = {
    "C1": {"r": 1, "icg": False},
    "C2": {"r": 2, "icg": False},
    "C3": {"r": 3, "icg": False},
    "CC2": {"r": 2, "icg": True},
    "CC3": {"r": 3, "icg": True},
    "*CC2": {"r": 2, "icg": True, "confirmation_optimization": True},
}

#: Historical name for the built deployment; construction now lives in
#: :class:`repro.core.cluster_spec.ClusterSpec` (as does
#: :data:`REMOTE_CONTACTS`, re-exported above unchanged).
CassandraScenario = BuiltCluster


def build_cassandra_scenario(seed: int = 0,
                             record_count: int = 1000,
                             value_size_bytes: int = 100,
                             key_prefix: str = "user",
                             client_regions: Sequence[str] = (Region.IRL,),
                             contacts: Optional[Dict[str, str]] = None,
                             config: Optional[CassandraConfig] = None,
                             replica_regions: Optional[Sequence[str]] = None,
                             preload: bool = True,
                             client_fallbacks: bool = False) -> CassandraScenario:
    """Build a 3-replica cluster (FRK/IRL/VRG by default) with clients and data.

    Deprecated shim over :class:`repro.core.cluster_spec.ClusterSpec` — new
    code should build a spec directly (it also exposes node count, RF, and
    vnodes).  Kept because its construction sequence produced the committed
    figure tables; a default spec reproduces it byte for byte.

    ``client_fallbacks=True`` gives every client the remaining replicas as
    backup coordinators (used by the fault experiments together with
    ``CassandraConfig.fault_tolerant()``).
    """
    regions = tuple(replica_regions if replica_regions is not None
                    else replica_regions_default())
    spec = ClusterSpec(nodes=len(regions), regions=regions,
                       config=config, seed=seed,
                       record_count=record_count,
                       value_size_bytes=value_size_bytes,
                       key_prefix=key_prefix,
                       client_regions=tuple(client_regions),
                       contacts=contacts, preload=preload,
                       client_fallbacks=client_fallbacks)
    return spec.build()


class _IcgReadOp:
    """Pooled per-operation state for one in-flight ICG read.

    Replaces the per-op state dict plus two closures the ICG issue path used
    to allocate: the callbacks are bound methods created once, and finished
    instances go back on a free list, so steady-state ICG load allocates no
    per-op objects.  ``pool_stats`` feeds the pool leak tests.
    """

    __slots__ = ("done", "prelim_value", "prelim_latency", "had_prelim",
                 "on_preliminary", "on_final")

    _pool: list = []
    _created = 0
    _recycled = 0

    def __init__(self) -> None:
        self.done: Optional[Callable] = None
        self.prelim_value: Any = None
        self.prelim_latency: Optional[float] = None
        self.had_prelim = False
        self.on_preliminary = self._on_preliminary  # bound once, reused
        self.on_final = self._on_final

    @classmethod
    def acquire(cls, done: Callable[[Dict[str, Any]], None]) -> "_IcgReadOp":
        pool = cls._pool
        if pool:
            op = pool.pop()
        else:
            cls._created += 1
            op = cls()
        op.done = done
        return op

    def _on_preliminary(self, resp: Dict[str, Any]) -> None:
        self.had_prelim = True
        self.prelim_value = resp["value"]
        self.prelim_latency = resp["latency_ms"]

    def _on_final(self, resp: Dict[str, Any]) -> None:
        done = self.done
        failed = "error" in resp
        diverged = (not failed
                    and self.had_prelim
                    and self.prelim_value != resp["value"]
                    and not resp.get("is_confirmation", False))
        info = {
            "final_latency_ms": resp["latency_ms"],
            "preliminary_latency_ms": self.prelim_latency,
            "had_preliminary": self.had_prelim,
            "diverged": diverged,
            "degraded": bool(resp.get("degraded", False)),
            "failed": failed,
        }
        # Recycle before invoking ``done``: a closed-loop thread issues its
        # next operation inside the callback, and may legitimately reuse
        # this very instance for it.
        self.done = None
        self.prelim_value = None
        self.prelim_latency = None
        self.had_prelim = False
        cls = _IcgReadOp
        cls._recycled += 1
        cls._pool.append(self)
        done(info)

    @classmethod
    def pool_stats(cls) -> Dict[str, int]:
        """Counters for the leak tests: every created op should eventually
        be recycled (ops that never see a final response would leak)."""
        return {"created": cls._created, "recycled": cls._recycled,
                "free": len(cls._pool)}


def make_kv_issue(client: CassandraClient, system: str,
                  write_quorum: int = 1) -> Callable:
    """Build the runner ``issue`` function for one Cassandra system label.

    The returned callable executes YCSB reads/updates directly against the
    storage client and reports preliminary/final latencies and divergence.
    """
    if system not in CASSANDRA_SYSTEMS:
        raise KeyError(f"unknown system label {system!r}")
    profile = CASSANDRA_SYSTEMS[system]
    read_quorum = profile["r"]
    icg = profile["icg"]

    def _issue(op_type: str, key: str, value: Optional[str],
               done: Callable[[Dict[str, Any]], None]) -> None:
        # The "degraded"/"failed" keys carry recovery outcomes for the fault
        # experiments; always False on a healthy run, so the happy-path
        # figures are unaffected (the runner ignores falsy entries).  Built
        # inline: one dict per completion, not three.
        if op_type == "update":
            client.write(key, value, w=write_quorum,
                         on_final=lambda resp: done(
                             {"final_latency_ms": resp["latency_ms"],
                              "degraded": bool(resp.get("degraded", False)),
                              "failed": "error" in resp}))
            return
        if not icg:
            client.read(key, r=read_quorum, icg=False,
                        on_final=lambda resp: done(
                            {"final_latency_ms": resp["latency_ms"],
                             "degraded": bool(resp.get("degraded", False)),
                             "failed": "error" in resp}))
            return

        op = _IcgReadOp.acquire(done)
        client.read(key, r=read_quorum, icg=True,
                    on_preliminary=op.on_preliminary, on_final=op.on_final)

    fused_ready = client.fused_ready
    fused_read = client.fused_read
    fused_write = client.fused_write

    def _lean(op_type: str, key: str, value: Optional[str], sink) -> bool:
        # The lean op pipeline (``protocol.lean_ops``): deliver positionally
        # to the runner's per-thread sink, skipping the response/info dicts
        # and the per-op closures above.  Gated per operation so a mid-run
        # switch flip or a fault configuration falls back to ``_issue``.
        if not fused_ready(True):
            return False
        if op_type == "update":
            fused_write(key, value, write_quorum, sink=sink)
        else:
            sink._lean_icg = icg
            fused_read(key, read_quorum, icg, sink=sink)
        return True

    _issue.lean = _lean
    return _issue


def make_generator_factory(spec: WorkloadSpec, dataset: Dataset, seed: int,
                           label: str) -> Callable[[int], OperationGenerator]:
    """Per-thread operation generators with independent random streams."""

    def _factory(thread_id: int) -> OperationGenerator:
        rng = derive_rng(seed, f"{label}-thread-{thread_id}")
        return OperationGenerator(spec, dataset, rng)

    return _factory


def run_multi_region_load(scenario: CassandraScenario, system: str,
                          spec: WorkloadSpec, threads_per_client: int,
                          duration_ms: float, warmup_ms: float,
                          cooldown_ms: float, seed: int,
                          measured_region: str = Region.IRL,
                          use_histograms: bool = False
                          ) -> Dict[str, RunResult]:
    """Run closed-loop load from every client region simultaneously.

    Returns the per-region :class:`RunResult`; the paper reports the client
    in Ireland, which callers pick via ``measured_region``.
    ``use_histograms=True`` swaps the exact latency recorders for O(1)
    histogram recorders (perf runs); figure harnesses keep the default.
    """
    runners: Dict[str, ClosedLoopRunner] = {}
    for region, client in scenario.clients.items():
        issue = make_kv_issue(client, system)
        runner = ClosedLoopRunner(
            scheduler=scenario.env.scheduler,
            issue=issue,
            make_generator=make_generator_factory(
                spec, scenario.dataset, seed, f"{system}-{region}"),
            threads=threads_per_client,
            duration_ms=duration_ms,
            warmup_ms=warmup_ms,
            cooldown_ms=cooldown_ms,
            label=f"{system}-{spec.name}-{region}",
            use_histograms=use_histograms,
        )
        runners[region] = runner
    for runner in runners.values():
        runner.start()
    end = max(runner.end_time for runner in runners.values())
    scenario.env.run(until=end + 60_000.0)
    return {region: runner.result for region, runner in runners.items()}


def cassandra_config_for(system: str,
                         value_size_bytes: int = 1000) -> CassandraConfig:
    """Cluster configuration appropriate for a system label.

    ``value_size_bytes`` defaults to a full YCSB record (10 fields × 100 B):
    reads return the whole record while updates write a single 100 B field,
    which is the asymmetry the paper's bandwidth figures assume.  The
    single-request microbenchmark (Figure 5) overrides this with 100 B
    objects, as in the paper.
    """
    profile = CASSANDRA_SYSTEMS[system]
    return CassandraConfig(
        value_size_bytes=value_size_bytes,
        confirmation_optimization=bool(
            profile.get("confirmation_optimization", False)),
    )
