"""The benchmark's four workloads, built and driven through public APIs.

Each workload is a function ``(seed, phases, scale=1.0) -> Stack``.  It
generates its inputs from ``seed``, builds the simulated deployment while ``phases`` times
the dataset, build and preload steps, and returns a :class:`Stack` whose
``run()`` pushes the whole simulated workload through and returns an
:class:`Outcome`.  ``scale`` shrinks simulated time and data sizes for the
benchmark's own tests; the benchmark always runs at 1.0.  Nothing here is a module-level mutable: every counter
lives on the stack being measured.

Why these four (see README.md for the full table):

* ``ycsb-a-closed``: the hottest path; every op takes the lean fused path.
* ``crash-b-closed``: the same protocol with timeouts armed and a replica
  crash, so every op takes the classic ``Message`` path.
* ``ads-speculate-open``: the only workload driving ``core`` (Correctable,
  speculation), ``bindings`` and ``apps``; columnar storage engaged.
* ``tickets-zk-sellout``: the only workload driving ``zookeeper_sim``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.apps.ads import AdServingSystem
from repro.apps.datasets import AdsDataset
from repro.apps.tickets import TicketSeller
from repro.bench.common import cassandra_config_for, make_kv_issue
from repro.bindings.cassandra import CassandraBinding
from repro.bindings.zookeeper import ZooKeeperQueueBinding
from repro.cassandra_sim.cluster import CassandraCluster
from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.storage import ColumnarTable
from repro.core.client import CorrectableClient
from repro.core.cluster_spec import REMOTE_CONTACTS, ClusterSpec
from repro.faults import FaultInjector, cassandra_aliases
from repro.faults.scenarios import replica_crash
from repro.metrics.divergence import DivergenceCounter
from repro.metrics.latency import HistogramRecorder, LatencyRecorder
from repro.sim.environment import SimEnvironment
from repro.sim.rand import derive_rng
from repro.sim.topology import Region
from repro.workloads.arrivals import make_arrival_process
from repro.workloads.records import Dataset
from repro.workloads.runner import ClosedLoopRunner, OpenLoopRunner
from repro.workloads.ycsb import OperationGenerator, workload_by_name
from repro.zookeeper_sim.cluster import ZooKeeperCluster

CLIENT_REGIONS = (Region.IRL, Region.FRK, Region.VRG)


class Phases:
    """Wall-clock durations of the named set-up phases of one process."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._name: Optional[str] = None
        self._start = 0.0

    def begin(self, name: str) -> None:
        self.end()
        self._name = name
        self._start = time.perf_counter()

    def end(self) -> None:
        if self._name is not None:
            elapsed = time.perf_counter() - self._start
            self.seconds[self._name] = self.seconds.get(self._name, 0.0) + elapsed
            self._name = None


@dataclass
class Outcome:
    """What one run did: op accounting, model outputs and layer counters.

    ``issued`` counts operations handed to the stack; each ends exactly one
    way: ``completed`` (final view delivered), ``failed`` (errored) or
    ``shed`` (refused by admission).  The difference is ops that never
    finished.
    """

    issued: int
    completed: int
    failed: int
    shed: int
    model: Dict[str, float]
    counts: Dict[str, float]
    #: Workload-specific facts the output checks in ``run.py`` judge.
    invariants: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Stack:
    """A built deployment, ready to run; ``run`` may be called once."""

    env: SimEnvironment
    run: Callable[[], Outcome]


def _network_counts(env: SimEnvironment, ops: int) -> Dict[str, float]:
    network = env.network
    pool = network.pool_stats()
    taken = pool["created"] + pool["reused"]
    return {
        "sim.scheduler.events_per_op": env.scheduler.events_executed / ops,
        "sim.network.bytes_per_op": network.total_bytes() / ops,
        "sim.network.messages_per_op": network.messages_sent / ops,
        "sim.network.pool_reuse_ratio": pool["reused"] / taken if taken else 0.0,
    }


def _base_counts() -> Dict[str, float]:
    """Per-layer counts that a workload does not exercise read 0."""
    return {
        "workloads.lean_accept_ratio": 0.0,
        "cassandra_sim.retries_per_op": 0.0,
        "cassandra_sim.storage.reads_per_op": 0.0,
        "core.invocations_per_op": 0.0,
        "apps.speculation_hit_ratio": 0.0,
        "zookeeper_sim.preliminary_ratio": 0.0,
    }


def _merged(recorders, factory):
    merged = factory()
    for recorder in recorders:
        merged.merge(recorder)
    return merged


def _storage_reads(cluster: CassandraCluster) -> int:
    return sum(replica.table.reads for replica in cluster.replicas)


def _retries(cluster: CassandraCluster, clients) -> int:
    return (sum(r.read_retries + r.write_retries for r in cluster.replicas)
            + sum(client.retries for client in clients))


# -- closed-loop YCSB (ycsb-a-closed, crash-b-closed) --------------------------

def _closed_loop(seed: int, phases: Phases, *, workload: str, records: int,
                 threads: int, duration_ms: float, warmup_ms: float,
                 cooldown_ms: float, config: CassandraConfig,
                 fallbacks: bool, crash: Optional[Dict[str, float]]) -> Stack:
    phases.begin("build")
    env = SimEnvironment(seed=seed)
    # The 3-node FRK/IRL/VRG ring, named as the fig06/fig13 harnesses name it.
    cluster = CassandraCluster(env, config, nodes=ClusterSpec().members())
    phases.begin("dataset")
    dataset = Dataset(record_count=records, value_size_bytes=100, seed=seed)
    items = dataset.initial_items()
    phases.begin("preload")
    cluster.preload(items)
    phases.begin("build")
    clients = {region: cluster.add_client(
        f"ycsb-client-{region}", region=region,
        contact_region=REMOTE_CONTACTS[region], fallbacks=fallbacks)
        for region in CLIENT_REGIONS}
    injector = None
    if crash is not None:
        injector = FaultInjector(env, schedule=replica_crash(**crash),
                                 aliases=cassandra_aliases(cluster))
    spec = workload_by_name(workload).with_distribution("zipfian")
    generators: List[OperationGenerator] = []
    lean_counts = [0, 0]  # [offered, accepted]
    runners = []
    for index, (region, client) in enumerate(clients.items()):
        issue = make_kv_issue(client, "CC2")
        lean = issue.lean

        def _counted_lean(op_type, key, value, sink, _lean=lean):
            lean_counts[0] += 1
            if _lean(op_type, key, value, sink):
                lean_counts[1] += 1
                return True
            return False

        issue.lean = _counted_lean

        def _make_generator(thread_id: int, _region=region) -> OperationGenerator:
            generator = OperationGenerator(
                spec, dataset, derive_rng(seed, f"bench-{_region}-{thread_id}"))
            generators.append(generator)
            return generator

        runners.append(ClosedLoopRunner(
            scheduler=env.scheduler, issue=issue,
            make_generator=_make_generator, threads=threads,
            duration_ms=duration_ms, warmup_ms=warmup_ms,
            cooldown_ms=cooldown_ms, label=f"bench-{region}",
            faults=injector if index == 0 else None, use_histograms=True))
    for runner in runners:
        runner.start()
    phases.end()

    def _run() -> Outcome:
        env.run(until=max(r.end_time for r in runners) + 60_000.0)
        results = [r.result for r in runners]
        ops = sum(r.total_ops for r in results)
        failed = sum(r.failed_ops for r in results)
        issued = sum(g.reads_generated + g.updates_generated
                     for g in generators)
        final = _merged((r.final_latency for r in results), HistogramRecorder)
        prelim = _merged((r.preliminary_latency for r in results),
                         HistogramRecorder)
        divergence = _merged((r.divergence for r in results),
                             DivergenceCounter)
        counts = _base_counts()
        counts.update(_network_counts(env, ops))
        counts["workloads.lean_accept_ratio"] = (
            lean_counts[1] / lean_counts[0] if lean_counts[0] else 0.0)
        counts["cassandra_sim.retries_per_op"] = (
            _retries(cluster, clients.values()) / ops)
        counts["cassandra_sim.storage.reads_per_op"] = _storage_reads(cluster) / ops
        return Outcome(
            issued=issued, completed=ops - failed, failed=failed, shed=0,
            model={
                "model.ops": ops,
                "model.events": env.scheduler.events_executed,
                "model.final_p50_ms": final.p50(),
                "model.final_p99_ms": final.p99(),
                "model.prelim_p50_ms": prelim.p50() if prelim.count else 0.0,
                "model.divergence_pct": divergence.divergence_percent(),
                "model.bytes": env.network.total_bytes(),
            },
            counts=counts,
            invariants={"lean_accepted": lean_counts[1],
                        "lean_offered": lean_counts[0]})

    return Stack(env=env, run=_run)


def ycsb_a_closed(seed: int, phases: Phases, scale: float = 1.0) -> Stack:
    """fig06 shape: 3 regions x 48 threads, CC2 ICG reads, YCSB-A, 1k keys."""
    return _closed_loop(
        seed, phases, workload="A", records=1_000, threads=48,
        duration_ms=50_000.0 * scale, warmup_ms=2_000.0 * scale,
        cooldown_ms=1_000.0 * scale, config=cassandra_config_for("CC2"),
        fallbacks=False, crash=None)


def crash_b_closed(seed: int, phases: Phases, scale: float = 1.0) -> Stack:
    """fig13 shape: fault-tolerant config, YCSB-B, a replica down for 40%."""
    return _closed_loop(
        seed, phases, workload="B", records=300, threads=8,
        duration_ms=100_000.0 * scale, warmup_ms=2_000.0 * scale,
        cooldown_ms=1_000.0 * scale, config=CassandraConfig.fault_tolerant(),
        fallbacks=True,
        crash={"at_ms": 20_000.0 * scale, "duration_ms": 40_000.0 * scale})


# -- open-loop ad serving (ads-speculate-open) ----------------------------------

def ads_speculate_open(seed: int, phases: Phases, scale: float = 1.0) -> Stack:
    """fig11 ad serving with ICG + speculate under Poisson arrivals.

    132k records is past ``columnar_threshold_keys``, so every replica
    stores them in a ``ColumnarTable``.  20 arrivals/s keeps the replicas
    about half busy (each fetch is ~21 quorum reads), below saturation.
    """
    profiles, ads = int(40_000 * scale) or 1, int(92_000 * scale) or 1
    sessions = 300
    phases.begin("dataset")
    dataset = AdsDataset(profile_count=profiles, ad_count=ads, seed=seed)
    items = dataset.initial_items()
    key_dataset = Dataset(record_count=profiles, key_prefix="profile:",
                          seed=seed)
    phases.begin("build")
    env = SimEnvironment(seed=seed)
    cluster = CassandraCluster(env, cassandra_config_for("CC2"))
    phases.begin("preload")
    cluster.preload(items)
    del items
    phases.begin("build")
    apps: List[AdServingSystem] = []
    clients: List[CorrectableClient] = []
    nodes = []
    for region, contact in REMOTE_CONTACTS.items():
        node = cluster.add_client(f"ads-client-{region}", region=region,
                                  contact_region=contact)
        client = CorrectableClient(CassandraBinding(node))
        nodes.append(node)
        clients.append(client)
        apps.append(AdServingSystem(client, dataset,
                                    rng=derive_rng(seed, f"ads-{region}")))

    def _issue(op_type: str, key: str, value: Optional[str], done,
               session_id: int) -> None:
        app = apps[session_id % len(apps)]

        def _finished(info: Dict[str, Any]) -> None:
            done({"final_latency_ms": info["latency_ms"],
                  "failed": "error" in info})

        if op_type == "read":
            app.fetch_ads_by_user_id(key, _finished, speculate=True)
        else:
            app.update_profile(key, _finished)

    spec = workload_by_name("B").with_distribution("zipfian")
    runner = OpenLoopRunner(
        scheduler=env.scheduler, issue=_issue,
        make_generator=lambda sid: OperationGenerator.seeded(
            spec, key_dataset, seed, f"ads-session-{sid}"),
        arrivals=make_arrival_process(
            "poisson", 20.0, derive_rng(seed, "ads:arrivals")),
        sessions=sessions, duration_ms=120_000.0 * scale,
        warmup_ms=2_000.0 * scale, cooldown_ms=1_000.0 * scale,
        label="bench-ads", use_histograms=True)
    runner.start()
    phases.end()

    def _run() -> Outcome:
        env.run(until=runner.end_time + runner.drain_ms)
        result = runner.result
        admission = result.admission
        ops = result.total_ops
        speculation = [app.speculation_stats for app in apps]
        closed = sum(s.total_closed for s in speculation)
        hits = sum(s.total_closed * s.hit_rate() for s in speculation)
        counts = _base_counts()
        counts.update(_network_counts(env, ops))
        counts["cassandra_sim.retries_per_op"] = _retries(cluster, nodes) / ops
        counts["cassandra_sim.storage.reads_per_op"] = _storage_reads(cluster) / ops
        counts["core.invocations_per_op"] = (
            sum(client.invocations for client in clients) / ops)
        counts["apps.speculation_hit_ratio"] = hits / closed if closed else 0.0
        columnar = sum(isinstance(r.table, ColumnarTable)
                       for r in cluster.replicas)
        return Outcome(
            issued=admission.offered, completed=ops - result.failed_ops,
            failed=result.failed_ops, shed=admission.shed,
            model={
                "model.ops": ops,
                "model.events": env.scheduler.events_executed,
                "model.final_p50_ms": result.final_latency.p50(),
                "model.final_p99_ms": result.final_latency.p99(),
                "model.prelim_p50_ms": 0.0,
                "model.divergence_pct": (100.0 * (1.0 - hits / closed)
                                         if closed else 0.0),
                "model.bytes": env.network.total_bytes(),
            },
            counts=counts,
            invariants={"columnar_replicas": columnar,
                        "replicas": len(cluster.replicas)})

    return Stack(env=env, run=_run)


# -- ZooKeeper ticket sell-out (tickets-zk-sellout) -----------------------------

def tickets_zk_sellout(seed: int, phases: Phases, scale: float = 1.0) -> Stack:
    """fig12 shape: 8 FRK retailers sell a fixed stock through CZK dequeues."""
    stock, retailers, threshold = int(3_000 * scale) or 1, 8, 20
    phases.begin("dataset")
    tickets = [f"ticket-{seed}-{i}" for i in range(stock)]
    phases.begin("build")
    env = SimEnvironment(seed=seed)
    cluster = ZooKeeperCluster(env, leader_region=Region.IRL,
                               follower_regions=(Region.FRK, Region.VRG))
    phases.begin("preload")
    cluster.preload_queue("/tickets", tickets)
    phases.begin("build")
    sellers: List[TicketSeller] = []
    latency = LatencyRecorder()
    prelim_latency = LatencyRecorder()
    sold: List[Any] = []

    def _start(seller: TicketSeller) -> None:
        def _bought(outcome) -> None:
            if outcome.sold_out:
                return
            sold.append(outcome.ticket)
            latency.record(outcome.latency_ms)
            if outcome.used_preliminary:
                prelim_latency.record(outcome.latency_ms)
            seller.purchase_ticket(_bought, use_icg=True)

        env.scheduler.schedule(0.0, seller.purchase_ticket, _bought, True)

    for index in range(retailers):
        node = cluster.add_client(f"retailer-{index}", region=Region.FRK,
                                  connect_region=Region.FRK, colocated=True)
        seller = TicketSeller(
            CorrectableClient(ZooKeeperQueueBinding(node, "/tickets")),
            queue_path="/tickets", threshold=threshold)
        sellers.append(seller)
        _start(seller)
    phases.end()

    def _run() -> Outcome:
        env.run_until_idle()
        attempted = sum(s.purchases_attempted for s in sellers)
        sold_out = sum(s.sold_out_responses for s in sellers)
        counts = _base_counts()
        counts.update(_network_counts(env, attempted))
        counts["core.invocations_per_op"] = (
            sum(s.client.invocations for s in sellers) / attempted)
        counts["zookeeper_sim.preliminary_ratio"] = (
            sum(server.preliminaries_sent for server in cluster.servers)
            / attempted)
        return Outcome(
            issued=attempted, completed=len(sold) + sold_out, failed=0,
            shed=0,
            model={
                "model.ops": attempted,
                "model.events": env.scheduler.events_executed,
                "model.final_p50_ms": latency.p50(),
                "model.final_p99_ms": latency.p99(),
                "model.prelim_p50_ms": (prelim_latency.p50()
                                        if prelim_latency.count else 0.0),
                "model.divergence_pct": 0.0,
                "model.bytes": env.network.total_bytes(),
            },
            counts=counts,
            invariants={"stock": stock, "sold": len(sold),
                        "distinct_sold": len(set(sold)),
                        "sold_out_responses": sold_out,
                        "retailers": retailers})

    return Stack(env=env, run=_run)


#: Workload name -> builder, in the order BENCHMARK.json lists them.
WORKLOADS: Dict[str, Callable[..., Stack]] = {
    "ycsb-a-closed": ycsb_a_closed,
    "crash-b-closed": crash_b_closed,
    "ads-speculate-open": ads_speculate_open,
    "tickets-zk-sellout": tickets_zk_sellout,
}
