"""End-to-end protocol tests for the simulated ZooKeeper ensemble."""

import pytest

from repro.sim.environment import SimEnvironment
from repro.sim.topology import Region, Topology
from repro.zookeeper_sim.cluster import ZooKeeperCluster
from repro.zookeeper_sim.queue_recipe import DistributedQueue
from repro.zookeeper_sim.server import ZKServer


def _setup(leader=Region.IRL, followers=(Region.FRK, Region.VRG),
           queue_items=10):
    env = SimEnvironment(seed=3, topology=Topology(jitter_fraction=0.0))
    cluster = ZooKeeperCluster(env, leader_region=leader,
                               follower_regions=followers)
    if queue_items:
        cluster.preload_queue("/queue",
                              [f"item-{i}" for i in range(queue_items)])
    return env, cluster


class TestBasicOperations:
    def test_create_replicates_to_all_servers(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        client.create("/node", data="payload")
        env.run_until_idle()
        for server in cluster.servers:
            assert server.tree.get("/node") == "payload"

    def test_reads_served_locally_by_contacted_server(self):
        env, cluster = _setup()
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        results = []
        client.get_children("/queue", on_final=results.append)
        env.run_until_idle()
        assert len(results[0]["result"]) == 10
        # A local read never involves the leader.
        assert results[0]["latency_ms"] < 10.0

    def test_delete_propagates(self):
        env, cluster = _setup(queue_items=3)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        client.delete("/queue/item-0000000000")
        env.run_until_idle()
        for server in cluster.servers:
            assert server.tree.child_count("/queue") == 2

    def test_delete_missing_node_reports_error(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        results = []
        client.delete("/ghost", on_final=results.append)
        env.run_until_idle()
        assert not results[0]["ok"]
        assert "NoNode" in results[0]["error"]

    def test_unknown_operation_rejected(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.IRL, Region.FRK)
        results = []
        client.submit("frobnicate", "/x", on_final=results.append)
        env.run_until_idle()
        assert not results[0]["ok"]


class TestTotalOrder:
    def test_enqueues_from_different_clients_totally_ordered(self):
        env, cluster = _setup(queue_items=0)
        for server in cluster.servers:
            server.tree.create("/q")
        c1 = cluster.add_client("c1", Region.FRK, Region.FRK)
        c2 = cluster.add_client("c2", Region.VRG, Region.VRG)
        for i in range(5):
            c1.enqueue("/q", f"frk-{i}")
            c2.enqueue("/q", f"vrg-{i}")
        env.run_until_idle()
        orders = []
        for server in cluster.servers:
            children = server.tree.get_children("/q")
            orders.append([server.tree.get(f"/q/{c}") for c in children])
        assert orders[0] == orders[1] == orders[2]
        assert len(orders[0]) == 10

    def test_zxids_applied_in_order_on_every_server(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        for i in range(8):
            client.create(f"/node{i}", data=i)
        env.run_until_idle()
        for server in cluster.servers:
            assert server.commit_log.last_applied == 8
            assert server.transactions_applied == 8


class TestLatencyShape:
    def test_write_through_follower_slower_than_through_leader(self):
        latencies = {}
        for label, connect in (("follower", Region.FRK), ("leader", Region.IRL)):
            env, cluster = _setup(queue_items=0)
            for server in cluster.servers:
                server.tree.create("/q")
            client = cluster.add_client("c", Region.IRL, connect)
            results = []
            client.enqueue("/q", "x", on_final=results.append)
            env.run_until_idle()
            latencies[label] = results[0]["latency_ms"]
        assert latencies["leader"] < latencies["follower"]

    def test_preliminary_much_faster_than_final_with_remote_leader(self):
        env, cluster = _setup(leader=Region.VRG,
                              followers=(Region.IRL, Region.FRK))
        client = cluster.add_client("c", Region.IRL, Region.IRL)
        events = []
        client.dequeue("/queue", icg=True,
                       on_preliminary=lambda r: events.append(("p", r["latency_ms"])),
                       on_final=lambda r: events.append(("f", r["latency_ms"])))
        env.run_until_idle()
        prelim = dict(events)["p"]
        final = dict(events)["f"]
        assert prelim < 10.0
        assert final > 100.0


class TestCzkDequeue:
    def test_dequeue_returns_head_and_removes_it(self):
        env, cluster = _setup(queue_items=3)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        results = []
        client.dequeue("/queue", on_final=results.append)
        env.run_until_idle()
        assert results[0]["result"]["item"] == "item-0"
        assert results[0]["result"]["remaining"] == 2
        for server in cluster.servers:
            assert server.tree.child_count("/queue") == 2

    def test_dequeue_empty_queue_returns_none(self):
        env, cluster = _setup(queue_items=0)
        for server in cluster.servers:
            server.tree.create("/queue")
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        results = []
        client.dequeue("/queue", on_final=results.append)
        env.run_until_idle()
        assert results[0]["result"]["item"] is None

    def test_concurrent_dequeues_get_distinct_items(self):
        env, cluster = _setup(queue_items=6)
        clients = [cluster.add_client(f"c{i}", Region.FRK, Region.FRK)
                   for i in range(3)]
        got = []
        for client in clients:
            client.dequeue("/queue", icg=True,
                           on_final=lambda r: got.append(r["result"]["item"]))
        env.run_until_idle()
        assert len(got) == 3
        assert len(set(got)) == 3

    def test_concurrent_preliminary_simulations_are_distinct(self):
        env, cluster = _setup(queue_items=6)
        clients = [cluster.add_client(f"c{i}", Region.FRK, Region.FRK)
                   for i in range(3)]
        preliminary_items = []
        for client in clients:
            client.dequeue(
                "/queue", icg=True,
                on_preliminary=lambda r: preliminary_items.append(
                    r["result"]["item"]))
        env.run_until_idle()
        assert len(preliminary_items) == 3
        assert len(set(preliminary_items)) == 3

    def test_exhaustive_drain_never_duplicates(self):
        env, cluster = _setup(queue_items=20)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        drained = []

        def _next():
            client.dequeue("/queue", on_final=_done)

        def _done(resp):
            item = resp["result"]["item"]
            if item is None:
                return
            drained.append(item)
            _next()

        _next()
        env.run_until_idle()
        assert drained == [f"item-{i}" for i in range(20)]


def _scanned_children(tree, path):
    """Sorted child names of ``path``, scanned off a full snapshot."""
    node = tree.snapshot()
    for part in (part for part in path.split("/") if part):
        node = node["children"][part]
    return sorted(node["children"])


def _reference_simulate_dequeue(server, path):
    """The O(stock) preliminary dequeue: sort every child, drop the
    tentatively removed ones, take the first."""
    try:
        children = _scanned_children(server.tree, path)
    except KeyError:
        children = []
    available = [c for c in children
                 if f"{path}/{c}" not in server._simulated_removed]
    if not available:
        return {"item": None, "name": None, "remaining": 0}
    head = available[0]
    return {"item": server.tree.get(f"{path}/{head}"), "name": head,
            "remaining": len(available) - 1}


def _reference_apply_dequeue(server, path):
    """The O(stock) committed dequeue: sort every child, pop the first."""
    children = _scanned_children(server.tree, path)
    if not children:
        return {"ok": True,
                "result": {"item": None, "name": None, "remaining": 0}}
    head = children[0]
    return {"ok": True,
            "result": {"item": server.tree.get(f"{path}/{head}"),
                       "name": head, "remaining": len(children) - 1}}


class TestCzkDequeueMatchesScanReference:
    def test_interleaved_icg_dequeues_match_reference(self, monkeypatch):
        """Every preliminary and final dequeue result equals the scan.

        Three clients per server drain the queue with ICG dequeues while
        stale entries sit in a simulation overlay: a simulated delete of a
        missing item that a later enqueue brings to life (the simulation
        must keep skipping it), plus deletes outside the queue.  Each
        ``_simulate`` and ``_apply`` dequeue is checked against the
        reference computed on the same state just before it runs.
        """
        simulate, apply = ZKServer._simulate, ZKServer._apply
        checked = {"preliminary": 0, "final": 0, "stale_live_skipped": 0}
        stale = "/queue/item-0000000031"

        def _checked_simulate(server, payload):
            if payload["op"] != "dequeue":
                return simulate(server, payload)
            expected = _reference_simulate_dequeue(server, payload["path"])
            if (stale in server._simulated_removed
                    and server.tree.exists(stale)):
                checked["stale_live_skipped"] += 1
            result = simulate(server, payload)
            assert result == expected
            checked["preliminary"] += 1
            return result

        def _checked_apply(server, txn):
            if txn.op != "dequeue":
                return apply(server, txn)
            expected = _reference_apply_dequeue(server, txn.path)
            result = apply(server, txn)
            assert result == expected
            checked["final"] += 1
            return result

        monkeypatch.setattr(ZKServer, "_simulate", _checked_simulate)
        monkeypatch.setattr(ZKServer, "_apply", _checked_apply)
        env, cluster = _setup(queue_items=30)
        regions = (Region.IRL, Region.FRK, Region.VRG)
        clients = [cluster.add_client(f"c{region}{i}", region, region)
                   for region in regions for i in range(3)]
        frk = cluster.add_client("stale", Region.FRK, Region.FRK)
        for path in (stale, "/elsewhere/item-0000000000", "/queue"):
            frk.submit("delete", path, icg=True)
        got = []

        def _drain(client):
            def _done(resp):
                if resp["result"]["item"] is not None:
                    got.append(resp["result"]["item"])
                    client.dequeue("/queue", icg=True, on_final=_done)

            client.dequeue("/queue", icg=True, on_final=_done)

        for client in clients:
            _drain(client)
        for i in range(4):
            env.scheduler.schedule(30.0, frk.enqueue, "/queue", f"late-{i}")
        env.run_until_idle()
        assert sorted(got) == sorted([f"item-{i}" for i in range(30)]
                                     + [f"late-{i}" for i in range(4)])
        assert checked["preliminary"] == len(got) + len(clients)
        assert checked["final"] == 3 * checked["preliminary"]
        assert checked["stale_live_skipped"] > 0


class TestQueueRecipe:
    def test_recipe_dequeue_returns_head(self):
        env, cluster = _setup(queue_items=4)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        queue = DistributedQueue(client, "/queue")
        results = []
        queue.dequeue_recipe(results.append)
        env.run_until_idle()
        assert results[0]["result"]["item"] == "item-0"

    def test_recipe_contention_causes_retries_but_no_duplicates(self):
        env, cluster = _setup(queue_items=10)
        clients = [cluster.add_client(f"c{i}", Region.FRK, Region.FRK)
                   for i in range(4)]
        queues = [DistributedQueue(c, "/queue") for c in clients]
        got = []

        def _drain(queue):
            def _next():
                queue.dequeue_recipe(_done)

            def _done(resp):
                item = resp["result"]["item"]
                if resp["ok"] and item is not None:
                    got.append(item)
                    _next()

            _next()

        for queue in queues:
            _drain(queue)
        env.run_until_idle()
        assert sorted(got) == sorted(f"item-{i}" for i in range(10))
        assert sum(q.retries for q in queues) > 0

    def test_recipe_empty_queue(self):
        env, cluster = _setup(queue_items=0)
        for server in cluster.servers:
            server.tree.create("/queue")
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        queue = DistributedQueue(client, "/queue")
        results = []
        queue.dequeue_recipe(results.append)
        env.run_until_idle()
        assert results[0]["result"]["item"] is None

    def test_enqueue_via_recipe(self):
        env, cluster = _setup(queue_items=0)
        client = cluster.add_client("c", Region.FRK, Region.FRK)
        queue = DistributedQueue(client, "/tasks")
        queue.create_queue_node()
        env.run_until_idle()
        results = []
        queue.enqueue("job-1", on_final=results.append)
        env.run_until_idle()
        assert results[0]["ok"]
        for server in cluster.servers:
            assert server.tree.child_count("/tasks") == 1


class TestClusterAssembly:
    def test_server_in_prefers_leader(self):
        env, cluster = _setup()
        assert cluster.server_in(Region.IRL) is cluster.leader

    def test_server_in_unknown_region_raises(self):
        env, cluster = _setup()
        with pytest.raises(KeyError):
            cluster.server_in("mars-east-1")

    def test_colocated_client_shares_host(self):
        env, cluster = _setup()
        client = cluster.add_client("c", Region.FRK, Region.FRK, colocated=True)
        assert client.host == cluster.server_in(Region.FRK).host
