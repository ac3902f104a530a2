"""The lean op pipeline's gate, as the two load harnesses see it.

``make_kv_issue(...).lean`` (closed-loop figures) and
``make_session_issue(...).lean`` (open-loop sessions) both ask
``CassandraClient.fused_ready(True)`` once per operation.  Every gate input
must make them decline with no side effect, so the caller's classic
``issue`` path sees the operation as if the lean path did not exist; with
the gate open they must issue and complete into the sink.  The golden
lean-off and mid-run-toggle traces in ``test_determinism.py`` pin that the
two paths produce the same run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.common import cassandra_config_for, make_kv_issue
from repro.bench.fig14_open_loop import make_session_issue
from repro.bindings.cassandra import CassandraBinding
from repro.core.client import CorrectableClient
from repro.core.cluster_spec import ClusterSpec
from repro.sim.topology import Region


class _Sink:
    """A lean completion sink that records what it is handed."""

    def __init__(self) -> None:
        self._lean_icg = False
        self.events = []

    def deliver_read_preliminary(self, value, timestamp, latency_ms):
        self.events.append(("preliminary", value))

    def deliver_read_final(self, value, timestamp, latency_ms,
                           is_confirmation):
        self.events.append(("final", value))

    def deliver_read_error(self, error, latency_ms):
        self.events.append(("read_error", error))

    def deliver_write_ack(self, timestamp, latency_ms):
        self.events.append(("ack", None))

    def deliver_write_error(self, error, latency_ms):
        self.events.append(("write_error", error))


def _close_gate(scenario, client, gate_input):
    """Apply one gate input; returns the function that undoes it."""
    network = scenario.env.network
    if gate_input in ("fast_path", "lean_ops"):
        setattr(network, gate_input, False)
        return lambda: setattr(network, gate_input, True)
    if gate_input == "fallback_contacts":
        contacts = client._contacts
        other = next(replica.name for replica in scenario.cluster.replicas
                     if replica.name != client.contact)
        client._contacts = contacts + [other]
        return lambda: setattr(client, "_contacts", contacts)
    config = client.config
    value = True if gate_input == "read_repair" else 500.0
    client.config = dataclasses.replace(config, **{gate_input: value})
    return lambda: setattr(client, "config", config)


def _session_stack(scenario, client):
    pool = CorrectableClient(CassandraBinding(client)).sessions(3)
    issue = make_session_issue([pool], scenario.env.scheduler.now)

    def _counters():
        owner = pool.client
        return {"sessions": [session.invocations for session in pool],
                "client": (owner.invocations, owner.weak_invocations,
                           owner.strong_invocations, owner.icg_invocations)}

    return issue.lean, _counters


GATE_INPUTS = ["fallback_contacts", "client_timeout_ms", "read_timeout_ms",
               "write_timeout_ms", "read_repair", "fast_path", "lean_ops"]


@pytest.mark.parametrize("gate_input", GATE_INPUTS)
@pytest.mark.parametrize("harness", ["kv", "session"])
def test_lean_gate_declines_without_side_effects_then_accepts(harness, gate_input):
    scenario = ClusterSpec(seed=3, record_count=20,
                           client_regions=(Region.IRL,),
                           config=cassandra_config_for("CC2")).build()
    client = scenario.client_in(Region.IRL)
    key = next(iter(scenario.dataset.initial_items()))
    if harness == "kv":
        lean, counters = make_kv_issue(client, "CC2").lean, lambda: {}
    else:
        lean, counters = _session_stack(scenario, client)
    scheduler = scenario.env.scheduler

    def _state():
        return (repr(client._req_ids), client.reads_sent, client.writes_sent,
                scheduler.pending(), counters())

    reopen = _close_gate(scenario, client, gate_input)
    before = _state()
    sink = _Sink()
    assert lean("update", key, "fresh", sink) is False
    assert lean("read", key, None, sink) is False
    assert _state() == before
    assert sink.events == [] and sink._lean_icg is False

    reopen()
    assert lean("update", key, "fresh", sink) is True
    scenario.env.run_until_idle()
    assert lean("read", key, None, sink) is True
    assert sink._lean_icg is True, "CC2 reads are ICG reads"
    scenario.env.run_until_idle()
    assert sink.events == [("ack", None), ("preliminary", "fresh"),
                           ("final", "fresh")]
    assert (client.writes_sent, client.reads_sent) == (
        before[2] + 1, before[1] + 1)
    if harness == "session":
        # Declined operations did not advance the session rotation: the two
        # accepted ones went to sessions 0 and 1, one strong write and one
        # ICG read.
        assert counters() == {"sessions": [1, 1, 0], "client": (2, 0, 1, 1)}
