"""A Cassandra replica node (which also acts as a coordinator).

Message kinds handled:

* ``client_read`` / ``client_write`` — requests from a client node; this
  replica becomes the coordinator for the operation;
* ``read_req`` / ``read_resp`` — coordinator ↔ replica data reads;
* ``write_req`` / ``write_ack`` — coordinator ↔ replica write application
  (write_req is also how asynchronous replication beyond W happens);
* responses to clients: ``read_preliminary``, ``read_final``,
  ``write_ack_client``;
* ``stream_data`` / ``stream_ack`` — range streaming during a ring
  rebalance (stop-and-wait batches from the range's source to its gainer).

Ring membership: every replica carries a ``ring_state`` (``serving``,
``bootstrapping`` while joining, ``retired`` after leaving).  Coordinator ↔
replica messages are stamped with the ring epoch
(:attr:`RingPartitioner.version`); a replica that no longer owns a key —
because the range streamed away in a committed rebalance — rejects the
request with ``stale_epoch`` and the coordinator retries against the
post-rebalance preference list.  While a change is in flight, coordinators
forward writes to the nodes gaining the key's range (without counting them
towards the write quorum), which is what makes acknowledged writes survive
any join/decommission.

Correctable Cassandra behaviour (Section 5.2): when a client read carries the
``icg`` flag, the coordinator performs *preliminary flushing* — an extra job
on its processing queue that sends the first locally available version to the
client before the quorum completes — and, if the confirmation optimization is
enabled, replaces an identical final response with a small confirmation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import (FusedRead, FusedWrite,
                                             ReadSession, WriteSession)
from repro.cassandra_sim.partitioner import RingPartitioner, StreamTask
from repro.cassandra_sim.storage import LocalTable
from repro.cassandra_sim.versions import VersionedValue
from repro.sim.network import (LinkStats, MESSAGE_HEADER_BYTES, Message,
                               Network, estimate_payload_size)
from repro.sim.node import Node

#: Wire size of the small fixed acknowledgements (write_ack and friends).
_ACK_BYTES = MESSAGE_HEADER_BYTES + 10


@dataclass(slots=True)
class _StreamState:
    """Source-side progress of one range-transfer task."""

    stream_id: int
    task: StreamTask
    on_complete: Callable[[StreamTask], None]
    keys: Tuple[str, ...] = ()
    cursor: int = 0


class CassandraReplica(Node):
    """One storage node: local LWW table plus coordinator logic."""

    def __init__(self, name: str, region: str, network: Network,
                 config: CassandraConfig, partitioner: RingPartitioner) -> None:
        super().__init__(name, region, network)
        self.config = config
        # Message-size bases, precomputed once: every fused hop charges one
        # of these, and the config fields never change after construction.
        self._req_base = MESSAGE_HEADER_BYTES + config.key_size_bytes
        self._resp_base = MESSAGE_HEADER_BYTES + config.response_overhead_bytes
        self._conf_base = MESSAGE_HEADER_BYTES + config.confirmation_bytes
        self.partitioner = partitioner
        self.table = LocalTable()
        #: Ring membership state: ``serving`` (normal), ``bootstrapping``
        #: (joining: applies forwarded writes and streamed data, serves no
        #: client traffic yet), ``retired`` (left the ring: rejects
        #: everything with ``stale_epoch`` so coordinators re-route).
        self.ring_state = "serving"
        self._distance_cache: Dict[str, List[str]] = {}
        #: Ring epoch the distance cache was built against.
        self._distance_version = partitioner.version
        self._session_ids = itertools.count(1)
        self._stream_ids = itertools.count(1)
        self._streams: Dict[int, _StreamState] = {}
        self._write_seq = itertools.count(1)
        self._read_sessions: Dict[int, ReadSession] = {}
        self._write_sessions: Dict[int, WriteSession] = {}
        #: key -> (local_participant, fused fan-out targets); see _fused_plan.
        self._fused_plans: Dict[str, tuple] = {}
        self._fused_plan_stamp = (-1, -1)
        # Instrumentation used by the benchmarks.
        self.reads_coordinated = 0
        self.writes_coordinated = 0
        self.preliminaries_flushed = 0
        self.confirmations_sent = 0
        # Fault-path instrumentation (stays zero with timeouts disabled).
        self.read_retries = 0
        self.write_retries = 0
        self.reads_downgraded = 0
        self.writes_downgraded = 0
        self.reads_failed = 0
        self.writes_failed = 0
        # Rebalance instrumentation (stays zero on a static ring).
        self.stale_rejections = 0
        self.stale_epoch_retries = 0
        self.writes_forwarded = 0
        self.keys_streamed_out = 0
        self.keys_streamed_in = 0
        # Fused continuations, bound once: every fused send passes one of
        # these as its delivery callback, and an instance-attribute load
        # here avoids materializing a fresh bound method per hop.
        self._fused_client_read = self._fused_client_read
        self._fused_client_write = self._fused_client_write
        self._fused_read_req = self._fused_read_req
        self._fused_write_req = self._fused_write_req
        self._fused_read_resp = self._fused_read_resp
        self._fused_on_write_ack = self._fused_on_write_ack
        self._fused_read_stale = self._fused_read_stale
        self._fused_write_stale = self._fused_write_stale
        self._fused_coordinate_read = self._fused_coordinate_read
        self._fused_coordinate_write = self._fused_coordinate_write
        self._fused_serve_read = self._fused_serve_read
        self._fused_apply_write = self._fused_apply_write
        self._fused_flush_preliminary = self._fused_flush_preliminary

    # -- helpers --------------------------------------------------------------
    def _other_replicas_by_distance(self, key: str) -> List[str]:
        """Replicas for ``key`` other than this node, closest first.

        Cached per key and invalidated by ring epoch: node regions and the
        RTT matrix are fixed, but a committed membership change re-routes
        keys, so the cache is dropped whenever the partitioner version moves.
        The returned list is shared — treat it as read-only.
        """
        if self._distance_version != self.partitioner.version:
            self._distance_cache.clear()
            self._distance_version = self.partitioner.version
        cached = self._distance_cache.get(key)
        if cached is not None:
            return cached
        replicas = [r for r in self.partitioner.replicas_for(key) if r != self.name]
        topology = self.network.topology

        def _distance(name: str) -> float:
            other = self.network.node(name)
            return topology.rtt(self.region, other.region)

        ordered = sorted(replicas, key=lambda name: (_distance(name), name))
        if len(self._distance_cache) >= 65536:
            self._distance_cache.clear()
        self._distance_cache[key] = ordered
        return ordered

    def _value_bytes(self, version: Optional[VersionedValue]) -> int:
        if version is None:
            return 8
        value = version.value
        # Stored values are ASCII strings in every workload; size them with
        # ``len`` and only fall back to the generic payload walker otherwise.
        if type(value) is str and value.isascii():
            size = len(value)
        else:
            size = estimate_payload_size(value)
        return max(self.config.value_size_bytes, size)

    # -- client read path -------------------------------------------------------
    def on_client_read(self, message: Message) -> None:
        payload = message.payload
        if self.ring_state != "serving":
            # A retired (or still bootstrapping) node no longer coordinates:
            # the client rotates to its next contact.
            self.stale_rejections += 1
            self.send(message.src, "read_error",
                      {"req_id": payload["req_id"],
                       "error": f"coordinator {self.name} left the ring",
                       "retryable": True},
                      size_bytes=(MESSAGE_HEADER_BYTES
                                  + self.config.response_overhead_bytes))
            return
        self.reads_coordinated += 1
        session = ReadSession(
            session_id=next(self._session_ids),
            req_id=payload["req_id"],
            client=message.src,
            key=payload["key"],
            r=int(payload["r"]),
            icg=bool(payload.get("icg", False)),
            started_at=self.scheduler.now(),
        )
        self._read_sessions[session.session_id] = session
        self.process(self._coordinate_read, session,
                     service_time_ms=self.config.read_service_ms)

    def _coordinate_read(self, session: ReadSession) -> None:
        key = session.key
        replicas = self.partitioner.replicas_for(key)
        local_participant = self.name in replicas

        if local_participant:
            version = self.table.read(key)
            session.record(self.name, version)
            session.contacted.append(self.name)
            if session.icg:
                # Preliminary flushing: extra coordinator work, then leak the
                # local version to the client before the quorum completes.
                self.process(self._flush_preliminary, session,
                             service_time_ms=self.config.preliminary_flush_ms)

        remote_needed = session.r - (1 if local_participant else 0)
        targets = self._other_replicas_by_distance(key)[:max(0, remote_needed)]
        if targets:
            size = MESSAGE_HEADER_BYTES + self.config.key_size_bytes
            session_id = session.session_id
            epoch = self.partitioner.version
            session.contacted.extend(targets)
            self.send_many([(replica_name, "read_req",
                             {"session_id": session_id, "key": key,
                              "epoch": epoch}, size)
                            for replica_name in targets])

        self._maybe_finish_read(session)
        if not session.final_sent:
            self._arm_read_timeout(session)

    def _flush_preliminary(self, session: ReadSession) -> None:
        if session.final_sent or session.preliminary_sent:
            return
        version = session.responses.get(self.name)
        if version is None and self.name not in session.responses:
            return
        session.preliminary = version
        session.preliminary_sent = True
        self.preliminaries_flushed += 1
        self.send(session.client, "read_preliminary",
                  {"req_id": session.req_id,
                   "found": version is not None,
                   "value": version.value if version else None,
                   "timestamp": version.timestamp if version else None,
                   "replica": self.name},
                  size_bytes=(MESSAGE_HEADER_BYTES
                              + self.config.response_overhead_bytes
                              + self._value_bytes(version)))

    def on_read_req(self, message: Message) -> None:
        payload = message.payload
        self.process(self._serve_read_req, message.src,
                     payload["session_id"], payload["key"],
                     service_time_ms=self.config.read_service_ms)

    def _serve_read_req(self, coordinator: str, session_id: int, key: str) -> None:
        if self.ring_state != "serving" \
                or not self.partitioner.is_replica(self.name, key):
            # The key's range streamed away (or this node left the ring)
            # after the coordinator picked its preference list: reject so it
            # retries against the post-rebalance owners.
            self.stale_rejections += 1
            self.send(coordinator, "read_resp",
                      {"session_id": session_id,
                       "replica": self.name,
                       "stale_epoch": True,
                       "epoch": self.partitioner.version,
                       "found": False, "value": None, "timestamp": None},
                      size_bytes=(MESSAGE_HEADER_BYTES
                                  + self.config.response_overhead_bytes))
            return
        version = self.table.read(key)
        self.send(coordinator, "read_resp",
                  {"session_id": session_id,
                   "replica": self.name,
                   "found": version is not None,
                   "value": version.value if version else None,
                   "timestamp": version.timestamp if version else None},
                  size_bytes=(MESSAGE_HEADER_BYTES
                              + self.config.response_overhead_bytes
                              + self._value_bytes(version)))

    def on_read_resp(self, message: Message) -> None:
        payload = message.payload
        session = self._read_sessions.get(payload["session_id"])
        if session is None or session.final_sent:
            return
        if payload.get("stale_epoch"):
            self._retry_read_after_stale_epoch(session)
            return
        version = None
        if payload["found"]:
            version = VersionedValue(payload["value"], tuple(payload["timestamp"]))
        session.record(payload["replica"], version)
        # A coordinator that is not a replica for the key flushes the first
        # remote response as the preliminary view.
        if session.icg and not session.preliminary_sent \
                and self.name not in session.responses:
            session.preliminary = version
            session.preliminary_sent = True
            self.preliminaries_flushed += 1
            self.send(session.client, "read_preliminary",
                      {"req_id": session.req_id,
                       "found": version is not None,
                       "value": version.value if version else None,
                       "timestamp": version.timestamp if version else None,
                       "replica": payload["replica"]},
                      size_bytes=(MESSAGE_HEADER_BYTES
                                  + self.config.response_overhead_bytes
                                  + self._value_bytes(version)))
        self._maybe_finish_read(session)

    def _retry_read_after_stale_epoch(self, session: ReadSession) -> None:
        """Re-solicit a rejected read from the post-rebalance owners.

        The rejecting replica streamed the key's range away (or left the
        ring); the distance cache was invalidated by the epoch bump, so this
        walk sees the fresh preference list.
        """
        self.stale_epoch_retries += 1
        needed = session.r - len(session.responses)
        for replica_name in self._other_replicas_by_distance(session.key):
            if needed <= 0:
                break
            if replica_name in session.responses \
                    or replica_name in session.contacted:
                continue
            needed -= 1
            session.contacted.append(replica_name)
            self.send(replica_name, "read_req",
                      {"session_id": session.session_id, "key": session.key,
                       "epoch": self.partitioner.version},
                      size_bytes=(MESSAGE_HEADER_BYTES
                                  + self.config.key_size_bytes))
        # If this node became an owner in the new epoch (possible when the
        # rejected range moved here), answer from the local table directly.
        if self.name not in session.responses \
                and self.partitioner.is_replica(self.name, session.key):
            session.record(self.name, self.table.read(session.key))
            if self.name not in session.contacted:
                session.contacted.append(self.name)
            self._maybe_finish_read(session)

    # -- read timeouts (retry / downgrade) -------------------------------------
    def _arm_read_timeout(self, session: ReadSession) -> None:
        if self.config.read_timeout_ms <= 0:
            return
        session.timeout_event = self.scheduler.schedule(
            self.config.read_timeout_ms, self._on_read_timeout,
            session.session_id)

    def _on_read_timeout(self, session_id: int) -> None:
        session = self._read_sessions.get(session_id)
        if session is None or session.final_sent or not self.alive:
            return
        session.timeout_event = None
        if session.attempts < self.config.coordinator_retries:
            session.attempts += 1
            self.read_retries += 1
            # Re-solicit every replica that has not answered yet — including
            # ones beyond the original quorum fan-out, so the read can route
            # around a crashed or partitioned replica.
            for replica_name in self._other_replicas_by_distance(session.key):
                if replica_name in session.responses:
                    continue
                if replica_name not in session.contacted:
                    session.contacted.append(replica_name)
                self.send(replica_name, "read_req",
                          {"session_id": session.session_id, "key": session.key,
                           "epoch": self.partitioner.version},
                          size_bytes=(MESSAGE_HEADER_BYTES
                                      + self.config.key_size_bytes))
            self._arm_read_timeout(session)
            return
        # Retries exhausted: downgrade to the responses gathered so far, or
        # report the failure to the client.
        if self.config.downgrade_on_timeout and session.responses:
            self.reads_downgraded += 1
            self._finish_read(session, degraded=True)
            return
        self.reads_failed += 1
        session.final_sent = True
        self.send(session.client, "read_error",
                  {"req_id": session.req_id,
                   "error": "read timeout: no replica responded"},
                  size_bytes=(MESSAGE_HEADER_BYTES
                              + self.config.response_overhead_bytes))
        del self._read_sessions[session.session_id]

    def _maybe_finish_read(self, session: ReadSession) -> None:
        if session.final_sent or not session.have_quorum():
            return
        self._finish_read(session, degraded=False)

    def _finish_read(self, session: ReadSession, degraded: bool) -> None:
        if session.timeout_event is not None:
            session.timeout_event.cancel()
            session.timeout_event = None
        session.final_sent = True
        newest = session.resolved()
        matches_preliminary = (
            session.preliminary_sent
            and ((newest is None and session.preliminary is None)
                 or (newest is not None and session.preliminary is not None
                     and newest.value == session.preliminary.value))
        )
        use_confirmation = (session.icg and self.config.confirmation_optimization
                            and matches_preliminary)
        if use_confirmation:
            self.confirmations_sent += 1
            size = MESSAGE_HEADER_BYTES + self.config.confirmation_bytes
            payload = {"req_id": session.req_id,
                       "is_confirmation": True,
                       "found": newest is not None,
                       "value": None,
                       "timestamp": newest.timestamp if newest else None,
                       "matches_preliminary": True,
                       "degraded": degraded}
        else:
            size = (MESSAGE_HEADER_BYTES + self.config.response_overhead_bytes
                    + self._value_bytes(newest))
            payload = {"req_id": session.req_id,
                       "is_confirmation": False,
                       "found": newest is not None,
                       "value": newest.value if newest else None,
                       "timestamp": newest.timestamp if newest else None,
                       "matches_preliminary": matches_preliminary,
                       "degraded": degraded}
        self.send(session.client, "read_final", payload, size_bytes=size)

        if self.config.read_repair and newest is not None:
            for replica_name in session.stale_replicas():
                if replica_name == self.name:
                    self.table.apply(session.key, newest)
                    continue
                self.send(replica_name, "write_req",
                          {"key": session.key, "value": newest.value,
                           "timestamp": newest.timestamp, "session_id": None},
                          size_bytes=(MESSAGE_HEADER_BYTES
                                      + self.config.key_size_bytes
                                      + self._value_bytes(newest)))
        del self._read_sessions[session.session_id]

    # -- client write path --------------------------------------------------------
    def on_client_write(self, message: Message) -> None:
        payload = message.payload
        if self.ring_state != "serving":
            self.stale_rejections += 1
            self.send(message.src, "write_error",
                      {"req_id": payload["req_id"],
                       "error": f"coordinator {self.name} left the ring",
                       "retryable": True},
                      size_bytes=(MESSAGE_HEADER_BYTES
                                  + self.config.response_overhead_bytes))
            return
        self.writes_coordinated += 1
        timestamp = (self.scheduler.now(), self.name, next(self._write_seq))
        session = WriteSession(
            session_id=next(self._session_ids),
            req_id=payload["req_id"],
            client=message.src,
            key=payload["key"],
            w=int(payload["w"]),
            version=VersionedValue(payload["value"], timestamp),
            started_at=self.scheduler.now(),
        )
        self._write_sessions[session.session_id] = session
        self.process(self._coordinate_write, session,
                     service_time_ms=self.config.write_service_ms)

    def _coordinate_write(self, session: WriteSession) -> None:
        key = session.key
        replicas = self.partitioner.replicas_for(key)
        if self.name in replicas:
            self.table.apply(key, session.version)
            session.record_ack(self.name)
        # Send the write to every other replica: the ones beyond W make up
        # the asynchronous (eventual) replication path.
        others = self._other_replicas_by_distance(key)
        if others:
            value = session.version.value
            timestamp = session.version.timestamp
            session_id = session.session_id
            epoch = self.partitioner.version
            size = (MESSAGE_HEADER_BYTES + self.config.key_size_bytes
                    + self._value_bytes(session.version))
            self.send_many([(replica_name, "write_req",
                             {"key": key, "value": value,
                              "timestamp": timestamp,
                              "session_id": session_id,
                              "epoch": epoch}, size)
                            for replica_name in others])
        # While a membership change is in flight, also forward the write to
        # the nodes gaining this key's range (``session_id=None``: forwarded
        # copies never count towards the quorum), so no acknowledged write
        # can be lost to an in-progress stream.
        for replica_name in self.partitioner.pending_replicas_for(key):
            if replica_name == self.name:
                continue
            self.writes_forwarded += 1
            self.send(replica_name, "write_req",
                      {"key": key,
                       "value": session.version.value,
                       "timestamp": session.version.timestamp,
                       "session_id": None,
                       "epoch": self.partitioner.version},
                      size_bytes=(MESSAGE_HEADER_BYTES
                                  + self.config.key_size_bytes
                                  + self._value_bytes(session.version)))
        self._maybe_finish_write(session)
        if not session.acked_client:
            self._arm_write_timeout(session)

    def on_write_req(self, message: Message) -> None:
        payload = message.payload
        self.process(self._apply_remote_write, message.src, payload,
                     service_time_ms=self.config.write_service_ms)

    def _apply_remote_write(self, coordinator: str, payload: dict) -> None:
        if self.ring_state == "retired":
            # This node streamed its data away and left the ring; reject so
            # the coordinator re-replicates to the post-rebalance owners.
            self.stale_rejections += 1
            if payload.get("session_id") is not None:
                self.send(coordinator, "write_ack",
                          {"session_id": payload["session_id"],
                           "replica": self.name,
                           "stale_epoch": True,
                           "epoch": self.partitioner.version},
                          size_bytes=MESSAGE_HEADER_BYTES + 10)
            return
        version = VersionedValue(payload["value"], tuple(payload["timestamp"]))
        self.table.apply(payload["key"], version)
        if payload.get("session_id") is not None:
            self.send(coordinator, "write_ack",
                      {"session_id": payload["session_id"], "replica": self.name},
                      size_bytes=MESSAGE_HEADER_BYTES + 10)

    def on_write_ack(self, message: Message) -> None:
        payload = message.payload
        session = self._write_sessions.get(payload["session_id"])
        if session is None:
            return
        if payload.get("stale_epoch"):
            self._retry_write_after_stale_epoch(session)
            return
        session.record_ack(payload["replica"])
        self._maybe_finish_write(session)

    def _retry_write_after_stale_epoch(self, session: WriteSession) -> None:
        """Re-replicate a rejected write to the post-rebalance owners."""
        self.stale_epoch_retries += 1
        for replica_name in self._other_replicas_by_distance(session.key):
            if replica_name in session.acks:
                continue
            self.send(replica_name, "write_req",
                      {"key": session.key,
                       "value": session.version.value,
                       "timestamp": session.version.timestamp,
                       "session_id": session.session_id,
                       "epoch": self.partitioner.version},
                      size_bytes=(MESSAGE_HEADER_BYTES
                                  + self.config.key_size_bytes
                                  + self._value_bytes(session.version)))

    # -- write timeouts (retry / downgrade) ----------------------------------
    def _arm_write_timeout(self, session: WriteSession) -> None:
        if self.config.write_timeout_ms <= 0:
            return
        session.timeout_event = self.scheduler.schedule(
            self.config.write_timeout_ms, self._on_write_timeout,
            session.session_id)

    def _on_write_timeout(self, session_id: int) -> None:
        session = self._write_sessions.get(session_id)
        if session is None or session.acked_client or not self.alive:
            return
        session.timeout_event = None
        if session.attempts < self.config.coordinator_retries:
            session.attempts += 1
            self.write_retries += 1
            for replica_name in self._other_replicas_by_distance(session.key):
                if replica_name in session.acks:
                    continue
                self.send(replica_name, "write_req",
                          {"key": session.key,
                           "value": session.version.value,
                           "timestamp": session.version.timestamp,
                           "session_id": session.session_id},
                          size_bytes=(MESSAGE_HEADER_BYTES
                                      + self.config.key_size_bytes
                                      + self._value_bytes(session.version)))
            self._arm_write_timeout(session)
            return
        if self.config.downgrade_on_timeout and session.acks:
            self.writes_downgraded += 1
            self._ack_write(session, degraded=True)
            del self._write_sessions[session.session_id]
            return
        self.writes_failed += 1
        session.acked_client = True
        self.send(session.client, "write_error",
                  {"req_id": session.req_id,
                   "error": "write timeout: no replica acknowledged"},
                  size_bytes=(MESSAGE_HEADER_BYTES
                              + self.config.response_overhead_bytes))
        del self._write_sessions[session.session_id]

    def _maybe_finish_write(self, session: WriteSession) -> None:
        if session.acked_client or not session.have_quorum():
            return
        self._ack_write(session, degraded=False)
        # Keep the session until all replicas ack so late acks are absorbed,
        # unless every replica already answered.
        if len(session.acks) >= self.config.replication_factor:
            del self._write_sessions[session.session_id]

    def _ack_write(self, session: WriteSession, degraded: bool) -> None:
        if session.timeout_event is not None:
            session.timeout_event.cancel()
            session.timeout_event = None
        session.acked_client = True
        self.send(session.client, "write_ack_client",
                  {"req_id": session.req_id,
                   "timestamp": session.version.timestamp,
                   "degraded": degraded},
                  size_bytes=MESSAGE_HEADER_BYTES + 10)

    # -- fused fast path -------------------------------------------------------
    # The zero-fault request path: one pooled record (FusedRead/FusedWrite)
    # carries the operation through pre-bound continuations instead of
    # per-hop Messages and payload dicts.  Every network continuation below
    # starts with the delivery preamble (_deliver's alive check and
    # delivered/dropped counters); queue jobs go through Node._enqueue.
    # Accounting, jitter draws, service charging and the (time, seq) event
    # order are bit-identical to the message path — the determinism suite
    # runs fig06/fig13/fig16 slices both ways to prove it.

    def _fused_plan(self, key: str) -> tuple:
        """``(local_participant, targets)`` for ``key`` on the fused path.

        ``targets`` holds ``(node, route, read_req, write_req)`` per other
        replica in distance order: the endpoint object, its cached network
        route, and the pre-bound delivery continuations.  Invalidated by
        ring-epoch bumps and network route invalidation.
        """
        network = self.network
        # Network.fused_epoch, inlined (this runs once per coordinated op).
        if network.topology._version != network._topo_version:
            network._sync_topology()
        stamp = (self.partitioner.version, network._route_epoch)
        if self._fused_plan_stamp != stamp:
            self._fused_plans.clear()
            self._fused_plan_stamp = stamp
        plan = self._fused_plans.get(key)
        if plan is None:
            local = self.name in self.partitioner.replicas_for(key)
            targets = tuple(
                (node, network.fused_route(self.name, node.name),
                 node._fused_read_req, node._fused_write_req)
                for node in map(network.node,
                                self._other_replicas_by_distance(key)))
            if len(self._fused_plans) >= 65536:
                self._fused_plans.clear()
            plan = self._fused_plans[key] = (local, targets)
        return plan

    # -- fused read path -------------------------------------------------------
    def _fused_client_read(self, rec: FusedRead) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        if self.ring_state != "serving":
            self.stale_rejections += 1
            client = rec.client
            net.fused_send_to(
                self, client.name,
                MESSAGE_HEADER_BYTES + self.config.response_overhead_bytes,
                client._fused_read_error,
                (rec, f"coordinator {self.name} left the ring"))
            return
        self.reads_coordinated += 1
        # Node._enqueue, inlined: this preamble runs once per fused read.
        cost = self.config.read_service_ms * self.slowdown_factor
        queue = self.queue
        scheduler = queue._scheduler
        now = scheduler.clock._now
        busy = queue._busy_until
        start = now if now > busy else busy
        finish = start + cost
        queue._busy_until = finish
        queue.jobs_processed += 1
        queue.busy_time += cost
        scheduler.schedule_call_at(finish, self._fused_coordinate_read,
                                   rec.args)

    def _fused_coordinate_read(self, rec: FusedRead) -> None:
        key = rec.key
        config = self.config
        # _fused_plan, inlined down to the stamp check + dict probe (the
        # builder in _fused_plan stays the miss path).
        network = self.network
        if network.topology._version != network._topo_version:
            network._sync_topology()
        stamp = (self.partitioner.version, network._route_epoch)
        if self._fused_plan_stamp != stamp:
            self._fused_plans.clear()
            self._fused_plan_stamp = stamp
        plan = self._fused_plans.get(key)
        if plan is None:
            plan = self._fused_plan(key)
        local, targets = plan
        if local:
            version = self.table.read(key)
            rec.local = True
            rec.local_version = version
            rec.count = 1
            if version is not None:
                rec.best = version
            rec.contacted.append(self.name)
            if rec.icg:
                rec.flush_pending = True
                # Node._enqueue, inlined: the flush job runs once per ICG
                # read, right on the hot path.
                cost = config.preliminary_flush_ms * self.slowdown_factor
                queue = self.queue
                scheduler = queue._scheduler
                now = scheduler.clock._now
                busy = queue._busy_until
                begin = now if now > busy else busy
                finish = begin + cost
                queue._busy_until = finish
                queue.jobs_processed += 1
                queue.busy_time += cost
                scheduler.schedule_call_at(
                    finish, self._fused_flush_preliminary, rec.args)
        remote_needed = rec.r - rec.count
        if remote_needed > 0 and targets:
            if remote_needed < len(targets):
                targets = targets[:remote_needed]
            size = self._req_base
            # Network.fused_send, inlined per target minus its topology
            # recheck — the plan probe above synced topology in this very
            # event, so the plan routes cannot be stale here.
            net = network
            scheduler = net.scheduler
            clock = scheduler.clock
            jitter_fraction = net._jitter_fraction
            contacted = rec.contacted
            for node, route, read_req, _ in targets:
                contacted.append(node.name)
                src_node, dst_node, stats, base, src_cell, dst_cell = route
                if not src_node.alive:
                    net.messages_dropped += 1
                    continue
                net.messages_sent += 1
                if stats is None:
                    lkey = (src_node.name, dst_node.name)
                    stats = net._links.get(lkey)
                    if stats is None:
                        stats = net._links[lkey] = LinkStats()
                    route[2] = stats
                stats.messages += 1
                stats.bytes += size
                src_cell[0] += size
                if dst_cell is not None:
                    dst_cell[0] += size
                if net._partitioned or net._partitioned_regions:
                    if net.is_partitioned(src_node.name, dst_node.name):
                        net.messages_dropped += 1
                        continue
                if not dst_node.alive:
                    net.messages_dropped += 1
                    continue
                if jitter_fraction > 0:
                    delay = base + jitter_fraction * net._rand() * base
                else:
                    delay = base
                if net._link_extra_ms:
                    delay += net.link_extra_ms(src_node.name, dst_node.name)
                scheduler.schedule_call_at(clock._now + delay, read_req,
                                           rec.args)
        if rec.count >= rec.r and not rec.final_sent:
            self._fused_finish_read(rec)

    def _fused_flush_preliminary(self, rec: FusedRead) -> None:
        rec.flush_pending = False
        if rec.final_sent or rec.preliminary_sent:
            # The final overtook this job (queue backlog at the coordinator).
            # The client defers recycling while a flush job is outstanding,
            # so when it already processed the final this job holds the last
            # live reference and must hand the record back itself.
            if rec.final_done and (not rec.preliminary_sent or rec.prelim_seen):
                FusedRead.release(rec)
            return
        # The *local* version, not the best-so-far: a remote response that
        # beat this flush job must not leak into the preliminary view.
        version = rec.local_version
        rec.preliminary = version
        rec.preliminary_sent = True
        self.preliminaries_flushed += 1
        client = rec.client
        config = self.config
        # _value_bytes, inlined (one preliminary flush per local ICG read).
        if version is None:
            vbytes = 8
        else:
            value = version.value
            vbytes = (len(value) if type(value) is str and value.isascii()
                      else estimate_payload_size(value))
            if vbytes < config.value_size_bytes:
                vbytes = config.value_size_bytes
        self.network.fused_send_to(
            self, client.name,
            self._resp_base + vbytes,
            client._fused_read_preliminary, (rec, self.name))

    def _fused_read_req(self, rec: FusedRead) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        # Node._enqueue, inlined (see _fused_client_read).
        cost = self.config.read_service_ms * self.slowdown_factor
        queue = self.queue
        scheduler = queue._scheduler
        now = scheduler.clock._now
        busy = queue._busy_until
        start = now if now > busy else busy
        finish = start + cost
        queue._busy_until = finish
        queue.jobs_processed += 1
        queue.busy_time += cost
        scheduler.schedule_call_at(finish, self._fused_serve_read, rec.args)

    def _fused_serve_read(self, rec: FusedRead) -> None:
        config = self.config
        coordinator = rec.coordinator
        if self.ring_state != "serving" \
                or not self.partitioner.is_replica(self.name, rec.key):
            self.stale_rejections += 1
            self.network.fused_send_to(
                self, coordinator.name,
                self._resp_base,
                coordinator._fused_read_stale, rec.args)
            return
        version = self.table.read(rec.key)
        # _value_bytes, inlined (one remote response per contacted replica).
        if version is None:
            vbytes = 8
        else:
            value = version.value
            vbytes = (len(value) if type(value) is str and value.isascii()
                      else estimate_payload_size(value))
            if vbytes < config.value_size_bytes:
                vbytes = config.value_size_bytes
        self.network.fused_send_to(
            self, coordinator.name,
            self._resp_base + vbytes,
            coordinator._fused_read_resp, (rec, version, self.name))

    def _fused_read_resp(self, rec: FusedRead,
                         version: Optional[VersionedValue],
                         replica: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        if rec.final_sent:
            return
        rec.count += 1
        best = rec.best
        if version is not None and (best is None
                                    or version.timestamp > best.timestamp):
            rec.best = version
        # A coordinator that is not a replica for the key flushes the first
        # remote response as the preliminary view.
        if rec.icg and not rec.preliminary_sent and not rec.local:
            rec.preliminary = version
            rec.preliminary_sent = True
            self.preliminaries_flushed += 1
            client = rec.client
            config = self.config
            # _value_bytes, inlined (first remote response, non-local ICG).
            if version is None:
                vbytes = 8
            else:
                value = version.value
                vbytes = (len(value)
                          if type(value) is str and value.isascii()
                          else estimate_payload_size(value))
                if vbytes < config.value_size_bytes:
                    vbytes = config.value_size_bytes
            net.fused_send_to(
                self, client.name,
                self._resp_base + vbytes,
                client._fused_read_preliminary, (rec, replica))
        if rec.count >= rec.r:
            self._fused_finish_read(rec)

    def _fused_finish_read(self, rec: FusedRead) -> None:
        rec.final_sent = True
        config = self.config
        newest = rec.best
        matches_preliminary = (
            rec.preliminary_sent
            and ((newest is None and rec.preliminary is None)
                 or (newest is not None and rec.preliminary is not None
                     and newest.value == rec.preliminary.value))
        )
        use_confirmation = (rec.icg and config.confirmation_optimization
                            and matches_preliminary)
        if use_confirmation:
            self.confirmations_sent += 1
            size = self._conf_base
        else:
            # _value_bytes, inlined (one final response per read).
            if newest is None:
                vbytes = 8
            else:
                value = newest.value
                vbytes = (len(value) if type(value) is str and value.isascii()
                          else estimate_payload_size(value))
                if vbytes < config.value_size_bytes:
                    vbytes = config.value_size_bytes
            size = self._resp_base + vbytes
        client = rec.client
        self.network.fused_send_to(
            self, client.name, size,
            client._fused_read_final,
            (rec, use_confirmation, matches_preliminary))

    def _fused_read_stale(self, rec: FusedRead) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        if rec.final_sent:
            return
        # Mirrors _retry_read_after_stale_epoch; the record leaves the pool
        # (recyclable=False) since rescue sends hold untracked references.
        rec.recyclable = False
        self.stale_epoch_retries += 1
        size = MESSAGE_HEADER_BYTES + self.config.key_size_bytes
        needed = rec.r - rec.count
        contacted = rec.contacted
        for name in self._other_replicas_by_distance(rec.key):
            if needed <= 0:
                break
            if name in contacted:
                continue
            needed -= 1
            contacted.append(name)
            node = net.node(name)
            net.fused_send_to(self, name, size,
                              node._fused_read_req, rec.args)
        if not rec.local and self.partitioner.is_replica(self.name, rec.key):
            version = self.table.read(rec.key)
            rec.local = True
            rec.local_version = version
            rec.count += 1
            best = rec.best
            if version is not None and (best is None
                                        or version.timestamp > best.timestamp):
                rec.best = version
            if self.name not in contacted:
                contacted.append(self.name)
            if rec.count >= rec.r:
                self._fused_finish_read(rec)

    # -- fused write path ------------------------------------------------------
    def _fused_client_write(self, rec: FusedWrite) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        if self.ring_state != "serving":
            self.stale_rejections += 1
            client = rec.client
            net.fused_send_to(
                self, client.name,
                MESSAGE_HEADER_BYTES + self.config.response_overhead_bytes,
                client._fused_write_error,
                (rec, f"coordinator {self.name} left the ring"))
            return
        self.writes_coordinated += 1
        rec.version = VersionedValue(
            rec.value,
            (self.scheduler.clock._now, self.name, next(self._write_seq)))
        # Node._enqueue, inlined (see _fused_client_read).
        cost = self.config.write_service_ms * self.slowdown_factor
        queue = self.queue
        scheduler = queue._scheduler
        now = scheduler.clock._now
        busy = queue._busy_until
        start = now if now > busy else busy
        finish = start + cost
        queue._busy_until = finish
        queue.jobs_processed += 1
        queue.busy_time += cost
        scheduler.schedule_call_at(finish, self._fused_coordinate_write,
                                   rec.args)

    def _fused_coordinate_write(self, rec: FusedWrite) -> None:
        key = rec.key
        config = self.config
        net = self.network
        # _fused_plan, inlined (see _fused_coordinate_read).
        if net.topology._version != net._topo_version:
            net._sync_topology()
        stamp = (self.partitioner.version, net._route_epoch)
        if self._fused_plan_stamp != stamp:
            self._fused_plans.clear()
            self._fused_plan_stamp = stamp
        plan = self._fused_plans.get(key)
        if plan is None:
            plan = self._fused_plan(key)
        local, targets = plan
        version = rec.version
        acks_expected = 0
        if local:
            self.table.apply(key, version)
            rec.acks.append(self.name)
            rec.ack_count = 1
            acks_expected = 1
        # _value_bytes, inlined (updates write one ASCII field).
        value = version.value
        vbytes = (len(value) if type(value) is str and value.isascii()
                  else estimate_payload_size(value))
        if vbytes < config.value_size_bytes:
            vbytes = config.value_size_bytes
        size = self._req_base + vbytes
        if targets:
            # Network.fused_send, inlined per target minus its topology
            # recheck (the plan probe above synced topology in this event).
            # Only sends that were actually scheduled can ever ack; the
            # record is released once all of them (plus the local apply)
            # have, so absorbed late acks keep pool accounting exact.
            scheduler = net.scheduler
            clock = scheduler.clock
            jitter_fraction = net._jitter_fraction
            for node, route, _, write_req in targets:
                src_node, dst_node, stats, base, src_cell, dst_cell = route
                if not src_node.alive:
                    net.messages_dropped += 1
                    continue
                net.messages_sent += 1
                if stats is None:
                    lkey = (src_node.name, dst_node.name)
                    stats = net._links.get(lkey)
                    if stats is None:
                        stats = net._links[lkey] = LinkStats()
                    route[2] = stats
                stats.messages += 1
                stats.bytes += size
                src_cell[0] += size
                if dst_cell is not None:
                    dst_cell[0] += size
                if net._partitioned or net._partitioned_regions:
                    if net.is_partitioned(src_node.name, dst_node.name):
                        net.messages_dropped += 1
                        continue
                if not dst_node.alive:
                    net.messages_dropped += 1
                    continue
                if jitter_fraction > 0:
                    delay = base + jitter_fraction * net._rand() * base
                else:
                    delay = base
                if net._link_extra_ms:
                    delay += net.link_extra_ms(src_node.name, dst_node.name)
                scheduler.schedule_call_at(clock._now + delay, write_req,
                                           (rec, True))
                acks_expected += 1
        rec.acks_expected = acks_expected
        pending = self.partitioner.pending_replicas_for(key)
        if pending:
            for name in pending:
                if name == self.name:
                    continue
                self.writes_forwarded += 1
                rec.recyclable = False
                node = net.node(name)
                net.fused_send_to(self, name, size,
                                  node._fused_write_req, (rec, False))
        if rec.ack_count >= rec.w:
            self._fused_ack_client(rec)

    def _fused_write_req(self, rec: FusedWrite, ack: bool) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        # Node._enqueue, inlined (see _fused_client_read).
        cost = self.config.write_service_ms * self.slowdown_factor
        queue = self.queue
        scheduler = queue._scheduler
        now = scheduler.clock._now
        busy = queue._busy_until
        start = now if now > busy else busy
        finish = start + cost
        queue._busy_until = finish
        queue.jobs_processed += 1
        queue.busy_time += cost
        scheduler.schedule_call_at(finish, self._fused_apply_write, (rec, ack))

    def _fused_apply_write(self, rec: FusedWrite, ack: bool) -> None:
        coordinator = rec.coordinator
        if self.ring_state == "retired":
            self.stale_rejections += 1
            if ack:
                self.network.fused_send_to(
                    self, coordinator.name,
                    _ACK_BYTES,
                    coordinator._fused_write_stale, rec.args)
            return
        self.table.apply(rec.key, rec.version)
        if ack:
            self.network.fused_send_to(
                self, coordinator.name,
                _ACK_BYTES,
                coordinator._fused_on_write_ack, (rec, self.name))

    def _fused_on_write_ack(self, rec: FusedWrite, replica: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        # Happy-path acks cannot duplicate (each target acks once); only a
        # rescue re-send (recyclable already cleared) needs the name scan.
        if rec.recyclable or replica not in rec.acks:
            rec.acks.append(replica)
            rec.ack_count += 1
        count = rec.ack_count
        if not rec.acked_client and count >= rec.w:
            self._fused_ack_client(rec)
        if rec.client_done and count >= rec.acks_expected:
            FusedWrite.release(rec)

    def _fused_write_stale(self, rec: FusedWrite) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        # Mirrors _retry_write_after_stale_epoch (see _fused_read_stale).
        rec.recyclable = False
        self.stale_epoch_retries += 1
        size = (MESSAGE_HEADER_BYTES + self.config.key_size_bytes
                + self._value_bytes(rec.version))
        acks = rec.acks
        for name in self._other_replicas_by_distance(rec.key):
            if name in acks:
                continue
            node = net.node(name)
            net.fused_send_to(self, name, size,
                              node._fused_write_req, (rec, True))

    def _fused_ack_client(self, rec: FusedWrite) -> None:
        rec.acked_client = True
        client = rec.client
        self.network.fused_send_to(
            self, client.name, _ACK_BYTES,
            client._fused_write_ack, rec.args)

    # -- range streaming (ring rebalance) ---------------------------------------
    def begin_stream(self, task: StreamTask,
                     on_complete: Callable[[StreamTask], None]) -> int:
        """Start shipping ``task``'s key range to its target node.

        Stop-and-wait batches of ``config.stream_batch_items`` items: the
        scan and each batch are charged to this node's processing queue, so
        streaming competes with foreground traffic for the same server —
        which is exactly the interference fig15 measures.  ``on_complete``
        fires (on the source's event) once the final batch is acknowledged.
        """
        if task.source != self.name:
            raise ValueError(
                f"stream task sourced at {task.source!r} given to {self.name!r}")
        stream_id = next(self._stream_ids)
        state = _StreamState(stream_id=stream_id, task=task,
                             on_complete=on_complete)
        self._streams[stream_id] = state
        self.process(self._stream_scan, state,
                     service_time_ms=self.config.stream_scan_ms)
        return stream_id

    def _stream_scan(self, state: _StreamState) -> None:
        state.keys = tuple(key for key in self.table.keys()
                           if state.task.contains_key(key))
        self._stream_send_batch(state)

    def _stream_send_batch(self, state: _StreamState) -> None:
        if state.cursor >= len(state.keys):
            del self._streams[state.stream_id]
            state.on_complete(state.task)
            return
        batch = state.keys[state.cursor:
                           state.cursor + self.config.stream_batch_items]
        state.cursor += len(batch)
        items = []
        size = MESSAGE_HEADER_BYTES
        for key in batch:
            version = self.table.get(key)
            if version is None:
                continue
            items.append((key, version.value, version.timestamp))
            size += self.config.key_size_bytes + self._value_bytes(version)
        self.keys_streamed_out += len(items)
        self.send(state.task.target, "stream_data",
                  {"stream_id": state.stream_id, "items": items},
                  size_bytes=size)

    def on_stream_data(self, message: Message) -> None:
        payload = message.payload
        items = payload["items"]
        self.process(self._apply_stream_batch, message.src, payload,
                     service_time_ms=(self.config.stream_apply_ms_per_item
                                      * max(1, len(items))))

    def _apply_stream_batch(self, source: str, payload: dict) -> None:
        for key, value, timestamp in payload["items"]:
            # LWW: a streamed snapshot never clobbers a newer forwarded write.
            self.table.apply(key, VersionedValue(value, tuple(timestamp)))
        self.keys_streamed_in += len(payload["items"])
        self.send(source, "stream_ack", {"stream_id": payload["stream_id"]},
                  size_bytes=MESSAGE_HEADER_BYTES + 10)

    def on_stream_ack(self, message: Message) -> None:
        state = self._streams.get(message.payload["stream_id"])
        if state is None:
            return
        self.process(self._stream_send_batch, state,
                     service_time_ms=self.config.stream_batch_ms)
