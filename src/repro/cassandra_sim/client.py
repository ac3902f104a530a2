"""Client node for the simulated Cassandra cluster.

A client connects to one contact replica (its coordinator) and issues reads
and writes with explicit quorum sizes, mirroring the DataStax driver the
paper's prototype uses.  ICG reads (``icg=True``) produce two callbacks: one
for the coordinator's preliminary response and one for the final quorum
response.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cassandra_sim.config import CassandraConfig
from repro.cassandra_sim.coordinator import FusedRead, FusedWrite
from repro.core.retry import RetryPolicy
from repro.sim.failover import FailoverMixin
from repro.sim.network import MESSAGE_HEADER_BYTES, Message, Network, estimate_payload_size
from repro.sim.node import Node

#: ``callback(response_dict)`` where the dict carries value/found/timestamp/...
ResponseCallback = Callable[[Dict[str, Any]], None]


def _value_bytes(value: Any) -> int:
    # A YCSB update writes a single field, so a write request is sized by
    # the written payload (reads, in contrast, return the whole record and
    # are sized by the replica using ``config.value_size_bytes`` as a floor).
    if type(value) is str and value.isascii():
        return len(value)
    return estimate_payload_size(value)


@dataclass(slots=True)
class _PendingRequest:
    kind: str
    sent_at: float
    on_preliminary: Optional[ResponseCallback] = None
    on_final: Optional[ResponseCallback] = None
    preliminary_value: Any = None
    preliminary_seen: bool = False
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: Failover state: request payload for re-sends, retry count, and the
    #: pending client-side timeout event.
    request: Dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 0
    attempts: int = 0
    rotation_index: int = 0
    timeout_event: Optional[Any] = None


class CassandraClient(FailoverMixin, Node):
    """A client application node issuing operations against one coordinator.

    With ``config.client_timeout_ms`` set and ``fallback_contacts`` given, a
    request that receives no final response in time is re-issued to the next
    coordinator in the rotation — which is how sessions survive a crashed or
    partitioned-away contact replica.
    """

    def __init__(self, name: str, region: str, network: Network,
                 contact: str, config: CassandraConfig,
                 fallback_contacts: Optional[Sequence[str]] = None) -> None:
        super().__init__(name, region, network)
        self.contact = contact
        self.config = config
        self._contacts: List[str] = [contact] + [
            c for c in (fallback_contacts or []) if c != contact]
        self._req_ids = itertools.count(1)
        self._pending: Dict[int, _PendingRequest] = {}
        #: Contact replica's node object, resolved lazily on the first fused
        #: operation (registration order is not constrained at __init__).
        self._fused_coordinator: Optional[Any] = None
        self.reads_sent = 0
        self.writes_sent = 0
        # Fault-path instrumentation (stays zero with timeouts disabled).
        self.retries = 0
        self.failed_requests = 0
        #: Preliminary views that arrived after the final response — the
        #: client-side analogue of ``Correctable.discarded_updates``.
        self.late_preliminaries = 0
        # Fused continuations, bound once: coordinators pass these to fused
        # sends, and an instance-attribute load avoids materializing a new
        # bound method per reply hop.
        self._fused_read_preliminary = self._fused_read_preliminary
        self._fused_read_final = self._fused_read_final
        self._fused_read_error = self._fused_read_error
        self._fused_write_ack = self._fused_write_ack
        self._fused_write_error = self._fused_write_error

    # -- issuing operations -------------------------------------------------
    def fused_ready(self, lean: bool = False) -> bool:
        """Whether an operation issued now may take the fused fast path.

        Fused operations carry no timeout/failover machinery, so the gate
        requires every fault hook to be disarmed: a single contact (no
        rotation), all timeouts off, and no read repair.  Scenarios that arm
        any of these run the classic message path end to end.  ``lean=True``
        asks for the lean op pipeline (``protocol.lean_ops``), which also
        needs that switch on.  Checked per issued operation, so a mid-run
        switch flip routes later operations back to the classic path.
        """
        network = self.network
        config = self.config
        return (network.fast_path and (network.lean_ops or not lean)
                and len(self._contacts) == 1
                and config.client_timeout_ms <= 0
                and config.read_timeout_ms <= 0
                and config.write_timeout_ms <= 0
                and not config.read_repair)

    def _fused_contact(self) -> "Any":
        coordinator = self._fused_coordinator
        if coordinator is None:
            coordinator = self.network.node(self._contacts[0])
            self._fused_coordinator = coordinator
        return coordinator

    # The fused issue path (the caller checked :meth:`fused_ready`).  A
    # fused operation completes either through the response-dict callbacks
    # or, on the lean op pipeline, *positionally* into a pooled ``sink``
    # with no per-op dicts.  A sink implements
    # ``deliver_read_preliminary(value, timestamp, latency_ms)``,
    # ``deliver_read_final(value, timestamp, latency_ms, is_confirmation)``,
    # ``deliver_read_error(error, latency_ms)``,
    # ``deliver_write_ack(timestamp, latency_ms)`` and
    # ``deliver_write_error(error, latency_ms)``.  Latencies, byte sizes,
    # counters, and the (time, seq) event order are identical either way.

    def fused_read(self, key: str, r: int, icg: bool,
                   on_preliminary: Optional[ResponseCallback] = None,
                   on_final: Optional[ResponseCallback] = None,
                   sink: Any = None) -> int:
        """Issue a read on the fused path; returns the request id."""
        req_id = next(self._req_ids)
        self.reads_sent += 1
        coordinator = self._fused_coordinator
        if coordinator is None:
            coordinator = self._fused_contact()
        rec = FusedRead.acquire()
        rec.client = self
        rec.coordinator = coordinator
        rec.key = key
        rec.r = r
        rec.icg = icg
        rec.sent_at = self.scheduler.clock._now
        rec.on_preliminary = on_preliminary
        rec.on_final = on_final
        rec.lean = sink
        self.network.fused_send_to(
            self, coordinator.name,
            MESSAGE_HEADER_BYTES + self.config.key_size_bytes + 8,
            coordinator._fused_client_read, rec.args)
        return req_id

    def fused_write(self, key: str, value: Any, w: int,
                    on_final: Optional[ResponseCallback] = None,
                    sink: Any = None) -> int:
        """Issue a write on the fused path; returns the request id."""
        req_id = next(self._req_ids)
        self.writes_sent += 1
        coordinator = self._fused_coordinator
        if coordinator is None:
            coordinator = self._fused_contact()
        rec = FusedWrite.acquire()
        rec.client = self
        rec.coordinator = coordinator
        rec.key = key
        rec.value = value
        rec.version = None
        rec.w = w
        rec.sent_at = self.scheduler.clock._now
        rec.on_final = on_final
        rec.lean = sink
        self.network.fused_send_to(
            self, coordinator.name,
            (MESSAGE_HEADER_BYTES + self.config.key_size_bytes
             + _value_bytes(value)),
            coordinator._fused_client_write, rec.args)
        return req_id

    def read(self, key: str, r: int = 1, icg: bool = False,
             on_preliminary: Optional[ResponseCallback] = None,
             on_final: Optional[ResponseCallback] = None) -> int:
        """Issue a read with read-quorum ``r``; returns the request id."""
        if self.fused_ready():
            return self.fused_read(key, r, icg, on_preliminary, on_final)
        req_id = next(self._req_ids)
        self.reads_sent += 1
        pending = _PendingRequest(
            kind="read", sent_at=self.scheduler.now(),
            on_preliminary=on_preliminary, on_final=on_final,
            request={"req_id": req_id, "key": key, "r": r, "icg": icg},
            size_bytes=MESSAGE_HEADER_BYTES + self.config.key_size_bytes + 8)
        self._pending[req_id] = pending
        self._dispatch(pending, "client_read")
        return req_id

    def write(self, key: str, value: Any, w: int = 1,
              on_final: Optional[ResponseCallback] = None) -> int:
        """Issue a write with write-quorum ``w``; returns the request id."""
        if self.fused_ready():
            return self.fused_write(key, value, w, on_final)
        req_id = next(self._req_ids)
        self.writes_sent += 1
        pending = _PendingRequest(
            kind="write", sent_at=self.scheduler.now(), on_final=on_final,
            request={"req_id": req_id, "key": key, "value": value, "w": w},
            size_bytes=(MESSAGE_HEADER_BYTES + self.config.key_size_bytes
                        + _value_bytes(value)))
        self._pending[req_id] = pending
        self._dispatch(pending, "client_write")
        return req_id

    # -- dispatch & failover (see FailoverMixin) ------------------------------
    def _message_kind(self, pending: _PendingRequest) -> str:
        return "client_read" if pending.kind == "read" else "client_write"

    def _dispatch(self, pending: _PendingRequest, message_kind: str) -> None:
        contact = self._contacts[pending.rotation_index % len(self._contacts)]
        # The request dict is shared with the message (no defensive copy):
        # replica handlers only read payloads, and a re-dispatch after
        # failover sends the identical request anyway.
        self.send(contact, message_kind, pending.request,
                  size_bytes=pending.size_bytes)
        self._arm_request_timeout(pending, pending.request["req_id"],
                                  self.config.client_timeout_ms)

    def _redispatch(self, pending: _PendingRequest) -> None:
        self._dispatch(pending, self._message_kind(pending))

    def _failover_retries(self) -> int:
        return self.config.client_retries

    def _retry_policy(self) -> RetryPolicy:
        policy = self._failover_policy
        if policy is None:
            policy = RetryPolicy(
                max_retries=self.config.client_retries,
                base_delay_ms=self.config.client_backoff_base_ms,
                multiplier=self.config.client_backoff_multiplier,
                cap_ms=self.config.client_backoff_cap_ms,
                jitter_ms=self.config.client_backoff_jitter_ms,
                label=f"failover:{self.name}")
            self._failover_policy = policy
        return policy

    def _timeout_failure_response(self, pending: _PendingRequest) -> Dict[str, Any]:
        return {
            "value": None,
            "found": False,
            "timestamp": None,
            "is_confirmation": False,
            "error": "client timeout: no coordinator responded",
            "latency_ms": self.scheduler.now() - pending.sent_at,
        }

    # -- responses ---------------------------------------------------------------
    def on_read_preliminary(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.get(payload["req_id"])
        if pending is None:
            self.late_preliminaries += 1
            return
        pending.preliminary_seen = True
        pending.preliminary_value = payload["value"]
        if pending.on_preliminary is not None:
            pending.on_preliminary({
                "value": payload["value"],
                "found": payload["found"],
                "timestamp": payload["timestamp"],
                "replica": payload.get("replica"),
                "latency_ms": self.scheduler.now() - pending.sent_at,
                "is_confirmation": False,
            })

    def on_read_final(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.pop(payload["req_id"], None)
        if pending is None:
            return
        self._settle(pending)
        is_confirmation = bool(payload.get("is_confirmation", False))
        value = payload["value"]
        if is_confirmation:
            # The storage elided the payload: the preliminary value is final.
            value = pending.preliminary_value
        if pending.on_final is not None:
            pending.on_final({
                "value": value,
                "found": payload["found"],
                "timestamp": payload["timestamp"],
                "is_confirmation": is_confirmation,
                "matches_preliminary": payload.get("matches_preliminary"),
                "degraded": bool(payload.get("degraded", False)),
                "latency_ms": self.scheduler.now() - pending.sent_at,
            })

    def on_read_error(self, message: Message) -> None:
        self._fail_pending(message.payload)

    def on_write_error(self, message: Message) -> None:
        self._fail_pending(message.payload)

    def _fail_pending(self, payload: Dict[str, Any]) -> None:
        pending = self._pending.pop(payload["req_id"], None)
        if pending is None:
            return
        self._settle(pending)
        # A coordinator that left the ring answers with a *retryable* error:
        # rotate to the next contact instead of failing the request (the
        # rebalance analogue of timeout-driven failover).
        if payload.get("retryable") and len(self._contacts) > 1 \
                and self._retry_policy().should_retry(pending.attempts):
            pending.attempts += 1
            pending.rotation_index += 1
            self.retries += 1
            self._pending[payload["req_id"]] = pending
            self._redispatch(pending)
            return
        self.failed_requests += 1
        if pending.on_final is not None:
            pending.on_final({
                "value": None,
                "found": False,
                "timestamp": None,
                "is_confirmation": False,
                "error": payload.get("error", "storage error"),
                "latency_ms": self.scheduler.now() - pending.sent_at,
            })

    def on_write_ack_client(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.pop(payload["req_id"], None)
        if pending is None:
            return
        self._settle(pending)
        if pending.on_final is not None:
            pending.on_final({
                "value": True,
                "found": True,
                "timestamp": payload.get("timestamp"),
                "is_confirmation": False,
                "degraded": bool(payload.get("degraded", False)),
                "latency_ms": self.scheduler.now() - pending.sent_at,
            })

    # -- fused fast path responses -------------------------------------------
    # Network continuations: each starts with the delivery preamble (the
    # alive check plus delivered/dropped counters _deliver does for
    # messages).  Records are recycled before callbacks run — a callback may
    # issue the next operation, which is allowed to reuse the record — so
    # everything the callback dict needs is captured first.
    def _fused_read_preliminary(self, rec: FusedRead, replica: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        if rec.final_done:
            # Outlived the final response (the coordinator was slowed, or the
            # flush job lost the race): count and recycle, no callback.
            self.late_preliminaries += 1
            rec.prelim_seen = True
            if not rec.flush_pending:
                FusedRead.release(rec)
            return
        rec.prelim_seen = True
        version = rec.preliminary
        value = version.value if version is not None else None
        rec.prelim_value = value
        lean = rec.lean
        if lean is not None:
            lean.deliver_read_preliminary(
                value, version.timestamp if version is not None else None,
                self.scheduler.clock._now - rec.sent_at)
        elif rec.on_preliminary is not None:
            rec.on_preliminary({
                "value": value,
                "found": version is not None,
                "timestamp": version.timestamp if version is not None else None,
                "replica": replica,
                "latency_ms": self.scheduler.clock._now - rec.sent_at,
                "is_confirmation": False,
            })

    def _fused_read_final(self, rec: FusedRead, is_confirmation: bool,
                          matches_preliminary: bool) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        rec.final_done = True
        version = rec.best
        if is_confirmation:
            # The storage elided the payload: the preliminary value is final.
            value = rec.prelim_value
        else:
            value = version.value if version is not None else None
        timestamp = version.timestamp if version is not None else None
        lean = rec.lean
        if lean is not None:
            sent_at = rec.sent_at
            if not rec.flush_pending \
                    and (not rec.preliminary_sent or rec.prelim_seen):
                FusedRead.release(rec)
            lean.deliver_read_final(
                value, timestamp, self.scheduler.clock._now - sent_at,
                is_confirmation)
            return
        found = version is not None
        cb = rec.on_final
        sent_at = rec.sent_at
        if not rec.flush_pending and (not rec.preliminary_sent or rec.prelim_seen):
            FusedRead.release(rec)
        if cb is not None:
            cb({
                "value": value,
                "found": found,
                "timestamp": timestamp,
                "is_confirmation": is_confirmation,
                "matches_preliminary": matches_preliminary,
                "degraded": False,
                "latency_ms": self.scheduler.clock._now - sent_at,
            })

    def _fused_read_error(self, rec: FusedRead, error: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        self.failed_requests += 1
        lean = rec.lean
        cb = rec.on_final
        sent_at = rec.sent_at
        FusedRead.release(rec)
        if lean is not None:
            lean.deliver_read_error(
                error, self.scheduler.clock._now - sent_at)
        elif cb is not None:
            cb({
                "value": None,
                "found": False,
                "timestamp": None,
                "is_confirmation": False,
                "error": error,
                "latency_ms": self.scheduler.clock._now - sent_at,
            })

    def _fused_write_ack(self, rec: FusedWrite) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        rec.client_done = True
        lean = rec.lean
        cb = rec.on_final
        sent_at = rec.sent_at
        timestamp = rec.version.timestamp
        if rec.ack_count >= rec.acks_expected:
            FusedWrite.release(rec)
        if lean is not None:
            lean.deliver_write_ack(
                timestamp, self.scheduler.clock._now - sent_at)
            return
        if cb is not None:
            cb({
                "value": True,
                "found": True,
                "timestamp": timestamp,
                "is_confirmation": False,
                "degraded": False,
                "latency_ms": self.scheduler.clock._now - sent_at,
            })

    def _fused_write_error(self, rec: FusedWrite, error: str) -> None:
        net = self.network
        if not self.alive:
            net.messages_dropped += 1
            return
        net.messages_delivered += 1
        self.failed_requests += 1
        lean = rec.lean
        cb = rec.on_final
        sent_at = rec.sent_at
        FusedWrite.release(rec)
        if lean is not None:
            lean.deliver_write_error(
                error, self.scheduler.clock._now - sent_at)
            return
        if cb is not None:
            cb({
                "value": None,
                "found": False,
                "timestamp": None,
                "is_confirmation": False,
                "error": error,
                "latency_ms": self.scheduler.clock._now - sent_at,
            })
