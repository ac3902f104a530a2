"""Message-passing network with latency and byte accounting.

Nodes register under a unique name; :meth:`Network.send` delivers a
:class:`Message` to the destination node's ``handle_message`` after a one-way
delay drawn from the :class:`~repro.sim.topology.Topology`.  Every message's
size is charged to the (source, destination) link, which is what the paper's
bandwidth figures (Figures 8 and 10) measure on the client-replica links.

The send path is written for throughput:

* with no faults installed the partition/degradation checks cost one
  truthiness test each (no ``frozenset`` allocation), per-node byte totals
  are maintained as O(1) counters, and payload sizing is iterative with a
  cache for non-ASCII strings;
* per-(src, dst) *routes* — endpoint nodes, link stats and the jitter-free
  base delay — are cached and invalidated by topology edits (a version
  counter), membership changes and ``reset_stats``; jitter is applied
  inline with the exact arithmetic of ``Topology.one_way``;
* delivered :class:`Message` objects are recycled through a free-list pool
  guarded by a refcount check, so steady-state traffic allocates no message
  objects at all (see :meth:`Network.pool_stats`);
* :meth:`Network.send_many` fans a burst out of one node (a quorum
  read's or a write's replica fan-out); each delivery is its own scheduler
  entry.

The *fused* protocol fast path (:attr:`Network.fast_path`, default on) goes
one step further: protocol layers that carry their own per-operation state
skip :class:`Message` entirely and schedule a pre-bound continuation at the
delivery instant via :meth:`Network.fused_send` /
:meth:`Network.fused_account`.  Accounting, drop rules, and the jitter draw
are bit-identical to :meth:`send` — same ``messages_sent`` /
``messages_dropped`` counters, same :class:`LinkStats` and per-node byte
cells, same RNG consumption — so golden event traces are unchanged; only
the per-send object churn (message shell, payload dict, handler dispatch)
disappears.  Delivery-side accounting (``messages_delivered`` and the
dead-destination drop) is the receiving continuation's responsibility.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.sim.scheduler import Scheduler
from repro.sim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.node import Node

#: Fixed per-message framing overhead (TCP/IP + RPC headers), in bytes.
MESSAGE_HEADER_BYTES = 50

_message_ids = itertools.count(1)

#: Upper bound on the per-network message free list; bounds pool memory at
#: the peak number of simultaneously in-flight messages worth keeping.
_MESSAGE_POOL_MAX = 4096

#: UTF-8 sizes of non-ASCII strings seen by :func:`estimate_payload_size`
#: (ASCII strings — the common case — are sized with ``len`` directly).
_STR_SIZE_CACHE: Dict[str, int] = {}
_STR_SIZE_CACHE_LIMIT = 4096


def _utf8_size(text: str) -> int:
    if text.isascii():
        return len(text)
    size = _STR_SIZE_CACHE.get(text)
    if size is None:
        if len(_STR_SIZE_CACHE) >= _STR_SIZE_CACHE_LIMIT:
            _STR_SIZE_CACHE.clear()
        size = len(text.encode("utf-8"))
        _STR_SIZE_CACHE[text] = size
    return size


def estimate_payload_size(payload: Any) -> int:
    """Rough byte size of a message payload.

    The simulator does not serialize payloads; this helper estimates sizes so
    bandwidth figures have realistic proportions.  Callers that know the true
    wire size (e.g. a 100 B YCSB value) should pass ``size_bytes`` explicitly
    to :meth:`Network.send` instead.  Traversal is iterative (no recursion
    limit on deeply nested payloads) and sums are order-independent, so the
    result matches the original recursive definition exactly.
    """
    total = 0
    stack = [payload]
    pop = stack.pop
    while stack:
        item = pop()
        if item is None:
            continue
        tp = type(item)
        if tp is str:
            total += _utf8_size(item)
        elif tp is bool:
            total += 1
        elif tp is int or tp is float:
            total += 8
        elif tp is bytes:
            total += len(item)
        elif tp is dict:
            for key, value in item.items():
                stack.append(key)
                stack.append(value)
        elif tp is list or tp is tuple or tp is set or tp is frozenset:
            stack.extend(item)
        # Subclasses of the above (rare) and unknown types:
        elif isinstance(item, bool):
            total += 1
        elif isinstance(item, (int, float)):
            total += 8
        elif isinstance(item, bytes):
            total += len(item)
        elif isinstance(item, str):
            total += _utf8_size(item)
        elif isinstance(item, dict):
            for key, value in item.items():
                stack.append(key)
                stack.append(value)
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        else:
            total += 32
    return total


class Message:
    """A network message between two named nodes."""

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "msg_id",
                 "send_time")

    def __init__(self, src: str, dst: str, kind: str,
                 payload: Optional[Dict[str, Any]] = None,
                 size_bytes: Optional[int] = 0, msg_id: int = 0,
                 send_time: float = 0.0) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = {} if payload is None else payload
        self.msg_id = msg_id if msg_id else next(_message_ids)
        self.send_time = send_time
        if size_bytes is None or size_bytes <= 0:
            size_bytes = MESSAGE_HEADER_BYTES + estimate_payload_size(
                self.payload)
        self.size_bytes = size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(src={self.src!r}, dst={self.dst!r}, "
                f"kind={self.kind!r}, size_bytes={self.size_bytes}, "
                f"msg_id={self.msg_id})")


@dataclass
class LinkStats:
    """Accumulated traffic statistics for one directed link."""

    messages: int = 0
    bytes: int = 0

    def record(self, size_bytes: int) -> None:
        self.messages += 1
        self.bytes += size_bytes


class _FrozenLinkStats(LinkStats):
    """The shared all-zero stats returned for links that never carried
    traffic.  Immutable, so callers cannot corrupt one another's view by
    mutating what used to be a per-call throwaway instance."""

    def __init__(self) -> None:
        object.__setattr__(self, "messages", 0)
        object.__setattr__(self, "bytes", 0)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            "this LinkStats is the shared zero for unused links; "
            "it cannot be mutated")

    def record(self, size_bytes: int) -> None:
        raise AttributeError(
            "this LinkStats is the shared zero for unused links; "
            "record traffic through Network.send instead")


#: Returned by :meth:`Network.link_stats` for links with no recorded traffic.
EMPTY_LINK_STATS = _FrozenLinkStats()


class Network:
    """Delivers messages between registered nodes with WAN latencies."""

    __slots__ = ("scheduler", "topology", "_clock", "_rand",
                 "_jitter_fraction", "_nodes", "_links", "_node_cells",
                 "_partitioned", "_partitioned_regions", "_link_extra_ms",
                 "_routes", "_route_epoch", "_topo_version", "_msg_pool",
                 "messages_sent", "messages_delivered", "messages_dropped",
                 "pool_created", "pool_reused", "pool_recycled", "pool_debug",
                 "fast_path", "lean_ops")

    def __init__(self, scheduler: Scheduler, topology: Topology) -> None:
        self.scheduler = scheduler
        self._clock = scheduler.clock
        self.topology = topology
        self._nodes: Dict[str, "Node"] = {}
        self._links: Dict[Tuple[str, str], LinkStats] = {}
        #: O(1) per-node byte totals (every link where the node is an
        #: endpoint), kept as single-element list cells so cached routes can
        #: charge them without a dict lookup per send.
        self._node_cells: Dict[str, list] = {}
        self._partitioned: set = set()
        self._partitioned_regions: set = set()
        #: Extra one-way latency (ms) per node pair or region pair; region
        #: keys use the ``"region:<name>"`` form so the two namespaces never
        #: collide with node names.
        self._link_extra_ms: Dict[frozenset, float] = {}
        #: (src, dst) -> [src_node, dst_node, LinkStats | None, base_delay,
        #: src_byte_cell, dst_byte_cell | None].  Stats are filled in on
        #: first charge so dead-sender traffic never materializes a link
        #: entry (matching the uncached behaviour).
        self._routes: Dict[Tuple[str, str], list] = {}
        #: Free list of delivered messages awaiting reuse, plus counters for
        #: the pool tests; ``pool_debug`` adds aliasing assertions.
        self._msg_pool: List[Message] = []
        self.pool_created = 0
        self.pool_reused = 0
        self.pool_recycled = 0
        self.pool_debug = False
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Kill-switch for the fused protocol fast path.  Protocol layers check
        #: it when an operation is *issued*; in-flight fused operations
        #: complete fused after a flip.
        self.fast_path = True
        #: Kill-switch for the lean op pipeline (``protocol.lean_ops``): the
        #: allocation-free completion path where pooled sinks replace the
        #: per-op response/info dicts and callback closures.  Requires the
        #: fused path; checked when an operation is *issued* (so a mid-run
        #: flip only affects subsequent operations) and falls back to the
        #: classic dict pipeline whenever the fused gate fails.
        self.lean_ops = True
        #: Bumped whenever :attr:`_routes` is invalidated; protocol-level
        #: fused-route caches revalidate against it instead of probing the
        #: route dict per send.
        self._route_epoch = 0
        self._sync_topology()

    def _sync_topology(self) -> None:
        """Refresh everything cached off the topology (see ``_version``)."""
        topology = self.topology
        self._routes.clear()
        self._route_epoch += 1
        self._jitter_fraction = topology.jitter_fraction
        self._rand = topology._rng.random
        self._topo_version = topology._version

    # -- membership ------------------------------------------------------
    def register(self, node: "Node") -> None:
        """Register a node; its name must be unique within the network."""
        if node.name in self._nodes:
            raise ValueError(f"node name already registered: {node.name}")
        self._nodes[node.name] = node
        self._routes.clear()
        self._route_epoch += 1

    def unregister(self, name: str) -> None:
        self._nodes.pop(name, None)
        self._routes.clear()
        self._route_epoch += 1

    def node(self, name: str) -> "Node":
        return self._nodes[name]

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    # -- fault injection ---------------------------------------------------
    def partition(self, name_a: str, name_b: str) -> None:
        """Drop all future messages between two nodes (both directions)."""
        self._partitioned.add(frozenset({name_a, name_b}))

    def heal(self, name_a: str, name_b: str) -> None:
        """Remove a partition previously installed by :meth:`partition`."""
        self._partitioned.discard(frozenset({name_a, name_b}))

    def partition_regions(self, region_a: str, region_b: str) -> None:
        """Drop all future messages between two regions (both directions).

        A WAN partition: every node in ``region_a`` loses connectivity to
        every node in ``region_b``, regardless of when nodes join.
        """
        self._partitioned_regions.add(frozenset({region_a, region_b}))

    def heal_regions(self, region_a: str, region_b: str) -> None:
        """Remove a region partition installed by :meth:`partition_regions`."""
        self._partitioned_regions.discard(frozenset({region_a, region_b}))

    def is_partitioned(self, name_a: str, name_b: str) -> bool:
        if self._partitioned \
                and frozenset({name_a, name_b}) in self._partitioned:
            return True
        if self._partitioned_regions:
            node_a = self._nodes.get(name_a)
            node_b = self._nodes.get(name_b)
            if node_a is not None and node_b is not None:
                key = frozenset({node_a.region, node_b.region})
                if key in self._partitioned_regions:
                    return True
        return False

    def degrade_link(self, endpoint_a: str, endpoint_b: str,
                     extra_ms: float) -> None:
        """Add one-way latency between two nodes (or two ``region:<r>`` keys)."""
        if extra_ms < 0:
            raise ValueError("extra latency must be non-negative")
        self._link_extra_ms[frozenset({endpoint_a, endpoint_b})] = extra_ms

    def restore_link(self, endpoint_a: str, endpoint_b: str) -> None:
        """Remove a degradation installed by :meth:`degrade_link`."""
        self._link_extra_ms.pop(frozenset({endpoint_a, endpoint_b}), None)

    def link_extra_ms(self, src: str, dst: str) -> float:
        """Total injected one-way latency currently applied to src→dst."""
        if not self._link_extra_ms:
            return 0.0
        extra = self._link_extra_ms.get(frozenset({src, dst}), 0.0)
        src_node = self._nodes.get(src)
        dst_node = self._nodes.get(dst)
        if src_node is not None and dst_node is not None:
            extra += self._link_extra_ms.get(
                frozenset({f"region:{src_node.region}",
                           f"region:{dst_node.region}"}), 0.0)
        return extra

    # -- traffic -----------------------------------------------------------
    def _route(self, src: str, dst: str) -> list:
        """Build and cache the route entry for one (src, dst) pair.

        The jitter-free base delay is precomputed with exactly the
        arithmetic of :meth:`Topology.one_way` (loopback or RTT halved);
        stats start as ``None`` and are created on first charge; the byte
        cells alias :attr:`_node_cells` (``None`` dst cell for self-sends,
        which charge the endpoint once).
        """
        nodes = self._nodes
        src_node = nodes.get(src)
        if src_node is None:
            raise KeyError(f"unknown source node: {src}")
        dst_node = nodes.get(dst)
        if dst_node is None:
            raise KeyError(f"unknown destination node: {dst}")
        topology = self.topology
        src_host = src_node.host
        same_host = (src_host is not None
                     and src_host == dst_node.host) or src == dst
        if same_host:
            base = topology.loopback_rtt_ms / 2.0
        else:
            base = topology.rtt(src_node.region, dst_node.region) / 2.0
        cells = self._node_cells
        src_cell = cells.get(src)
        if src_cell is None:
            src_cell = cells[src] = [0]
        if dst == src:
            dst_cell = None
        else:
            dst_cell = cells.get(dst)
            if dst_cell is None:
                dst_cell = cells[dst] = [0]
        route = [src_node, dst_node, self._links.get((src, dst)), base,
                 src_cell, dst_cell]
        self._routes[(src, dst)] = route
        return route

    def _prepare(self, src: str, dst: str, kind: str,
                 payload: Optional[Dict[str, Any]],
                 size_bytes: Optional[int]
                 ) -> Tuple[Optional[float], Message, "Node"]:
        """Account one send; returns ``(delay_ms | None, message, dst_node)``.

        A ``None`` delay means the message was dropped (dead endpoint or
        partition) and must not be scheduled for delivery.  This is the
        hottest function in the simulator; everything it touches per call is
        either a local, a cached route field, or a plain counter.
        """
        if self.topology._version != self._topo_version:
            self._sync_topology()
        route = self._routes.get((src, dst))
        if route is None:
            route = self._route(src, dst)
        src_node, dst_node, stats, base, src_cell, dst_cell = route
        # Inline message acquire: reuse a recycled shell when one is free.
        pool = self._msg_pool
        if pool:
            message = pool.pop()
            if self.pool_debug:
                # 2 = this local + getrefcount's argument: a pooled message
                # referenced by anything else would alias live state.
                assert sys.getrefcount(message) == 2, \
                    "message pool recycled an object that is still referenced"
            self.pool_reused += 1
            message.src = src
            message.dst = dst
            message.kind = kind
            message.payload = payload if payload is not None else {}
            message.msg_id = next(_message_ids)
            message.send_time = self._clock._now
            if size_bytes is None or size_bytes <= 0:
                size_bytes = MESSAGE_HEADER_BYTES + estimate_payload_size(
                    message.payload)
            message.size_bytes = size_bytes
        else:
            self.pool_created += 1
            message = Message(src, dst, kind, payload, size_bytes,
                              send_time=self._clock._now)
            size_bytes = message.size_bytes
        if not src_node.alive:
            self.messages_dropped += 1
            return None, message, dst_node
        self.messages_sent += 1
        if stats is None:
            stats = self._links.get((src, dst))
            if stats is None:
                stats = self._links[(src, dst)] = LinkStats()
            route[2] = stats
        stats.messages += 1
        stats.bytes += size_bytes
        src_cell[0] += size_bytes
        if dst_cell is not None:
            dst_cell[0] += size_bytes

        # Zero-fault fast path: with no partitions installed the check is
        # two falsy tests, no frozenset allocation.
        if self._partitioned or self._partitioned_regions:
            if self.is_partitioned(src, dst):
                self.messages_dropped += 1
                return None, message, dst_node
        if not dst_node.alive:
            self.messages_dropped += 1
            return None, message, dst_node

        # Inline Topology.one_way over the cached base: uniform(0, jf) is
        # exactly jf * random(), so the delay sample is bit-identical.
        jitter_fraction = self._jitter_fraction
        if jitter_fraction > 0:
            delay = base + jitter_fraction * self._rand() * base
        else:
            delay = base
        if self._link_extra_ms:
            delay += self.link_extra_ms(src, dst)
        return delay, message, dst_node

    def send(self, src: str, dst: str, kind: str,
             payload: Optional[Dict[str, Any]] = None,
             size_bytes: Optional[int] = None,
             extra_delay_ms: float = 0.0) -> Message:
        """Send a message; returns the :class:`Message` (already accounted).

        The message is charged to the link even if the destination is down or
        partitioned away — bytes leave the sender's NIC regardless.  A *dead
        sender*, however, sends nothing at all: work still queued on a
        crashed node must not leak protocol messages (or bytes) out of it.
        """
        delay, message, dst_node = self._prepare(src, dst, kind, payload,
                                                 size_bytes)
        if delay is not None:
            self.scheduler.schedule_call(delay + extra_delay_ms,
                                         self._deliver, (message, dst_node))
        return message

    def send_many(self, src: str,
                  sends: Sequence[Tuple[str, str,
                                        Optional[Dict[str, Any]],
                                        Optional[int]]]) -> List[Message]:
        """Fan a burst of ``(dst, kind, payload, size_bytes)`` out of ``src``.

        Equivalent to calling :meth:`send` once per tuple in order — same
        jitter draws, message ids, accounting and delivery entries.  The
        multi-replica fan-outs (quorum reads, write replication) send
        through this.
        """
        schedule_call_at = self.scheduler.schedule_call_at
        now = self._clock._now
        deliver = self._deliver
        messages: List[Message] = []
        for dst, kind, payload, size_bytes in sends:
            delay, message, dst_node = self._prepare(src, dst, kind, payload,
                                                     size_bytes)
            messages.append(message)
            if delay is not None:
                schedule_call_at(now + delay, deliver, (message, dst_node))
        return messages

    def _deliver(self, message: Message, node: "Node") -> None:
        # The destination node object is captured at send time (nodes are
        # never unregistered mid-run — they crash, which flips ``alive``).
        if node.alive:
            self.messages_delivered += 1
            # Dispatch through the node's handler cache directly;
            # handle_message fills the cache on the first message of a kind
            # (and raises for unknown kinds).
            handler = node._handler_cache.get(message.kind)
            if handler is not None:
                handler(message)
            else:
                node.handle_message(message)
        else:
            self.messages_dropped += 1
        # Recycle if nothing kept a reference: 3 = the scheduler entry's args
        # tuple + this local + getrefcount's argument.  Tests (or sessions)
        # that hold the message raise the count and opt out automatically.
        pool = self._msg_pool
        if len(pool) < _MESSAGE_POOL_MAX and sys.getrefcount(message) == 3:
            if self.pool_debug:
                assert all(pooled is not message for pooled in pool), \
                    "message recycled twice"
            self.pool_recycled += 1
            message.payload = None
            pool.append(message)

    def pool_stats(self) -> Dict[str, int]:
        """Message-pool counters (created / reused / recycled / free)."""
        return {"created": self.pool_created,
                "reused": self.pool_reused,
                "recycled": self.pool_recycled,
                "free": len(self._msg_pool)}

    # -- fused fast path ---------------------------------------------------
    def fused_epoch(self) -> int:
        """Current route epoch, syncing pending topology edits first.

        Protocol-level route/plan caches validate against this (not the raw
        :attr:`_route_epoch`): an RTT edit bumps only the topology version
        until the next send, and a stale cached base delay must not survive
        into a fused fan-out loop after the first send re-syncs.
        """
        if self.topology._version != self._topo_version:
            self._sync_topology()
        return self._route_epoch

    def fused_route(self, src: str, dst: str) -> list:
        """The cached route entry for src→dst, for fused protocol senders.

        Callers hold the returned list and revalidate their hold against
        :attr:`_route_epoch` (the list is shared with :meth:`_prepare`, so
        fused and message sends charge the very same stats and byte cells).
        """
        if self.topology._version != self._topo_version:
            self._sync_topology()
        route = self._routes.get((src, dst))
        if route is None:
            route = self._route(src, dst)
        return route

    def fused_account(self, route: list, size_bytes: int) -> Optional[float]:
        """Account one fused send; returns the delivery delay or ``None``.

        Bit-for-bit the accounting of :meth:`_prepare` without the message
        shell: sender-side drop rules, link/byte charging, and the jitter
        draw happen in the same order with the same arithmetic, so a fused
        run consumes the topology RNG exactly like a message run.  ``None``
        means the send was dropped and nothing must be scheduled.
        """
        if self.topology._version != self._topo_version:
            self._sync_topology()
            route = self._route(route[0].name, route[1].name)
        src_node, dst_node, stats, base, src_cell, dst_cell = route
        if not src_node.alive:
            self.messages_dropped += 1
            return None
        self.messages_sent += 1
        if stats is None:
            key = (src_node.name, dst_node.name)
            stats = self._links.get(key)
            if stats is None:
                stats = self._links[key] = LinkStats()
            route[2] = stats
        stats.messages += 1
        stats.bytes += size_bytes
        src_cell[0] += size_bytes
        if dst_cell is not None:
            dst_cell[0] += size_bytes
        if self._partitioned or self._partitioned_regions:
            if self.is_partitioned(src_node.name, dst_node.name):
                self.messages_dropped += 1
                return None
        if not dst_node.alive:
            self.messages_dropped += 1
            return None
        jitter_fraction = self._jitter_fraction
        if jitter_fraction > 0:
            delay = base + jitter_fraction * self._rand() * base
        else:
            delay = base
        if self._link_extra_ms:
            delay += self.link_extra_ms(src_node.name, dst_node.name)
        return delay

    def fused_send(self, route: list, size_bytes: int,
                   fn: Any, args: tuple) -> bool:
        """Account one fused send and schedule ``fn(*args)`` at delivery.

        The continuation owns the delivery-side bookkeeping that
        :meth:`_deliver` does for messages: bump ``messages_delivered`` when
        the destination is alive, ``messages_dropped`` when it is not.
        Returns ``False`` when the send was dropped (nothing scheduled).

        :meth:`fused_account` is inlined — this runs once per protocol hop,
        and the extra call frame is measurable at full fig06 scale.  Keep the
        accounting sequence bit-identical to :meth:`_prepare` /
        :meth:`fused_account`.
        """
        if self.topology._version != self._topo_version:
            self._sync_topology()
            route = self._route(route[0].name, route[1].name)
        src_node, dst_node, stats, base, src_cell, dst_cell = route
        if not src_node.alive:
            self.messages_dropped += 1
            return False
        self.messages_sent += 1
        if stats is None:
            key = (src_node.name, dst_node.name)
            stats = self._links.get(key)
            if stats is None:
                stats = self._links[key] = LinkStats()
            route[2] = stats
        stats.messages += 1
        stats.bytes += size_bytes
        src_cell[0] += size_bytes
        if dst_cell is not None:
            dst_cell[0] += size_bytes
        if self._partitioned or self._partitioned_regions:
            if self.is_partitioned(src_node.name, dst_node.name):
                self.messages_dropped += 1
                return False
        if not dst_node.alive:
            self.messages_dropped += 1
            return False
        jitter_fraction = self._jitter_fraction
        if jitter_fraction > 0:
            delay = base + jitter_fraction * self._rand() * base
        else:
            delay = base
        if self._link_extra_ms:
            delay += self.link_extra_ms(src_node.name, dst_node.name)
        scheduler = self.scheduler
        scheduler.schedule_call_at(scheduler.clock._now + delay, fn, args)
        return True

    def fused_send_to(self, src: Any, dst: str, size_bytes: int,
                      fn: Any, args: tuple) -> bool:
        """:meth:`fused_send` with the sender's route-cache probe fused in.

        ``src`` is the sending *node* object, ``dst`` the destination name.
        One call frame and one topology check replace the
        ``Node._fused_route_to`` + :meth:`fused_send` pair; reply hops
        (final/preliminary responses, write acks) are the hottest send
        sites in a full fig06 run.  Accounting and scheduling are copied
        verbatim from :meth:`fused_send` — keep the two in lockstep.
        """
        if self.topology._version != self._topo_version:
            self._sync_topology()
        epoch = self._route_epoch
        if src._fused_epoch != epoch:
            src._fused_routes.clear()
            src._fused_epoch = epoch
        route = src._fused_routes.get(dst)
        if route is None:
            route = self._routes.get((src.name, dst))
            if route is None:
                route = self._route(src.name, dst)
            src._fused_routes[dst] = route
        src_node, dst_node, stats, base, src_cell, dst_cell = route
        if not src_node.alive:
            self.messages_dropped += 1
            return False
        self.messages_sent += 1
        if stats is None:
            key = (src_node.name, dst_node.name)
            stats = self._links.get(key)
            if stats is None:
                stats = self._links[key] = LinkStats()
            route[2] = stats
        stats.messages += 1
        stats.bytes += size_bytes
        src_cell[0] += size_bytes
        if dst_cell is not None:
            dst_cell[0] += size_bytes
        if self._partitioned or self._partitioned_regions:
            if self.is_partitioned(src_node.name, dst_node.name):
                self.messages_dropped += 1
                return False
        if not dst_node.alive:
            self.messages_dropped += 1
            return False
        jitter_fraction = self._jitter_fraction
        if jitter_fraction > 0:
            delay = base + jitter_fraction * self._rand() * base
        else:
            delay = base
        if self._link_extra_ms:
            delay += self.link_extra_ms(src_node.name, dst_node.name)
        scheduler = self.scheduler
        scheduler.schedule_call_at(scheduler.clock._now + delay, fn, args)
        return True

    # -- accounting --------------------------------------------------------
    def _link(self, src: str, dst: str) -> LinkStats:
        key = (src, dst)
        stats = self._links.get(key)
        if stats is None:
            stats = self._links[key] = LinkStats()
        return stats

    def link_stats(self, src: str, dst: str) -> LinkStats:
        """Traffic on the directed link src→dst.

        Links that never carried traffic share one immutable zero instance
        (:data:`EMPTY_LINK_STATS`); callers must treat the result as
        read-only.
        """
        return self._links.get((src, dst), EMPTY_LINK_STATS)

    def bytes_between(self, name_a: str, name_b: str) -> int:
        """Total bytes exchanged between two nodes, both directions."""
        return (self.link_stats(name_a, name_b).bytes
                + self.link_stats(name_b, name_a).bytes)

    def bytes_touching(self, name: str) -> int:
        """Total bytes on every link where ``name`` is an endpoint."""
        cell = self._node_cells.get(name)
        return cell[0] if cell is not None else 0

    def total_bytes(self) -> int:
        return sum(stats.bytes for stats in self._links.values())

    def reset_stats(self) -> None:
        """Clear byte counters (used to scope measurement windows)."""
        self._links.clear()
        # Cached routes hold LinkStats references and byte cells; drop them
        # so post-reset traffic charges fresh counters.
        self._routes.clear()
        self._route_epoch += 1
        self._node_cells.clear()
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
