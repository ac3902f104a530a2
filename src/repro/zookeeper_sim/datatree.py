"""The znode data tree.

A simplified version of ZooKeeper's hierarchical namespace: znodes store a
data blob and children; ``create`` supports the *sequential* flag that
appends a zero-padded, monotonically increasing counter to the requested
name — the primitive the distributed-queue recipe is built on.

Each znode keeps its child names in a sorted list (``order``) beside the
name-keyed ``children`` dict.  Sequential names always sort last, so a queue
append is a list append; any other create is a ``bisect.insort`` and a delete
a ``bisect_left``.  Reading the queue head therefore needs no sort: a
server-side dequeue (:meth:`DataTree.pop_first_child`) and its CZK
preliminary simulation (:meth:`DataTree.first_child_except`) cost
O(log stock + in-flight) comparisons, not a sort and scan of the whole stock
(closing the gap a removal leaves in ``order`` is one pointer memmove).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import AbstractSet, Any, Dict, List, Optional, Tuple

#: Memoized ``path -> components`` (every server resolves the same queue and
#: parent paths over and over; splitting is on the commit hot path).
_SPLIT_CACHE: Dict[str, Tuple[str, ...]] = {}
_SPLIT_CACHE_LIMIT = 4096


class NoNodeError(KeyError):
    """Raised when an operation targets a znode that does not exist."""


class NodeExistsError(ValueError):
    """Raised when creating a znode that already exists (non-sequential)."""


class Znode:
    """One node in the tree."""

    __slots__ = ("name", "data", "children", "order", "next_sequence",
                 "version")

    def __init__(self, name: str, data: Any = None) -> None:
        self.name = name
        self.data = data
        self.children: Dict[str, "Znode"] = {}
        #: The keys of ``children`` in sorted order (maintained by DataTree).
        self.order: List[str] = []
        self.next_sequence = 0
        self.version = 0


class DataTree:
    """A hierarchical namespace of znodes rooted at ``/``."""

    def __init__(self) -> None:
        self._root = Znode("/")

    # -- path helpers ------------------------------------------------------
    @staticmethod
    def _split(path: str) -> Tuple[str, ...]:
        parts = _SPLIT_CACHE.get(path)
        if parts is None:
            if not path.startswith("/"):
                raise ValueError(f"paths must be absolute, got {path!r}")
            parts = tuple(part for part in path.split("/") if part)
            if len(_SPLIT_CACHE) >= _SPLIT_CACHE_LIMIT:
                # Sequential-queue workloads produce unbounded one-shot
                # paths; evict the most recent insertion (dicts pop LIFO)
                # so the long-lived hot entries (queue/parent paths, cached
                # early) survive instead of being wholesale cleared.
                _SPLIT_CACHE.popitem()
            _SPLIT_CACHE[path] = parts
        return parts

    def _lookup(self, path: str) -> Znode:
        node = self._root
        for part in self._split(path):
            child = node.children.get(part)
            if child is None:
                raise NoNodeError(path)
            node = child
        return node

    def exists(self, path: str) -> bool:
        try:
            self._lookup(path)
            return True
        except NoNodeError:
            return False

    # -- operations ----------------------------------------------------------
    def create(self, path: str, data: Any = None,
               sequential: bool = False) -> str:
        """Create a znode; returns the actual path (with sequence suffix)."""
        parts = self._split(path)
        if not parts:
            raise ValueError("cannot create the root znode")
        parent_path = "/" + "/".join(parts[:-1])
        # Walk to the parent directly instead of re-splitting parent_path.
        parent = self._root
        for part in parts[:-1]:
            child = parent.children.get(part)
            if child is None:
                raise NoNodeError(parent_path)
            parent = child
        name = parts[-1]
        if sequential:
            name = f"{name}{parent.next_sequence:010d}"
            parent.next_sequence += 1
        if name in parent.children:
            raise NodeExistsError(f"{parent_path.rstrip('/')}/{name}")
        parent.children[name] = Znode(name, data)
        order = parent.order
        if not order or name > order[-1]:
            order.append(name)
        else:
            insort(order, name)
        parent.version += 1
        created = (parent_path.rstrip("/") or "") + "/" + name
        return created

    def delete(self, path: str) -> None:
        """Delete a leaf znode (children must be removed first)."""
        parts = self._split(path)
        if not parts:
            raise ValueError("cannot delete the root znode")
        parent = self._lookup("/" + "/".join(parts[:-1])) if parts[:-1] else self._root
        name = parts[-1]
        if name not in parent.children:
            raise NoNodeError(path)
        if parent.children[name].children:
            raise ValueError(f"znode {path!r} has children")
        del parent.children[name]
        order = parent.order
        del order[bisect_left(order, name)]
        parent.version += 1

    def get(self, path: str) -> Any:
        """Return the data stored at ``path``."""
        return self._lookup(path).data

    def set(self, path: str, data: Any) -> None:
        node = self._lookup(path)
        node.data = data
        node.version += 1

    def get_children(self, path: str) -> List[str]:
        """Sorted child names of ``path`` (sorted order drives queue FIFO)."""
        return list(self._lookup(path).order)

    def child_count(self, path: str) -> int:
        return len(self._lookup(path).children)

    def pop_first_child(self, path: str) -> Optional[Tuple[str, Any, int]]:
        """Delete the lowest-named child of ``path`` (the queue head).

        Returns ``(name, data, remaining)``, where ``remaining`` counts the
        children left after the removal, or ``None`` when ``path`` has no
        children.  A head that has children of its own is left in place and
        raises ``ValueError``, as :meth:`delete` would.
        """
        node = self._lookup(path)
        order = node.order
        if not order:
            return None
        name = order[0]
        head = node.children[name]
        if head.children:
            head_path = f"{path}/{name}"
            raise ValueError(f"znode {head_path!r} has children")
        del order[0]
        del node.children[name]
        node.version += 1
        return name, head.data, len(order)

    def first_child_except(self, path: str, removed: AbstractSet[str]
                           ) -> Optional[Tuple[str, Any, int]]:
        """The lowest-named child of ``path`` not listed in ``removed``.

        ``removed`` holds full paths (``f"{path}/{name}"``); entries that are
        not children of ``path`` are ignored.  Returns ``(name, data,
        remaining)``, where ``remaining`` counts the other unlisted children,
        or ``None`` when every child is listed.  Costs O(len(removed)): the
        walk from the front of ``order`` passes only listed children.
        """
        node = self._lookup(path)
        children = node.children
        prefix = path + "/"
        cut = len(prefix)
        hidden = sum(1 for entry in removed
                     if entry.startswith(prefix) and entry[cut:] in children)
        for name in node.order:
            if prefix + name not in removed:
                return name, children[name].data, len(children) - hidden - 1
        return None

    # -- state transfer ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict copy of the whole tree, for full state transfer."""

        def _dump(node: Znode) -> Dict[str, Any]:
            return {"data": node.data,
                    "next_sequence": node.next_sequence,
                    "version": node.version,
                    "children": {name: _dump(child)
                                 for name, child in node.children.items()}}

        return _dump(self._root)

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Replace the entire tree with a :meth:`snapshot` copy."""

        def _load(name: str, payload: Dict[str, Any]) -> Znode:
            node = Znode(name, payload["data"])
            node.next_sequence = payload["next_sequence"]
            node.version = payload["version"]
            node.children = {child_name: _load(child_name, child)
                             for child_name, child in payload["children"].items()}
            node.order = sorted(node.children)
            return node

        self._root = _load("/", snapshot)
