"""Per-layer spans, measured from outside the program.

The layers are the ``repro`` packages and modules named in :data:`LAYERS`.
:meth:`Tracer.install` wraps, at class level and before any stack is built,
every entry point of every class defined in a layer's modules:

* its public methods, and
* the private handler methods the scheduler and the network dispatch into
  (names matching :data:`HANDLER_NAMES`; ``tests/test_bench.py`` checks that
  every method the scheduler or network calls into a layer is covered).

Each wrapped call is a span with a name, a start, an end and a parent (the
enclosing span).  Aggregates are exact for every call: per layer, the call
count and the self time (span duration minus the time of the spans nested
directly inside it).  Full spans are kept only for a bounded, deterministic
sample of call indices and exported as Chrome trace-event JSON.

Code that runs outside any wrapped method of a layer (module-level
functions, classes of modules that are not layers such as ``repro.sim.failover``,
and fast paths inlined into a caller) counts toward the enclosing span's
layer.  The wrappers' own cost lands in the parent spans, which is why the
traced run is separate from the timed ones.
"""

from __future__ import annotations

import enum
import functools
import importlib
import json
import pkgutil
import re
import time
from typing import Any, Dict, List, Optional, Tuple

#: The layers, as module paths under ``repro``.  A module belongs to the
#: longest layer name that prefixes it (``cassandra_sim.storage`` is its own
#: layer inside ``cassandra_sim``).
LAYERS = ("sim.scheduler", "sim.network", "cassandra_sim",
          "cassandra_sim.storage", "zookeeper_sim", "core", "bindings",
          "apps", "workloads", "metrics", "faults")

#: Private methods that are entry points: the handlers the scheduler and
#: the network dispatch into, and the load generators' own callbacks.
HANDLER_NAMES = re.compile(
    r"^_(fused_|on_|coordinate_|serve_|flush_|apply_|handle_|ack_|learn_|"
    r"propose|send_preliminary|deliver|issue_next$|refill$|fire$)")

#: Full spans are kept for call indices ``i`` with ``i % period < window``:
#: whole call trees in bursts spread over the run, at a fixed memory cost.
SAMPLE_PERIOD = 100_000
SAMPLE_WINDOW = 1_000


def layer_of(module_name: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None."""
    best = None
    for layer in LAYERS:
        prefix = "repro." + layer
        if module_name == prefix or module_name.startswith(prefix + "."):
            if best is None or len(layer) > len(best):
                best = layer
    return best


def layer_modules() -> Dict[str, str]:
    """Import every module of every layer; module name -> layer."""
    modules: Dict[str, str] = {}
    for layer in LAYERS:
        module = importlib.import_module("repro." + layer)
        names = [module.__name__]
        if hasattr(module, "__path__"):
            names += [info.name for info in pkgutil.walk_packages(
                module.__path__, module.__name__ + ".")]
        for name in names:
            importlib.import_module(name)
            owner = layer_of(name)
            if owner is not None:
                modules[name] = owner
    return modules


def is_entry_point(name: str) -> bool:
    if name.startswith("__"):
        return False
    return not name.startswith("_") or bool(HANDLER_NAMES.match(name))


def entry_points(cls: type) -> List[Tuple[str, Any]]:
    """``(name, raw class attribute)`` of every entry point ``cls`` defines."""
    found = []
    for name, attr in vars(cls).items():
        if not is_entry_point(name):
            continue
        function = attr.__func__ if isinstance(
            attr, (staticmethod, classmethod)) else attr
        if callable(function) and hasattr(function, "__code__"):
            found.append((name, attr))
    return found


def layer_classes() -> List[Tuple[str, type]]:
    """``(layer, class)`` for every class defined in a layer's modules."""
    found = []
    seen = set()
    for module_name, layer in sorted(layer_modules().items()):
        module = importlib.import_module(module_name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module_name
                    and id(value) not in seen
                    and not issubclass(value, (BaseException, enum.Enum))):
                seen.add(id(value))
                found.append((layer, value))
    return found


class Tracer:
    """Class-level wrappers that record per-layer spans while installed."""

    def __init__(self) -> None:
        #: Exact per-layer aggregates: layer -> [self seconds, calls].
        self.totals: Dict[str, list] = {layer: [0.0, 0] for layer in LAYERS}
        #: Sampled spans: (index, name, layer, start, end, parent index).
        self.spans: List[tuple] = []
        self._next_index = 0
        self._stack: List[list] = []
        self._installed: List[Tuple[type, str, Any]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> int:
        """Wrap every layer entry point; returns how many were wrapped."""
        for layer, cls in layer_classes():
            for name, attr in entry_points(cls):
                self._installed.append((cls, name, attr))
                setattr(cls, name, self._wrap_attr(attr, layer,
                                                   f"{cls.__qualname__}.{name}"))
        return len(self._installed)

    def uninstall(self) -> None:
        for cls, name, attr in reversed(self._installed):
            setattr(cls, name, attr)
        self._installed.clear()

    def _wrap_attr(self, attr: Any, layer: str, name: str) -> Any:
        if isinstance(attr, staticmethod):
            return staticmethod(self._wrap(attr.__func__, layer, name))
        if isinstance(attr, classmethod):
            return classmethod(self._wrap(attr.__func__, layer, name))
        return self._wrap(attr, layer, name)

    def _wrap(self, fn, layer: str, name: str):
        cell = self.totals[layer]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def _span(*args, **kwargs):
            index = tracer._next_index
            tracer._next_index = index + 1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                cell[0] += duration - frame[0]
                cell[1] += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent_index = parent[1]
                else:
                    parent_index = -1
                if index % SAMPLE_PERIOD < SAMPLE_WINDOW:
                    spans.append((index, name, layer, start, end,
                                  parent_index))

        return _span

    # -- export -------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """The sampled spans as Chrome trace-event JSON (``ph: X`` events)."""
        origin = min((span[3] for span in self.spans), default=0.0)
        events = [{
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"id": index, "parent": parent},
        } for index, name, layer, start, end, parent in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"sample_period": SAMPLE_PERIOD,
                              "sample_window": SAMPLE_WINDOW,
                              "calls_total": self._next_index}}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
