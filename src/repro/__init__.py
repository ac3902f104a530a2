"""Correctables: incremental consistency guarantees for replicated objects.

A from-scratch Python reproduction of the OSDI '16 paper by Guerraoui,
Pavlovic and Seredinschi.  The top-level package re-exports the pieces most
applications need:

* the Correctables client API (:class:`CorrectableClient`,
  :class:`Correctable`, consistency levels, operations);
* storage bindings for the simulated Cassandra and ZooKeeper clusters plus
  simpler in-memory / primary-backup / cache-fronted stores;
* the discrete-event simulation substrate and the YCSB-style workloads used
  by the benchmark harnesses in :mod:`repro.bench`.

See ``README.md`` for a quickstart and the system overview, and
``EXPERIMENTS.md`` for how each figure and experiment is regenerated.
"""

from repro.core import (
    CACHED,
    CAUSAL,
    STRONG,
    WEAK,
    ConsistencyLevel,
    Correctable,
    CorrectableClient,
    CorrectableState,
    Operation,
    Promise,
    SpeculationStats,
    View,
    custom,
    dequeue,
    enqueue,
    read,
    write,
)

__version__ = "1.0.0"

__all__ = [
    "CACHED",
    "CAUSAL",
    "STRONG",
    "WEAK",
    "ConsistencyLevel",
    "Correctable",
    "CorrectableClient",
    "CorrectableState",
    "Operation",
    "Promise",
    "SpeculationStats",
    "View",
    "custom",
    "dequeue",
    "enqueue",
    "read",
    "write",
    "__version__",
]
