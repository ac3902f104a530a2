"""Ablation studies for design choices in the paper's applications.

* :func:`run_ticket_threshold_ablation` — how the ticket shop's "wait for the
  final view below N remaining tickets" threshold trades purchase latency
  against overselling risk (Listing 5's THRESHOLD).
* :func:`run_view_count_ablation` — the value of a third (cached) view for
  the news reader: time to first displayed view and number of refreshes with
  two views (backup + primary) versus three (cache + backup + primary).
* :func:`run_confirmation_optimization_ablation` — bytes per operation of
  CC2 with and without the ``*CC`` confirmation optimization under a
  high-divergence workload (complements Figure 8).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.bench.fig08_bandwidth import _measure_bandwidth
from repro.bench.fig12_tickets import _sell_out
from repro.bench.sweep import JobsSpec, SweepPoint, make_points, run_sweep
from repro.bindings.cached_store import CachedStoreBinding
from repro.bindings.primary_backup import PrimaryBackupBinding, PrimaryBackupStore
from repro.apps.news import NewsReader
from repro.core.client import CorrectableClient
from repro.metrics.summary import format_table
from repro.sim.scheduler import Scheduler


def _ticket_threshold_point(point: SweepPoint) -> Dict:
    outcome = _sell_out("CZK", **point.kwargs)
    return {
        "threshold": point.kwargs["threshold"],
        "mean_latency_ms": (
            sum(e["latency_ms"] for e in outcome["series"])
            / max(1, len(outcome["series"]))),
        "preliminary_purchases": outcome["preliminary_purchases"],
        "tickets_sold": outcome["tickets_sold"],
        "oversold": outcome["oversold"],
    }


def run_ticket_threshold_ablation(thresholds: Sequence[int] = (0, 5, 20, 60),
                                  stock: int = 200, retailers: int = 4,
                                  seed: int = 42,
                                  jobs: JobsSpec = 1) -> List[Dict]:
    """Sweep the stock threshold below which retailers wait for the final view."""
    points = make_points("ablation-ticket-threshold", (
        ({"threshold": threshold},
         dict(stock=stock, retailers=retailers, threshold=threshold,
              seed=seed))
        for threshold in thresholds))
    return run_sweep(points, _ticket_threshold_point, jobs=jobs).records()


def format_ticket_threshold_ablation(records: List[Dict]) -> str:
    rows = [[r["threshold"], r["mean_latency_ms"], r["preliminary_purchases"],
             r["tickets_sold"], r["oversold"]] for r in records]
    return format_table(
        ["threshold", "mean latency (ms)", "prelim purchases", "sold",
         "oversold"],
        rows, title="Ablation — ticket-shop final-view threshold")


def _view_count_point(point: SweepPoint) -> Dict:
    return _measure_view_count(label=point.kwargs["label"],
                               use_cache=point.kwargs["use_cache"],
                               news_items=point.kwargs["news_items"],
                               reads=point.kwargs["reads"])


def run_view_count_ablation(news_items: int = 10, reads: int = 50,
                            jobs: JobsSpec = 1) -> List[Dict]:
    """Compare two-view and three-view (cache-fronted) news reading."""
    points = make_points("ablation-view-count", (
        ({"configuration": label},
         dict(label=label, use_cache=use_cache, news_items=news_items,
              reads=reads))
        for label, use_cache in (("2 views (backup+primary)", False),
                                 ("3 views (cache+backup+primary)", True))))
    return run_sweep(points, _view_count_point, jobs=jobs).records()


def _measure_view_count(label: str, use_cache: bool, news_items: int,
                        reads: int) -> Dict:
    """Measure one news-reader configuration (2 or 3 incremental views)."""
    scheduler = Scheduler()
    store = PrimaryBackupStore(scheduler=scheduler, replication_lag_ms=30.0)
    binding = PrimaryBackupBinding(store, scheduler=scheduler,
                                   backup_rtt_ms=20.0, primary_rtt_ms=90.0)
    if use_cache:
        binding = CachedStoreBinding(binding, scheduler=scheduler,
                                     cache_latency_ms=0.5)
    reader = NewsReader(CorrectableClient(binding))
    reader.publish([f"story-{i}" for i in range(news_items)])
    scheduler.run_until_idle()

    first_view_latencies: List[float] = []
    for _ in range(reads):
        start = scheduler.now()
        seen: List[float] = []
        reader.get_latest_news(
            refresh=lambda items, level, s=start, seen=seen:
            seen.append(scheduler.now() - s))
        scheduler.run_until_idle()
        if seen:
            first_view_latencies.append(seen[0])
    return {
        "configuration": label,
        "mean_first_view_ms": (sum(first_view_latencies)
                               / max(1, len(first_view_latencies))),
        "refreshes_per_read": reader.refreshes / reads,
    }


def format_view_count_ablation(records: List[Dict]) -> str:
    rows = [[r["configuration"], r["mean_first_view_ms"],
             r["refreshes_per_read"]] for r in records]
    return format_table(
        ["configuration", "mean first-view latency (ms)", "views per read"],
        rows, title="Ablation — number of incremental views (news reader)")


def _confirmation_point(point: SweepPoint) -> Dict:
    return _measure_bandwidth(**point.kwargs)


def run_confirmation_optimization_ablation(
        threads: int = 10, duration_ms: float = 6_000.0,
        seed: int = 42, jobs: JobsSpec = 1) -> List[Dict]:
    """CC2 vs *CC2 bytes/op under the high-divergence A-Latest workload."""
    points = make_points("ablation-confirmation", (
        ({"system": system},
         dict(system=system, workload_name="A", distribution="latest",
              threads=threads, duration_ms=duration_ms,
              warmup_ms=duration_ms * 0.25, cooldown_ms=duration_ms * 0.125,
              record_count=1_000, seed=seed))
        for system in ("CC2", "*CC2")))
    return run_sweep(points, _confirmation_point, jobs=jobs).records()


def format_confirmation_optimization_ablation(records: List[Dict]) -> str:
    rows = [[r["system"], r["kb_per_op"], r["divergence_pct"]] for r in records]
    return format_table(["system", "kB/op", "divergence (%)"], rows,
                        title="Ablation — the *CC confirmation optimization")
