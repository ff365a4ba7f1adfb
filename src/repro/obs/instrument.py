"""Collector binders: export component stats with zero hot-path cost.

The bus, loader, and fault layers already keep authoritative counters
(``QueueStats``, ``LoaderStats``, ``FaultStats``) that their hot paths
update with plain integer arithmetic.  Rather than double-count into
metric objects on every event, these binders register *collectors* —
callbacks the :class:`~repro.obs.metrics.MetricsRegistry` runs once per
scrape — that mirror the authoritative numbers into Prometheus-shaped
instruments.  Steady-state load therefore pays nothing for exporting
them; the cost lands on the scraper.
"""
from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.archive.shard import ShardedLoader
    from repro.bus.broker import Broker
    from repro.bus.net import BrokerServer
    from repro.faults.plan import FaultStats
    from repro.loader.stampede_loader import StampedeLoader

__all__ = [
    "bind_broker",
    "bind_loader",
    "bind_faults",
    "bind_server",
    "bind_shards",
]

#: per-queue counter fields mirrored as ``op`` label values
_QUEUE_OPS = ("published", "delivered", "acked", "requeued", "dropped", "blocked")

#: LoaderStats counter -> metric name (all monotonic totals)
_LOADER_COUNTERS = {
    "events_processed": "stampede_loader_events_total",
    "rows_inserted": "stampede_loader_rows_inserted_total",
    "rows_updated": "stampede_loader_rows_updated_total",
    "flushes": "stampede_loader_flushes_total",
    "validation_failures": "stampede_loader_validation_failures_total",
    "retries": "stampede_loader_retries_total",
    "checkpoints_written": "stampede_loader_checkpoints_total",
    "resumes": "stampede_loader_resumes_total",
    "redelivered_events": "stampede_loader_redelivered_total",
    "duplicates_skipped": "stampede_loader_duplicates_skipped_total",
    "reconnects": "stampede_loader_reconnects_total",
    "dlq_events": "stampede_loader_dlq_events_total",
    "spilled_events": "stampede_loader_spilled_events_total",
    "spill_drains": "stampede_loader_spill_drains_total",
    "archive_outages": "stampede_loader_archive_outages_total",
}


def bind_broker(registry: MetricsRegistry, broker: "Broker") -> None:
    """Export the broker's exchange and queue state at scrape time.

    Metrics: ``stampede_bus_published_total`` / ``_unroutable_total``
    per exchange; ``stampede_bus_queue_depth`` / ``_queue_unacked``
    gauges and ``stampede_bus_queue_events_total{op=...}`` counters per
    queue (including the dead-letter queue once it exists).
    """

    def collect(reg: MetricsRegistry) -> None:
        for exchange in broker.exchanges():
            labels = {"exchange": exchange.name}
            reg.counter(
                "stampede_bus_published_total",
                "Messages published through an exchange.",
                labels,
            ).set_total(exchange.published)
            reg.counter(
                "stampede_bus_unroutable_total",
                "Publishes no binding matched (dead-lettered).",
                labels,
            ).set_total(exchange.unroutable)
        for queue in broker.queues():
            labels = {"queue": queue.name}
            reg.gauge(
                "stampede_bus_queue_depth",
                "Messages awaiting delivery.",
                labels,
            ).set(len(queue))
            reg.gauge(
                "stampede_bus_queue_unacked",
                "Delivered-but-unacknowledged messages in flight.",
                labels,
            ).set(queue.unacked_count)
            stats = queue.stats
            for op in _QUEUE_OPS:
                reg.counter(
                    "stampede_bus_queue_events_total",
                    "Per-queue message lifecycle counts.",
                    {"queue": queue.name, "op": op},
                ).set_total(getattr(stats, op))
        for group in broker.groups():
            glabels = {"group": group.name}
            reg.counter(
                "stampede_bus_group_routed_total",
                "Messages a consumer group routed to a partition.",
                glabels,
            ).set_total(group.routed)
            reg.counter(
                "stampede_bus_group_publish_duplicates_total",
                "Publish-side duplicates the group router absorbed.",
                glabels,
            ).set_total(group.publish_duplicates)
            reg.gauge(
                "stampede_bus_group_members",
                "Members currently joined to a consumer group.",
                glabels,
            ).set(len(group.members()))
            for part in range(group.partitions):
                plabels = {"group": group.name, "part": str(part)}
                reg.counter(
                    "stampede_bus_group_partition_published_total",
                    "Per-partition sequence high-water mark.",
                    plabels,
                ).set_total(group.published_seq(part))
                reg.counter(
                    "stampede_bus_group_partition_committed_total",
                    "Per-partition committed (acked) floor.",
                    plabels,
                ).set_total(group.committed(part))

    registry.register_collector(collect)


def bind_server(registry: MetricsRegistry, server: "BrokerServer") -> None:
    """Export a :class:`~repro.bus.net.BrokerServer`'s transport counters
    (connections, relayed publishes, protocol errors) alongside the
    broker-level collectors from :func:`bind_broker`."""
    bind_broker(registry, server.broker)

    def collect(reg: MetricsRegistry) -> None:
        reg.counter(
            "stampede_bus_server_connections_total",
            "TCP connections accepted by the bus server.",
        ).set_total(server.connections_total)
        reg.counter(
            "stampede_bus_server_publishes_total",
            "Publish frames relayed to the broker.",
        ).set_total(server.publishes)
        reg.counter(
            "stampede_bus_server_protocol_errors_total",
            "Connections dropped over undecodable frames.",
        ).set_total(server.protocol_errors)

    registry.register_collector(collect)


def bind_loader(registry: MetricsRegistry, loader: "StampedeLoader") -> None:
    """Export :class:`LoaderStats` (and checkpoint lag) at scrape time.

    Reads one atomic :meth:`LoaderStats.snapshot` per scrape, so the
    mirrored counters always describe the same batch.  Also attaches the
    registry to the loader (flush-latency histogram) when the loader was
    built without one.
    """
    if loader.metrics is None:
        loader.metrics = registry
        loader._flush_hist = registry.histogram(
            "stampede_loader_flush_seconds",
            "Batch flush commit latency (journal replay + commit).",
        )

    def collect(reg: MetricsRegistry) -> None:
        snap = loader.stats.snapshot()
        for field, metric_name in _LOADER_COUNTERS.items():
            reg.counter(
                metric_name, f"LoaderStats.{field} (authoritative in-process tally)."
            ).set_total(snap[field])
        for event_name, count in snap["events_by_type"].items():
            reg.counter(
                "stampede_loader_events_by_type_total",
                "Events normalized, by NetLogger event name.",
                {"event": event_name},
            ).set_total(count)
        reg.gauge(
            "stampede_loader_queue_depth_max", "High-water consume queue depth."
        ).set(snap["queue_depth_max"])
        reg.gauge(
            "stampede_loader_queue_depth_avg", "Mean sampled consume queue depth."
        ).set(snap["queue_depth_avg"])
        reg.gauge(
            "stampede_loader_events_per_second",
            "Throughput over accumulated wall time.",
        ).set(snap["events_per_second"])
        for quantile, seconds in snap["latency_percentiles"].items():
            reg.gauge(
                "stampede_loader_flush_latency_seconds",
                "Per-flush commit latency percentile over the sample window.",
                {"quantile": quantile},
            ).set(seconds)
        lag = 0.0
        if loader.last_checkpoint_time is not None:
            lag = max(0.0, time.time() - loader.last_checkpoint_time)
        reg.gauge(
            "stampede_loader_checkpoint_lag_seconds",
            "Seconds since the last checkpoint commit (0 when none yet).",
        ).set(lag)
        reg.gauge(
            "stampede_loader_oldest_pending_seconds",
            "Seconds the oldest uncommitted event of a live source has "
            "waited in the loader (0 when nothing waits).",
        ).set(loader.pending_age())
        reg.gauge(
            "stampede_loader_commit_cost_seconds",
            "Running mean of what one flush commit costs.",
        ).set(loader.commit_cost)
        reg.gauge(
            "stampede_loader_commit_deadline_seconds",
            "How long the oldest buffered event of a dry live source "
            "waits for its commit (a fixed multiple of the cost, capped).",
        ).set(loader.commit_deadline())

    registry.register_collector(collect)


def bind_shards(registry: MetricsRegistry, sharded: "ShardedLoader") -> None:
    """Export a :class:`~repro.archive.shard.ShardedLoader`'s per-shard
    telemetry.

    Hot-path instruments (attached eagerly, observed by the writer
    threads):

    * ``stampede_shard_flush_seconds{shard=...}`` — per-shard batch
      flush commit latency histogram (each shard loader's flush
      histogram, labeled by shard index).

    Scrape-time collectors (same zero-hot-path-cost convention as the
    other binders — they mirror the authoritative per-shard
    ``LoaderStats`` once per scrape):

    * ``stampede_shard_queue_depth{shard=...}`` — routed-event chunks
      waiting in a shard writer's queue;
    * ``stampede_shard_events_total`` / ``_rows_inserted_total`` /
      ``_flushes_total`` / ``_retries_total`` / ``_routed_total``
      per shard, and the ``stampede_shard_count`` gauge.
    """
    for writer in sharded.writers:
        loader = writer.loader
        if loader.metrics is None:
            loader.metrics = registry
        loader._flush_hist = registry.histogram(
            "stampede_shard_flush_seconds",
            "Per-shard batch flush commit latency.",
            {"shard": str(writer.index)},
        )

    def collect(reg: MetricsRegistry) -> None:
        reg.gauge(
            "stampede_shard_count", "Shards in the active shard set."
        ).set(len(sharded.writers))
        for writer in sharded.writers:
            labels = {"shard": str(writer.index)}
            reg.gauge(
                "stampede_shard_queue_depth",
                "Routed-event chunks waiting in a shard writer's queue.",
                labels,
            ).set(writer.queue.qsize())
            reg.counter(
                "stampede_shard_routed_total",
                "Events the router assigned to a shard.",
                labels,
            ).set_total(sharded.routed[writer.index])
            snap = writer.loader.stats.snapshot()
            reg.counter(
                "stampede_shard_events_total",
                "Events a shard's writer normalized.",
                labels,
            ).set_total(snap["events_processed"])
            reg.counter(
                "stampede_shard_rows_inserted_total",
                "Rows a shard's writer inserted.",
                labels,
            ).set_total(snap["rows_inserted"])
            reg.counter(
                "stampede_shard_flushes_total",
                "Batch flushes a shard's writer committed.",
                labels,
            ).set_total(snap["flushes"])
            reg.counter(
                "stampede_shard_retries_total",
                "Transient-error flush retries on a shard.",
                labels,
            ).set_total(snap["retries"])

    registry.register_collector(collect)


def bind_faults(registry: MetricsRegistry, stats: "FaultStats") -> None:
    """Export the fault-injection tally at scrape time.

    ``stampede_faults_injected_total{kind=...}`` per fault kind plus the
    unlabeled grand total.
    """

    def collect(reg: MetricsRegistry) -> None:
        tally = stats.to_dict()
        total = tally.pop("total_injected", 0)
        for kind, count in tally.items():
            reg.counter(
                "stampede_faults_injected_total",
                "Faults injected, by kind.",
                {"kind": kind},
            ).set_total(count)
        reg.counter(
            "stampede_faults_total", "All faults injected (grand total)."
        ).set_total(total)

    registry.register_collector(collect)
