"""The per-layer table of a traced run, merged from every process's spans.

Layer = ``repro`` module.  Busy times (``*_s``) are scaled to the
reference host speed like the end-to-end CPU figures; waits and lags
(``bus.net.get_wait_s``, ``*_ms``) are as measured.
"""
from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from measure import Invalid, Metric, Recording, percentile


def merge(
    records: Sequence[Dict[str, Any]],
    rec: Recording,
    *,
    speed: float,
    rate: float,
    sut_roles: Sequence[str],
    gen_emitted: int,
    gen_max_behind_s: float,
    commits: Sequence[Tuple[float, int]],
    commit_seq: int,
    db_bytes: int,
    cache: Tuple[float, float],
) -> Dict[str, Metric]:
    agg = [r for r in records if r["kind"] == "agg"]
    roles = set(sut_roles)

    def total(name: str, field: str = "total_s", only: Optional[set] = None) -> float:
        return sum(r[field] for r in agg
                   if r["name"] == name and (only is None or r["role"] in only))

    def count(name: str, only: Optional[set] = None) -> int:
        return int(total(name, "count", only))

    def busy(name: str, field: str = "total_s", only: Optional[set] = None) -> Metric:
        return (total(name, field, only) * speed, "s", count(name, only))

    stats: Dict[str, Dict[str, float]] = {
        r["name"]: r["values"] for r in records if r["kind"] == "stats"
    }
    loader = stats.get("loader", {})
    flushes = int(loader.get("flushes", 0))
    rows = loader.get("rows_inserted", 0) + loader.get("rows_updated", 0)
    waited = int(loader.get("batch_wait_events", 0))

    # broker queue depth: while events were being published (paced) / to the end (drain)
    last_due = max(rec.dues)
    depth = sorted((r["t"], r["depth"]) for r in records if r["kind"] == "depth")
    until = last_due if rec.paced else float("inf")
    in_window = [d for t, d in depth if rec.origin <= t <= until]
    up_to_end = [d for t, d in depth if t <= until]
    depth_end = up_to_end[-1] if up_to_end else 0
    if rec.paced and depth_end > 0.1 * rate:
        raise Invalid(
            f"bus.broker.depth_end = {depth_end} when the last event was due: "
            "the bus backlog was growing"
        )

    # due -> committed (the 10 ms sqlite poll) -> frame; the j-th inv.end of
    # the stream is committed once j invocation rows are readable
    warmed_up = rec.origin + rec.warmup_s
    commit_lag: List[float] = []
    serve_lag: List[float] = []
    i = 0
    for order, (key, due) in enumerate(zip(rec.due_index.keys, rec.dues), start=1):
        while i < len(commits) and commits[i][1] < order:
            i += 1
        if i == len(commits) or due < warmed_up:
            continue
        committed = commits[i][0]
        commit_lag.append(committed - due)
        seen = rec.visible_at.get(key)
        if seen is not None:
            serve_lag.append(seen - committed)
    commit_lag.sort()

    frames = count("live.frame")
    frame_bytes = stats.get("live", {}).get("frame_bytes", 0)
    sut_cpu = sum(cpu for cpu, _rss in rec.usage1.values())
    span_cpu = sum(r["cpu_s"] for r in agg if r["role"] in roles and r["parent"] is None)
    hits, misses = cache
    return {
        "gen.emitted": (gen_emitted, "count", 1),
        "gen.max_behind_ms": (gen_max_behind_s * 1e3, "ms", gen_emitted),
        "gen.publish_s": busy("gen.publish"),
        "netlogger.parse_calls": (count("netlogger.parse", roles), "count", 1),
        "netlogger.parse_s": busy("netlogger.parse", only=roles),
        "netlogger.format_calls": (count("netlogger.format"), "count", 1),
        "netlogger.format_s": busy("netlogger.format"),
        "bus.net.encode_s": busy("bus.net.encode"),
        "bus.net.decode_s": busy("bus.net.decode"),
        "bus.net.get_wait_s": (total("bus.net.get_message"), "s", count("bus.net.get_message")),
        "bus.net.ack_calls": (count("bus.net.ack"), "count", 1),
        "bus.net.ack_s": busy("bus.net.ack"),
        "bus.net.reconnects": (stats.get("consumer", {}).get("reconnects", 0), "count", 1),
        "bus.broker.publish_calls": (count("bus.broker.publish"), "count", 1),
        "bus.broker.publish_s": busy("bus.broker.publish"),
        "bus.broker.depth_max": (max(in_window, default=0), "count", len(in_window)),
        "bus.broker.depth_end": (depth_end, "count", len(in_window)),
        "bus.broker.redelivered": (loader.get("redelivered", 0), "count", 1),
        "bus.reliable.duplicates_skipped": (loader.get("duplicates_skipped", 0), "count", 1),
        "loader.process_calls": (count("loader.process"), "count", 1),
        "loader.process_self_s": busy("loader.process", "self_s"),
        "loader.flushes": (flushes, "count", 1),
        "loader.flush_s": busy("loader.flush"),
        "loader.rows_per_flush": (rows / flushes if flushes else 0.0, "count", flushes),
        "loader.batch_wait_ms": (
            loader.get("batch_wait_s", 0.0) / waited * 1e3 if waited else 0.0, "ms", waited),
        "loader.retries": (loader.get("retries", 0), "count", 1),
        "loader.dlq": (loader.get("dlq", 0), "count", 1),
        "loader.commit_lag_p50_ms": (
            percentile(commit_lag, 0.50) * 1e3 if commit_lag else 0.0, "ms", len(commit_lag)),
        "loader.commit_lag_p99_ms": (
            percentile(commit_lag, 0.99) * 1e3 if commit_lag else 0.0, "ms", len(commit_lag)),
        "archive.transaction_s": busy("archive.transaction"),
        "archive.insert_many_s": busy("archive.insert_many"),
        "archive.update_s": busy("archive.update"),
        "archive.rows_inserted": (loader.get("rows_inserted", 0), "count", 1),
        "archive.rows_updated": (loader.get("rows_updated", 0), "count", 1),
        "archive.db_mb": (db_bytes / 1e6, "MB", 1),
        "rollup.observe_s": busy("rollup.observe"),
        "rollup.apply_s": busy("rollup.apply"),
        "rollup.commit_seq_end": (commit_seq, "count", 1),
        "live.version_calls": (count("live.version"), "count", 1),
        "live.snapshot_s": busy("live.snapshot"),
        "live.frames": (frames, "count", 1),
        "live.frame_kb_mean": (frame_bytes / frames / 1e3 if frames else 0.0, "KB", frames),
        "live.serve_lag_ms": (
            statistics.median(serve_lag) * 1e3 if serve_lag else 0.0, "ms", len(serve_lag)),
        "dashboard.requests": (count("dashboard.request"), "count", 1),
        "dashboard.request_s": busy("dashboard.request"),
        "dashboard.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "share", int(hits + misses)),
        "trace.coverage_pct": (100.0 * span_cpu / sut_cpu if sut_cpu else 0.0, "%", 1),
    }
