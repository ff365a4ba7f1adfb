"""Long-term tier open-cost sweep: what a reader pays to open a tiered
shard directory, as the tier grows.

For each size, ``--copies`` storm copies of ``mixed_trace(seed=11)``
(five root workflows per copy) are loaded into a 2-shard set and tiered
with one ``tier_finished`` pass, whose wall time is recorded (one pass
per size).  Then ``open_archive(<shard dir>)`` is timed ``--runs``
times, each in a fresh interpreter that has already imported the
archive, tier and rollup modules, so the figure is the open's own work:
wall seconds and resident-set growth across the call.  Medians are
reported; a flat open cost across sizes means a reader does not pay for
the tier's history.

``mixed_trace`` iterates a set of strings, so pin the hash seed for a
repeatable input.

Usage::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/bench_tier_open.py \\
        --copies 1 4 16 --runs 5 -o tier_open.json
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.archive.shard import ShardSet, ShardedLoader
from repro.archive.tier import tier_finished
from repro.replay.soak import mixed_trace, storm_stream

#: runs in a child interpreter: time one open, print wall and RSS growth
_OPEN_ONE = """
import json, os, sys, time
import repro.archive.tier, repro.core.rollup
from repro.archive.shard import open_archive

def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

before = rss()
start = time.perf_counter()
archive = open_archive(sys.argv[1])
wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "rss_mb": (rss() - before) / 2**20}))
"""


def build(directory: Path, copies: int) -> dict:
    """Load ``copies`` storm copies into 2 shards, then tier them."""
    shard_set = ShardSet.create(directory, 2)
    loader = ShardedLoader(shard_set)
    loader.process_all(
        r.as_event() for r in storm_stream(mixed_trace(seed=11), copies)
    )
    loader.close()
    start = time.perf_counter()
    report = tier_finished(shard_set)
    tier_s = time.perf_counter() - start
    shard_set.close()
    return {"tiered_roots": report.tiered_roots, "tier_pass_s": tier_s}


def measure_open(directory: Path, runs: int) -> dict:
    samples = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", _OPEN_ONE, str(directory)],
            check=True,
            capture_output=True,
            text=True,
            env=os.environ,
        ).stdout
        samples.append(json.loads(out))
    wall = [s["wall_s"] for s in samples]
    rss = [s["rss_mb"] for s in samples]
    return {
        "open_wall_s_median": statistics.median(wall),
        "open_rss_mb_median": statistics.median(rss),
        "open_wall_s": wall,
        "open_rss_mb": rss,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--copies", type=int, nargs="+", default=[1, 4, 16])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("-o", "--output", help="write the results as JSON here")
    args = parser.parse_args()
    results = []
    for copies in args.copies:
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "shards"
            row = {"copies": copies, **build(directory, copies)}
            row.update(measure_open(directory, args.runs))
        results.append(row)
        print(
            f"{row['tiered_roots']:4d} tiered roots: tier pass "
            f"{row['tier_pass_s']:.2f} s, open "
            f"{row['open_wall_s_median'] * 1e3:.1f} ms "
            f"+{row['open_rss_mb_median']:.1f} MB RSS (median of {args.runs})"
        )
    if args.output:
        Path(args.output).write_text(
            json.dumps({"cpu_count": os.cpu_count(), "results": results}, indent=2)
            + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
