"""Dashboard query latency vs archive growth (paper §IV: "Real-time
queries of both detailed and summarized status" over datasets "too
large to fit into memory").

The materialized rollups (``repro.core.rollup``) exist so the dashboard
summary is a handful of point reads instead of a full scan.  This bench
proves the property the design promises: **summary latency stays flat
while the archive grows 100×**.  It loads 1, 10, and 100 independent
workflow runs into one file-backed sqlite archive and measures, at each
scale, the latency of the summary for one fixed target workflow:

* ``rollup_ms``  — ``workflow_statistics`` through the rollup tables
  (the dashboard's uncached read path);
* ``scan_ms``    — the same statistics from ``scan_statistics``, the
  full-scan reference ``verify_rollups`` checks against (what every
  request would cost without rollups; measured with fewer iterations
  because it grows with the archive);
* ``cached_ms``  — ``DashboardData.workflow_payload`` through the
  commit-seq :class:`~repro.core.live.ReadCache` (what the 2nd..Nth
  concurrent viewer pays).

Gates (all tunable via flags / environment):

* ``--max-ms`` / ``$STAMPEDE_QUERY_MAX_MS`` — uncached rollup-path p95
  ceiling in milliseconds at **every** scale (default 5.0);
* ``--max-flatness`` — ratio of rollup p95 at ×100 over ×1 (default
  3.0: the reads are O(1), so anything beyond runner noise means the
  rollup read itself started scaling with the archive);
* ``--baseline BENCH_query.json`` + ``--regression-threshold`` — as in
  ``bench_loader_scaling.py``: fails when a current p95 exceeds the
  committed one by more than 1/threshold (default 0.5 → a doubling).

Run as a CI smoke check::

    python benchmarks/bench_query.py --smoke --baseline BENCH_query.json \
        -o bench-query.json

The committed ``BENCH_query.json`` at the repo root is this
benchmark's full-scale output on the reference container.
"""
import argparse
import gc
import json
import os
import statistics as stats_mod
import sys
import tempfile
import time
from pathlib import Path

from repro.archive.store import StampedeArchive
from repro.core.dashboard import DashboardData
from repro.core.rollup import commit_seq, verify_rollups
from repro.core.statistics import scan_statistics, workflow_statistics
from repro.loader.stampede_loader import StampedeLoader
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.query.api import StampedeQuery
from repro.triana.appender import MemoryAppender
from repro.workloads import cybershake

#: archive growth factors — the flatness claim is "×100 costs what ×1 costs"
SCALE_FACTORS = (1, 10, 100)


def _one_run(n_ruptures: int, seed: int):
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


def _build_archive(path: Path, runs: int, n_ruptures: int):
    """Load ``runs`` independent workflow runs; returns (archive, target
    wf_id) where the target is the first-loaded root workflow — fixed
    across scales, so latency differences are pure archive-size effects."""
    archive = StampedeArchive.open(f"sqlite:///{path}")
    loader = StampedeLoader(archive, batch_size=2000)
    for seed in range(runs):
        loader.process_all(_one_run(n_ruptures, seed=seed))
    loader.flush()
    query = StampedeQuery(archive)
    target = min(w.wf_id for w in query.root_workflows())
    return archive, target


def _time_ms(fn, iterations: int):
    """min/mean/p50/p95 wall milliseconds over ``iterations`` calls."""
    samples = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(iterations):
            start = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - start) * 1000.0)
    finally:
        gc.enable()
    samples.sort()
    return {
        "min": round(samples[0], 4),
        "mean": round(stats_mod.fmean(samples), 4),
        "p50": round(samples[len(samples) // 2], 4),
        "p95": round(samples[min(len(samples) - 1, int(len(samples) * 0.95))], 4),
        "iterations": iterations,
    }


def _measure_scale(
    workdir: Path, factor: int, n_ruptures: int, iterations: int
) -> dict:
    archive, target = _build_archive(
        workdir / f"query-x{factor}.db", runs=factor, n_ruptures=n_ruptures
    )
    try:
        query = StampedeQuery(archive)
        mismatches = verify_rollups(archive)
        if mismatches:
            raise AssertionError(
                f"x{factor}: rollups diverge from scan before measuring: "
                + "; ".join(mismatches[:5])
            )

        rollup_ms = _time_ms(
            lambda: workflow_statistics(
                query, wf_id=target, include_jobs=False
            ),
            iterations,
        )
        # the scan path grows with the archive; a handful of iterations
        # is enough to show the gap without dominating bench wall time
        scan_ms = _time_ms(
            lambda: scan_statistics(query, wf_id=target, include_jobs=False),
            max(3, iterations // 20),
        )
        data = DashboardData(archive)
        data.workflow_payload(target)  # prime: the one computation
        cached_ms = _time_ms(lambda: data.workflow_payload(target), iterations)
        cache_stats = data.cache.stats()

        from repro.model.entities import WorkflowRow

        return {
            "workflows": archive.count(WorkflowRow),
            "db_bytes": (workdir / f"query-x{factor}.db").stat().st_size,
            "commit_seq": commit_seq(archive),
            "rollup_ms": rollup_ms,
            "scan_ms": scan_ms,
            "cached_ms": cached_ms,
            "cache": {"hits": cache_stats["hits"], "misses": cache_stats["misses"]},
        }
    finally:
        archive.close()


def run_bench(n_ruptures: int, iterations: int) -> dict:
    results = {
        "workload": {"n_ruptures": n_ruptures, "iterations": iterations},
        "scales": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for factor in SCALE_FACTORS:
            results["scales"][f"x{factor}"] = _measure_scale(
                workdir, factor, n_ruptures, iterations
            )
    first = results["scales"][f"x{SCALE_FACTORS[0]}"]
    last = results["scales"][f"x{SCALE_FACTORS[-1]}"]
    results["flatness"] = {
        "rollup_p95_ratio": round(
            last["rollup_ms"]["p95"] / max(first["rollup_ms"]["p95"], 1e-9), 3
        ),
        "scan_p95_ratio": round(
            last["scan_ms"]["p95"] / max(first["scan_ms"]["p95"], 1e-9), 3
        ),
        "rollup_vs_scan_at_x100": round(
            last["scan_ms"]["p95"] / max(last["rollup_ms"]["p95"], 1e-9), 1
        ),
    }
    return results


def _check_gates(results: dict, args) -> list:
    failures = []
    for name, entry in results["scales"].items():
        p95 = entry["rollup_ms"]["p95"]
        if p95 > args.max_ms:
            failures.append(
                f"{name}: rollup summary p95 {p95:.3f} ms exceeds the "
                f"{args.max_ms:.1f} ms dashboard ceiling"
            )
    ratio = results["flatness"]["rollup_p95_ratio"]
    if ratio > args.max_flatness:
        failures.append(
            f"rollup p95 grew {ratio:.2f}x from x{SCALE_FACTORS[0]} to "
            f"x{SCALE_FACTORS[-1]} (flatness ceiling {args.max_flatness:.1f}x) "
            "— the summary path is scaling with the archive"
        )
    return failures


def _check_baseline(results: dict, baseline_path: str, threshold: float) -> list:
    """Latency analogue of bench_loader_scaling's regression gate: a
    current p95 beyond ``committed / threshold`` (default 2× with the
    0.5 default) is a regression.  Scales absent on either side are
    skipped so the comparison survives sweep changes."""
    committed = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    failures = []
    for name, entry in committed.get("scales", {}).items():
        current = results["scales"].get(name)
        if current is None:
            continue
        old = entry.get("rollup_ms", {}).get("p95")
        new = current.get("rollup_ms", {}).get("p95")
        if not old or not new:
            continue
        if new > old / threshold:
            failures.append(
                f"{name}: rollup p95 regressed to {new:.3f} ms > "
                f"{1 / threshold:.1f}x committed {old:.3f} ms"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Dashboard query-latency benchmark across archive growth."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced workload per run (CI-sized; same 1x/10x/100x sweep)",
    )
    parser.add_argument(
        "--ruptures",
        type=int,
        default=None,
        help="CyberShake ruptures per run (default 5, or 2 with --smoke)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="timed iterations per path (default 200, or 50 with --smoke)",
    )
    parser.add_argument("-o", "--output", metavar="PATH", help="write JSON here")
    parser.add_argument(
        "--max-ms",
        type=float,
        default=float(os.environ.get("STAMPEDE_QUERY_MAX_MS", 5.0)),
        help="rollup summary p95 ceiling in ms at every scale "
        "(default 5.0, or $STAMPEDE_QUERY_MAX_MS)",
    )
    parser.add_argument(
        "--max-flatness",
        type=float,
        default=float(os.environ.get("STAMPEDE_QUERY_MAX_FLATNESS", 3.0)),
        help="ceiling on p95(x100)/p95(x1) for the rollup path "
        "(default 3.0, or $STAMPEDE_QUERY_MAX_FLATNESS)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="committed BENCH_query.json to compare against",
    )
    parser.add_argument(
        "--regression-threshold",
        type=float,
        default=float(os.environ.get("STAMPEDE_QUERY_REGRESSION_THRESHOLD", 0.5)),
        help="baseline comparison fails when current p95 exceeds "
        "committed/threshold (default 0.5: a doubling)",
    )
    args = parser.parse_args(argv)
    n_ruptures = args.ruptures or (2 if args.smoke else 5)
    iterations = args.iterations or (50 if args.smoke else 200)

    results = run_bench(n_ruptures=n_ruptures, iterations=iterations)
    results["gates"] = {
        "max_ms": args.max_ms,
        "max_flatness": args.max_flatness,
    }
    payload = json.dumps(results, indent=2)
    if args.output:
        Path(args.output).write_text(payload + "\n", encoding="utf-8")
    print(payload)

    failures = _check_gates(results, args)
    if args.baseline and os.path.exists(args.baseline):
        failures += _check_baseline(
            results, args.baseline, args.regression_threshold
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
