"""Observability smoke gate: scrape a live nl-load and check its telemetry.

CI driver for the self-monitoring layer (repro.obs).  The script

1. generates a seeded CyberShake workload and writes it as a BP log;
2. runs ``nl-load`` on it as a *subprocess* with ``--metrics-port 0``
   (ephemeral port, resolved URL on stderr), ``--metrics-linger`` (the
   server stays scrapeable after the load) and ``--self-log``;
3. polls ``/metrics`` until ``stampede_obs_load_complete`` flips to 1,
   keeping the final scrape as the ``obs-smoke.txt`` artifact;
4. gates on the scrape: required metric names present, event/row/flush
   counters non-zero, flush-latency histogram consistent (sum bounded by
   the observed wall time, count == flushes) and the Prometheus content
   type correct;
5. gates on the BP self-log round trip: every emitted line must parse
   under the strict BP parser, load through ``nl_load`` into the
   ``obs_event`` table, and the archived counter values must match the
   scrape;
6. gates on the per-shard instruments in-process: a 2-shard
   ``ShardedLoader`` with ``bind_shards`` attached must expose
   ``stampede_shard_flush_seconds`` (and the per-shard counters) with
   ``shard`` labels and non-zero flush activity.

Exit status 0 only if every gate holds; details land in obs-smoke.json.

Usage::

    python benchmarks/obs_smoke.py --scale 40 -o obs-smoke.json
"""
import argparse
import json
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.netlogger.bp import parse_bp_line
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.triana.appender import MemoryAppender
from repro.workloads import cybershake

#: metric names the scrape must expose (histograms via their _sum sample)
REQUIRED_METRICS = [
    "stampede_loader_events_total",
    "stampede_loader_rows_inserted_total",
    "stampede_loader_flushes_total",
    "stampede_loader_flush_seconds_sum",
    "stampede_loader_flush_seconds_count",
    "stampede_loader_flush_latency_seconds",
    "stampede_archive_transaction_seconds_sum",
    "stampede_archive_transactions_total",
    "stampede_archive_rows_inserted_total",
    "stampede_loader_checkpoint_lag_seconds",
    "stampede_obs_load_complete",
]

#: counters that must be non-zero after loading a real workload
NONZERO_METRICS = [
    "stampede_loader_events_total",
    "stampede_loader_rows_inserted_total",
    "stampede_loader_flushes_total",
    "stampede_archive_transactions_total",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_SAMPLE_RE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)$"
)


def write_workload(path: Path, n_ruptures: int, seed: int) -> int:
    """Simulate a seeded CyberShake run; write its BP log; return #events."""
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
    with path.open("w", encoding="utf-8") as fh:
        for event in sink.events:
            fh.write(event.to_bp() + "\n")
    return len(sink.events)


def parse_metrics(text: str) -> dict:
    """Flatten an exposition into ``name`` / ``name{labels}`` -> float."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            continue
        key = m.group("name") + (m.group("labels") or "")
        value = m.group("value")
        out[key] = float("inf") if value == "+Inf" else float(value)
        # also index by bare name for presence checks (first sample wins)
        out.setdefault(m.group("name"), out[key])
    return out


def scrape(url: str, timeout: float = 5.0):
    """GET the exposition; returns (text, content_type)."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode("utf-8"), resp.headers.get("Content-Type", "")


def run_smoke(scale: int, seed: int, workdir: Path) -> dict:
    bp_path = workdir / "workload.bp"
    db_path = workdir / "obs-smoke.db"
    selflog_path = workdir / "obs-selflog.bp"
    n_events = write_workload(bp_path, n_ruptures=scale, seed=seed)

    cmd = [
        sys.executable,
        "-m",
        "repro.loader.nl_load",
        str(bp_path),
        "stampede_loader",
        f"connString=sqlite:///{db_path}",
        "--metrics-port",
        "0",
        "--metrics-linger",
        "60",
        "--self-log",
        str(selflog_path),
    ]
    started = time.time()
    proc = subprocess.Popen(
        cmd,
        stderr=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        text=True,
    )
    failures = []
    result = {
        "workload_events": n_events,
        "scale": scale,
        "seed": seed,
        "failures": failures,
    }
    try:
        url = None
        assert proc.stderr is not None
        for line in proc.stderr:
            if line.startswith("metrics: "):
                url = line.split(" ", 1)[1].strip()
                break
        if url is None:
            failures.append("nl-load never announced a metrics URL")
            return result
        result["url"] = url

        # poll until the final state is visible (the load-complete gauge
        # flips only after the last flush), keeping the last scrape
        text = content_type = ""
        deadline = time.time() + 120
        while time.time() < deadline:
            try:
                text, content_type = scrape(url)
            except (urllib.error.URLError, OSError):
                time.sleep(0.1)
                continue
            if parse_metrics(text).get("stampede_obs_load_complete") == 1.0:
                break
            time.sleep(0.1)
        wall = time.time() - started
        result["wall_seconds"] = round(wall, 3)
        result["content_type"] = content_type
        (workdir / "obs-smoke.txt").write_text(text, encoding="utf-8")

        metrics = parse_metrics(text)
        if metrics.get("stampede_obs_load_complete") != 1.0:
            failures.append("stampede_obs_load_complete never reached 1")
        if content_type != PROMETHEUS_CONTENT_TYPE:
            failures.append(f"wrong content type: {content_type!r}")
        for name in REQUIRED_METRICS:
            if name not in metrics:
                failures.append(f"missing metric: {name}")
        for name in NONZERO_METRICS:
            if metrics.get(name, 0.0) <= 0.0:
                failures.append(f"expected {name} > 0, got {metrics.get(name)}")
        if metrics.get("stampede_loader_events_total") != float(n_events):
            failures.append(
                f"events_total {metrics.get('stampede_loader_events_total')} "
                f"!= workload size {n_events}"
            )
        flush_sum = metrics.get("stampede_loader_flush_seconds_sum", -1.0)
        if not 0.0 <= flush_sum <= wall:
            failures.append(
                f"flush histogram sum {flush_sum} outside [0, wall={wall:.3f}]"
            )
        # a resolved-only flush observes latency without counting as a
        # batch flush, so the histogram may run ahead — never behind
        if metrics.get("stampede_loader_flush_seconds_count", 0.0) < metrics.get(
            "stampede_loader_flushes_total", 0.0
        ):
            failures.append("flush histogram count < flushes counter")
        result["metrics_sampled"] = {
            name: metrics.get(name) for name in REQUIRED_METRICS if name in metrics
        }

        # wait for the self-log to land (written right after the gauge
        # flips), then check the BP round trip in-process
        for _ in range(100):
            if selflog_path.exists() and selflog_path.stat().st_size > 0:
                break
            time.sleep(0.1)
        failures.extend(check_roundtrip(selflog_path, metrics, result))
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            proc.kill()
    return result


def check_roundtrip(selflog_path: Path, metrics: dict, result: dict) -> list:
    """The self-log must strict-parse, load, and agree with the scrape."""
    from repro.loader.nl_load import load_file, make_loader
    from repro.model.entities import ObsEventRow

    failures = []
    if not selflog_path.exists():
        return ["self-log file was never written"]
    lines = [
        line
        for line in selflog_path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    result["selflog_events"] = len(lines)
    if not lines:
        return ["self-log is empty"]
    for line in lines:
        try:
            parse_bp_line(line, strict=True)
        except ValueError as exc:
            failures.append(f"self-log line failed strict BP parse: {exc}")
            break
    loader = make_loader("sqlite:///:memory:")
    load_file(str(selflog_path), loader)
    archived = loader.archive.count(ObsEventRow)
    if archived != len(lines):
        failures.append(f"archived {archived} obs events, expected {len(lines)}")
    # counter values written to the archive must match the scrape
    rows = loader.archive.query(ObsEventRow).eq("event", "stampede.obs.counter").all()
    by_name = {}
    for row in rows:
        labels = json.loads(row.payload) if row.payload else {}
        key = row.name + _labels_suffix(labels)
        by_name[key] = row.value
    for name in ("stampede_loader_events_total", "stampede_loader_flushes_total"):
        if name in by_name and name in metrics:
            if by_name[name] != metrics[name]:
                failures.append(
                    f"self-logged {name}={by_name[name]} disagrees with "
                    f"scrape {metrics[name]}"
                )
        elif name not in by_name:
            failures.append(f"self-log has no counter event for {name}")
    return failures


def check_shard_metrics(scale: int, seed: int) -> dict:
    """In-process gate for the per-shard instruments (``bind_shards``).

    Loads a small workload through a 2-shard in-memory ``ShardedLoader``
    with the shard binder attached, then asserts the per-shard series
    exist with ``shard`` labels and carry non-zero flush activity.
    """
    from repro.archive.shard import ShardSet, ShardedLoader, partition_events
    from repro.obs.instrument import bind_shards
    from repro.obs.metrics import MetricsRegistry

    catalog = SiteCatalog(
        [Site("pool", slots=64, mean_queue_delay=2.0, hosts_per_site=16)]
    )
    # root uuids are seed-derived; add roots until both shards get events
    events = []
    for offset in range(8):
        sink = MemoryAppender()
        run_pegasus_workflow(
            cybershake(n_ruptures=scale),
            sink,
            catalog=catalog,
            planner_config=PlannerConfig(cluster_size=8),
            seed=seed + offset,
        )
        events.extend(sink.events)
        if all(partition_events(events, 2)):
            break

    failures = []
    registry = MetricsRegistry()
    shard_set = ShardSet.create(None, 2)
    sharded = ShardedLoader(shard_set, batch_size=200)
    bind_shards(registry, sharded)
    sharded.process_all(events)
    snapshot = registry.snapshot()
    sharded.close()
    final = registry.snapshot()
    shard_set.close()

    if snapshot.get("stampede_shard_count") != 2.0:
        failures.append(
            f"stampede_shard_count {snapshot.get('stampede_shard_count')} != 2"
        )
    for shard in ("0", "1"):
        label = '{shard="%s"}' % shard
        for name in (
            "stampede_shard_routed_total",
            "stampede_shard_events_total",
            "stampede_shard_flush_seconds_sum",
            "stampede_shard_flush_seconds_count",
        ):
            if name + label not in snapshot:
                failures.append(f"missing per-shard series {name}{label}")
        if final.get("stampede_shard_flushes_total" + label, 0.0) <= 0.0:
            failures.append(f"shard {shard} never flushed a batch")
        if final.get("stampede_shard_flush_seconds_count" + label, 0.0) <= 0.0:
            failures.append(f"shard {shard} flush histogram never observed")
    routed = sum(
        final.get('stampede_shard_routed_total{shard="%s"}' % s, 0.0)
        for s in ("0", "1")
    )
    if routed != float(len(events)):
        failures.append(
            f"routed totals {routed:.0f} != workload size {len(events)}"
        )
    return {
        "workload_events": len(events),
        "shards": 2,
        "metrics_sampled": {
            k: v for k, v in final.items() if k.startswith("stampede_shard")
        },
        "failures": failures,
    }


def _labels_suffix(payload: dict) -> str:
    labels = sorted(
        (k[len("label."):], v) for k, v in payload.items() if k.startswith("label.")
    )
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=40, help="CyberShake ruptures")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("-o", "--output", default="obs-smoke.json")
    parser.add_argument(
        "--workdir",
        default=None,
        help="directory for intermediate artifacts (default: a temp dir); "
        "the final scrape is kept here as obs-smoke.txt",
    )
    args = parser.parse_args(argv)

    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        result = run_smoke(args.scale, args.seed, workdir)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_smoke(args.scale, args.seed, Path(tmp))
            scrape_file = Path(tmp) / "obs-smoke.txt"
            if scrape_file.exists():  # keep the artifact out of the temp dir
                Path("obs-smoke.txt").write_text(
                    scrape_file.read_text(encoding="utf-8"), encoding="utf-8"
                )
    shard_result = check_shard_metrics(max(5, args.scale // 4), args.seed)
    result["shard_phase"] = shard_result
    result["failures"].extend(
        f"shard phase: {f}" for f in shard_result.pop("failures")
    )
    result["ok"] = not result["failures"]
    Path(args.output).write_text(json.dumps(result, indent=2), encoding="utf-8")
    print(json.dumps(result, indent=2))
    if result["failures"]:
        print(f"obs smoke FAILED: {len(result['failures'])} gate(s)", file=sys.stderr)
        return 1
    print("obs smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
