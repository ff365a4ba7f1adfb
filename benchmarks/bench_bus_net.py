"""Cross-process bus throughput: publisher proc → TCP broker → loader proc.

The in-process bus benches (``bench_bus_throughput``) measure the broker
data structures; this one measures the *deployment shape* the paper
actually describes — monitoring events crossing process boundaries on
their way to the archive.  It stands up a :class:`BrokerServer` in this
process, then drives it with two real subprocesses:

* ``stampede-bus publish`` replaying a CyberShake BP log, and
* ``nl-load --bus`` consuming into a sqlite archive,

and reports end-to-end events/second from first publish to the last
ack.  A second, *paced* phase replays the head of the same log at the
rate of one real workflow (``publish --rate 300`` for 12 s) into a fresh
loader and reports p50/p99 publish→commit from that loader's own
``PipelineClock`` histogram (read back from its ``--self-log``): the
"real-time" half of the claim, where batching tuned for the drain must
not cost latency.  Runs standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_bus_net.py -o BENCH_bus.json

``--min-eps`` (or env ``STAMPEDE_BUS_MIN_EPS``) and ``--max-p99-ms``
(``STAMPEDE_BUS_MAX_P99_MS``) turn it into a CI gate: exit 1 when
end-to-end throughput lands under the floor or the paced phase's p99
publish→commit over the ceiling.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.bus.broker import Broker  # noqa: E402
from repro.bus.net import BrokerServer  # noqa: E402
from repro.netlogger.stream import BPReader, write_events  # noqa: E402
from repro.obs.metrics import Histogram  # noqa: E402
from repro.pegasus import (  # noqa: E402
    PlannerConfig,
    Site,
    SiteCatalog,
    run_pegasus_workflow,
)
from repro.triana.appender import MemoryAppender  # noqa: E402
from repro.workloads import cybershake  # noqa: E402

QUEUE = "bench"
PACED_QUEUE = "bench-paced"
PACED_RATE = 300  # events/s: one real workflow
PACED_SECONDS = 12


def _events(n_ruptures: int, seed: int = 7):
    sink = MemoryAppender()
    run_pegasus_workflow(
        cybershake(n_ruptures=n_ruptures),
        sink,
        catalog=SiteCatalog(
            [Site("pool", slots=64, mean_queue_delay=2.0, hosts_per_site=16)]
        ),
        planner_config=PlannerConfig(cluster_size=8),
        seed=seed,
    )
    return list(sink.events)


def _subenv():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _loopback(server, bp, n_events, queue_name, db, idle_exit,
              loader_args=(), publish_args=()):
    """One ``stampede-bus publish`` of ``bp`` into one ``nl-load --bus``.

    Returns ``(publish_s, ingest_s)``: until the publisher exits, and
    until the last delivery is acked (i.e. the batch holding it
    committed in the loader's archive); the loader has exited by then.
    """
    broker = server.broker
    loader = subprocess.Popen(
        [
            sys.executable, "-m", "repro.loader.nl_load",
            "--bus", server.url,
            "--queue", queue_name,
            "--idle-exit", str(idle_exit),
            *loader_args,
            "stampede_loader", f"connString=sqlite:///{db}",
        ],
        env=_subenv(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # the loader's durable queue must exist before publishing
        deadline = time.monotonic() + 30
        while queue_name not in broker.queue_names():
            if time.monotonic() > deadline:
                raise RuntimeError("loader never subscribed")
            time.sleep(0.02)
        queue = broker.queue(queue_name)

        start = time.monotonic()
        publish = subprocess.run(
            [
                sys.executable, "-m", "repro.bus.cli",
                "publish", str(bp), "--bus", server.url, *publish_args,
            ],
            env=_subenv(),
            capture_output=True,
            text=True,
            timeout=600,
        )
        if publish.returncode != 0:
            raise RuntimeError(f"publish failed: {publish.stdout}"
                               f"{publish.stderr}")
        publish_elapsed = time.monotonic() - start
        deadline = time.monotonic() + 600
        while queue.stats.acked < n_events:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"drain stalled: {queue.stats.acked}/{n_events}"
                )
            time.sleep(0.02)
        ingest_elapsed = time.monotonic() - start
        out, _ = loader.communicate(timeout=idle_exit + 60)
        if loader.returncode != 0:
            raise RuntimeError(f"loader failed: {out}")
    finally:
        if loader.poll() is None:
            loader.kill()
    return publish_elapsed, ingest_elapsed


def _commit_latency(selflog: Path) -> Histogram:
    """The loader's publish→commit histogram, rebuilt from its self-log."""
    for event in BPReader(selflog):
        if (
            event.get("metric") == "stampede_pipeline_latency_seconds"
            and event.get("label.stage") == "commit"
        ):
            cumulative = [
                (float(bound), int(count))
                for bound, count in json.loads(str(event["buckets"]))
            ]
            hist = Histogram(
                "commit", buckets=[b for b, _ in cumulative if b != float("inf")]
            )
            below = 0
            for bound, count in cumulative:
                for _ in range(count - below):
                    hist.observe(bound)  # lands in the bucket it came from
                below = count
            return hist
    raise RuntimeError(f"no commit-latency histogram in {selflog}")


def run_bench(n_ruptures: int, idle_exit: float = 2.0):
    events = _events(n_ruptures)
    paced = events[: PACED_RATE * PACED_SECONDS]
    results = {"events": len(events), "n_ruptures": n_ruptures}
    with tempfile.TemporaryDirectory(prefix="bench-bus-") as tmp:
        bp = Path(tmp) / "events.bp"
        write_events(bp, events)
        paced_bp = Path(tmp) / "paced.bp"
        write_events(paced_bp, paced)
        selflog = Path(tmp) / "paced-selflog.bp"
        with BrokerServer(Broker()) as server:
            publish_elapsed, ingest_elapsed = _loopback(
                server, bp, len(events), QUEUE, Path(tmp) / "bench.db", idle_exit
            )
            results["publish_s"] = round(publish_elapsed, 4)
            results["publish_eps"] = round(len(events) / publish_elapsed, 1)
            results["ingest_s"] = round(ingest_elapsed, 4)
            results["ingest_eps"] = round(len(events) / ingest_elapsed, 1)
            results["server_publishes"] = server.publishes
            results["server_connections"] = server.connections_total
            _, paced_elapsed = _loopback(
                server, paced_bp, len(paced), PACED_QUEUE,
                Path(tmp) / "paced.db", idle_exit,
                loader_args=("--self-log", str(selflog)),
                publish_args=("--rate", str(PACED_RATE)),
            )
        commit = _commit_latency(selflog)
        if commit.count != len(paced):
            raise RuntimeError(
                f"paced phase: {commit.count} commit samples "
                f"for {len(paced)} events"
            )
        results["paced_rate"] = PACED_RATE
        results["paced_events"] = len(paced)
        results["paced_s"] = round(paced_elapsed, 4)
        results["paced_commit_p50_ms"] = round(commit.quantile(0.50) * 1000, 1)
        results["paced_commit_p99_ms"] = round(commit.quantile(0.99) * 1000, 1)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="two-process bus loopback benchmark"
    )
    parser.add_argument(
        "--ruptures", type=int, default=1700,
        help="CyberShake size (events scale ~30x this; default 1700, the "
             "51k events of the committed BENCH_bus.json)",
    )
    parser.add_argument("-o", "--out", default=None, help="write JSON here")
    parser.add_argument(
        "--min-eps", type=float,
        default=float(os.environ.get("STAMPEDE_BUS_MIN_EPS", 0)),
        help="fail (exit 1) if end-to-end events/s lands below this floor",
    )
    parser.add_argument(
        "--max-p99-ms", type=float,
        default=float(os.environ.get("STAMPEDE_BUS_MAX_P99_MS", 0)),
        help="fail (exit 1) if the paced phase's p99 publish→commit "
             "lands above this ceiling",
    )
    args = parser.parse_args(argv)

    results = run_bench(args.ruptures)
    results["python"] = sys.version.split()[0]
    results["min_eps"] = args.min_eps
    results["max_p99_ms"] = args.max_p99_ms
    print(
        f"bus-net: {results['events']} events | "
        f"publish {results['publish_eps']:,.0f} ev/s | "
        f"end-to-end ingest {results['ingest_eps']:,.0f} ev/s "
        f"({results['ingest_s']:.2f}s, two processes via TCP loopback)"
    )
    print(
        f"bus-net paced: {results['paced_events']} events at "
        f"{results['paced_rate']} ev/s ({results['paced_s']:.1f}s) | "
        f"publish→commit p50 {results['paced_commit_p50_ms']:.0f} ms, "
        f"p99 {results['paced_commit_p99_ms']:.0f} ms"
    )
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.min_eps and results["ingest_eps"] < args.min_eps:
        print(
            f"FAIL: ingest {results['ingest_eps']:,.0f} ev/s "
            f"< floor {args.min_eps:,.0f} ev/s"
        )
        return 1
    if args.max_p99_ms and results["paced_commit_p99_ms"] > args.max_p99_ms:
        print(
            f"FAIL: paced p99 publish→commit "
            f"{results['paced_commit_p99_ms']:,.0f} ms "
            f"> ceiling {args.max_p99_ms:,.0f} ms"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
