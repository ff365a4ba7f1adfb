"""Cross-process bus throughput: publisher proc → TCP broker → loader proc.

The in-process bus benches (``bench_bus_throughput``) measure the broker
data structures; this one measures the *deployment shape* the paper
actually describes — monitoring events crossing process boundaries on
their way to the archive.  It stands up a :class:`BrokerServer` in this
process, then drives it with two real subprocesses:

* ``stampede-bus publish`` replaying a CyberShake BP log, and
* ``nl-load --bus`` consuming into a sqlite archive,

and reports end-to-end events/second from first publish to the last
ack.  Runs standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_bus_net.py -o BENCH_bus.json

``--min-eps`` (or env ``STAMPEDE_BUS_MIN_EPS``) turns it into a CI
gate: exit 1 when end-to-end throughput lands under the floor.
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
from repro.netlogger.stream import write_events  # noqa: E402
from repro.pegasus import (  # noqa: E402
    PlannerConfig,
    Site,
    SiteCatalog,
    run_pegasus_workflow,
)
from repro.triana.appender import MemoryAppender  # noqa: E402
from repro.workloads import cybershake  # noqa: E402

QUEUE = "bench"


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


def run_bench(n_ruptures: int, idle_exit: float = 2.0):
    events = _events(n_ruptures)
    results = {"events": len(events), "n_ruptures": n_ruptures}
    with tempfile.TemporaryDirectory(prefix="bench-bus-") as tmp:
        bp = Path(tmp) / "events.bp"
        write_events(bp, events)
        db = Path(tmp) / "bench.db"
        broker = Broker()
        with BrokerServer(broker) as server:
            loader = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.loader.nl_load",
                    "--bus", server.url,
                    "--queue", QUEUE,
                    "--idle-exit", str(idle_exit),
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
                while QUEUE not in broker.queue_names():
                    if time.monotonic() > deadline:
                        raise RuntimeError("loader never subscribed")
                    time.sleep(0.02)
                queue = broker.queue(QUEUE)

                start = time.monotonic()
                publish = subprocess.run(
                    [
                        sys.executable, "-m", "repro.bus.cli",
                        "publish", str(bp), "--bus", server.url,
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
                # end-to-end: until the last delivery is acked (i.e. the
                # batch holding it committed in the loader's archive)
                deadline = time.monotonic() + 600
                while queue.stats.acked < len(events):
                    if time.monotonic() > deadline:
                        raise RuntimeError(
                            f"drain stalled: {queue.stats.acked}/{len(events)}"
                        )
                    time.sleep(0.02)
                ingest_elapsed = time.monotonic() - start
                out, _ = loader.communicate(timeout=idle_exit + 60)
                if loader.returncode != 0:
                    raise RuntimeError(f"loader failed: {out}")
            finally:
                if loader.poll() is None:
                    loader.kill()
        results["publish_s"] = round(publish_elapsed, 4)
        results["publish_eps"] = round(len(events) / publish_elapsed, 1)
        results["ingest_s"] = round(ingest_elapsed, 4)
        results["ingest_eps"] = round(len(events) / ingest_elapsed, 1)
        results["server_publishes"] = server.publishes
        results["server_connections"] = server.connections_total
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
    args = parser.parse_args(argv)

    results = run_bench(args.ruptures)
    results["python"] = sys.version.split()[0]
    results["min_eps"] = args.min_eps
    print(
        f"bus-net: {results['events']} events | "
        f"publish {results['publish_eps']:,.0f} ev/s | "
        f"end-to-end ingest {results['ingest_eps']:,.0f} ev/s "
        f"({results['ingest_s']:.2f}s, two processes via TCP loopback)"
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
