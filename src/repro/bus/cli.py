"""``stampede-bus``: run a bus server / publish BP logs to one.

Two subcommands cover the distributed quickstart end to end:

* ``stampede-bus serve`` — stand up a :class:`~repro.bus.net.BrokerServer`
  fronting a fresh in-process broker and run until SIGINT or SIGTERM.  With
  ``--port 0`` the kernel picks the port; ``--announce FILE`` writes the
  resolved ``tcp://`` url atomically so scripts (and the integration
  tests) can discover it without racing the bind.
* ``stampede-bus publish`` — stream a BP event log to a running server,
  stamped exactly as a live engine would stamp it (sequence, trace,
  clocks, partition key), so ``nl-load --bus`` consumers downstream see
  a faithful replay.
"""
from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from typing import List, Optional

from repro.bus.broker import Broker
from repro.bus.net import BrokerServer, RemotePublisher
from repro.netlogger.events import NLEvent

__all__ = ["main"]


def _cmd_serve(args: argparse.Namespace) -> int:
    broker = Broker()
    server = BrokerServer(broker, host=args.host, port=args.port).start()
    url = server.url
    if args.announce:
        # write-then-rename: a watcher never reads a half-written url
        tmp = f"{args.announce}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(url + "\n")
        os.replace(tmp, args.announce)
    # a supervisor stops a daemon with SIGTERM: give it SIGINT's exit
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        # whoever reads this line may signal at once, so it is printed
        # where the interrupt is already caught
        print(f"stampede-bus serving on {url}", flush=True)
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop()
        print(
            f"stampede-bus stopped: {server.connections_total} connections, "
            f"{server.publishes} publishes",
            flush=True,
        )
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from repro.replay.shape import ConstantRate, Pacer

    publisher = RemotePublisher(args.bus, publisher_id=args.publisher_id)
    shape = ConstantRate(args.rate) if args.rate else None
    pacer = Pacer()
    published = 0
    start = time.monotonic()
    try:
        with open(args.log, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if shape is not None:
                    # drift-free sleep-until: each event has an absolute
                    # deadline, so scheduling jitter never accumulates
                    pacer.wait_until(shape.offset(published, 0.0))
                publisher.publish(NLEvent.from_bp(line))
                published += 1
        publisher.flush()
    finally:
        publisher.close()
    elapsed = max(time.monotonic() - start, 1e-9)
    print(
        f"published {published} events in {elapsed:.2f}s "
        f"({published / elapsed:,.0f} ev/s)",
        flush=True,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stampede-bus",
        description="Serve the monitoring bus over TCP, or publish to one.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a broker server until interrupted")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=5672)
    serve.add_argument(
        "--announce",
        metavar="FILE",
        help="write the resolved tcp:// url to FILE once listening",
    )
    serve.set_defaults(func=_cmd_serve)

    publish = sub.add_parser("publish", help="publish a BP event log to a server")
    publish.add_argument("log", help="BP-format NetLogger event file")
    publish.add_argument("--bus", required=True, help="server url, tcp://host:port")
    publish.add_argument(
        "--publisher-id", default=None, help="override the publisher stamp identity"
    )
    publish.add_argument(
        "--rate", type=int, default=0, help="cap publishing at N events/second"
    )
    publish.set_defaults(func=_cmd_publish)

    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
