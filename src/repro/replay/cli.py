"""``stampede-replay``: record, inspect, compose, replay, and soak.

The operational face of :mod:`repro.replay`:

* ``record`` — tap a running ``tcp://`` bus and write a portable JSONL
  trace (headers and inter-arrival timing preserved);
* ``info`` — summarize a trace (records, span, routing keys, meta);
* ``compose`` — interleave several traces on one timeline, rewriting
  workflow identities so the result is one coherent mixed workload;
* ``replay`` — republish a trace to a live bus at ×N speed or under a
  synthetic shape (constant / burst trains / diurnal);
* ``soak`` — the full storm scenario from :func:`repro.replay.soak.run_soak`:
  mixed five-workload storm, chaos armed mid-replay, loader killed and
  resumed from checkpoint, gated on row identity, leakage, throughput,
  p99 publish→commit latency, and peak RSS.  Exit status is the gate
  verdict, so CI can call it directly.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import List, Optional

from repro.replay.shape import parse_shape
from repro.replay.trace import (
    compose_traces,
    read_trace,
    trace_meta,
    write_trace,
)

__all__ = ["main"]


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.replay.recorder import record_remote

    written = record_remote(
        args.bus,
        args.out,
        pattern=args.pattern,
        count=args.count or None,
        duration=args.duration or None,
        idle_timeout=args.idle_timeout,
        meta={"source": args.bus, "pattern": args.pattern},
    )
    span = 0.0
    if written > 1:
        records = list(read_trace(args.out))
        span = records[-1].t - records[0].t
    print(f"recorded {written} events over {span:.2f}s -> {args.out}", flush=True)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    for path in args.traces:
        meta = trace_meta(path)
        records = list(read_trace(path))
        span = records[-1].t - records[0].t if len(records) > 1 else 0.0
        keys: dict = {}
        for r in records:
            keys[r.routing_key] = keys.get(r.routing_key, 0) + 1
        print(f"{path}: {len(records)} records, {span:.2f}s span")
        if meta:
            print(f"  meta: {json.dumps(meta, sort_keys=True)}")
        for key, n in sorted(keys.items(), key=lambda kv: -kv[1])[:8]:
            print(f"  {key}: {n}")
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    traces = [read_trace(path) for path in args.traces]
    merged = compose_traces(*traces, remap=not args.keep_ids, salt=args.salt)
    write_trace(
        args.out, merged, meta={"composed_from": args.traces, "salt": args.salt}
    )
    print(f"composed {len(merged)} records from {len(args.traces)} traces -> {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.replay.replayer import Replayer

    records = []
    for path in args.traces:
        records.extend(read_trace(path))
    records.sort(key=lambda r: r.t)
    shape = parse_shape(args.shape, speed=args.speed)
    replayer = Replayer(
        args.bus, publisher_id=args.publisher_id, stamp=not args.raw
    )
    try:
        stats = replayer.run(records, shape=shape)
    finally:
        replayer.close()
    print(
        f"replayed {stats.records} events in {stats.duration:.2f}s "
        f"({stats.rate:,.0f} ev/s, shape: {stats.shape}, "
        f"max behind: {stats.max_behind * 1000.0:.1f}ms)",
        flush=True,
    )
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.faults.plan import FaultPlan
    from repro.replay.soak import MAX_RSS_MB, mixed_trace, run_soak, storm_stream
    from repro.replay.trace import read_trace as _read

    if args.trace:
        base = list(_read(args.trace))
    else:
        print(f"generating mixed 5-workload trace (seed={args.seed})", flush=True)
        base = mixed_trace(seed=args.seed, scale=args.scale)
    copies = max(1, -(-args.events // len(base)))  # ceil
    total = len(base) * copies
    plan: Optional[FaultPlan] = None
    if args.chaos:
        with open(args.chaos, "r", encoding="utf-8") as fh:
            plan = FaultPlan.from_dict(json.load(fh))
    elif not args.no_chaos:
        plan = FaultPlan.from_dict(
            {
                "seed": args.seed,
                "bus": {
                    "drop": 0.02,
                    "duplicate": 0.02,
                    "reorder": 0.02,
                    "reorder_depth": 4,
                },
            }
        )
    shape = parse_shape(args.shape, speed=args.speed)
    workdir = args.workdir or tempfile.mkdtemp(prefix="stampede-soak-")

    report = run_soak(
        lambda: storm_stream(base, copies, salt=f"soak/{args.seed}"),
        workdir,
        total=total,
        plan=plan,
        shape=shape,
        arm_at=args.arm_at,
        kill_at=args.kill_at,
        kill=not args.no_kill,
        batch_size=args.batch_size,
        queue_max=args.queue_max,
        min_throughput=args.min_throughput,
        max_p99_commit=args.max_p99_commit,
        max_rss_mb=args.max_rss_mb or MAX_RSS_MB,
        progress=lambda msg: print(f"soak: {msg}", flush=True),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(indent=2, sort_keys=True) + "\n")
        print(f"report -> {args.out}", flush=True)
    if args.save_trace:
        write_trace(
            args.save_trace,
            storm_stream(base, copies, salt=f"soak/{args.seed}"),
            meta={"seed": args.seed, "copies": copies, "events": total},
        )
        print(f"storm trace -> {args.save_trace}", flush=True)
    for gate in report.gates:
        mark = "PASS" if gate.ok else "FAIL"
        op = ">=" if gate.kind == "min" else "<="
        print(f"  [{mark}] {gate.name}: {gate.value:.4g} {op} {gate.limit:.4g}")
    print(
        f"soak {'PASSED' if report.passed else 'FAILED'}: "
        f"{report.events} events, {report.throughput:,.0f} ev/s, "
        f"p99 commit {report.p99_commit_s * 1000.0:.1f}ms, "
        f"peak rss {report.peak_rss_mb:.0f}MB, "
        f"killed={report.killed} resumed={report.resumed}",
        flush=True,
    )
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stampede-replay",
        description="record, compose, replay, and soak-test bus traffic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="tap a tcp:// bus into a JSONL trace")
    p.add_argument("--bus", required=True, help="tcp://host:port of a stampede-bus")
    p.add_argument("--out", required=True, help="trace file to write")
    p.add_argument("--pattern", default="stampede.#", help="binding pattern to tap")
    p.add_argument("--count", type=int, default=0, help="stop after N events")
    p.add_argument("--duration", type=float, default=0.0, help="stop after S seconds")
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=5.0,
        help="stop after S seconds with no traffic (0 waits forever)",
    )
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("info", help="summarize trace files")
    p.add_argument("traces", nargs="+", help="trace files")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("compose", help="interleave traces into one storm")
    p.add_argument("traces", nargs="+", help="input trace files")
    p.add_argument("--out", required=True, help="composed trace file")
    p.add_argument("--salt", default="compose", help="identity-remap salt")
    p.add_argument(
        "--keep-ids",
        action="store_true",
        help="keep original workflow ids (collisions are yours to manage)",
    )
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("replay", help="republish a trace to a live bus")
    p.add_argument("traces", nargs="+", help="trace files (merged by timestamp)")
    p.add_argument("--bus", required=True, help="tcp://host:port of a stampede-bus")
    p.add_argument(
        "--speed", type=float, default=1.0, help="timing multiplier (0 = flat out)"
    )
    p.add_argument(
        "--shape",
        default="trace",
        help="trace | constant:RATE | burst:BASE,BURST[,PERIOD[,FRAC]] "
        "| diurnal:MEAN[,PERIOD[,AMP]]",
    )
    p.add_argument("--publisher-id", default=None, help="publisher identity to stamp")
    p.add_argument(
        "--raw",
        action="store_true",
        help="replay recorded headers verbatim instead of restamping",
    )
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("soak", help="storm + chaos + kill/resume, gated")
    p.add_argument(
        "--events", type=int, default=200_000, help="target storm size (events)"
    )
    p.add_argument("--seed", type=int, default=11, help="workload/chaos seed")
    p.add_argument("--scale", type=int, default=1, help="base workload size multiplier")
    p.add_argument("--trace", default=None, help="use this trace as the storm base")
    p.add_argument("--shape", default="constant:30000", help="replay shape spec")
    p.add_argument("--speed", type=float, default=1.0, help="speed for shape 'trace'")
    p.add_argument("--chaos", default=None, help="fault-plan JSON file")
    p.add_argument("--no-chaos", action="store_true", help="skip fault injection")
    p.add_argument("--no-kill", action="store_true", help="skip the loader kill")
    p.add_argument("--arm-at", type=float, default=0.3, help="arm chaos at fraction")
    p.add_argument("--kill-at", type=float, default=0.55, help="kill loader at fraction")
    p.add_argument("--batch-size", type=int, default=500, help="loader batch size")
    p.add_argument("--queue-max", type=int, default=20_000, help="ingest queue bound")
    p.add_argument(
        "--min-throughput", type=float, default=1_000.0, help="gate: min ev/s"
    )
    p.add_argument(
        "--max-p99-commit", type=float, default=8.0, help="gate: max p99 commit (s)"
    )
    p.add_argument("--max-rss-mb", type=float, help="gate: max peak RSS (MB)")
    p.add_argument("--workdir", default=None, help="archive dir (default: temp)")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--save-trace", default=None, help="also write the storm trace")
    p.set_defaults(func=_cmd_soak)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
