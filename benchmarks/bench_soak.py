"""Soak benchmark: a shaped multi-workload storm with chaos and kill/resume.

The headline robustness number for the traffic harness.  Builds the
standard mixed trace (CyberShake + Montage + Epigenomics + LIGO + DART,
interleaved, identities remapped per copy), multiplies it to the target
storm size, then drives :func:`repro.replay.soak.run_soak`: shaped
replay through a chaos broker into a checkpointing loader, with the
fault plan armed mid-replay and the loader killed and resumed from its
checkpoint mid-storm.

The run *is* the gate: canonical row-identity vs an unshaped fault-free
baseline, zero DLQ/stranded leakage, a throughput floor, a p99
publish→commit latency ceiling (PipelineClock histogram), and a peak
RSS ceiling.  Any gate failure exits nonzero.

Standalone, for CI::

    python benchmarks/bench_soak.py --events 1000000 -o BENCH_soak.json
"""
import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.faults.plan import FaultPlan
from repro.replay.shape import parse_shape
from repro.replay.soak import MAX_RSS_MB, mixed_trace, run_soak, storm_stream

#: drop + duplicate + reorder, armed only after `--arm-at` of the replay
CHAOS_SPEC = {
    "bus": {"drop": 0.02, "duplicate": 0.02, "reorder": 0.02, "reorder_depth": 4},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=200_000, help="target storm size")
    parser.add_argument("--seed", type=int, default=11, help="workload/chaos seed")
    parser.add_argument("--scale", type=int, default=1, help="base workload scale")
    parser.add_argument("--shape", default="burst:20000,80000,2.0,0.25")
    parser.add_argument("--no-chaos", action="store_true")
    parser.add_argument("--no-kill", action="store_true")
    parser.add_argument("--arm-at", type=float, default=0.3)
    parser.add_argument("--kill-at", type=float, default=0.55)
    parser.add_argument("--batch-size", type=int, default=500)
    parser.add_argument("--queue-max", type=int, default=20_000)
    parser.add_argument("--min-throughput", type=float, default=1_000.0)
    parser.add_argument("--max-p99-commit", type=float, default=8.0)
    parser.add_argument("--max-rss-mb", type=float, default=MAX_RSS_MB)
    parser.add_argument("--workdir", default=None, help="archive dir (default: temp)")
    parser.add_argument("-o", "--output", default=None, help="write JSON report here")
    args = parser.parse_args(argv)

    print(f"soak: building mixed trace (seed={args.seed}, scale={args.scale})")
    base = mixed_trace(seed=args.seed, scale=args.scale)
    copies = max(1, -(-args.events // len(base)))  # ceil to the target
    total = len(base) * copies
    print(f"soak: base {len(base)} events x {copies} copies = {total} events")

    plan = None
    if not args.no_chaos:
        plan = FaultPlan.from_dict({"seed": args.seed, **CHAOS_SPEC})
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench-soak-")
    report = run_soak(
        lambda: storm_stream(base, copies, salt=f"bench/{args.seed}"),
        workdir,
        total=total,
        plan=plan,
        shape=parse_shape(args.shape),
        arm_at=args.arm_at,
        kill_at=args.kill_at,
        kill=not args.no_kill,
        batch_size=args.batch_size,
        queue_max=args.queue_max,
        min_throughput=args.min_throughput,
        max_p99_commit=args.max_p99_commit,
        max_rss_mb=args.max_rss_mb,
        progress=lambda msg: print(f"soak: {msg}", flush=True),
    )

    payload = {
        "seed": args.seed,
        "scale": args.scale,
        "base_events": len(base),
        "copies": copies,
        "python": ".".join(map(str, sys.version_info[:3])),
        **report.to_dict(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    if not report.passed:
        failed = [g.name for g in report.gates if not g.ok]
        print(f"SOAK FAILED: gates {failed}", file=sys.stderr)
        return 1
    print(
        f"SOAK PASSED: {report.events} events, {report.throughput:,.0f} ev/s, "
        f"p99 commit {report.p99_commit_s * 1000.0:.1f}ms, "
        f"peak rss {report.peak_rss_mb:.0f}MB"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
