"""Input generator for the end-to-end benchmark (run as a child process).

``mixed_trace(seed)`` iterates sets somewhere below it, so its byte
stream differs between interpreter processes unless the string hash seed
is pinned (three runs, three digests; see README "src/ defects").  The
benchmark therefore never generates events in its own process: it runs
this file as a child with ``PYTHONHASHSEED=0``, and from then on only
sees the generated BP lines.

Protocol: the child writes one BP line per event to ``--out``, prints a
one-line JSON description of the stream (digest, counts) and flushes —
the parent may start the system under test at that point — then, with
``--reference``, loads the same stream sequentially in-process
(``load_events``) and pickles its canonical dump, the row-identity
oracle for the TCP workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--events", type=int, required=True)
    parser.add_argument("--out", help="BP file to write (omit to print the digests only)")
    parser.add_argument("--reference", help="pickle the sequential load's canonical dump here")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("gen_input.py must run with PYTHONHASHSEED=0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.replay.soak import mixed_trace, storm_stream

    base = mixed_trace(seed=args.seed)
    copies = args.events // len(base) + 1
    digest = hashlib.sha256()  # of the stream this workload uses
    seed_digest = hashlib.sha256()  # of the first copy: the same for every size
    by_type: Counter = Counter()
    lines = []
    for i, record in enumerate(storm_stream(base, copies)):
        if i >= args.events and i >= len(base):
            break
        line = record.bp_line()
        piece = f"{record.routing_key}\0{line}\n".encode()
        if i < len(base):
            seed_digest.update(piece)
        if i < args.events:
            digest.update(piece)
            by_type[record.routing_key] += 1
            lines.append(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    print(
        json.dumps(
            {
                "events": len(lines),
                "base_events": len(base),
                "digest": digest.hexdigest(),
                "seed_digest": seed_digest.hexdigest(),
                "by_type": dict(by_type),
            }
        ),
        flush=True,
    )
    if args.reference:
        from repro.archive.merge import canonical_dump
        from repro.loader.nl_load import load_events
        from repro.netlogger.events import NLEvent

        loader = load_events(NLEvent.from_bp(line) for line in lines)
        with open(args.reference, "wb") as fh:
            pickle.dump(canonical_dump(loader.archive), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
