"""Start one process of the system under test with spans recorded.

    python traced_entry.py MODULE:FUNC ARGS...

imports ``MODULE``, wraps the layer boundaries (see ``spans.instrument``)
and calls ``FUNC()`` — a console-script ``main`` — with ``ARGS`` as its
command line.  ``E2E_ROLE`` names the process in the records and
``E2E_SPANS_OUT`` is the JSONL file written when the process ends,
including on SIGTERM, which is how the benchmark stops a server.
"""
from __future__ import annotations

import importlib
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402  (sibling module, found through the line above)


def main() -> int:
    if len(sys.argv) < 2 or ":" not in sys.argv[1]:
        print(__doc__, file=sys.stderr)
        return 2
    module_name, func_name = sys.argv[1].split(":", 1)
    out = os.environ["E2E_SPANS_OUT"]
    recorder = spans.Recorder(os.environ.get("E2E_ROLE", module_name))
    spans.instrument(recorder)
    func = getattr(importlib.import_module(module_name), func_name)

    def terminate(_signum, _frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, terminate)
    sys.argv = [sys.argv[1]] + sys.argv[2:]
    try:
        return int(func() or 0)
    finally:
        # a second SIGTERM must not cut the dump short
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
