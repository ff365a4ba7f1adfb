"""The one front of the archive's read tools (``stampede-statistics``,
``stampede-analyzer``, ``stampede-rollup``); docs/query.md states its
rules.  It owns three decisions:

* the archive argument: a reader never creates an archive, so a path
  that names nothing is a data error;
* the root rule: ``--wf-uuid`` selects that workflow, else every root;
* the error policy: a usage error is argparse's (exit 2); a data error
  is one line on stderr and exit 1.

The dashboard opens its own archive: it may start before the loader
has created the file it serves.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import closing
from typing import Callable, List, Optional

from repro.archive.federate import FederationError
from repro.archive.shard import ShardError, open_archive
from repro.archive.tier import TierError
from repro.core.rollup import RollupCoverageError
from repro.model.entities import WorkflowRow
from repro.query.api import StampedeQuery, UnknownWorkflowError

__all__ = ["DATA_ERRORS", "add_archive_argument", "selected_workflows", "serve"]

#: what the archive, not the command line, is at fault for
DATA_ERRORS = (
    FileNotFoundError,
    UnknownWorkflowError,
    RollupCoverageError,
    ShardError,
    FederationError,
    TierError,
)


def add_archive_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "connString",
        help="the archive: a connection string (sqlite:///run.db), a plain "
        "sqlite path, a shard directory (shards.json inside, long-term tier "
        "included), or a glob of shard files ('shards/*.db'); it must exist",
    )


def serve(spec: str, body: Callable[..., int]) -> int:
    """``body(archive)``'s exit code over the archive ``spec`` names.

    A data error (:data:`DATA_ERRORS`) prints its message as one line on
    stderr and returns 1.
    """
    try:
        path = spec[len("sqlite:///"):] if spec.startswith("sqlite:///") else spec
        is_glob = path == spec and any(ch in spec for ch in "*?[")
        if not is_glob and not os.path.exists(path):
            # open_archive would create an empty archive here
            raise FileNotFoundError(f"no archive at {spec!r}")
        with closing(open_archive(spec)) as archive:
            return body(archive)
    except DATA_ERRORS as exc:
        print(exc, file=sys.stderr)
        return 1


def selected_workflows(archive, wf_uuid: Optional[str]) -> List[WorkflowRow]:
    """The workflow ``wf_uuid`` names, or every root without one."""
    query = StampedeQuery(archive)
    return [query.resolve(wf_uuid=wf_uuid)] if wf_uuid else query.root_workflows()
