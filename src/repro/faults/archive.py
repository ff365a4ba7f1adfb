"""Archive-layer chaos: injected transient failures on write transactions.

:class:`ChaosDatabase` wraps a :class:`~repro.orm.database.SqliteDatabase`
and makes chosen write-transaction *attempts* fail with
``sqlite3.OperationalError('database is locked')`` — raised at
transaction entry, which is precisely where real SQLite lock contention
surfaces (``BEGIN IMMEDIATE`` cannot take the write lock).  A failure
*after* the batch's statements ran (rollback, then replay) is not
injected here; ``tests/loader/test_loader_resilience.py`` covers it
with a wrapper of its own.

The loader's retry policy treats the injected error as transient (it is
in ``TRANSIENT_ERRORS``), backs off, and replays the batch — which is
the recovery path the chaos suite asserts.
"""
from __future__ import annotations

import random
import sqlite3
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.faults.plan import ArchiveFaultSpec, FaultStats

__all__ = ["ArchiveFaultInjector", "ChaosDatabase"]


class ArchiveFaultInjector:
    """Counts outermost write-transaction attempts and fails the chosen ones."""

    def __init__(
        self,
        spec: ArchiveFaultSpec,
        rng: random.Random,
        stats: FaultStats,
        gate: Optional[Callable[[], bool]] = None,
    ):
        self.spec = spec
        self.rng = rng
        self.stats = stats
        #: plan arm switch; attempts count even while disarmed (see
        #: BusFaultInjector.gate)
        self.gate = gate
        self.attempts = 0

    def on_transaction(self) -> None:
        self.attempts += 1
        if self.gate is not None and not self.gate():
            return
        fail = self.attempts in self.spec.fail_transactions
        if not fail and self.spec.error_rate:
            fail = self.rng.random() < self.spec.error_rate
        if fail:
            self.stats.archive_faults += 1
            raise sqlite3.OperationalError(
                f"database is locked [injected, attempt {self.attempts}]"
            )


class ChaosDatabase:
    """Transparent database proxy with fault-injected transactions.

    Everything except :meth:`transaction` (``TRANSIENT_ERRORS`` too)
    delegates to the wrapped database.  Nested transactions join the
    outermost one (mirroring its semantics), so only outermost entries
    count as attempts — the unit the loader retries.
    """

    def __init__(self, inner, injector: ArchiveFaultInjector):
        self._inner = inner
        self._injector = injector
        self._depth = 0

    @contextmanager
    def transaction(self) -> Iterator["ChaosDatabase"]:
        outermost = self._depth == 0
        self._depth += 1
        try:
            if outermost:
                self._injector.on_transaction()
            with self._inner.transaction():
                yield self
        finally:
            self._depth -= 1

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"ChaosDatabase({self._inner!r})"
