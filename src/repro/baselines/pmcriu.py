"""pmCRIU: the coarse-grained checkpoint-rollback baseline.

CRIU snapshots entire process state at fixed intervals; the paper enhances
it to dump the PM pool too.  The reproduction keeps the parts that matter
for PM hard faults: a periodic whole-pool snapshot, and mitigation by
restoring snapshots newest-first, re-executing after each restore.

Two shape-defining properties from the paper emerge naturally:

* recovery succeeds iff some snapshot predates the bad persistent state —
  bugs triggered before the first snapshot are only recoverable by
  restoring the *empty initial pool* (which loses everything and is the
  "probabilistic" success of f5/f8);
* data loss is large, because restoring a point-in-time image throws away
  every update after it, related to the fault or not.

Restores are cuts in :meth:`~repro.reactor.revert.Reverter.run_cuts` (run
without a checkpoint log), each budgeted before it is applied, as ArCkpt's.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.pmem.snapshot import PoolSnapshot, restore_snapshot, take_snapshot
from repro.reactor.revert import Cut, MitigationResult, ReexecFn, Reverter

#: simulated seconds to restore one whole-pool image
RESTORE_COST = 1.5

#: restores pmCRIU tries before giving up
MAX_ATTEMPTS = 20


class PmCRIU:
    """Periodic whole-pool snapshotting plus newest-first restore."""

    def __init__(
        self,
        pool: PMPool,
        allocator: PMAllocator,
        interval_seconds: float = 60.0,
    ):
        self.pool = pool
        self.allocator = allocator
        self.interval_seconds = interval_seconds
        self.snapshots: List[PoolSnapshot] = []
        self._last_snapshot_at: Optional[float] = None
        # the pristine image (empty pool) is always restorable
        self._initial = take_snapshot(pool, allocator, taken_at=0.0, label="initial")

    # ------------------------------------------------------------------
    def maybe_snapshot(self, now: float) -> bool:
        """Take a snapshot if the interval elapsed; returns True if taken."""
        due = (
            self._last_snapshot_at is None
            or now - self._last_snapshot_at >= self.interval_seconds
        )
        if not due:
            return False
        self._last_snapshot_at = now
        self.snapshots.append(
            take_snapshot(
                self.pool,
                self.allocator,
                taken_at=now,
                label=f"ckpt{len(self.snapshots) + 1}",
            )
        )
        return True

    # ------------------------------------------------------------------
    def mitigate(
        self,
        reexec: ReexecFn,
        clock=None,
        reexec_delay: Callable[[], float] = lambda: 4.0,
        timeout_seconds: float = 600.0,
    ) -> MitigationResult:
        """Restore snapshots newest-first until re-execution succeeds."""
        loop = Reverter(
            None, self.pool, self.allocator, reexec=reexec, clock=clock,
            reexec_delay=reexec_delay, max_attempts=MAX_ATTEMPTS,
            timeout_seconds=timeout_seconds,
        )
        return loop.run_cuts("pmcriu", self._cuts)

    def _cuts(self, result: MitigationResult):
        for image in list(reversed(self.snapshots)) + [self._initial]:
            restore = partial(restore_snapshot, self.pool, image, self.allocator)
            outcome = yield Cut(restore, cost=RESTORE_COST, budget_first=True)
            result.notes = f"restored {image.label}"
            if outcome.ok:
                return
