"""ArCkpt: fine-grained checkpointing without the analyzer.

Keeps Arthas's checkpoint log but disables slicing: entries are reverted
one at a time in strict reverse sequence order, re-executing after each.
The paper positions this as a facet of Arthas: it recovers only the bugs
whose bad persistent update is (nearly) the most recent one and times out
otherwise, because walking back through thousands of unrelated updates
one re-execution at a time exhausts the mitigation budget.

Each entry is a cut in :meth:`~repro.reactor.revert.Reverter.run_cuts`:
budgeted before it is applied, at a flat cost, without the dangling-pointer
guard, and re-executed even when it reverted nothing.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List

from repro.checkpoint.log import CheckpointLog
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.reactor.revert import (
    REVERT_COST,
    Cut,
    MitigationResult,
    ReexecFn,
    Reverter,
)


class ArCkpt:
    """Time-ordered, one-entry-at-a-time reversion."""

    def __init__(self, log: CheckpointLog, pool: PMPool,
                 allocator: PMAllocator):
        self.log, self.pool, self.allocator = log, pool, allocator

    def mitigate(
        self,
        reexec: ReexecFn,
        clock=None,
        reexec_delay: Callable[[], float] = lambda: 4.0,
        max_attempts: int = 130,
        timeout_seconds: float = 600.0,
    ) -> MitigationResult:
        """Revert update entries newest-first, re-executing after each."""
        reverter = Reverter(
            self.log, self.pool, self.allocator, reexec=reexec, clock=clock,
            reexec_delay=reexec_delay, max_attempts=max_attempts,
            timeout_seconds=timeout_seconds,
        )
        return reverter.run_cuts("arckpt", partial(self._cuts, reverter))

    def _cuts(self, reverter: Reverter, result: MitigationResult):
        """One cut per logged update, newest first: its transaction."""
        updates = sorted(
            (ev.seq for ev in self.log.events if ev.kind == "update"),
            reverse=True,
        )
        for seq in updates:
            restore = partial(_revert_tx, reverter, seq)
            if (yield Cut(restore, cost=REVERT_COST, budget_first=True)).ok:
                return


def _revert_tx(reverter: Reverter, seq: int) -> List[int]:
    return reverter.revert_each(reverter.tx_closure(seq))
