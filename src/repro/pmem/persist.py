"""The persistence probe: what a power loss right now would lose.

Guests persist through the VM's ``persist``/``flush``/``fence`` ops,
which land on :meth:`PMPool.persist`, :meth:`PMPool.flush` and
:meth:`PMPool.fence` — the libpmem ``pmem_persist``/``clwb``/``sfence``
analogues, and the ``pmem.flush``/``pmem.fence`` sites the
crash-consistency fuzzer perturbs.

:func:`probe_persistence` is the WITCHER-style likely-invariant probe:
it inspects the simulated CPU write buffer / staged-line state and
reports what a power loss *right now* would lose — the signal the
fuzzer's consistency checks and the new fault families are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.pmem.pool import WORDS_PER_LINE, PMPool


@dataclass
class PersistProbe:
    """What a power loss *right now* would do to a pool.

    The fuzzer's invariant checks read this between guest quiescence and
    the simulated power loss: a quiescent guest that believes its data
    durable must show an empty write buffer, otherwise some persist call
    was skipped / unordered (WITCHER's missing-flush and persist-ordering
    invariants).
    """

    #: words written but never flushed — lost at power loss (missing flush)
    unflushed_words: int = 0
    #: cache lines flushed but not yet fenced (ordering not established)
    staged_lines: int = 0
    #: words inside staged lines — lost at power loss (missing fence)
    staged_words: int = 0
    #: explicit flushed ranges whose persist hooks have not fired
    pending_ranges: int = 0
    #: addresses a power loss would revert to their durable value
    at_risk: Tuple[int, ...] = field(default=(), repr=False)

    @property
    def at_risk_words(self) -> int:
        return len(self.at_risk)

    @property
    def consistent(self) -> bool:
        """True when a power loss right now loses nothing."""
        return self.at_risk_words == 0 and self.pending_ranges == 0


def probe_persistence(pool: PMPool) -> PersistProbe:
    """Inspect ``pool``'s write-buffer state without disturbing it."""
    staged = pool._staged_lines
    staged_words = 0
    unflushed = 0
    at_risk: List[int] = []
    for addr in pool._cache:
        at_risk.append(addr)
        if addr // WORDS_PER_LINE in staged:
            staged_words += 1
        else:
            unflushed += 1
    at_risk.sort()
    return PersistProbe(
        unflushed_words=unflushed,
        staged_lines=len(staged),
        staged_words=staged_words,
        pending_ranges=len(pool._pending_ranges),
        at_risk=tuple(at_risk),
    )
