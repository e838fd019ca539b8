"""Whole-pool snapshot and restore.

This is the substrate for the pmCRIU baseline (Section 6.1): CRIU enhanced
to dump the PM pool alongside process state.  A snapshot captures the
durable image and the allocator metadata; restore replaces both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool


@dataclass
class PoolSnapshot:
    """A point-in-time durable image of a pool."""

    #: simulated time at which the snapshot was taken (seconds)
    taken_at: float
    durable: Dict[int, int] = field(default_factory=dict)
    allocator_meta: dict = field(default_factory=dict)
    #: free-form label ("ckpt3"), used in reports
    label: str = ""

    def size_words(self) -> int:
        """Number of non-zero durable words captured."""
        return len(self.durable)


def take_snapshot(
    pool: PMPool,
    allocator: Optional[PMAllocator] = None,
    taken_at: float = 0.0,
    label: str = "",
) -> PoolSnapshot:
    """Capture the durable image (and allocator metadata) of a pool."""
    return PoolSnapshot(
        taken_at=taken_at,
        durable=pool.durable_items(),
        allocator_meta=allocator.export_meta() if allocator is not None else {},
        label=label,
    )


def restore_snapshot(
    pool: PMPool,
    snapshot: PoolSnapshot,
    allocator: Optional[PMAllocator] = None,
) -> None:
    """Replace the pool's durable image with a snapshot's."""
    pool.load_durable(snapshot.durable)
    if allocator is not None and snapshot.allocator_meta:
        allocator.import_meta(snapshot.allocator_meta)

