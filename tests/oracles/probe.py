"""The full-restore bisect probe oracle."""

from typing import List

from repro.lang.interp import park
from repro.pmem.snapshot import restore_snapshot, take_snapshot


class SnapshotProbeEngine:
    """Oracle probe engine: every seek restores the full baseline
    snapshot and re-applies the reversion prefix from scratch.

    O(pool + prefix) per probe — this is the seed behaviour, kept as the
    correctness oracle for the incremental engine (same role
    ``tests/oracles/checkpoint.py`` plays for the log indexes).
    """

    def __init__(self, reverter, groups: List[List[int]]):
        self.r = reverter
        self.groups = groups
        self.baseline = take_snapshot(reverter.pool, reverter.allocator)

    def seek(self, k: int) -> List[int]:
        """Move the pool to the state with groups[:k] applied; the full
        restore also wipes the last probe's re-execution writes."""
        restore_snapshot(self.r.pool, self.baseline, self.r.allocator)
        applied: List[int] = []
        for group in self.groups[:k]:
            park()
            for s in sorted(group, reverse=True):
                if self.r.revert_update_seq(s, 1, guard_dangling=True):
                    applied.append(s)
        return applied

    def abort(self) -> None:
        restore_snapshot(self.r.pool, self.baseline, self.r.allocator)

    def close(self) -> None:
        pass
