"""Client-side correctness oracle for the end-to-end cluster bench.

The model holds, per key, the value of the last acknowledged write
(:data:`ABSENT` after a delete).  Every read the bench serves is checked
against it.  A heal may discard acked writes; afterwards the model is
rebuilt from the cluster's operation log: each key maps to its last
non-discarded op, or to ABSENT when every op on it was discarded.  That
is exactly the value ``DistributedReactor._revert_op_on`` restores on a
live node, so a correct heal leaves no mismatch.  (Dropping discarded
keys from the model instead would make every later read of such a key
look wrong.)
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from repro.distributed.cluster import vc_leq, vc_less
from repro.systems.common import ABSENT

#: mismatches kept verbatim for the result record
MAX_REPORTED = 5


class Oracle:
    """The last acked value per key, plus the wrong answers seen."""

    def __init__(self) -> None:
        self.values: Dict[int, int] = {}
        self.wrong = 0
        self.mismatches: List[str] = []

    def acked_insert(self, key: int, value: int) -> None:
        self.values[key] = value

    def acked_delete(self, key: int) -> None:
        self.values[key] = ABSENT

    def check_read(self, key: int, got: int, where: str) -> bool:
        want = self.values.get(key, ABSENT)
        if got == want:
            return True
        self.wrong += 1
        if len(self.mismatches) < MAX_REPORTED:
            self.mismatches.append(f"{where}: key {key} read {got}, want {want}")
        return False

    def rebuild(self, oplog: Iterable) -> None:
        """Re-derive the model from the oplog after a heal discarded ops."""
        values: Dict[int, int] = {}
        for op in oplog:
            if op.discarded:
                values.setdefault(op.key, ABSENT)
            else:
                values[op.key] = op.value if op.kind == "insert" else ABSENT
        self.values = values

    def sweep(self, lookup: Callable[[int], int]) -> int:
        """Read every modelled key once; returns the number of reads."""
        for key in sorted(self.values):
            self.check_read(key, lookup(key), "final sweep")
        return len(self.values)


def causal_cut_ok(oplog: List) -> bool:
    """No surviving op causally depends on a discarded one.

    Same verdict as ``cluster_sweep._causal_cut_ok`` (``vc_less`` from a
    discarded op to a surviving one), but compared only against the
    minimal discarded clocks: any discarded clock lies above one of
    them, so this stays linear in the oplog when a heal discards
    thousands of ops.
    """
    discarded = sorted(
        (op.vc for op in oplog if op.discarded), key=sum
    )
    minimal: List[tuple] = []
    for vc in discarded:
        if not any(vc_leq(m, vc) for m in minimal):
            minimal.append(vc)
    for op in oplog:
        if op.discarded:
            continue
        if any(vc_less(m, op.vc) for m in minimal):
            return False
    return True
