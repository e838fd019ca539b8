"""Wires the checkpoint log into a running PM system (Section 4.2).

The manager registers hooks on the pool, the transaction manager and the
allocator, so that:

* every explicitly persisted range becomes a checkpoint-log version
  *after* it is durable (never prematurely — the paper's "respects the
  program's persistence points"),
* transaction commits bracket their member updates with begin/commit
  marks, so the reactor can revert whole transactions,
* frees and reallocs are recorded, enabling free-reversion and the
  ``old_entry``/``new_entry`` linking.

Checkpointing is transparent to the guest program: it costs pool-hook
callbacks only, which is the runtime overhead Figure 12 measures.
"""

from __future__ import annotations

from typing import List, Tuple

from repro import faultinject
from repro.checkpoint.log import MAX_VERSIONS, CheckpointLog
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.pmem.tx import TransactionManager


class CheckpointManager:
    """Attaches a :class:`CheckpointLog` to one pool's persistence points."""

    def __init__(
        self,
        pool: PMPool,
        allocator: PMAllocator,
        txman: TransactionManager,
        max_versions: int = MAX_VERSIONS,
    ):
        self.pool = pool
        self.allocator = allocator
        self.txman = txman
        self.log = CheckpointLog(max_versions)
        self.enabled = True
        #: count of checkpointed ranges, for the overhead model
        self.updates_recorded = 0
        self._attached = False

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Register all hooks; idempotent."""
        if self._attached:
            return
        self.pool.add_persist_hook(self._on_persist)
        self.txman.add_begin_hook(self._on_tx_begin)
        self.txman.add_commit_hook(self._on_tx_commit)
        self.allocator.add_alloc_hook(self._on_alloc)
        self.allocator.add_free_hook(self._on_free)
        self.allocator.add_realloc_hook(self._on_realloc)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        self.pool.remove_persist_hook(self._on_persist)
        self._attached = False
        self.enabled = False

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _on_persist(self, addr: int, nwords: int, values: List[int], tag: str) -> None:
        if not self.enabled:
            return
        # crash here = the process died after the range became durable
        # but before the checkpoint hook recorded it (log behind pool)
        spec = faultinject.fire("ckpt.record_update")
        tx_id = self.txman.current_tx_id if tag == "tx-commit" else 0
        seq = self.log.record_update(addr, nwords, values, tx_id=tx_id)
        self.updates_recorded += 1
        if spec is not None and spec.kind == "bitflip":
            self._flip_recorded_bit(addr, seq, spec.seed)

    def _flip_recorded_bit(self, addr: int, seq: int, seed: int) -> None:
        """Corrupt one bit of the just-recorded version's data in place.

        Models media corruption of the checkpoint region.  The version's
        checksum was computed over the original data, so the flip is
        detectable by ``CheckpointLog.verify_checksums`` — which is the
        property the injection sweep asserts.
        """
        import random

        entry = self.log.entries.get(addr)
        version = entry.version_with_seq(seq) if entry is not None else None
        if version is None or not version.data:  # pragma: no cover - defensive
            return
        rng = random.Random((seed << 16) ^ seq)
        i = rng.randrange(len(version.data))
        bit = 1 << rng.randrange(32)
        data = list(version.data)
        data[i] ^= bit
        version.data = tuple(data)

    def _on_tx_begin(self, tx_id: int) -> None:
        if self.enabled:
            faultinject.fire("ckpt.record_tx_begin")
            self.log.record_tx_begin(tx_id)

    def _on_tx_commit(self, tx_id: int, ranges: List[Tuple[int, int]]) -> None:
        if self.enabled:
            faultinject.fire("ckpt.record_tx_commit")
            self.log.record_tx_commit(tx_id)

    def _on_alloc(self, addr: int, nwords: int) -> None:
        if self.enabled:
            faultinject.fire("ckpt.record_alloc")
            self.log.record_alloc(addr, nwords)

    def _on_free(self, addr: int, nwords: int) -> None:
        if self.enabled:
            faultinject.fire("ckpt.record_free")
            self.log.record_free(addr, nwords)

    def _on_realloc(self, old_addr: int, new_addr: int, nwords: int) -> None:
        if self.enabled:
            self.log.link_realloc(old_addr, new_addr)
