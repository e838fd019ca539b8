"""A pmemobj-style allocator for :class:`~repro.pmem.pool.PMPool`.

Provides the pieces of ``libpmemobj`` the paper's systems rely on:

* ``zalloc`` (``pmemobj_zalloc``): zero-filled, failure-atomic allocation,
* ``free`` (``pmemobj_free``),
* ``realloc``, which the Arthas checkpoint log must link so reversions can
  follow a resized block to its earlier incarnation,
* a pool **root object** (``pmemobj_root``) — the durable entry point from
  which a program re-finds its data structures after restart.

Allocation metadata is failure-atomic (as in PMDK): a block allocated
before a crash is still allocated after it, and a block freed before a
crash stays freed.  Leaks therefore persist across restarts, which is
exactly the behaviour faults f8 and f12 need.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AllocationError, OutOfSpaceError
from repro.pmem.pool import PM_BASE, WORDS_PER_LINE, PMPool

#: Words reserved at the start of the pool for the header (root pointer).
HEADER_WORDS = WORDS_PER_LINE

#: Hook signatures for checkpoint-manager integration.
AllocHook = Callable[[int, int], None]  # (addr, nwords)
FreeHook = Callable[[int, int], None]  # (addr, nwords)
ReallocHook = Callable[[int, int, int], None]  # (old_addr, new_addr, nwords)

#: Op-tap payloads: ("alloc", addr, nwords, site), ("free", addr) or
#: ("realloc", old_addr, new_addr, nwords) — a replayable record of one
#: metadata mutation, consumed by the cluster's delta-capture machinery.
OpTap = Callable[[tuple], None]


class PMAllocator:
    """First-fit free-list allocator over a persistent pool."""

    def __init__(self, pool: PMPool):
        self.pool = pool
        heap_start = PM_BASE + HEADER_WORDS
        heap_end = PM_BASE + pool.size_words
        #: sorted list of (start, nwords) free extents
        self._free: List[Tuple[int, int]] = [(heap_start, heap_end - heap_start)]
        #: live allocations: addr -> nwords
        self._allocations: Dict[int, int] = {}
        #: optional provenance tag per allocation (e.g. alloc-site GUID)
        self._sites: Dict[int, str] = {}
        self._alloc_hooks: List[AllocHook] = []
        self._free_hooks: List[FreeHook] = []
        self._realloc_hooks: List[ReallocHook] = []
        #: fired *before* any metadata mutation (alloc/free/unfree/
        #: realloc/import_meta); lets delta snapshots capture the
        #: pre-mutation metadata lazily instead of copying it eagerly
        self._pre_mutate_hooks: List[Callable[[], None]] = []
        #: fired with a replayable op tuple after alloc/free/realloc —
        #: the metadata half of a :class:`ReplicaDelta` (see
        #: :mod:`repro.distributed.cluster`).  Recovery-side mutations
        #: (``unfree``, ``import_meta``, ``replay_*``) do not tap: they
        #: are not part of a replicated guest op.
        self._op_taps: List[OpTap] = []

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def add_alloc_hook(self, hook: AllocHook) -> None:
        """Register a callback fired after every allocation."""
        self._alloc_hooks.append(hook)

    def add_free_hook(self, hook: FreeHook) -> None:
        """Register a callback fired after every free."""
        self._free_hooks.append(hook)

    def add_realloc_hook(self, hook: ReallocHook) -> None:
        """Register a callback fired after every realloc."""
        self._realloc_hooks.append(hook)

    def add_pre_mutate_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback fired before every metadata mutation."""
        self._pre_mutate_hooks.append(hook)

    def remove_pre_mutate_hook(self, hook: Callable[[], None]) -> None:
        """Unregister a previously added pre-mutation callback."""
        self._pre_mutate_hooks.remove(hook)

    def add_op_tap(self, tap: OpTap) -> None:
        """Register a callback receiving replayable metadata-op tuples."""
        self._op_taps.append(tap)

    def remove_op_tap(self, tap: OpTap) -> None:
        """Unregister a previously added op tap."""
        self._op_taps.remove(tap)

    def _notify_mutate(self) -> None:
        if self._pre_mutate_hooks:
            for hook in list(self._pre_mutate_hooks):
                hook()

    def _tap(self, op: tuple) -> None:
        if self._op_taps:
            for tap in self._op_taps:
                tap(op)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def zalloc(self, nwords: int, site: Optional[str] = None) -> int:
        """Allocate ``nwords`` zero-filled words; returns the address.

        Raises :class:`OutOfSpaceError` when no free extent is large
        enough — the condition a persistent leak eventually produces.
        """
        if nwords <= 0:
            raise AllocationError(f"allocation size must be positive, got {nwords}")
        self._notify_mutate()
        for i, (start, length) in enumerate(self._free):
            if length >= nwords:
                if length == nwords:
                    del self._free[i]
                else:
                    self._free[i] = (start + nwords, length - nwords)
                self._allocations[start] = nwords
                if site is not None:
                    self._sites[start] = site
                # zero-fill durably: a fresh pmemobj allocation is zeroed
                # and its zeroing survives crashes.
                for a in range(start, start + nwords):
                    self.pool.durable_write(a, 0)
                self.pool.discard_cached(start, nwords)
                self._tap(("alloc", start, nwords, site))
                for hook in self._alloc_hooks:
                    hook(start, nwords)
                return start
        raise OutOfSpaceError(
            f"pool {self.pool.name}: no extent of {nwords} words available "
            f"(used {self.used_words()}/{self.capacity_words()} words)"
        )

    def free(self, addr: int) -> None:
        """Free a previously allocated block (failure-atomic)."""
        self._notify_mutate()
        nwords = self._allocations.pop(addr, None)
        if nwords is None:
            raise AllocationError(f"free of unallocated address {addr:#x}")
        self._sites.pop(addr, None)
        self._insert_free(addr, nwords)
        self._tap(("free", addr))
        for hook in self._free_hooks:
            hook(addr, nwords)

    def realloc(self, addr: int, nwords: int, site: Optional[str] = None) -> int:
        """Resize a block; contents are copied, the old block is freed.

        Fires realloc hooks with (old, new, nwords) so the checkpoint log
        can link the two incarnations (``old_entry``/``new_entry`` fields
        of the paper's Figure 5).
        """
        old_n = self._allocations.get(addr)
        if old_n is None:
            raise AllocationError(f"realloc of unallocated address {addr:#x}")
        new_addr = self.zalloc(nwords, site=site)
        copy_n = min(old_n, nwords)
        for i in range(copy_n):
            self.pool.durable_write(new_addr + i, self.pool.read(addr + i))
        self.free(addr)
        self._tap(("realloc", addr, new_addr, nwords))
        for hook in self._realloc_hooks:
            hook(addr, new_addr, nwords)
        return new_addr

    def unfree(self, addr: int, nwords: int, site: Optional[str] = None) -> None:
        """Re-allocate a specific freed range (reversion of a ``free``).

        Used by the Arthas reactor when rolling back past a free
        operation; the exact range must currently lie inside one free
        extent.  Block contents are *not* touched — the durable words are
        still there, which is what makes the reversion meaningful.
        """
        self._notify_mutate()
        existing = self._allocations.get(addr)
        if existing is not None:
            if existing == nwords:
                return  # already live (e.g. reverted twice)
            raise AllocationError(
                f"cannot unfree [{addr:#x}, +{nwords}): a different "
                f"{existing}-word block now lives there"
            )
        for i, (start, length) in enumerate(self._free):
            if start <= addr and addr + nwords <= start + length:
                del self._free[i]
                if start < addr:
                    self._free.append((start, addr - start))
                tail = (start + length) - (addr + nwords)
                if tail > 0:
                    self._free.append((addr + nwords, tail))
                self._free.sort()
                self._allocations[addr] = nwords
                if site is not None:
                    self._sites[addr] = site
                return
        raise AllocationError(
            f"cannot unfree [{addr:#x}, +{nwords}): range not entirely free"
        )

    # ------------------------------------------------------------------
    # delta replay (physical replication)
    # ------------------------------------------------------------------
    def replay_alloc(self, addr: int, nwords: int,
                     site: Optional[str] = None) -> None:
        """Re-apply a primary's allocation at its exact address.

        No first-fit search: the replica's free list must cover the
        range (guaranteed when primary and replica histories are
        aligned, which the delta engine maintains).  No zero-fill and no
        hooks — the word delta carries the zeroing and the checkpoint
        records arrive in the shipped record batch.  Idempotent: a
        same-size live block at ``addr`` is a completed re-apply.
        """
        self.unfree(addr, nwords, site=site)

    def replay_free(self, addr: int) -> None:
        """Re-apply a primary's free; hook-free and idempotent."""
        self._notify_mutate()
        nwords = self._allocations.pop(addr, None)
        if nwords is None:
            return  # already freed (crash-retried re-apply)
        self._sites.pop(addr, None)
        self._insert_free(addr, nwords)

    def _insert_free(self, addr: int, nwords: int) -> None:
        """Insert an extent into the free list, coalescing neighbours."""
        self._free.append((addr, nwords))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for start, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                prev_start, prev_len = merged[-1]
                merged[-1] = (prev_start, prev_len + length)
            else:
                merged.append((start, length))
        self._free = merged

    # ------------------------------------------------------------------
    # root object
    # ------------------------------------------------------------------
    def set_root(self, addr: int) -> None:
        """Durably record the pool's root object pointer."""
        self.pool.write(PM_BASE, addr)
        self.pool.persist(PM_BASE, 1, tag="root")

    def root(self) -> int:
        """Return the root object pointer (0 if never set)."""
        return self.pool.read(PM_BASE)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def is_allocated(self, addr: int) -> bool:
        """True when ``addr`` is the start of a live block."""
        return addr in self._allocations

    def block_containing(self, addr: int) -> Optional[Tuple[int, int]]:
        """Return (start, nwords) of the live block containing ``addr``."""
        for start, nwords in self._allocations.items():
            if start <= addr < start + nwords:
                return (start, nwords)
        return None

    def allocations(self) -> Dict[int, int]:
        """A copy of the live allocation map (addr -> nwords)."""
        return dict(self._allocations)

    def used_words(self) -> int:
        """Words currently allocated."""
        return sum(self._allocations.values())

    def capacity_words(self) -> int:
        """Allocatable words in the pool (excluding the header)."""
        return self.pool.size_words - HEADER_WORDS

    def usage_ratio(self) -> float:
        """used_words / capacity_words."""
        return self.used_words() / self.capacity_words()

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------
    def export_meta(self) -> dict:
        """Export allocator metadata for a pool snapshot."""
        return {
            "free": list(self._free),
            "allocations": dict(self._allocations),
            "sites": dict(self._sites),
        }

    def import_meta(self, meta: dict) -> None:
        """Restore allocator metadata from a pool snapshot."""
        self._notify_mutate()
        self._free = [tuple(x) for x in meta["free"]]
        self._allocations = dict(meta["allocations"])
        self._sites = dict(meta["sites"])
