"""Word-addressable persistent memory pool with a CPU write-buffer model.

The model follows how real PM behaves underneath ``clwb``/``sfence``:

* ``write`` puts the value in a volatile write buffer (the "CPU cache").
  Reads see the buffer first, so the running program always observes its
  own latest stores.
* ``flush`` stages the cache lines overlapping a range for writeback.
* ``fence`` makes every staged line durable and fires persist hooks.
* ``persist`` is the common ``flush + fence`` pair (``pmem_persist``).
* ``crash`` throws away the write buffer and staged lines; only durable
  words survive — exactly the semantics that turn soft faults into hard
  faults when a bad value *was* persisted.

Persist hooks are how the Arthas checkpoint manager observes the program's
own persistence points (Section 4.2 of the paper): a hook fires once per
explicitly persisted range, after the range is durable, with the durable
values.  Hook granularity therefore matches the granularity the target
program chose, which is what makes rollback consistent (Section 4.6).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro import faultinject
from repro.errors import InjectedCrash, PoolError

#: First valid persistent word address.  Everything below is volatile space
#: (or NULL); keeping the ranges disjoint lets analyses and the leak
#: detector classify an address by value alone.
PM_BASE = 0x1000_0000

#: Words per simulated cache line (8 words x 8 bytes = 64-byte lines).
WORDS_PER_LINE = 8

#: Type of a persist hook: (addr, nwords, values, tag) -> None.  ``tag`` is
#: an opaque string the writer supplied (e.g. "persist", "tx-commit").
PersistHook = Callable[[int, int, List[int], str], None]


class PMPool:
    """A simulated persistent memory pool.

    Parameters
    ----------
    size_words:
        Capacity of the pool in words.
    name:
        Pool name, used in error messages and snapshots.
    """

    def __init__(self, size_words: int, name: str = "pool"):
        if size_words <= 0:
            raise PoolError(f"pool size must be positive, got {size_words}")
        self.name = name
        self.size_words = size_words
        #: one past the last word address, fixed for the pool's life
        self.end = PM_BASE + size_words
        #: durable words: addr -> value (sparse; absent means 0)
        self._durable: Dict[int, int] = {}
        #: CPU write buffer: addr -> value, not yet durable
        self._cache: Dict[int, int] = {}
        #: line indices staged by flush but not yet fenced
        self._staged_lines: set[int] = set()
        #: explicit (addr, nwords, tag) ranges awaiting the next fence
        self._pending_ranges: List[Tuple[int, int, str]] = []
        self._persist_hooks: List[PersistHook] = []
        #: open dirty-word epochs: token -> {addr: durable pre-image},
        #: where ``None`` means the word had no durable entry at all
        #: (distinct from an explicit 0, so undo restores the exact
        #: representation byte-for-byte).  Insertion order is open order;
        #: undo must be LIFO.  Empty in normal operation, so the hot
        #: persist path pays one truthiness check per durable word (see
        #: :meth:`open_epoch`).
        self._epoch_preimages: Dict[int, Dict[int, Optional[int]]] = {}
        self._epoch_next = 1
        #: words written back by fences, and flushes/fences a fault
        #: plan elided (the fuzzer's evidence that one was skipped)
        self.stats = {
            "skipped_flushes": 0,
            "skipped_fences": 0,
            "persisted_words": 0,
        }

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        """Return True if ``addr`` is a valid word address in this pool."""
        return PM_BASE <= addr < self.end

    def _check(self, addr: int, nwords: int = 1) -> None:
        if nwords < 0:
            raise PoolError(f"negative range length {nwords}")
        # a zero-length range still names one word: ``addr`` itself
        if not PM_BASE <= addr <= self.end - (nwords or 1):
            raise PoolError(
                f"address range [{addr:#x}, +{nwords}) outside pool "
                f"{self.name} [{PM_BASE:#x}, {self.end:#x})"
            )

    @staticmethod
    def line_of(addr: int) -> int:
        """Return the cache-line index containing a word address."""
        return addr // WORDS_PER_LINE

    # ------------------------------------------------------------------
    # load / store
    # ------------------------------------------------------------------
    def read(self, addr: int) -> int:
        """Read one word, observing un-persisted stores (cache first)."""
        if not PM_BASE <= addr < self.end:
            self._check(addr)
        if addr in self._cache:
            return self._cache[addr]
        return self._durable.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        """Store one word into the write buffer (not yet durable)."""
        if not PM_BASE <= addr < self.end:
            self._check(addr)
        self._cache[addr] = value

    def read_range(self, addr: int, nwords: int) -> List[int]:
        """Read ``nwords`` consecutive words."""
        self._check(addr, nwords)
        cache, durable = self._cache, self._durable
        return [
            cache[a] if a in cache else durable.get(a, 0)
            for a in range(addr, addr + nwords)
        ]

    def durable_read(self, addr: int) -> int:
        """Read the *durable* value of a word (what a crash would keep)."""
        self._check(addr)
        return self._durable.get(addr, 0)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def flush(self, addr: int, nwords: int = 1, tag: str = "persist") -> None:
        """Stage the cache lines overlapping ``[addr, addr+nwords)``.

        Nothing is durable until the next :meth:`fence`.
        """
        if nwords == 0:
            return
        self._check(addr, nwords)
        spec = faultinject.fire("pmem.flush")
        if spec is not None and spec.kind == "skip-flush":
            # the clwb is elided: the store stays in the write buffer,
            # reads still see it, and the next power loss drops it even
            # though the program believed it durable (missing-flush bug)
            self.stats["skipped_flushes"] += 1
            return
        first = self.line_of(addr)
        last = self.line_of(addr + nwords - 1)
        self._staged_lines.update(range(first, last + 1))
        self._pending_ranges.append((addr, nwords, tag))

    def fence(self) -> None:
        """Make all staged lines durable and fire persist hooks.

        Hooks fire once per explicit flushed range, in flush order, after
        durability — a hook never observes a value that could still be
        lost in a crash.
        """
        spec = faultinject.fire("pmem.fence")  # crash-before-persist site
        if spec is not None and spec.kind == "torn":
            self._torn_fence(spec)
        if spec is not None and spec.kind == "skip-fence":
            # the sfence is elided: staged lines stay staged and persist
            # hooks do not fire, so the ordering the program relied on is
            # lost until some *later* fence happens to drain the buffer
            # (persist-ordering bug)
            self.stats["skipped_fences"] += 1
            return
        epochs = self._epoch_preimages
        for line in self._staged_lines:
            base = line * WORDS_PER_LINE
            for addr in range(base, base + WORDS_PER_LINE):
                if addr in self._cache:
                    if epochs:
                        self._note_dirty(addr)
                    value = self._cache.pop(addr)
                    # canonical sparse image: zero means entry absent,
                    # matching durable_write — so a physically
                    # replicated pool is byte-comparable to an
                    # executed one
                    if value == 0:
                        self._durable.pop(addr, None)
                    else:
                        self._durable[addr] = value
                    self.stats["persisted_words"] += 1
        self._staged_lines.clear()
        pending, self._pending_ranges = self._pending_ranges, []
        for addr, nwords, tag in pending:
            if self._persist_hooks:
                values = [self._durable.get(addr + i, 0) for i in range(nwords)]
                for hook in self._persist_hooks:
                    hook(addr, nwords, values, tag)

    def _torn_fence(self, spec) -> None:
        """Persist only part of the staged lines, then die (torn write).

        Models a crash landing mid-writeback: whole cache lines are the
        durability unit, so a deterministic, seeded prefix of the staged
        lines reaches PM and the rest is lost with the write buffer.
        Persist hooks never fire — the process died before the fence
        completed, so the checkpoint log is left *behind* the pool,
        exactly the divergence recovery must tolerate.
        """
        import random

        lines = sorted(self._staged_lines)
        rng = random.Random((spec.seed << 16) ^ len(lines))
        keep = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
        for line in lines[:keep]:
            base = line * WORDS_PER_LINE
            for addr in range(base, base + WORDS_PER_LINE):
                if addr in self._cache:
                    if self._epoch_preimages:
                        self._note_dirty(addr)
                    value = self._cache.pop(addr)
                    if value == 0:
                        self._durable.pop(addr, None)
                    else:
                        self._durable[addr] = value
                    self.stats["persisted_words"] += 1
        raise InjectedCrash(
            f"torn fence: {keep} of {len(lines)} staged line(s) persisted",
            location="pmem.fence",
        )

    def persist(self, addr: int, nwords: int = 1, tag: str = "persist") -> None:
        """``pmem_persist`` equivalent: flush the range and fence."""
        self.flush(addr, nwords, tag)
        self.fence()

    def add_persist_hook(self, hook: PersistHook) -> None:
        """Register a hook observing every explicitly persisted range."""
        self._persist_hooks.append(hook)

    def remove_persist_hook(self, hook: PersistHook) -> None:
        """Unregister a previously added persist hook."""
        self._persist_hooks.remove(hook)

    # ------------------------------------------------------------------
    # crash / direct durable access
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate power loss: drop all state that is not durable."""
        self._cache.clear()
        self._staged_lines.clear()
        self._pending_ranges.clear()

    def durable_write(self, addr: int, value: int) -> None:
        """Write directly to durable storage, bypassing the write buffer.

        Used only by recovery machinery (reactor reversions, snapshot
        restore) — never by the guest program.
        """
        self._check(addr)
        if self._epoch_preimages:
            self._note_dirty(addr)
        if value == 0:
            self._durable.pop(addr, None)
        else:
            self._durable[addr] = value

    def apply_words(self, words: Dict[int, int]) -> None:
        """Install a captured word delta wholesale (physical replication).

        Equivalent to :meth:`durable_write` per word — shares the
        0-means-absent convention and epoch dirty tracking — but
        validates the address range once (the pool's address space is
        one contiguous run, so checking the extremes covers every word)
        and skips the per-call machinery: the shipped-delta apply loop
        is the cluster replication hot path.
        """
        if not words:
            return
        self._check(min(words))
        self._check(max(words))
        durable = self._durable
        if self._epoch_preimages:
            for addr, value in words.items():
                self._note_dirty(addr)
                if value == 0:
                    durable.pop(addr, None)
                else:
                    durable[addr] = value
        else:
            for addr, value in words.items():
                if value == 0:
                    durable.pop(addr, None)
                else:
                    durable[addr] = value

    def discard_cached(self, addr: int, nwords: int = 1) -> None:
        """Drop any buffered (un-persisted) stores in a range.

        Used by the allocator (fresh blocks start from durable zeros) and
        by transaction aborts.
        """
        self._check(addr, nwords)
        for a in range(addr, addr + nwords):
            self._cache.pop(a, None)

    def durable_items(self) -> Dict[int, int]:
        """A copy of all non-zero durable words (addr -> value)."""
        return dict(self._durable)

    def load_durable(self, items: Dict[int, int]) -> None:
        """Replace the durable image wholesale (snapshot restore).

        The durable dict is refilled in place, never rebound: a running
        fused VM segment holds it in a local (see :mod:`repro.lang.fuse`).
        """
        for addr in items:
            self._check(addr)
        if self._epoch_preimages:
            # record the full diff so open epochs stay undoable — the
            # wholesale replacement is O(pool) anyway
            for addr in set(self._durable) | set(items):
                if self._durable.get(addr, 0) != items.get(addr, 0):
                    self._note_dirty(addr)
        self._durable.clear()
        self._durable.update(items)
        self._cache.clear()
        self._staged_lines.clear()
        self._pending_ranges.clear()

    # ------------------------------------------------------------------
    # dirty-word epochs (incremental snapshots)
    # ------------------------------------------------------------------
    def _note_dirty(self, addr: int) -> None:
        """Record ``addr``'s durable pre-image in every open epoch.

        First write wins per epoch: the stored value is what the word
        held when the epoch opened (or when it was first touched after),
        which is exactly what :meth:`epoch_undo` must write back.  A
        word with no durable entry records ``None`` so undo can remove
        the entry again rather than leave an explicit 0 behind.
        """
        durable = self._durable
        for pre in self._epoch_preimages.values():
            if addr not in pre:
                pre[addr] = durable.get(addr)

    def open_epoch(self) -> int:
        """Open a dirty-word tracking epoch; returns an opaque token.

        From now until the epoch is undone or closed, every durable
        mutation (fence writeback, ``durable_write``, ``load_durable``)
        records the word's pre-image, so the pool can later be restored
        to this exact point by rewriting *only the dirty words* —
        O(delta) instead of the O(pool) full-image copy a
        :func:`~repro.pmem.snapshot.take_snapshot` pays.  Epochs nest;
        undo order must be LIFO (newest first).
        """
        token = self._epoch_next
        self._epoch_next += 1
        self._epoch_preimages[token] = {}
        return token

    def epoch_undo(self, token: int, close: bool = True) -> int:
        """Rewrite the epoch's dirty words back to their pre-images.

        ``token`` must be the *newest* open epoch (undo is LIFO — undoing
        an older epoch first would restore stale values over newer
        epochs' base states).  With ``close=False`` the epoch stays open
        with an empty dirty set: the pool now *is* the epoch state, so
        tracking simply continues from here.  Returns the number of
        words rewritten.  Restores are recorded into the remaining older
        epochs (first-write-wins makes most of that a no-op), keeping
        them undoable in turn.
        """
        if token not in self._epoch_preimages:
            raise PoolError(f"unknown or closed epoch {token}")
        newest = next(reversed(self._epoch_preimages))
        if token != newest:
            raise PoolError(
                f"epoch undo must be LIFO: {token} is not the newest "
                f"open epoch ({newest})"
            )
        pre = self._epoch_preimages.pop(token)
        durable = self._durable
        others = self._epoch_preimages
        for addr, value in pre.items():
            if others:
                for other in others.values():
                    if addr not in other:
                        other[addr] = durable.get(addr)
            if value is None:
                durable.pop(addr, None)
            else:
                durable[addr] = value
        if not close:
            self._epoch_preimages[token] = {}
        return len(pre)

    def close_epoch(self, token: int) -> None:
        """Stop tracking an epoch without restoring (keep current state)."""
        self._epoch_preimages.pop(token, None)

    def capture_epoch_delta(self, token: int) -> Dict[int, int]:
        """Close an epoch and return its word delta as ``addr -> post``.

        The delta maps every durable word mutated since the epoch opened
        to its *current* durable value (0 for words whose entry was
        removed).  Writing those post-values into another pool holding
        the epoch's pre-state — via :meth:`durable_write`, which shares
        the 0-means-absent convention — reproduces this pool's durable
        image exactly.  This is the physical-replication capture: the
        replica gets the delta, not the computation.
        """
        if token not in self._epoch_preimages:
            raise PoolError(f"unknown or closed epoch {token}")
        durable = self._durable
        delta = {
            addr: durable.get(addr, 0)
            for addr in self._epoch_preimages[token]
        }
        self.close_epoch(token)
        return delta
