"""Unit and property tests for the PM allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, OutOfSpaceError
from repro.pmem.allocator import HEADER_WORDS, PMAllocator
from repro.pmem.pool import PM_BASE, PMPool


class TestAllocation:
    def test_zalloc_returns_in_pool(self, allocator):
        addr = allocator.zalloc(8)
        assert allocator.pool.contains(addr)
        assert allocator.is_allocated(addr)
        assert allocator.allocations()[addr] == 8

    def test_zalloc_zero_fills_durably(self, allocator):
        addr = allocator.zalloc(4)
        assert all(allocator.pool.durable_read(addr + i) == 0 for i in range(4))

    def test_zalloc_reuses_freed_block_first_fit(self, allocator):
        a = allocator.zalloc(8)
        allocator.zalloc(8)
        allocator.free(a)
        b = allocator.zalloc(8)
        assert b == a

    def test_zalloc_clears_stale_cached_writes(self, allocator):
        a = allocator.zalloc(4)
        allocator.pool.write(a, 99)  # never persisted
        allocator.free(a)
        b = allocator.zalloc(4)
        assert b == a
        assert allocator.pool.read(b) == 0

    def test_invalid_size(self, allocator):
        with pytest.raises(AllocationError):
            allocator.zalloc(0)
        with pytest.raises(AllocationError):
            allocator.zalloc(-3)

    def test_out_of_space(self):
        allocator = PMAllocator(PMPool(HEADER_WORDS + 16))
        allocator.zalloc(16)
        with pytest.raises(OutOfSpaceError):
            allocator.zalloc(1)

    def test_free_unknown_raises(self, allocator):
        with pytest.raises(AllocationError):
            allocator.free(PM_BASE + HEADER_WORDS)

    def test_double_free_raises(self, allocator):
        a = allocator.zalloc(4)
        allocator.free(a)
        with pytest.raises(AllocationError):
            allocator.free(a)

    def test_coalescing_allows_big_realloc(self, allocator):
        blocks = [allocator.zalloc(8) for _ in range(4)]
        for b in blocks:
            allocator.free(b)
        big = allocator.zalloc(32)
        assert big == blocks[0]

    def test_site_tags(self, allocator):
        a = allocator.zalloc(4, site="g1")
        assert allocator.export_meta()["sites"][a] == "g1"
        allocator.free(a)
        assert a not in allocator.export_meta()["sites"]


class TestRealloc:
    def test_realloc_copies_contents(self, allocator):
        a = allocator.zalloc(4)
        allocator.pool.durable_write(a, 11)
        allocator.pool.durable_write(a + 3, 44)
        b = allocator.realloc(a, 8)
        assert allocator.pool.read(b) == 11
        assert allocator.pool.read(b + 3) == 44
        assert not allocator.is_allocated(a)

    def test_realloc_fires_hooks(self, allocator):
        events = []
        allocator.add_realloc_hook(lambda o, n, w: events.append((o, n, w)))
        a = allocator.zalloc(4)
        b = allocator.realloc(a, 8)
        assert events == [(a, b, 8)]

    def test_realloc_unknown_raises(self, allocator):
        with pytest.raises(AllocationError):
            allocator.realloc(PM_BASE + HEADER_WORDS, 4)


class TestUnfree:
    def test_unfree_restores_allocation(self, allocator):
        a = allocator.zalloc(8)
        allocator.free(a)
        allocator.unfree(a, 8)
        assert allocator.is_allocated(a)
        assert allocator.allocations()[a] == 8

    def test_unfree_is_idempotent_for_live_blocks(self, allocator):
        a = allocator.zalloc(8)
        allocator.unfree(a, 8)  # already live: no-op
        assert allocator.is_allocated(a)

    def test_unfree_fails_when_range_reused(self, allocator):
        x = allocator.zalloc(4)
        y = allocator.zalloc(4)
        allocator.free(x)
        allocator.free(y)
        z = allocator.zalloc(6)  # straddles x's and y's old ranges
        assert z == x
        with pytest.raises(AllocationError):
            allocator.unfree(y, 4)

    def test_unfree_splits_free_extent(self, allocator):
        a = allocator.zalloc(4)
        mid = allocator.zalloc(4)
        c = allocator.zalloc(4)
        allocator.free(a)
        allocator.free(mid)
        allocator.free(c)  # one big coalesced extent now
        allocator.unfree(mid, 4)
        assert allocator.is_allocated(mid)
        # neighbours are still allocatable
        assert allocator.zalloc(4) == a
        assert allocator.zalloc(4) == c


class TestRootAndHooks:
    def test_root_roundtrip(self, allocator):
        addr = allocator.zalloc(4)
        allocator.set_root(addr)
        assert allocator.root() == addr

    def test_root_survives_crash(self, allocator):
        addr = allocator.zalloc(4)
        allocator.set_root(addr)
        allocator.pool.crash()
        assert allocator.root() == addr

    def test_alloc_free_hooks(self, allocator):
        events = []
        allocator.add_alloc_hook(lambda a, n: events.append(("alloc", a, n)))
        allocator.add_free_hook(lambda a, n: events.append(("free", a, n)))
        a = allocator.zalloc(4)
        allocator.free(a)
        assert events == [("alloc", a, 4), ("free", a, 4)]

    def test_block_containing(self, allocator):
        a = allocator.zalloc(8)
        assert allocator.block_containing(a + 3) == (a, 8)
        assert allocator.block_containing(a + 8) != (a, 8)

    def test_usage_accounting(self, allocator):
        base = allocator.used_words()
        a = allocator.zalloc(10)
        assert allocator.used_words() == base + 10
        allocator.free(a)
        assert allocator.used_words() == base

    def test_export_import_meta(self, allocator):
        a = allocator.zalloc(4, site="s")
        meta = allocator.export_meta()
        fresh = PMAllocator(allocator.pool)
        fresh.import_meta(meta)
        assert fresh.is_allocated(a)
        assert fresh.export_meta()["sites"][a] == "s"


# ----------------------------------------------------------------------
# property: live blocks never overlap, and used + free == capacity
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 32)),
            st.tuples(st.just("free"), st.integers(0, 10)),
            st.tuples(st.just("realloc"), st.integers(1, 32)),
        ),
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_allocator_invariants(ops):
    allocator = PMAllocator(PMPool(1024))
    live = []
    for op, arg in ops:
        if op == "alloc":
            try:
                live.append(allocator.zalloc(arg))
            except OutOfSpaceError:
                pass
        elif op == "free" and live:
            allocator.free(live.pop(arg % len(live)))
        elif op == "realloc" and live:
            idx = arg % len(live)
            try:
                live[idx] = allocator.realloc(live[idx], arg)
            except OutOfSpaceError:
                pass
    blocks = sorted(allocator.allocations().items())
    for (a, n), (b, m) in zip(blocks, blocks[1:]):
        assert a + n <= b, "live blocks overlap"
    free_words = sum(length for _start, length in allocator._free)
    assert allocator.used_words() + free_words == allocator.capacity_words()
