"""Unit and property tests for the PM pool's persistence semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PoolError
from repro.pmem.pool import PM_BASE, WORDS_PER_LINE, PMPool


class TestBasics:
    def test_read_defaults_to_zero(self, pool):
        assert pool.read(PM_BASE + 10) == 0

    def test_write_then_read(self, pool):
        pool.write(PM_BASE + 5, 42)
        assert pool.read(PM_BASE + 5) == 42

    def test_write_is_not_durable_until_persisted(self, pool):
        pool.write(PM_BASE + 5, 42)
        assert pool.durable_read(PM_BASE + 5) == 0

    def test_persist_makes_write_durable(self, pool):
        pool.write(PM_BASE + 5, 42)
        pool.persist(PM_BASE + 5, 1)
        assert pool.durable_read(PM_BASE + 5) == 42

    def test_range_roundtrip(self, pool):
        for i, value in enumerate([1, 2, 3]):
            pool.write(PM_BASE + 8 + i, value)
        assert pool.read_range(PM_BASE + 8, 3) == [1, 2, 3]

    def test_contains(self, pool):
        assert pool.contains(PM_BASE)
        assert pool.contains(PM_BASE + pool.size_words - 1)
        assert not pool.contains(PM_BASE - 1)
        assert not pool.contains(PM_BASE + pool.size_words)
        assert not pool.contains(0)

    def test_out_of_bounds_raises(self, pool):
        with pytest.raises(PoolError):
            pool.read(PM_BASE - 1)
        with pytest.raises(PoolError):
            pool.write(PM_BASE + pool.size_words, 1)

    def test_negative_range_raises(self, pool):
        with pytest.raises(PoolError):
            pool.flush(PM_BASE, -1)

    def test_read_range_ending_on_the_last_word(self, pool):
        last = PM_BASE + pool.size_words - 1
        assert pool.end == last + 1
        pool.write(last, 5)  # cached
        pool.write(last - 1, 4)
        pool.persist(last - 1, 1)  # durable
        assert pool.read_range(last - 2, 3) == [0, 4, 5]

    def test_read_range_crossing_the_end_raises(self, pool):
        with pytest.raises(PoolError):
            pool.read_range(pool.end - 2, 3)
        with pytest.raises(PoolError):
            pool.read_range(PM_BASE - 1, 2)

    def test_zero_size_pool_rejected(self):
        with pytest.raises(PoolError):
            PMPool(0)


class TestCrashSemantics:
    def test_crash_drops_unpersisted(self, pool):
        pool.write(PM_BASE + 1, 11)
        pool.crash()
        assert pool.read(PM_BASE + 1) == 0

    def test_crash_keeps_persisted(self, pool):
        pool.write(PM_BASE + 1, 11)
        pool.persist(PM_BASE + 1, 1)
        pool.write(PM_BASE + 1, 22)  # newer, un-persisted
        pool.crash()
        assert pool.read(PM_BASE + 1) == 11

    def test_flush_without_fence_not_durable_after_crash(self, pool):
        pool.write(PM_BASE + 1, 11)
        pool.flush(PM_BASE + 1, 1)
        pool.crash()
        assert pool.read(PM_BASE + 1) == 0

    def test_flush_then_fence_is_durable(self, pool):
        pool.write(PM_BASE + 1, 11)
        pool.flush(PM_BASE + 1, 1)
        pool.fence()
        pool.crash()
        assert pool.read(PM_BASE + 1) == 11

    def test_cacheline_co_persistence(self, pool):
        """Flushing one word persists buffered neighbours in its line."""
        base = PM_BASE + WORDS_PER_LINE * 4
        pool.write(base, 1)
        pool.write(base + 1, 2)  # same line, never explicitly flushed
        pool.persist(base, 1)
        pool.crash()
        assert pool.read(base) == 1
        assert pool.read(base + 1) == 2

    def test_other_lines_not_co_persisted(self, pool):
        base = PM_BASE + WORDS_PER_LINE * 4
        other = base + WORDS_PER_LINE
        pool.write(base, 1)
        pool.write(other, 2)
        pool.persist(base, 1)
        pool.crash()
        assert pool.read(other) == 0


class TestPersistHooks:
    def test_hook_fires_with_durable_values(self, pool):
        calls = []
        pool.add_persist_hook(lambda a, n, v, t: calls.append((a, n, v, t)))
        pool.write(PM_BASE + 2, 7)
        pool.persist(PM_BASE + 2, 1)
        assert calls == [(PM_BASE + 2, 1, [7], "persist")]

    def test_hook_fires_once_per_explicit_range(self, pool):
        calls = []
        pool.add_persist_hook(lambda a, n, v, t: calls.append((a, n)))
        pool.write(PM_BASE, 1)
        pool.write(PM_BASE + 1, 2)
        pool.flush(PM_BASE, 1)
        pool.flush(PM_BASE + 1, 1)
        pool.fence()
        assert calls == [(PM_BASE, 1), (PM_BASE + 1, 1)]

    def test_hook_not_fired_without_flush(self, pool):
        calls = []
        pool.add_persist_hook(lambda a, n, v, t: calls.append(a))
        pool.write(PM_BASE, 1)
        pool.fence()
        assert calls == []

    def test_remove_hook(self, pool):
        calls = []
        hook = lambda a, n, v, t: calls.append(a)  # noqa: E731
        pool.add_persist_hook(hook)
        pool.remove_persist_hook(hook)
        pool.persist(PM_BASE, 1)
        assert calls == []

    def test_tag_passthrough(self, pool):
        tags = []
        pool.add_persist_hook(lambda a, n, v, t: tags.append(t))
        pool.flush(PM_BASE, 1, tag="tx-commit")
        pool.fence()
        assert tags == ["tx-commit"]


class TestDurableAccess:
    def test_durable_write_bypasses_cache(self, pool):
        pool.write(PM_BASE, 5)  # cached
        pool.durable_write(PM_BASE, 9)
        assert pool.durable_read(PM_BASE) == 9
        assert pool.read(PM_BASE) == 5  # cache still shadows

    def test_durable_write_zero_removes_entry(self, pool):
        pool.durable_write(PM_BASE, 9)
        pool.durable_write(PM_BASE, 0)
        assert pool.durable_items() == {}

    def test_load_durable_replaces_image(self, pool):
        pool.write(PM_BASE, 5)
        pool.persist(PM_BASE, 1)
        pool.load_durable({PM_BASE + 1: 77})
        assert pool.read(PM_BASE) == 0
        assert pool.read(PM_BASE + 1) == 77

    def test_load_durable_refills_the_same_dict(self, pool):
        # a fused VM segment holds the durable dict in a local for its
        # whole run, so a restore must not rebind it
        durable = pool._durable
        pool.durable_write(PM_BASE, 3)
        image = {PM_BASE + 2: 8}
        pool.load_durable(image)
        assert pool._durable is durable
        assert pool.durable_items() == {PM_BASE + 2: 8}
        assert pool._durable is not image

    def test_discard_cached(self, pool):
        pool.write(PM_BASE, 5)
        pool.discard_cached(PM_BASE, 1)
        assert pool.read(PM_BASE) == 0


class TestStats:
    def test_counters(self, pool):
        pool.write(PM_BASE, 1)
        pool.write(PM_BASE + 1, 2)
        pool.read(PM_BASE)
        # the fence writes back the whole staged line: both words
        pool.persist(PM_BASE, 1)
        assert pool.stats["persisted_words"] == 2
        pool.fence()  # nothing staged
        pool.write(PM_BASE + WORDS_PER_LINE, 3)
        pool.crash()  # lost, never persisted
        assert pool.stats == {
            "persisted_words": 2, "skipped_flushes": 0, "skipped_fences": 0,
        }


# ----------------------------------------------------------------------
# property-based: the durable image equals a simple model under any
# sequence of writes, persists and crashes
# ----------------------------------------------------------------------
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 63), st.integers(0, 1 << 30)),
        st.tuples(st.just("persist"), st.integers(0, 63), st.integers(1, 4)),
        st.tuples(st.just("crash"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


@given(_ops)
@settings(max_examples=120, deadline=None)
def test_durable_image_matches_model(ops):
    pool = PMPool(256)
    cache = {}
    durable = {}
    for op, a, b in ops:
        addr = PM_BASE + a
        if op == "write":
            pool.write(addr, b)
            cache[addr] = b
        elif op == "persist":
            n = min(b, 256 - a)
            if n <= 0:
                continue
            pool.persist(addr, n)
            first = addr // WORDS_PER_LINE
            last = (addr + n - 1) // WORDS_PER_LINE
            for w in list(cache):
                if first <= w // WORDS_PER_LINE <= last:
                    durable[w] = cache.pop(w)
        else:
            pool.crash()
            cache.clear()
    for w in range(PM_BASE, PM_BASE + 256):
        expected = cache.get(w, durable.get(w, 0))
        assert pool.read(w) == expected
        assert pool.durable_read(w) == durable.get(w, 0)
