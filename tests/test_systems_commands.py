"""Tests for the extended command surfaces (incr/touch/cas, exists/llen)."""

import pytest

from repro.systems.memcached import MemcachedAdapter
from repro.systems.redis import RedisAdapter


@pytest.fixture
def mc():
    adapter = MemcachedAdapter()
    adapter.start()
    return adapter


@pytest.fixture
def rd():
    adapter = RedisAdapter()
    adapter.start()
    return adapter


class TestMemcachedCommands:
    def test_incr(self, mc):
        mc.insert(1, 10)
        assert mc.incr(1, 5) == 15
        assert mc.lookup(1) == 15
        assert mc.incr(99, 1) == -1  # missing key

    def test_incr_is_durable(self, mc):
        mc.insert(1, 10)
        mc.incr(1, 7)
        mc.restart()
        mc.recover()
        assert mc.lookup(1) == 17

    def test_touch_updates_expiry_basis(self, mc):
        mc.insert(1, 10)
        assert mc.touch(1, 99_999) == 1
        assert mc.touch(2, 99_999) == 0
        # a touched item survives a later flush_all cut below its time
        mc.flush_all(50_000)
        assert mc.lookup(1) == 10

    def test_cas(self, mc):
        mc.insert(1, 10)
        assert mc.call("mc_cas", mc.root, 1, 10, 20) == 1
        assert mc.lookup(1) == 20
        assert mc.call("mc_cas", mc.root, 1, 10, 30) == 0  # stale expectation
        assert mc.lookup(1) == 20
        assert mc.call("mc_cas", mc.root, 9, 0, 1) == -1  # missing key

    def test_cas_under_concurrency_one_winner(self, mc):
        mc.insert(1, 10)
        results = mc.machine.call_concurrent(
            [
                ("mc_cas", (mc.root, 1, 10, 111)),
                ("mc_cas", (mc.root, 1, 10, 222)),
            ],
            quantum=(1, 3),
        )
        assert sorted(results) in ([0, 1], [1, 1])
        assert mc.lookup(1) in (111, 222)


class TestRedisCommands:
    def test_incr_creates_and_increments(self, rd):
        assert rd.incr(1, 5) == 5   # upsert
        assert rd.incr(1, 3) == 8
        assert rd.lookup(1) == 8

    def test_incr_rejects_listpacks(self, rd):
        rd.lpush(100, 2, 7)
        assert rd.incr(100, 1) == -1

    def test_exists(self, rd):
        assert rd.exists(1) == 0
        rd.insert(1, 11)
        assert rd.exists(1) == 1
        rd.delete(1)
        assert rd.exists(1) == 0

    def test_llen(self, rd):
        assert rd.call("rd_llen", rd.root, 100) == -1
        rd.lpush(100, 2, 7)
        rd.lpush(100, 3, 8)
        assert rd.call("rd_llen", rd.root, 100) == 2
        rd.insert(1, 11)
        assert rd.call("rd_llen", rd.root, 1) == -1  # not a listpack

    def test_incr_durable(self, rd):
        rd.incr(1, 41)
        rd.incr(1, 1)
        rd.restart()
        rd.recover()
        assert rd.lookup(1) == 42
