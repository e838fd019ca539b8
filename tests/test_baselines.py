"""Tests for the pmCRIU and ArCkpt baselines."""

from repro.baselines.arckpt import ArCkpt
from repro.baselines.pmcriu import PmCRIU
from repro.checkpoint.log import CheckpointLog
from repro.detector.monitor import RunOutcome
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PM_BASE, PMPool


def _stack():
    pool = PMPool(2048)
    allocator = PMAllocator(pool)
    return pool, allocator


class TestPmCRIU:
    def test_snapshot_interval(self):
        pool, allocator = _stack()
        criu = PmCRIU(pool, allocator, interval_seconds=60.0)
        assert criu.maybe_snapshot(0.0)
        assert not criu.maybe_snapshot(30.0)
        assert criu.maybe_snapshot(61.0)
        assert len(criu.snapshots) == 2

    def test_mitigate_restores_newest_good_snapshot(self):
        pool, allocator = _stack()
        a = allocator.zalloc(1)
        criu = PmCRIU(pool, allocator, interval_seconds=10.0)
        pool.durable_write(a, 1)
        criu.maybe_snapshot(0.0)  # snapshot: a == 1
        pool.durable_write(a, 2)
        criu.maybe_snapshot(20.0)  # snapshot: a == 2 (contains the bug)
        pool.durable_write(a, 3)

        def reexec():
            # "recovered" when the bad value 2 and later are gone
            return RunOutcome(ok=pool.durable_read(a) < 2)

        result = criu.mitigate(reexec)
        assert result.recovered
        assert result.attempts == 2
        assert pool.durable_read(a) == 1

    def test_mitigate_falls_back_to_initial_image(self):
        pool, allocator = _stack()
        a = allocator.zalloc(1)
        criu = PmCRIU(pool, allocator, interval_seconds=10.0)
        pool.durable_write(a, 9)
        criu.maybe_snapshot(0.0)  # bug already present

        def reexec():
            return RunOutcome(ok=pool.durable_read(a) == 0)

        result = criu.mitigate(reexec)
        assert result.recovered
        assert result.attempts == 2  # bad snapshot, then pristine image

    def test_mitigate_gives_up_when_nothing_helps(self):
        pool, allocator = _stack()
        criu = PmCRIU(pool, allocator)
        criu.maybe_snapshot(0.0)
        result = criu.mitigate(lambda: RunOutcome(ok=False))
        assert not result.recovered


class TestArCkpt:
    def test_reverts_newest_first(self):
        pool, allocator = _stack()
        log = CheckpointLog()
        a = allocator.zalloc(1)
        for v in (1, 2, 3):
            pool.durable_write(a, v)
            log.record_update(a, 1, [v])
        arckpt = ArCkpt(log, pool, allocator)

        def reexec():
            return RunOutcome(ok=pool.durable_read(a) == 2)

        result = arckpt.mitigate(reexec)
        assert result.recovered
        assert result.attempts == 1
        assert pool.durable_read(a) == 2

    def test_times_out_on_deep_root_cause(self):
        pool, allocator = _stack()
        log = CheckpointLog()
        a = allocator.zalloc(1)
        bad = allocator.zalloc(1)
        pool.durable_write(bad, 666)
        log.record_update(bad, 1, [666])
        for v in range(40):
            pool.durable_write(a, v)
            log.record_update(a, 1, [v])
        arckpt = ArCkpt(log, pool, allocator)
        result = arckpt.mitigate(
            lambda: RunOutcome(ok=pool.durable_read(bad) == 0),
            max_attempts=10,
        )
        assert not result.recovered
        assert result.timed_out
