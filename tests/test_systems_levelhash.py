"""Tests for the bonus Level-hashing system and its studied bug."""

import pytest

from repro.detector.monitor import Detector
from repro.errors import AssertTrap
from repro.harness.simclock import ReexecDelay, SimClock
from repro.reactor.revert import Reverter
from repro.reactor.server import ReactorServer
from repro.systems.levelhash import LevelHashAdapter


@pytest.fixture
def lv():
    adapter = LevelHashAdapter()
    adapter.start()
    return adapter


class TestBasicOps:
    def test_insert_get_update(self, lv):
        lv.insert(1, 11)
        assert lv.lookup(1) == 11
        lv.insert(1, 22)
        assert lv.lookup(1) == 22
        assert lv.count_items() == 1

    def test_two_choice_plus_bottom_placement(self, lv):
        for k in range(20):
            lv.insert(k, k)
        assert all(lv.lookup(k) == k for k in range(20))
        assert lv.consistency_violations() == []

    def test_delete(self, lv):
        lv.insert(5, 55)
        assert lv.delete(5) == 1
        assert lv.lookup(5) == -1
        assert lv.delete(5) == 0
        assert lv.count_items() == 0

    def test_restart_recovery(self, lv):
        for k in range(15):
            lv.insert(k, 100 + k)
        lv.restart()
        lv.recover()
        assert all(lv.lookup(k) == 100 + k for k in range(15))
        assert lv.consistency_violations() == []


class TestWrongMaskResizeBug:
    def _fill_until_loss(self, lv):
        inserted = []
        for k in range(2, 400, 3):
            lv.insert(k, 100 + k)
            inserted.append(k)
        missing = [k for k in inserted if lv.lookup(k) != 100 + k]
        return inserted, missing

    def test_resize_silently_loses_keys(self, lv):
        inserted, missing = self._fill_until_loss(lv)
        assert missing, "the wrong-mask rehash must misplace some keys"
        # the misplacement is persistent: restart does not help
        lv.restart()
        lv.recover()
        assert lv.lookup(missing[0]) == -1
        # and it is a *silent* wrong result: counts still look fine
        assert lv.count_items() == lv.call("lv_scan", lv.root)

    def test_arthas_recovers_misplaced_keys(self, lv):
        inserted, missing = self._fill_until_loss(lv)
        victim = missing[-1]  # lost in the most recent bad resize
        detector = Detector()
        outcome = detector.observe(lv.machine, lambda: lv.check_key(victim))
        assert not outcome.ok and outcome.fault.kind == "assert"

        server = ReactorServer(lv.module, analysis=lv.analysis)
        plan = server.compute_plan(
            lv.guid_map, lv.trace, lv.ckpt.log, outcome.fault.iid
        )
        assert not plan.empty

        def reexec():
            lv.restart()
            return detector.observe(
                lv.machine, lambda: (lv.recover(), lv.check_key(victim))
            )

        reverter = Reverter(
            lv.ckpt.log, lv.pool, lv.allocator, reexec=reexec,
            clock=SimClock(), reexec_delay=ReexecDelay(1),
            timeout_seconds=3000, max_attempts=400,
        )
        result = reverter.mitigate_purge(plan)
        assert result.recovered
        assert lv.lookup(victim) == 100 + victim
        assert lv.consistency_violations() == []
