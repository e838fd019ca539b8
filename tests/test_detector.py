"""Tests for failure detection: signatures, monitor, checksum, leaks."""

import pytest

from repro.detector.checksum import ChecksumMonitor
from repro.detector.monitor import Detector, LeakMonitor
from repro.detector.signature import FailureSignature, signatures_similar
from repro.errors import PanicTrap
from repro.lang.compiler import compile_module
from repro.lang.interp import FaultInfo, Machine
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PM_BASE, PMPool


def _fault(kind="segfault", iid=7, location="f:entry:1", stack=("main:entry:0", "f:entry:1")):
    return FaultInfo(iid=iid, kind=kind, message="x", location=location, stack=list(stack))


class TestSignatures:
    def test_from_fault(self):
        sig = FailureSignature.from_fault(_fault())
        assert sig.kind == "segfault"
        assert sig.fault_iid == 7
        assert sig.stack_funcs[-1] == "f"

    def test_same_kind_is_similar(self):
        a = FailureSignature.from_fault(_fault(iid=7))
        b = FailureSignature.from_fault(_fault(iid=99, location="g:x:0", stack=("g:x:0",)))
        assert signatures_similar(a, b)

    def test_different_kind_not_similar(self):
        a = FailureSignature.from_fault(_fault(kind="segfault"))
        b = FailureSignature.from_fault(_fault(kind="hang"))
        assert not signatures_similar(a, b)

class TestDetector:
    def _machine(self):
        src = (
            'def ok():\n    return 1\n'
            'def boom():\n    panic("dead")\n    return 0\n'
        )
        return Machine(compile_module("t", src))

    def test_observe_success(self):
        machine = self._machine()
        detector = Detector()
        out = detector.observe(machine, lambda: machine.call("ok"))
        assert out.ok and out.fault is None

    def test_observe_trap_records_signature(self):
        machine = self._machine()
        detector = Detector()
        out = detector.observe(machine, lambda: machine.call("boom"))
        assert not out.ok
        assert out.fault.kind == "panic"
        assert detector.history[-1] is out.signature

    def test_hard_failure_needs_recurrence(self):
        machine = self._machine()
        detector = Detector()
        out1 = detector.observe(machine, lambda: machine.call("boom"))
        assert not detector.is_potential_hard_failure(out1.signature)
        out2 = detector.observe(machine, lambda: machine.call("boom"))
        assert detector.is_potential_hard_failure(out2.signature)


class TestLeakMonitor:
    def test_flags_ratio_breach(self):
        pool = PMPool(1024)
        allocator = PMAllocator(pool)
        live = [allocator.zalloc(10)]
        monitor = LeakMonitor(allocator, lambda: 10, threshold_ratio=2.0)
        assert monitor.check() is None
        for _ in range(3):
            allocator.zalloc(10)  # leaked: expected stays 10
        assert monitor.check() is not None

    def test_flags_absolute_usage(self):
        pool = PMPool(128)
        allocator = PMAllocator(pool)
        allocator.zalloc(110)
        monitor = LeakMonitor(allocator, lambda: 110)
        assert monitor.check() is not None


class TestChecksum:
    def test_detects_out_of_band_flip(self):
        pool = PMPool(256)
        monitor = ChecksumMonitor(pool)
        monitor.attach()
        pool.write(PM_BASE + 3, 42)
        pool.persist(PM_BASE + 3, 1)
        assert monitor.verify() == []
        # hardware flip: durable change without a persistence point
        pool.durable_write(PM_BASE + 3, 43)
        assert monitor.verify() == [PM_BASE + 3]

    def test_blind_to_properly_persisted_bad_values(self):
        pool = PMPool(256)
        monitor = ChecksumMonitor(pool)
        monitor.attach()
        pool.write(PM_BASE + 3, 42)
        pool.persist(PM_BASE + 3, 1)
        # a logic bug persists a bad value through the normal path
        pool.write(PM_BASE + 3, 99999)
        pool.persist(PM_BASE + 3, 1)
        assert monitor.verify() == []

    def test_detach(self):
        pool = PMPool(256)
        monitor = ChecksumMonitor(pool)
        monitor.attach()
        monitor.detach()
        pool.write(PM_BASE, 1)
        pool.persist(PM_BASE, 1)
        assert monitor.updates == 0
