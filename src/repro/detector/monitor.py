"""Failure detection: crash/hang/leak monitoring.

:class:`Detector.observe` wraps one execution of the target system,
turning guest traps into :class:`RunOutcome` values, recording failure
signatures, and judging (via :func:`signatures_similar`) whether a
failure that recurred after a restart is a *potential hard failure*.

:class:`LeakMonitor` watches PM usage growth relative to the live-item
count — the "PM usage monitor" the paper uses to stop leaking systems.
The paper's user-defined checks (e.g. "inserted key/value items exist")
run as each fault scenario's ``manifest``/``verify`` guest checks
(:mod:`repro.faults.registry`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.detector.signature import FailureSignature, signatures_similar
from repro.errors import Trap
from repro.lang.interp import FaultInfo, Machine
from repro.pmem.allocator import PMAllocator

#: pool usage fraction the leak monitor flags whatever the live items
LEAK_USAGE_LIMIT = 0.9


@dataclass
class RunOutcome:
    """Result of one detector-observed execution."""

    ok: bool
    fault: Optional[FaultInfo] = None
    signature: Optional[FailureSignature] = None
    #: why a trap-free run failed (leak monitor, or a scenario's
    #: manifest check in the harness)
    violation: Optional[str] = None

    @property
    def failed(self) -> bool:
        return not self.ok


class LeakMonitor:
    """Flags runaway PM usage (persistent leaks).

    ``threshold_ratio`` is the tolerated ratio of allocated words to the
    words accounted for by live application items; a pool used past
    :data:`LEAK_USAGE_LIMIT` triggers regardless.
    """

    def __init__(
        self,
        allocator: PMAllocator,
        expected_words_fn: Callable[[], int],
        threshold_ratio: float = 3.0,
    ):
        self.allocator = allocator
        self.expected_words_fn = expected_words_fn
        self.threshold_ratio = threshold_ratio

    def check(self) -> Optional[str]:
        """Return a violation message when usage looks like a leak."""
        used = self.allocator.used_words()
        if self.allocator.usage_ratio() >= LEAK_USAGE_LIMIT:
            return f"PM usage at {self.allocator.usage_ratio():.0%} of pool"
        expected = self.expected_words_fn()
        if expected > 0 and used > expected * self.threshold_ratio:
            return (
                f"PM usage {used} words vs {expected} expected "
                f"(ratio {used / expected:.1f})"
            )
        return None


class Detector:
    """Observes runs, keeps failure history, flags potential hard faults."""

    def __init__(self) -> None:
        self.history: List[FailureSignature] = []
        self.leak_monitor: Optional[LeakMonitor] = None

    def set_leak_monitor(self, monitor: LeakMonitor) -> None:
        """Attach the PM usage monitor consulted after trap-free runs."""
        self.leak_monitor = monitor

    # ------------------------------------------------------------------
    def observe(self, machine: Machine, action: Callable[[], None]) -> RunOutcome:
        """Run ``action`` under observation; never re-raises guest traps."""
        try:
            action()
        except Trap:
            fault = machine.last_fault
            assert fault is not None
            signature = FailureSignature.from_fault(fault)
            self.history.append(signature)
            return RunOutcome(ok=False, fault=fault, signature=signature)
        # trap-free: consult the leak monitor
        if self.leak_monitor is not None:
            violation = self.leak_monitor.check()
            if violation is not None:
                return RunOutcome(ok=False, violation=violation)
        return RunOutcome(ok=True)

    # ------------------------------------------------------------------
    def is_potential_hard_failure(self, signature: FailureSignature) -> bool:
        """True when a similar failure was seen before (recurs on retry)."""
        earlier = [s for s in self.history if s is not signature]
        return any(signatures_similar(signature, s) for s in earlier)
