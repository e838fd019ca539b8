"""The Arthas detector (paper Section 4.3).

Monitors a PM system for crashes, assertion failures, hangs, PM-space
exhaustion and leaks; compares failure signatures across restarts to
decide whether a failure is *potentially hard* (recurring) and therefore
worth invoking the reactor on.
"""

from repro.detector.monitor import Detector, LeakMonitor, RunOutcome
from repro.detector.signature import FailureSignature, signatures_similar

__all__ = [
    "Detector",
    "LeakMonitor",
    "RunOutcome",
    "FailureSignature",
    "signatures_similar",
]
