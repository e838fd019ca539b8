"""Deterministic simulated clock.

The paper's timing numbers (5-minute runs, 1-minute snapshot intervals,
3-5 second re-execution delays, Figure 8's mitigation times) are
wall-clock on their testbed.  The reproduction accounts time on a
simulated clock instead: every workload operation, snapshot, reversion
and re-execution advances it by a fixed, seeded cost.  Two runs with the
same seed produce identical timelines.
"""

from __future__ import annotations

import random


class SimClock:
    """Monotonic simulated time in seconds."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds; returns the new now."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative {dt}")
        self.now += dt
        return self.now


#: bounds of the seeded re-execution delay, in simulated seconds
REEXEC_DELAY_S = (3.0, 5.0)


class ReexecDelay:
    """Seeded 3-5 s re-execution delay (paper Section 6.3)."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def __call__(self) -> float:
        return self._rng.uniform(*REEXEC_DELAY_S)


#: seconds of simulated time per workload operation (600 ops ~= 5 minutes)
OP_PERIOD = 0.5

#: length of one experiment run in operations (≈ the paper's 5 minutes)
RUN_OPS = 600

#: operation index at which the bug trigger fires (≈ half-way, 2.5 min)
TRIGGER_AT = 300
