"""The table-dispatch VM oracle."""

from typing import List, Tuple

from repro.errors import HangTrap, SegfaultTrap, Trap
from repro.lang.interp import YIELD_EVERY_STEPS, Machine, Thread
from repro.lang.ir import Instr
from repro.pmem.pool import PM_BASE


class TableMachine(Machine):
    """A :class:`Machine` that single-steps every run through table
    dispatch, so compiled segments never execute.

    The scheduler below is a standalone copy of the production loop's
    per-step path (budget, park hook, preemption, thread switching), so
    a change to :meth:`Machine._run` is checked against it rather than
    against itself.  Its PM loads and stores are the checked access the
    production machine inlined: ``pool.contains``, then the pool's own
    ``read``/``write``.
    """

    def _load(self, addr: int, instr: Instr) -> int:
        if addr >= PM_BASE:
            if not self.pool.contains(addr):
                raise SegfaultTrap(
                    f"PM load outside pool at {addr:#x}", location=instr.location()
                )
            return self.pool.read(addr)
        if addr in self._vol_valid:
            return self.vmem.get(addr, 0)
        raise SegfaultTrap(
            f"invalid load at {addr:#x}"
            + (" (null dereference)" if addr == 0 else ""),
            location=instr.location(),
        )

    def _store(self, addr: int, value: int, instr: Instr) -> None:
        if addr >= PM_BASE:
            if not self.pool.contains(addr):
                raise SegfaultTrap(
                    f"PM store outside pool at {addr:#x}", location=instr.location()
                )
            self.pool.write(addr, value)
            return
        if addr in self._vol_valid:
            self.vmem[addr] = value
            return
        raise SegfaultTrap(
            f"invalid store at {addr:#x}"
            + (" (null dereference)" if addr == 0 else ""),
            location=instr.location(),
        )

    def _run(
        self,
        threads: List[Thread],
        step_budget: int,
        preempt: bool,
        quantum: Tuple[int, int] = (1, 12),
    ) -> None:
        live = [t for t in threads if not t.done]
        if not live:
            return
        current = 0
        slice_left = self.rng.randint(*quantum) if preempt else 1 << 60
        steps = 0
        hook = self._hook_prologue()
        while live:
            thread = live[current % len(live)]
            try:
                switch = self._step(thread)
            except Trap as trap:
                self._record_fault(trap, thread)
                raise
            steps += 1
            self.steps_executed += 1
            if steps > step_budget:
                trap = HangTrap(
                    f"step budget {step_budget} exceeded in {thread.name}",
                    location=self._current_location(thread),
                )
                self._record_fault(trap, thread)
                raise trap
            if hook is not None and self.steps_executed >= self._next_park:
                hook()
                self._next_park = self.steps_executed + YIELD_EVERY_STEPS
            if thread.done:
                live = [t for t in live if not t.done]
                current = 0
                slice_left = self.rng.randint(*quantum) if preempt else 1 << 60
                continue
            if preempt:
                slice_left -= 1
            if switch or slice_left <= 0:
                current = (current + 1) % len(live)
                slice_left = self.rng.randint(*quantum) if preempt else 1 << 60
