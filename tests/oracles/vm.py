"""The table-dispatch VM oracle."""

from typing import List, Tuple

from repro.lang.interp import Machine, Thread


class TableMachine(Machine):
    """A :class:`Machine` that single-steps every run through table
    dispatch, so compiled segments never execute."""

    def _run(
        self,
        threads: List[Thread],
        step_budget: int,
        preempt: bool,
        quantum: Tuple[int, int] = (1, 12),
    ) -> None:
        self._run_table(threads, step_budget, preempt, quantum)
