"""Exception taxonomy for the repro package.

Two families of errors exist:

* Host errors (`ReproError` subclasses other than `Trap`): misuse of the
  library by host Python code — e.g. mapping a pool twice, freeing an
  address that was never allocated, compiling invalid PMLang.
* Traps (`Trap` subclasses): failures *of the simulated program* — the
  interpreter raises these when the guest program segfaults, panics, runs
  past its step budget, or fails an assertion.  The detector catches traps
  and turns them into failure signatures; they are data, not bugs in the
  host.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class PoolError(ReproError):
    """Misuse of a persistent memory pool (bad address, double map, ...)."""


class AllocationError(PoolError):
    """The PM allocator could not satisfy or validate a request."""


class OutOfSpaceError(AllocationError):
    """The PM pool has no free region large enough for the request."""


class TransactionError(PoolError):
    """Invalid transaction usage (commit without begin, nested abort, ...)."""


class CompileError(ReproError):
    """PMLang source could not be compiled to IR."""


class CheckpointError(ReproError):
    """Checkpoint log misuse or corruption."""


class CorruptLogError(CheckpointError):
    """A checkpoint log failed structural validation.

    Raised instead of silently accepting out-of-order sequence numbers,
    dangling realloc links, checksum mismatches, or a torn/garbled
    serialized log.  Recovery code that can *repair* (truncate a torn
    tail, quarantine bad entries) catches this and falls back to
    :func:`repro.instrument.artifacts.open_and_verify`.
    """


class Trap(ReproError):
    """Base class for simulated-program failures (guest faults)."""

    #: short machine-readable kind, used in failure signatures
    kind = "trap"

    def __init__(self, message: str, *, location: str | None = None):
        super().__init__(message)
        self.location = location


class SegfaultTrap(Trap):
    """The guest program accessed an unmapped or null address."""

    kind = "segfault"


class PanicTrap(Trap):
    """The guest program called panic() (server panic / abort)."""

    kind = "panic"


class AssertTrap(Trap):
    """A guest assert_true() failed."""

    kind = "assert"


class HangTrap(Trap):
    """The guest exceeded its step budget (infinite loop / deadlock)."""

    kind = "hang"


class ArithmeticTrap(Trap):
    """Division by zero or similar arithmetic fault in the guest."""

    kind = "arith"


class OutOfPMTrap(Trap):
    """The guest exhausted persistent memory (e.g. due to a leak)."""

    kind = "oom-pm"


class InjectedCrash(Trap):
    """A crash injected by the fault harness at a chosen program point."""

    kind = "injected-crash"
