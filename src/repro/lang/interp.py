"""The PMLang virtual machine.

Executes :class:`~repro.lang.ir.Module` code against a simulated PM pool
(:mod:`repro.pmem`) and a volatile heap.  The machine provides everything
the Arthas toolchain needs from a runtime:

* **Trap semantics** — null/wild dereferences raise
  :class:`~repro.errors.SegfaultTrap`, ``panic()`` raises
  :class:`~repro.errors.PanicTrap`, a step-budget overrun raises
  :class:`~repro.errors.HangTrap` (how deadlocks/infinite loops are
  detected), PM exhaustion raises :class:`~repro.errors.OutOfPMTrap`.
  Every trap records a :class:`FaultInfo` with the faulting instruction —
  the input the Arthas reactor slices from.
* **Crash/restart** — ``crash()`` drops all volatile state and every PM
  store that was not persisted; a fresh machine over the same pool models
  a restart.
* **Cooperative threads** — ``call_concurrent`` interleaves threads
  with a seeded preemptive scheduler, which is how the race-condition
  faults are triggered deterministically.

The host reaches into a run through three hooks:

* **Injections** (``add_injection``) — callbacks keyed by instruction id
  run before the instruction executes.  Fault injection flips persisted
  bits (hardware faults) or raises :class:`~repro.errors.InjectedCrash`
  (untimely crashes) here, and the dynamic-dependence recorder
  (:mod:`repro.analysis.dynslice`) registers itself on every
  instruction.  Any armed injection turns compiled segments off.
* **Tracing** — instructions carrying a GUID report their runtime PM
  address to the attached :class:`~repro.instrument.tracer.PMTrace`
  (the paper's ``<GUID, pmem_address>`` trace).
* **The park hook** — :func:`cooperative_yield` installs a callable for
  the calling thread; every run on that thread fires it each
  :data:`YIELD_EVERY_STEPS` executed steps, and host-side mitigation
  loops fire it through :func:`park`.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    AllocationError,
    ArithmeticTrap,
    AssertTrap,
    HangTrap,
    OutOfSpaceError,
    PanicTrap,
    PoolError,
    ReproError,
    SegfaultTrap,
    Trap,
)
from repro.instrument.tracer import PMTrace
from repro.lang.fuse import compile_block_segments
from repro.lang.ir import Function, Instr, Module
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PM_BASE, PMPool
from repro.pmem.tx import TransactionManager

#: base of the volatile heap; well below PM_BASE so ranges never overlap
VOL_BASE = 0x0010_0000

#: default per-call step budget (exceeding it means hang/deadlock)
DEFAULT_STEP_BUDGET = 400_000

#: ops whose pointer operand is traced before execution
_TRACE_PTR_OPS = frozenset({"load", "store", "persist", "flush", "txadd", "free"})

#: ops whose result (a fresh PM address) is traced after execution
_TRACE_DST_OPS = frozenset({"alloc", "realloc", "getroot", "gep"})

InjectionFn = Callable[["Machine", "Thread", Instr], None]

#: cooperative-mitigation cadence: a run on a thread with a park hook
#: fires it every this many executed steps
YIELD_EVERY_STEPS = 4_000


class _ParkHook(threading.local):
    """Each thread's park hook; ``None`` until :func:`cooperative_yield`
    installs one on that thread."""

    hook: Optional[Callable[[], None]] = None


_PARK = _ParkHook()


@contextmanager
def cooperative_yield(hook: Callable[[], None]) -> Iterator[None]:
    """Install ``hook`` as the calling thread's park point for the block.

    A mitigation worker installs it so the thread that serves can run
    between mitigation chunks: guest calls on this thread fire it every
    :data:`YIELD_EVERY_STEPS` steps (so even a long hang probe is
    chunked), and host-side loops (plan joins, probe-engine seeks) call
    :func:`park`.  Other threads never see it, so a serving thread never
    parks itself.  The previous hook comes back on exit, also when the
    block raises.  The hook must not touch guest state.
    """
    prev = _PARK.hook
    _PARK.hook = hook
    try:
        yield
    finally:
        _PARK.hook = prev


def park() -> None:
    """Call the calling thread's park hook, if one is installed."""
    hook = _PARK.hook
    if hook is not None:
        hook()


#: handler return codes; ``None`` (the implicit return) means "advance"
_CTRL = 1   # the handler updated block/index itself (call/ret/br/cbr)
_YIELD = 2  # advance and switch threads (cooperative yield)


def _floordiv(a: int, b: int) -> int:
    return a // b  # ZeroDivisionError becomes ArithmeticTrap at the call site


def _mod(a: int, b: int) -> int:
    return a % b


#: precompiled binop evaluators (comparisons produce 0/1 ints, shifts
#: mask the count to 63 — x86 semantics, same as the old operator chain)
_BINOP_FUNCS: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": _floordiv,
    "%": _mod,
    "<<": lambda a, b: a << (b & 63),
    ">>": lambda a, b: a >> (b & 63),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}


@dataclass
class FaultInfo:
    """Where and how the guest program failed."""

    iid: int
    kind: str
    message: str
    location: str
    stack: List[str] = field(default_factory=list)

    def signature(self) -> Tuple[str, int, str]:
        """(kind, fault iid, top-of-stack) — the detector's symptom key."""
        top = self.stack[-1] if self.stack else ""
        return (self.kind, self.iid, top)


class Frame:
    """One activation record."""

    __slots__ = ("func", "regs", "block", "index", "ret_dst")

    def __init__(self, func: Function, regs: Dict[str, int], ret_dst: Optional[str]):
        self.func = func
        self.regs = regs
        self.block = func.entry
        self.index = 0
        self.ret_dst = ret_dst


class Thread:
    """A guest thread: a stack of frames plus completion state."""

    _next_tid = 0

    def __init__(self, name: str):
        Thread._next_tid += 1
        self.tid = Thread._next_tid
        self.name = name
        self.frames: List[Frame] = []
        self.done = False
        self.result: Optional[int] = None

    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    def stack_locations(self) -> List[str]:
        return [f"{fr.func.name}:{fr.block}:{fr.index}" for fr in self.frames]


class Machine:
    """Interpreter for one module over one PM pool."""

    def __init__(
        self,
        module: Module,
        pool: Optional[PMPool] = None,
        allocator: Optional[PMAllocator] = None,
        txman: Optional[TransactionManager] = None,
        pool_size: int = 1 << 16,
        seed: int = 0,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ):
        self.module = module
        self.pool = pool if pool is not None else PMPool(pool_size, name=module.name)
        self.allocator = allocator if allocator is not None else PMAllocator(self.pool)
        self.txman = txman if txman is not None else TransactionManager(self.pool)
        self.step_budget = step_budget
        self.rng = random.Random(seed)
        # volatile heap
        self.vmem: Dict[int, int] = {}
        self._vol_next = VOL_BASE
        self._vol_valid: set[int] = set()
        self._vol_allocs: Dict[int, int] = {}
        # host integration
        self.injections: Dict[int, List[InjectionFn]] = {}
        #: the trace GUID-carrying instructions record into; compiled
        #: segments append to its buffer directly
        self.trace: Optional[PMTrace] = None
        #: ``steps_executed`` at which the park hook fires next: counted
        #: on the machine-lifetime counter so runs of many short calls
        #: still park (compiled segments and single steps alike, same
        #: accounting as the budget check)
        self._next_park: int = 0
        self.emitted: Dict[str, List[int]] = {}
        self.last_fault: Optional[FaultInfo] = None
        # counters for the overhead model
        self.steps_executed = 0
        self.calls_executed = 0

    # ------------------------------------------------------------------
    # host API
    # ------------------------------------------------------------------
    def call(self, fname: str, *args: int, step_budget: Optional[int] = None) -> Optional[int]:
        """Run ``fname(*args)`` on a fresh main thread to completion.

        Raises the guest's :class:`Trap` on failure, after recording
        :attr:`last_fault`.
        """
        thread = self._make_thread(fname, args, name=f"main:{fname}")
        self.calls_executed += 1
        budget = step_budget if step_budget is not None else self.step_budget
        self._run([thread], budget, preempt=False)
        return thread.result

    def call_concurrent(
        self,
        calls: Sequence[Tuple[str, Sequence[int]]],
        step_budget: Optional[int] = None,
        quantum: Tuple[int, int] = (1, 12),
    ) -> List[Optional[int]]:
        """Run several calls as interleaved threads (seeded preemption).

        This is the vehicle for reproducing race-condition faults: the
        scheduler switches threads every ``rng.randint(*quantum)`` steps,
        so a given seed yields a deterministic interleaving.
        """
        threads = [
            self._make_thread(fname, args, name=f"conc{i}:{fname}")
            for i, (fname, args) in enumerate(calls)
        ]
        self.calls_executed += len(threads)
        budget = step_budget if step_budget is not None else self.step_budget
        self._run(threads, budget, preempt=True, quantum=quantum)
        return [t.result for t in threads]

    def crash(self) -> None:
        """Simulate process death + power loss: volatile state vanishes."""
        self.pool.crash()
        self.txman.reset()
        self.vmem.clear()
        self._vol_valid.clear()
        self._vol_allocs.clear()
        self._vol_next = VOL_BASE

    def add_injection(self, iid: int, fn: InjectionFn) -> None:
        """Run ``fn`` before every execution of instruction ``iid``."""
        self.injections.setdefault(iid, []).append(fn)

    # ------------------------------------------------------------------
    # execution core
    # ------------------------------------------------------------------
    def _make_thread(self, fname: str, args: Sequence[int], name: str) -> Thread:
        func = self.module.functions.get(fname)
        if func is None:
            raise ReproError(f"no such function {fname!r} in module {self.module.name}")
        if len(args) != len(func.params):
            raise ReproError(
                f"{fname} takes {len(func.params)} args, got {len(args)}"
            )
        thread = Thread(name)
        regs = dict(zip(func.params, (int(a) for a in args)))
        thread.frames.append(Frame(func, regs, None))
        return thread

    def _hook_prologue(self) -> Optional[Callable[[], None]]:
        """Arm the calling thread's park hook for a run; returns it (or
        ``None``)."""
        hook = _PARK.hook
        if hook is not None and self._next_park <= self.steps_executed:
            self._next_park = self.steps_executed + YIELD_EVERY_STEPS
        return hook

    def _run(
        self,
        threads: List[Thread],
        step_budget: int,
        preempt: bool,
        quantum: Tuple[int, int] = (1, 12),
    ) -> None:
        """Schedule ``threads`` until all finish or one traps.

        Straight-line runs execute as one compiled-segment call
        (:mod:`repro.lang.fuse`) when nothing needs a hook between
        instructions: no preemption (so no rng draws) and no injections.
        Everything else — and any segment that would overrun the step
        budget, or any instruction a segment abandoned after a
        raw-coded ``KeyError``/``ZeroDivisionError`` — single-steps
        through :meth:`_step`, which owns the exact trap
        conversions.  Step accounting is the same on both paths: every
        instruction of a segment counts one step, a segment only runs
        when its full count fits the remaining budget, and on any
        exception only the prefix before ``frame.index`` is committed.
        """
        live = [t for t in threads if not t.done]
        if not live:
            return
        fuse = not preempt and not self.injections
        current = 0
        slice_left = self.rng.randint(*quantum) if preempt else 1 << 60
        steps = 0
        hook = self._hook_prologue()
        while live:
            thread = live[current % len(live)]
            if fuse:
                frame = thread.frames[-1]
                block = frame.func.blocks[frame.block]
                segs = block._fused_segs
                if segs is None:
                    segs = compile_block_segments(frame.func, block)
                seg = segs.get(frame.index)
                if seg is not None and steps + seg.n_steps <= step_budget:
                    try:
                        seg.run(self, thread, frame)
                    except Trap as trap:
                        prefix = frame.index - seg.start
                        if prefix > 0:
                            steps += prefix
                            self.steps_executed += prefix
                        self._record_fault(trap, thread)
                        raise
                    except (KeyError, ZeroDivisionError):
                        # a raw-coded statement faulted: commit the
                        # completed prefix, then let the table run on
                        # from frame.index (the division, or the
                        # segment's start for an unset register) for the
                        # exact ReproError/ArithmeticTrap conversion
                        prefix = frame.index - seg.start
                        if prefix > 0:
                            steps += prefix
                            self.steps_executed += prefix
                    except BaseException:
                        prefix = frame.index - seg.start
                        if prefix > 0:
                            steps += prefix
                            self.steps_executed += prefix
                        raise
                    else:
                        steps += seg.n_steps
                        self.steps_executed += seg.n_steps
                        if hook is not None and self.steps_executed >= self._next_park:
                            hook()
                            self._next_park = (
                                self.steps_executed + YIELD_EVERY_STEPS
                            )
                        continue
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

    def _current_instr(self, thread: Thread) -> Instr:
        frame = thread.frame
        return frame.func.blocks[frame.block].instrs[frame.index]

    def _current_location(self, thread: Thread) -> str:
        try:
            return self._current_instr(thread).location()
        except Exception:  # pragma: no cover - defensive
            return thread.name

    def _record_fault(self, trap: Trap, thread: Thread) -> None:
        try:
            instr = self._current_instr(thread)
            iid, location = instr.iid, instr.location()
        except Exception:  # pragma: no cover - defensive
            iid, location = -1, thread.name
        self.last_fault = FaultInfo(
            iid=iid,
            kind=trap.kind,
            message=str(trap),
            location=trap.location or location,
            stack=thread.stack_locations(),
        )

    # ------------------------------------------------------------------
    def _step(self, thread: Thread) -> bool:
        """Execute one instruction; returns True if the thread yields.

        Dispatch goes through the precompiled per-opcode handler table
        (:data:`_DISPATCH`); the resolved handler is cached on the
        :class:`Instr` itself, so steady-state execution pays a single
        attribute load instead of walking an opcode ``if/elif`` chain.
        """
        frame = thread.frame
        instr = frame.func.blocks[frame.block].instrs[frame.index]

        for fn in self.injections.get(instr.iid, ()):
            fn(self, thread, instr)

        traced = instr.guid is not None and self.trace is not None
        if traced:
            self._trace_before(instr, frame)

        handler = instr.handler
        if handler is None:
            handler = _DISPATCH.get(instr.op)
            if handler is None:  # pragma: no cover - unreachable with a valid module
                raise ReproError(f"unknown opcode {instr.op!r}")
            instr.handler = handler
        code = handler(self, thread, frame, instr)

        if traced:
            self._trace_after(instr, frame)

        if code is None:
            frame.index += 1
            return False
        if code == _CTRL:
            return False
        frame.index += 1  # _YIELD
        return True

    # ------------------------------------------------------------------
    # per-opcode handlers (the dispatch table's targets)
    #
    # A handler returns None when the machine should advance to the next
    # instruction, _CTRL when it updated block/index itself (call, ret,
    # branches), or _YIELD to advance *and* switch threads.
    # ------------------------------------------------------------------
    def _op_const(self, thread: Thread, frame: Frame, instr: Instr):
        frame.regs[instr.dst] = instr.args[0]

    def _op_mov(self, thread: Thread, frame: Frame, instr: Instr):
        frame.regs[instr.dst] = self._reg(frame, instr.args[0], instr)

    def _op_binop(self, thread: Thread, frame: Frame, instr: Instr):
        opname, a_r, b_r = instr.args
        a = self._reg(frame, a_r, instr)
        b = self._reg(frame, b_r, instr)
        fn = _BINOP_FUNCS.get(opname)
        if fn is None:  # pragma: no cover - unreachable with a valid module
            raise ReproError(f"unknown binop {opname!r}")
        try:
            frame.regs[instr.dst] = fn(a, b)
        except ZeroDivisionError:
            raise ArithmeticTrap(
                "division by zero" if opname == "//" else "modulo by zero",
                location=instr.location(),
            ) from None

    def _op_unop(self, thread: Thread, frame: Frame, instr: Instr):
        opname, a = instr.args
        v = self._reg(frame, a, instr)
        if opname == "neg":
            frame.regs[instr.dst] = -v
        elif opname == "not":
            frame.regs[instr.dst] = 0 if v else 1
        else:  # bnot
            frame.regs[instr.dst] = ~v

    def _op_gep(self, thread: Thread, frame: Frame, instr: Instr):
        base_r, offset, index_r, scale = instr.args
        addr = self._reg(frame, base_r, instr) + offset
        if index_r is not None:
            addr += self._reg(frame, index_r, instr) * scale
        frame.regs[instr.dst] = addr

    def _op_load(self, thread: Thread, frame: Frame, instr: Instr):
        addr = self._reg(frame, instr.args[0], instr)
        frame.regs[instr.dst] = self._load(addr, instr)

    def _op_store(self, thread: Thread, frame: Frame, instr: Instr):
        addr = self._reg(frame, instr.args[0], instr)
        value = self._reg(frame, instr.args[1], instr)
        self._store(addr, value, instr)

    def _op_alloc(self, thread: Thread, frame: Frame, instr: Instr):
        size_r, space = instr.args
        size = self._reg(frame, size_r, instr)
        frame.regs[instr.dst] = self._alloc(size, space, instr)

    def _op_free(self, thread: Thread, frame: Frame, instr: Instr):
        addr = self._reg(frame, instr.args[0], instr)
        self._free(addr, instr.args[1], instr)

    def _op_realloc(self, thread: Thread, frame: Frame, instr: Instr):
        addr = self._reg(frame, instr.args[0], instr)
        size = self._reg(frame, instr.args[1], instr)
        try:
            frame.regs[instr.dst] = self.allocator.realloc(
                addr, size, site=instr.guid or str(instr.iid)
            )
        except OutOfSpaceError as exc:
            raise self._oom(exc, instr) from exc
        except AllocationError as exc:
            raise SegfaultTrap(str(exc), location=instr.location()) from exc

    def _op_call(self, thread: Thread, frame: Frame, instr: Instr):
        fname, arg_regs = instr.args
        func = self.module.functions[fname]
        values = [self._reg(frame, r, instr) for r in arg_regs]
        frame.index += 1  # return to the next instruction
        new_regs = dict(zip(func.params, values))
        thread.frames.append(Frame(func, new_regs, instr.dst))
        return _CTRL

    def _op_ret(self, thread: Thread, frame: Frame, instr: Instr):
        src = instr.args[0]
        value = self._reg(frame, src, instr) if src is not None else 0
        thread.frames.pop()
        if not thread.frames:
            thread.done = True
            thread.result = value
        elif frame.ret_dst is not None:
            thread.frame.regs[frame.ret_dst] = value
        return _CTRL

    def _op_br(self, thread: Thread, frame: Frame, instr: Instr):
        frame.block = instr.args[0]
        frame.index = 0
        return _CTRL

    def _op_cbr(self, thread: Thread, frame: Frame, instr: Instr):
        cond = self._reg(frame, instr.args[0], instr)
        frame.block = instr.args[1] if cond else instr.args[2]
        frame.index = 0
        return _CTRL

    def _op_persist(self, thread: Thread, frame: Frame, instr: Instr):
        addr = self._reg(frame, instr.args[0], instr)
        nwords = self._reg(frame, instr.args[1], instr)
        try:
            self.pool.persist(addr, nwords)
        except PoolError as exc:
            raise SegfaultTrap(str(exc), location=instr.location()) from exc

    def _op_flush(self, thread: Thread, frame: Frame, instr: Instr):
        addr = self._reg(frame, instr.args[0], instr)
        nwords = self._reg(frame, instr.args[1], instr)
        try:
            self.pool.flush(addr, nwords)
        except PoolError as exc:
            raise SegfaultTrap(str(exc), location=instr.location()) from exc

    def _op_fence(self, thread: Thread, frame: Frame, instr: Instr):
        self.pool.fence()

    def _op_txbegin(self, thread: Thread, frame: Frame, instr: Instr):
        self.txman.begin(ctx=thread.tid)

    def _op_txadd(self, thread: Thread, frame: Frame, instr: Instr):
        addr = self._reg(frame, instr.args[0], instr)
        nwords = self._reg(frame, instr.args[1], instr)
        try:
            self.txman.add(addr, nwords, ctx=thread.tid)
        except PoolError as exc:
            raise SegfaultTrap(str(exc), location=instr.location()) from exc

    def _op_txcommit(self, thread: Thread, frame: Frame, instr: Instr):
        self.txman.commit(ctx=thread.tid)

    def _op_txabort(self, thread: Thread, frame: Frame, instr: Instr):
        self.txman.abort(ctx=thread.tid)

    def _op_setroot(self, thread: Thread, frame: Frame, instr: Instr):
        self.allocator.set_root(self._reg(frame, instr.args[0], instr))

    def _op_getroot(self, thread: Thread, frame: Frame, instr: Instr):
        frame.regs[instr.dst] = self.allocator.root()

    def _op_assert(self, thread: Thread, frame: Frame, instr: Instr):
        cond = self._reg(frame, instr.args[0], instr)
        if not cond:
            raise AssertTrap(instr.args[1], location=instr.location())

    def _op_panic(self, thread: Thread, frame: Frame, instr: Instr):
        raise PanicTrap(instr.args[0], location=instr.location())

    def _op_emit(self, thread: Thread, frame: Frame, instr: Instr):
        key, value_r = instr.args
        self.emitted.setdefault(key, []).append(self._reg(frame, value_r, instr))

    def _op_yield(self, thread: Thread, frame: Frame, instr: Instr):
        return _YIELD

    def _op_nop(self, thread: Thread, frame: Frame, instr: Instr):
        pass

    # ------------------------------------------------------------------
    # operand and memory helpers
    # ------------------------------------------------------------------
    def _reg(self, frame: Frame, name: str, instr: Instr) -> int:
        try:
            return frame.regs[name]
        except KeyError:
            raise ReproError(
                f"read of unset register {name!r} at {instr.location()} "
                f"(PMLang variable used before assignment)"
            ) from None

    def _load(self, addr: int, instr: Instr) -> int:
        if addr >= PM_BASE:
            # the pool's read, inlined: one range check per word
            pool = self.pool
            if addr >= pool.end:
                raise SegfaultTrap(
                    f"PM load outside pool at {addr:#x}", location=instr.location()
                )
            cache = pool._cache
            if addr in cache:
                return cache[addr]
            return pool._durable.get(addr, 0)
        if addr in self._vol_valid:
            return self.vmem.get(addr, 0)
        raise SegfaultTrap(
            f"invalid load at {addr:#x}"
            + (" (null dereference)" if addr == 0 else ""),
            location=instr.location(),
        )

    def _store(self, addr: int, value: int, instr: Instr) -> None:
        if addr >= PM_BASE:
            pool = self.pool
            if addr >= pool.end:
                raise SegfaultTrap(
                    f"PM store outside pool at {addr:#x}", location=instr.location()
                )
            pool._cache[addr] = value
            return
        if addr in self._vol_valid:
            self.vmem[addr] = value
            return
        raise SegfaultTrap(
            f"invalid store at {addr:#x}"
            + (" (null dereference)" if addr == 0 else ""),
            location=instr.location(),
        )

    def _alloc(self, size: int, space: str, instr: Instr) -> int:
        if size <= 0:
            raise SegfaultTrap(
                f"allocation of non-positive size {size}", location=instr.location()
            )
        if space == "pm":
            try:
                return self.allocator.zalloc(size, site=instr.guid or str(instr.iid))
            except OutOfSpaceError as exc:
                raise self._oom(exc, instr) from exc
        addr = self._vol_next
        self._vol_next += size
        self._vol_allocs[addr] = size
        for a in range(addr, addr + size):
            self._vol_valid.add(a)
            self.vmem[a] = 0
        return addr

    def _free(self, addr: int, space: str, instr: Instr) -> None:
        if space == "pm":
            try:
                self.allocator.free(addr)
            except AllocationError as exc:
                raise SegfaultTrap(str(exc), location=instr.location()) from exc
            return
        size = self._vol_allocs.pop(addr, None)
        if size is None:
            raise SegfaultTrap(
                f"invalid volatile free at {addr:#x}", location=instr.location()
            )
        for a in range(addr, addr + size):
            self._vol_valid.discard(a)
            self.vmem.pop(a, None)

    def _oom(self, exc: OutOfSpaceError, instr: Instr) -> Trap:
        from repro.errors import OutOfPMTrap

        return OutOfPMTrap(str(exc), location=instr.location())

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def _trace_before(self, instr: Instr, frame: Frame) -> None:
        if instr.op in _TRACE_PTR_OPS:
            addr = frame.regs.get(instr.args[0])
            if addr is not None and addr >= PM_BASE:
                self.trace.record(instr.guid, addr)

    def _trace_after(self, instr: Instr, frame: Frame) -> None:
        if instr.op in _TRACE_DST_OPS and instr.dst is not None:
            addr = frame.regs.get(instr.dst)
            if addr is not None and addr >= PM_BASE:
                self.trace.record(instr.guid, addr)


#: opcode -> handler function, built once at import time; the VM caches
#: the resolved handler on each Instr (see Machine._step)
_DISPATCH: Dict[str, Callable] = {
    "const": Machine._op_const,
    "mov": Machine._op_mov,
    "binop": Machine._op_binop,
    "unop": Machine._op_unop,
    "gep": Machine._op_gep,
    "load": Machine._op_load,
    "store": Machine._op_store,
    "alloc": Machine._op_alloc,
    "free": Machine._op_free,
    "realloc": Machine._op_realloc,
    "call": Machine._op_call,
    "ret": Machine._op_ret,
    "br": Machine._op_br,
    "cbr": Machine._op_cbr,
    "persist": Machine._op_persist,
    "flush": Machine._op_flush,
    "fence": Machine._op_fence,
    "txbegin": Machine._op_txbegin,
    "txadd": Machine._op_txadd,
    "txcommit": Machine._op_txcommit,
    "txabort": Machine._op_txabort,
    "setroot": Machine._op_setroot,
    "getroot": Machine._op_getroot,
    "assert": Machine._op_assert,
    "panic": Machine._op_panic,
    "emit": Machine._op_emit,
    "yield": Machine._op_yield,
    "nop": Machine._op_nop,
}
