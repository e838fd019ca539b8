"""Shared scaffolding for the five PM target systems.

A :class:`SystemAdapter` owns one simulated "deployment" of a PM system:
the pool, allocator, transaction manager, the compiled+analyzed+
instrumented module (cached per class — static artifacts depend only on
the source), plus the optional Arthas attachments (checkpoint manager and
PM-address tracer).  It models the process lifecycle:

* ``start()`` — boot the system, creating or reopening the pool root,
* ``restart()`` — process crash + restart: volatile state and
  un-persisted PM stores vanish; a fresh interpreter reopens the pool,
* ``recover()`` — run the system's recovery function under tracing,
  returning the set of PM addresses it touched (Section 4.7's
  recovery-access window).

Subclasses wire the guest entry points into a uniform
insert/lookup/delete/check interface for the experiment harness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis import AnalysisResult, analyze_module
from repro.checkpoint.manager import CheckpointManager
from repro.instrument.guids import GuidMap
from repro.instrument.passes import instrument_module
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine
from repro.lang.ir import Module
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.pmem.tx import TransactionManager

#: the miss sentinel every adapter's ``lookup`` returns.  Layers that
#: build on the lookup protocol (the distributed cluster, derived
#: writes) must compare against this constant — and must refuse to
#: *store* it, or a real stored -1 becomes indistinguishable from a
#: miss.
ABSENT = -1


class _StaticArtifacts:
    """Per-class compile/analyze/instrument results (computed once)."""

    def __init__(self, module: Module, analysis: AnalysisResult, guid_map: GuidMap,
                 instrument_seconds: float):
        self.module = module
        self.analysis = analysis
        self.guid_map = guid_map
        self.instrument_seconds = instrument_seconds


class SystemAdapter:
    """Base class: one deployment of one PM system."""

    NAME = "base"
    STRUCTS: Dict[str, List[str]] = {}
    SOURCE = ""
    INIT_FN = "init"
    RECOVER_FN = "recover"
    POOL_WORDS = 1 << 16
    STEP_BUDGET = 400_000

    _static: Dict[str, _StaticArtifacts] = {}

    # ------------------------------------------------------------------
    @classmethod
    def static_artifacts(cls) -> _StaticArtifacts:
        """Compile, analyze and instrument the module (cached per class)."""
        cached = SystemAdapter._static.get(cls.NAME)
        if cached is None:
            module = compile_module(cls.NAME, cls.SOURCE, structs=cls.STRUCTS)
            analysis = analyze_module(module)
            guid_map, seconds = instrument_module(module, analysis.pm)
            cached = _StaticArtifacts(module, analysis, guid_map, seconds)
            SystemAdapter._static[cls.NAME] = cached
        return cached

    # ------------------------------------------------------------------
    def __init__(
        self,
        seed: int = 0,
        pool_words: Optional[int] = None,
        with_tracing: bool = True,
        with_checkpoint: bool = True,
    ):
        static = self.static_artifacts()
        self.module = static.module
        self.analysis = static.analysis
        self.guid_map = static.guid_map
        self.seed = seed
        self.pool = PMPool(pool_words or self.POOL_WORDS, name=self.NAME)
        self.allocator = PMAllocator(self.pool)
        self.txman = TransactionManager(self.pool)
        self.trace: Optional[PMTrace] = PMTrace() if with_tracing else None
        self.ckpt: Optional[CheckpointManager] = None
        if with_checkpoint:
            self.ckpt = CheckpointManager(self.pool, self.allocator, self.txman)
            self.ckpt.attach()
        self.machine: Optional[Machine] = None
        self.root = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def _new_machine(self) -> Machine:
        machine = Machine(
            self.module,
            pool=self.pool,
            allocator=self.allocator,
            txman=self.txman,
            seed=self.seed + self.restarts,
            step_budget=self.STEP_BUDGET,
        )
        if self.trace is not None:
            machine.trace = self.trace
        self.machine = machine
        return machine

    def start(self) -> None:
        """Boot the system (first start: creates the pool root)."""
        self._new_machine()
        self.root = self.call(self.INIT_FN)

    def restart(self) -> None:
        """Process crash + restart: drop all volatile/un-persisted state."""
        if self.machine is not None:
            self.machine.crash()
        if self.trace is not None:
            self.trace.crash()
        self.restarts += 1
        self._new_machine()
        self.root = self.call(self.INIT_FN)

    def recover(self) -> Set[int]:
        """Run the recovery function; returns PM addresses it touched."""
        assert self.machine is not None, "call start()/restart() first"
        if self.trace is None:
            self.call(self.RECOVER_FN, self.root)
            return set()
        mark = self.trace.mark()
        try:
            self.call(self.RECOVER_FN, self.root)
            self.trace.flush()
        finally:
            touched = self.trace.since(mark)
        return {addr for _guid, addr in touched}

    # ------------------------------------------------------------------
    def call(self, fname: str, *args: int):
        assert self.machine is not None, "call start() first"
        return self.machine.call(fname, *args)

    # ------------------------------------------------------------------
    # uniform workload interface (subclasses implement)
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> int:
        raise NotImplementedError

    def lookup(self, key: int) -> int:
        """Returns the stored value or :data:`ABSENT` (-1) on miss."""
        raise NotImplementedError

    def delete(self, key: int) -> int:
        raise NotImplementedError

    def count_items(self) -> int:
        """Logical item count, for the pmCRIU data-loss metric."""
        raise NotImplementedError

    def check_key(self, key: int) -> None:
        """Guest-side presence check; traps on violation."""
        raise NotImplementedError

    def consistency_violations(self) -> List[str]:
        """Domain-specific semantic-consistency checks (Table 4)."""
        return []

    def expected_item_words(self) -> int:
        """Words that the live items should occupy (leak-monitor input)."""
        return 0
