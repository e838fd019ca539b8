"""Synthetic reactor fixtures: a large checkpoint log and a plan probe.

The synthetic state is built directly against the pool/allocator/log —
no interpreter in the loop — so the log size is an exact parameter.  It
contains everything the reactor hot paths branch on: multi-version
entries with evicted history, sub-range persists sharing a base address,
transaction groups, alloc/free churn (a populated free index), a realloc
link, and one reversion whose pre-image holds a pointer into freed
memory (forcing the dangling-pointer guard through
``newest_free_covering``).

:func:`plan_fixture` and :func:`synthetic_trace` map the fault slice of
a small compiled program onto that big log, so ``compute_plan`` can be
compared against the seed plan join at scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.analysis import AnalysisResult, analyze_module
from repro.analysis.slicing import backward_slice
from repro.checkpoint.log import CheckpointLog
from repro.detector.monitor import Detector, RunOutcome
from repro.instrument.guids import GuidMap
from repro.instrument.passes import instrument_module
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.reactor.plan import Candidate, ReversionPlan

#: words per synthetic PM object
OBJ_WORDS = 4

#: non-victim candidates ahead of the real one in every plan; each costs
#: one failed reversion + re-execution before mitigation reaches the fix
N_DECOYS = 10


# ----------------------------------------------------------------------
# synthetic state
# ----------------------------------------------------------------------
@dataclass
class SynthState:
    """One reproducible pool + allocator + checkpoint-log instance."""

    pool: PMPool
    allocator: PMAllocator
    log: CheckpointLog
    victim: int
    good: Tuple[int, ...]
    victim_seq: int
    candidates: List[Candidate] = field(default_factory=list)

    def reexec(self) -> Callable[[], RunOutcome]:
        """Re-execution check: the victim object holds its good image."""

        def fn() -> RunOutcome:
            ok = all(
                self.pool.durable_read(self.victim + i) == self.good[i]
                for i in range(OBJ_WORDS)
            )
            return RunOutcome(ok=ok)

        return fn

    def make_plan(self) -> ReversionPlan:
        """The fixed candidate list: decoys first, the real fix last."""
        return ReversionPlan(fault_iid=0, candidates=list(self.candidates))

    def durable_image(self) -> Tuple[Dict[int, int], dict]:
        """Everything a mitigation can change, for equality checks."""
        return self.pool.durable_items(), self.allocator.export_meta()


def build_synthetic_state(n_updates: int, seed: int = 0) -> SynthState:
    """Deterministically build a pool whose log holds ``n_updates`` updates.

    The same ``(n_updates, seed)`` always produces the same durable image
    and event stream, so two reverter implementations can be run on two
    fresh builds and their final states compared word-for-word.
    """
    rng = random.Random(seed)
    n_objects = max(64, n_updates // 4)
    n_churn = max(4, n_objects // 64)
    pool = PMPool(
        (n_objects + n_churn + 8) * OBJ_WORDS + 1024, name="synth"
    )
    allocator = PMAllocator(pool)
    log = CheckpointLog()

    objects: List[int] = []
    for _ in range(n_objects):
        addr = allocator.zalloc(OBJ_WORDS, site="synth-obj")
        log.record_alloc(addr, OBJ_WORDS)
        objects.append(addr)

    # churn blocks freed again: populates the free-event index and leaves
    # blocks that old pointers may dangle into
    freed: List[int] = []
    for _ in range(n_churn):
        addr = allocator.zalloc(OBJ_WORDS, site="synth-churn")
        log.record_alloc(addr, OBJ_WORDS)
        allocator.free(addr)
        log.record_free(addr, OBJ_WORDS)
        freed.append(addr)

    # one realloc-linked pair, so the entry table carries incarnation links
    moved = allocator.zalloc(OBJ_WORDS, site="synth-realloc")
    log.record_alloc(moved, OBJ_WORDS)
    log.link_realloc(objects[0], moved)
    objects.append(moved)

    # the bulk update stream: mostly whole-object persists, some
    # field-granular sub-ranges (their own entries), occasional tx groups
    tx_id = 0
    in_tx = 0
    for _ in range(n_updates):
        base = objects[rng.randrange(len(objects))]
        if rng.random() < 0.15:
            off = rng.randrange(OBJ_WORDS)
            size = rng.randrange(1, OBJ_WORDS - off + 1)
        else:
            off, size = 0, OBJ_WORDS
        addr = base + off
        values = [rng.randrange(1, 1 << 20) for _ in range(size)]
        if in_tx == 0 and rng.random() < 0.02:
            tx_id += 1
            in_tx = rng.randrange(2, 5)
            log.record_tx_begin(tx_id)
        for j, v in enumerate(values):
            pool.durable_write(addr + j, v)
        log.record_update(addr, size, values, tx_id=tx_id if in_tx else 0)
        if in_tx:
            in_tx -= 1
            if in_tx == 0:
                log.record_tx_commit(tx_id)

    # the fault: a good image persisted, then a bad one on top — followed
    # by the decoy updates, so rollback cuts at the decoys do NOT reach
    # the bad update and mitigation needs several iterations
    picked = rng.sample(objects[:n_objects], N_DECOYS + 1)
    victim, decoy_objs = picked[0], picked[1:]
    good = tuple(rng.randrange(1, 1 << 20) for _ in range(OBJ_WORDS))
    for j, v in enumerate(good):
        pool.durable_write(victim + j, v)
    log.record_update(victim, OBJ_WORDS, list(good))
    bad = [v + 1 for v in good]
    for j, v in enumerate(bad):
        pool.durable_write(victim + j, v)
    victim_seq = log.record_update(victim, OBJ_WORDS, bad)

    candidates: List[Candidate] = []
    for k, base in enumerate(decoy_objs):
        if k == 0:
            # pre-image holding a pointer into a freed block: reverting
            # this decoy must take the dangling-pointer guard and revert
            # the covering free as well
            pre = [freed[0], 7, 7, 7]
        else:
            pre = [rng.randrange(1, 1 << 20) for _ in range(OBJ_WORDS)]
        for j, v in enumerate(pre):
            pool.durable_write(base + j, v)
        log.record_update(base, OBJ_WORDS, pre)
        cur = [rng.randrange(1, 1 << 20) for _ in range(OBJ_WORDS)]
        for j, v in enumerate(cur):
            pool.durable_write(base + j, v)
        seq = log.record_update(base, OBJ_WORDS, cur)
        candidates.append(
            Candidate(seq=seq, addr=base, guid=f"synth-{k}", slice_iid=k)
        )
    candidates.append(
        Candidate(
            seq=victim_seq, addr=victim, guid="synth-victim",
            slice_iid=N_DECOYS,
        )
    )

    return SynthState(
        pool=pool,
        allocator=allocator,
        log=log,
        victim=victim,
        good=good,
        victim_seq=victim_seq,
        candidates=candidates,
    )


# ----------------------------------------------------------------------
# plan fixture
# ----------------------------------------------------------------------
#: small program whose fault slice contains several PM instructions; its
#: GUIDs are then mapped (via a synthetic trace) onto the big log
_PLAN_SRC = '''
def init():
    root = get_root()
    if root == 0:
        root = pm_alloc(sizeof("hdr"))
        root.hdr_flag = 0
        root.hdr_lo = 0
        root.hdr_hi = 0
        persist(root, sizeof("hdr"))
        set_root(root)
    return root


def poke(root, v):
    root.hdr_flag = v
    persist(addr(root.hdr_flag), 1)
    return v


def mix(root, v):
    root.hdr_lo = v
    root.hdr_hi = root.hdr_lo + root.hdr_flag
    persist(addr(root.hdr_lo), 2)
    return v


def check(root):
    assert_true(root.hdr_flag == 0, "bad flag")
    return root.hdr_hi


def __driver__():
    root = init()
    poke(root, 0)
    mix(root, 1)
    check(root)
    return 0
'''

_PLAN_STRUCTS = {"hdr": ["hdr_flag", "hdr_lo", "hdr_hi"]}


def plan_fixture() -> Tuple[AnalysisResult, GuidMap, int]:
    """Compile/analyze the probe program and trigger its fault."""
    module = compile_module("synth-plan", _PLAN_SRC, structs=_PLAN_STRUCTS)
    analysis = analyze_module(module)
    guid_map, _ = instrument_module(module, analysis.pm)
    machine = Machine(module)
    root = machine.call("init")
    machine.call("mix", root, 1)
    machine.call("poke", root, 1)  # the bad persisted flag
    outcome = Detector().observe(machine, lambda: machine.call("check", root))
    if outcome.ok or outcome.fault is None:
        raise RuntimeError("plan fixture failed to fault")
    return analysis, guid_map, outcome.fault.iid


def synthetic_trace(
    analysis: AnalysisResult,
    guid_map: GuidMap,
    fault_iid: int,
    log: CheckpointLog,
    rng: random.Random,
    addrs_per_guid: int,
) -> PMTrace:
    """Map every traced slice GUID onto random addresses of the big log."""
    pm_iids = sorted(
        iid
        for iid in backward_slice(analysis.pdg, fault_iid)
        if analysis.pm.is_pm_instr(iid) and guid_map.guid_of(iid) is not None
    )
    bases = [entry.address for entry in log.entries.values()]
    trace = PMTrace()
    for iid in pm_iids:
        guid = guid_map.guid_of(iid)
        for _ in range(addrs_per_guid):
            base = bases[rng.randrange(len(bases))]
            trace.record(guid, base + rng.randrange(OBJ_WORDS))
    trace.flush()
    return trace
