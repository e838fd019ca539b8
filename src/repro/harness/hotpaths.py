"""Hot-path micro-benchmarks: indexed reactor vs the seed linear scans.

These measurements feed ``results/BENCH_hotpaths.json`` so later PRs have
a perf trajectory:

* **plan** — ``compute_plan`` (slice x trace x log join) over a large
  synthetic checkpoint log, repeated for the harness's up-to-4 planning
  rounds, against a reference path that joins through
  :mod:`repro.checkpoint.reference` and re-slices every round (the seed
  had no PDG memoization);
* **mitigation** — purge, rollback and bisect strategies executed by the
  production :class:`~repro.reactor.revert.Reverter` and by
  :class:`~repro.checkpoint.reference.LinearScanReverter` on *identical*
  synthetic states; the durable pool image and allocator metadata must
  come out byte-identical, otherwise the run aborts;
* **vm** — fused PMLang VM throughput (steps/second), recorded
  trajectory-only; ``tests/test_vm_fused.py`` pins the ratio over the
  table-dispatch oracle in ``tests/oracles``;
* **write_path** — checkpoint ``record_update``/persist-hook throughput
  with and without the index maintenance, against the seed write log;
* **live_traffic** — p50/p99 for non-quarantined requests during a
  mitigation, quarantine-scoped vs stop-the-world serving.

The cluster write path and heal are measured end to end by
``bench/run.py``, not here.

The synthetic state is built directly against the pool/allocator/log —
no interpreter in the loop — so the log size is an exact parameter.  It
contains everything the hot paths branch on: multi-version entries with
evicted history, sub-range persists sharing a base address, transaction
groups, alloc/free churn (a populated free index), a realloc link, and
one reversion whose pre-image holds a pointer into freed memory (forcing
the dangling-pointer guard through ``newest_free_covering``).
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import AnalysisResult, analyze_module
from repro.analysis.slicing import backward_slice
from repro.checkpoint import reference
from repro.checkpoint.log import MAX_VERSIONS, CheckpointLog
from repro.checkpoint.reference import LinearScanReverter
from repro.detector.monitor import Detector, RunOutcome
from repro.instrument.guids import GuidMap
from repro.instrument.passes import instrument_module
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.reactor.plan import (
    Candidate,
    PlanContext,
    ReversionPlan,
    compute_plan,
    distance_policy,
)
from repro.reactor.revert import Reverter

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
    objects: List[int]
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


def build_synthetic_state(
    n_updates: int,
    seed: int = 0,
    n_objects: Optional[int] = None,
    max_versions: int = MAX_VERSIONS,
    n_decoys: int = N_DECOYS,
) -> SynthState:
    """Deterministically build a pool whose log holds ``n_updates`` updates.

    The same ``(n_updates, seed)`` always produces the same durable image
    and event stream, so two reverter implementations can be run on two
    fresh builds and their final states compared word-for-word.
    """
    rng = random.Random(seed)
    if n_objects is None:
        n_objects = max(64, n_updates // 4)
    n_churn = max(4, n_objects // 64)
    pool = PMPool(
        (n_objects + n_churn + 8) * OBJ_WORDS + 1024, name="hotpaths"
    )
    allocator = PMAllocator(pool)
    log = CheckpointLog(max_versions=max_versions)

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
    picked = rng.sample(objects[:n_objects], n_decoys + 1)
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
            slice_iid=n_decoys,
        )
    )

    return SynthState(
        pool=pool,
        allocator=allocator,
        log=log,
        objects=objects,
        victim=victim,
        good=good,
        victim_seq=victim_seq,
        candidates=candidates,
    )


# ----------------------------------------------------------------------
# mitigation benchmark
# ----------------------------------------------------------------------
def bench_mitigation(
    n_updates: int,
    seed: int = 0,
    modes: Tuple[str, ...] = ("purge", "rollback", "bisect"),
) -> Dict[str, Dict[str, object]]:
    """Time each strategy under both reverters on identical fresh states.

    Raises when a strategy fails to recover or when the two final durable
    images differ — the speedup numbers are only meaningful if the fast
    path is exact.
    """
    out: Dict[str, Dict[str, object]] = {}
    for mode in modes:
        row: Dict[str, object] = {}
        images = {}
        for name, cls in (("indexed", Reverter), ("reference", LinearScanReverter)):
            state = build_synthetic_state(n_updates, seed=seed)
            reverter = cls(state.log, state.pool, state.allocator, state.reexec())
            start = time.perf_counter()
            result = getattr(reverter, "mitigate_" + mode)(state.make_plan())
            row[name + "_seconds"] = time.perf_counter() - start
            if not result.recovered:
                raise RuntimeError(f"{name} {mode} did not recover")
            row[name + "_attempts"] = result.attempts
            images[name] = state.durable_image()
        if images["indexed"] != images["reference"]:
            raise RuntimeError(f"{mode}: divergent final pool state")
        row["pool_identical"] = True
        row["speedup"] = (
            row["reference_seconds"] / max(row["indexed_seconds"], 1e-9)
        )
        out[mode] = row
    return out


# ----------------------------------------------------------------------
# plan benchmark
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


def _plan_fixture() -> Tuple[AnalysisResult, GuidMap, int]:
    """Compile/analyze the probe program and trigger its fault."""
    module = compile_module("hotpaths", _PLAN_SRC, structs=_PLAN_STRUCTS)
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


def _synthetic_trace(
    analysis: AnalysisResult,
    guid_map: GuidMap,
    fault_iid: int,
    log: CheckpointLog,
    rng: random.Random,
    addrs_per_guid: int,
) -> Tuple[PMTrace, int]:
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
    return trace, len(pm_iids)


def _reference_compute_plan(
    analysis: AnalysisResult,
    guid_map: GuidMap,
    trace: PMTrace,
    log: CheckpointLog,
    fault_iid: int,
    policy,
) -> ReversionPlan:
    """The seed planning path: re-slice every round (no PDG memoization)
    and join each traced address through the full-entry-table scan."""
    analysis.pdg._slice_cache.clear()
    analysis.pdg._dist_cache.clear()
    trace.flush()
    full_slice = backward_slice(analysis.pdg, fault_iid)
    pm_nodes = {n for n in full_slice if analysis.pm.is_pm_instr(n)}
    candidates: List[Candidate] = []
    for iid in pm_nodes:
        guid = guid_map.guid_of(iid)
        if guid is None:
            continue
        for addr in trace.addresses_for_guid(guid):
            for seq in reference.update_seqs_for_address(log, addr):
                candidates.append(
                    Candidate(seq=seq, addr=addr, guid=guid, slice_iid=iid)
                )
    ctx = PlanContext(analysis=analysis, fault_iid=fault_iid)
    ordered = policy(candidates, ctx)
    return ReversionPlan(
        fault_iid=fault_iid,
        candidates=ordered,
        slice_size=len(full_slice),
        pm_slice_size=len(pm_nodes),
    )


def bench_plan(
    n_updates: int,
    seed: int = 0,
    rounds: int = 4,
    addrs_per_guid: Optional[int] = None,
) -> Dict[str, object]:
    """Time ``rounds`` planning requests, indexed vs reference.

    ``rounds`` models the harness's detector/reactor loop, which re-plans
    the same fault up to four times per mode.  The two paths must produce
    the same candidate sequence, or the run aborts.
    """
    state = build_synthetic_state(n_updates, seed=seed)
    analysis, guid_map, fault_iid = _plan_fixture()
    rng = random.Random(seed + 1)
    if addrs_per_guid is None:
        addrs_per_guid = max(8, min(32, n_updates // 3000))
    trace, n_guids = _synthetic_trace(
        analysis, guid_map, fault_iid, state.log, rng, addrs_per_guid
    )
    policy = distance_policy()

    analysis.pdg._slice_cache.clear()
    analysis.pdg._dist_cache.clear()
    start = time.perf_counter()
    for _ in range(rounds):
        plan = compute_plan(
            analysis, guid_map, trace, state.log, fault_iid, policy=policy
        )
    indexed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(rounds):
        ref_plan = _reference_compute_plan(
            analysis, guid_map, trace, state.log, fault_iid, policy
        )
    reference_seconds = time.perf_counter() - start

    if [c.seq for c in plan.candidates] != [c.seq for c in ref_plan.candidates]:
        raise RuntimeError("indexed and reference plans disagree")
    return {
        "rounds": rounds,
        "traced_guids": n_guids,
        "addrs_per_guid": addrs_per_guid,
        "candidates": len(plan.candidates),
        "indexed_seconds": indexed_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / max(indexed_seconds, 1e-9),
    }


# ----------------------------------------------------------------------
# checkpoint write-path benchmark
# ----------------------------------------------------------------------
def _replay_write_stream(log: CheckpointLog, n_updates: int, seed: int) -> float:
    """Drive one deterministic event stream into ``log``; returns seconds.

    The stream mirrors the synthetic-state mix: mostly whole-object
    persists over a shared address set, 15% field-granular sub-ranges,
    occasional transaction groups, plus alloc/free churn so every
    incrementally maintained index (entry addresses, free events, live
    allocations) sees traffic.
    """
    rng = random.Random(seed)
    n_objects = max(64, n_updates // 4)
    bases = [16 + i * OBJ_WORDS for i in range(n_objects)]
    churn_base = 16 + n_objects * OBJ_WORDS
    tx_id = 0
    in_tx = 0
    start = time.perf_counter()
    for i in range(n_updates):
        base = bases[rng.randrange(len(bases))]
        if rng.random() < 0.15:
            off = rng.randrange(OBJ_WORDS)
            size = rng.randrange(1, OBJ_WORDS - off + 1)
        else:
            off, size = 0, OBJ_WORDS
        values = [rng.randrange(1, 1 << 20) for _ in range(size)]
        if in_tx == 0 and rng.random() < 0.02:
            tx_id += 1
            in_tx = rng.randrange(2, 5)
            log.record_tx_begin(tx_id)
        log.record_update(base + off, size, values, tx_id=tx_id if in_tx else 0)
        if in_tx:
            in_tx -= 1
            if in_tx == 0:
                log.record_tx_commit(tx_id)
        if rng.random() < 0.01:
            addr = churn_base + (i % 256) * OBJ_WORDS
            log.record_alloc(addr, OBJ_WORDS)
            log.record_free(addr, OBJ_WORDS)
    return time.perf_counter() - start


def _persist_hook_throughput(log_factory, n_persists: int, seed: int) -> float:
    """Seconds for ``n_persists`` full write+persist cycles with the
    checkpoint manager attached (the Figure 12 runtime-overhead path)."""
    from repro.checkpoint.manager import CheckpointManager
    from repro.pmem.tx import TransactionManager

    n_objects = 256
    pool = PMPool((n_objects + 8) * OBJ_WORDS + 1024, name="writepath")
    allocator = PMAllocator(pool)
    txman = TransactionManager(pool)
    manager = CheckpointManager(pool, allocator, txman, log=log_factory())
    manager.attach()
    addrs = [allocator.zalloc(OBJ_WORDS, site="wp-obj") for _ in range(n_objects)]
    rng = random.Random(seed)
    start = time.perf_counter()
    for _ in range(n_persists):
        addr = addrs[rng.randrange(n_objects)]
        for j in range(OBJ_WORDS):
            pool.write(addr + j, rng.randrange(1, 1 << 20))
        pool.persist(addr, OBJ_WORDS)
    seconds = time.perf_counter() - start
    if manager.updates_recorded != n_persists:  # pragma: no cover - sanity
        raise RuntimeError("persist hook missed updates")
    return seconds


def _replay_ycsb_updates(log: CheckpointLog, ops) -> float:
    """Drive pre-generated (addr, values) updates into ``log``.

    The timed region is only a few milliseconds at quick scale, so one
    gen-2 collection over the heap the earlier bench sections leave
    behind would dwarf the measurement: collect up front and keep the
    collector out of the timed loop.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for addr, values in ops:
            log.record_update(addr, OBJ_WORDS, values)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _bench_write_path_ycsb(
    n_updates: int, seed: int, keyspace: int = 4096, theta: float = 0.99
) -> Dict[str, object]:
    """Skewed-key write path: YCSB zipfian keys instead of uniform bases.

    The uniform stream of :func:`_replay_write_stream` touches every
    entry about equally; real KV workloads hammer a hot set, which is
    exactly where per-entry state (version rings, pending slabs) either
    pays off or piles up.  Keys and values are pre-generated outside the
    timed region.
    """
    from repro.checkpoint.reference import SeedWriteLog
    from repro.workloads.ycsb import zipf_keys

    keys = zipf_keys(n_updates, keyspace, theta, seed)
    # micro-assert: the memoized zipf CDF must not change a single draw
    # relative to the from-scratch build (the serving stream relies on
    # identical key sequences for its digest-determinism guarantees)
    probe = min(n_updates, 2_000)
    if keys[:probe] != zipf_keys(probe, keyspace, theta, seed, use_cache=False):
        raise RuntimeError("cached zipf CDF diverged from uncached draws")
    rng = random.Random(seed + 7)
    ops = [
        (16 + k * OBJ_WORDS,
         [rng.randrange(1, 1 << 20) for _ in range(OBJ_WORDS)])
        for k in keys
    ]
    indexed = _replay_ycsb_updates(CheckpointLog(), ops)
    seed_s = _replay_ycsb_updates(SeedWriteLog(), ops)
    return {
        "keyspace": keyspace,
        "theta": theta,
        "n_updates": n_updates,
        "indexed_seconds": indexed,
        "seed_seconds": seed_s,
        "indexed_updates_per_second": n_updates / max(indexed, 1e-9),
        "seed_updates_per_second": n_updates / max(seed_s, 1e-9),
        "index_overhead_pct":
            100.0 * (indexed - seed_s) / max(seed_s, 1e-9),
    }


def _staged_eager_smoke(n_updates: int, seed: int) -> bool:
    """Equivalence smoke: the staged write path must leave the same
    logical log as the eager oracle (``staging_limit=1`` merges every
    record immediately).  Raises rather than report timings over a
    divergent log."""
    staged = CheckpointLog()
    eager = CheckpointLog(staging_limit=1)
    n = min(n_updates, 10_000)
    _replay_write_stream(staged, n, seed)
    _replay_write_stream(eager, n, seed)
    if staged.structural_digest() != eager.structural_digest():
        raise RuntimeError("staged write path diverged from the eager oracle")
    return True


def bench_write_path(n_updates: int, seed: int = 0) -> Dict[str, object]:
    """Checkpoint *write-path* cost: indexed log vs the seed record path.

    PR 1's reactor indexes are maintained incrementally inside
    ``record_update``/``record_alloc``/``record_free``; since the staged
    merge landed they are absorbed from a flat staging buffer at query
    time or every ``staging_limit`` records, so the hot write path only
    pays an array append.  This times the identical event stream against
    the production :class:`~repro.checkpoint.log.CheckpointLog` and
    against :class:`~repro.checkpoint.reference.SeedWriteLog` (the
    index-free seed path), as raw ``record_update`` calls (uniform and
    YCSB-zipfian key patterns) and end-to-end through the pool's persist
    hook — after a staged-vs-eager structural-digest smoke that aborts
    the bench if the deferred merge is not exact.
    """
    from repro.checkpoint.reference import SeedWriteLog

    staged_eager_identical = _staged_eager_smoke(n_updates, seed)
    indexed_rec = _replay_write_stream(CheckpointLog(), n_updates, seed)
    seed_rec = _replay_write_stream(SeedWriteLog(), n_updates, seed)
    n_persists = min(n_updates, 20_000)
    indexed_hook = _persist_hook_throughput(CheckpointLog, n_persists, seed)
    seed_hook = _persist_hook_throughput(SeedWriteLog, n_persists, seed)
    return {
        "n_updates": n_updates,
        "n_persists": n_persists,
        "staged_eager_identical": staged_eager_identical,
        "ycsb": _bench_write_path_ycsb(n_updates, seed),
        "record_update": {
            "indexed_seconds": indexed_rec,
            "seed_seconds": seed_rec,
            "indexed_updates_per_second": n_updates / max(indexed_rec, 1e-9),
            "seed_updates_per_second": n_updates / max(seed_rec, 1e-9),
            "index_overhead_pct":
                100.0 * (indexed_rec - seed_rec) / max(seed_rec, 1e-9),
        },
        "persist_hook": {
            "indexed_seconds": indexed_hook,
            "seed_seconds": seed_hook,
            "indexed_persists_per_second": n_persists / max(indexed_hook, 1e-9),
            "seed_persists_per_second": n_persists / max(seed_hook, 1e-9),
            "index_overhead_pct":
                100.0 * (indexed_hook - seed_hook) / max(seed_hook, 1e-9),
        },
    }


# ----------------------------------------------------------------------
# injection-sweep benchmark
# ----------------------------------------------------------------------
def bench_inject_sweep(
    fids: Optional[List[str]] = None,
    solution: str = "arthas-rb",
    seed: int = 0,
    max_per_site: int = 1,
) -> Dict[str, object]:
    """Robustness trajectory: the fault-injection sweep's headline row.

    Runs :func:`repro.harness.inject_sweep.run_sweep` (one occurrence
    per (site family, fault kind) by default — the CI ``--quick`` shape)
    and reports the sites enumerated, the recovery success rate and the
    mean simulated recovery time.  The bench *requires* 100%
    verification: a regression here is a correctness bug, not a
    slowdown, so it aborts the report rather than record a bad rate.
    """
    from repro.harness.inject_sweep import DEFAULT_FAULTS, run_sweep

    report = run_sweep(
        fids=list(fids) if fids is not None else list(DEFAULT_FAULTS),
        solution=solution, seed=seed, max_per_site=max_per_site,
    )
    if not report.all_verified:
        raise RuntimeError(
            "inject-sweep bench left unverified cells: "
            + ", ".join(c.label for c in report.failures()[:8])
        )
    return report.to_json()


# ----------------------------------------------------------------------
# VM throughput benchmark
# ----------------------------------------------------------------------
_VM_SRC = '''
def spin(n):
    s = 0
    for i in range(n):
        s = s + i * 3
        s = s ^ (i << 1)
        if s > 1000000:
            s = s % 65536
    return s
'''


def bench_vm(n_iters: int = 50_000) -> Dict[str, object]:
    """Fused VM steps/second on a pure-compute loop (dispatch cost)."""
    module = compile_module("vmspin", _VM_SRC)
    machine = Machine(module)
    start = time.perf_counter()
    machine.call("spin", n_iters, step_budget=100 * n_iters)
    seconds = time.perf_counter() - start
    return {
        "steps": machine.steps_executed,
        "seconds": seconds,
        "steps_per_second": machine.steps_executed / max(seconds, 1e-9),
    }


# ----------------------------------------------------------------------
# live-traffic serving benchmark
# ----------------------------------------------------------------------
def _live_traffic_side(report: Dict[str, object]) -> Dict[str, object]:
    """The per-mode slice of a serving report the bench keeps."""
    return {
        "wall_seconds": report["wall_seconds"],
        "latency": report["latency"],
        "during_mitigation": report["during_mitigation"],
        "detection_backlog": report["detection_backlog"],
        "steady": report["steady"],
        "error_budget": report["error_budget"],
        "quarantine": {
            "ranges": report["quarantine"]["ranges"],
            "locked_words": report["quarantine"]["locked_words"],
            "stream_keys": len(report["quarantine"]["stream_keys"]),
        },
        "mitigation_wall_seconds": report["mitigation"]["wall_seconds"],
        "analysis_seconds": report["mitigation"]["analysis_seconds"],
        "reactor_requests": report["mitigation"]["reactor_requests"],
    }


def bench_live_traffic(
    fid: str = "f1",
    solution: str = "arthas-bi",
    seed: int = 0,
    n_requests: int = 300,
    arrival_period_s: float = 0.003,
    keyspace: int = 192,
    detect_every: int = 8,
    release_after: int = 120,
) -> Dict[str, object]:
    """p50/p99/p999 under fire: quarantine-scoped vs stop-the-world.

    Runs the same YCSB stream against the live recovery server twice —
    once serving non-quarantined traffic through mitigation windows
    (range-scoped quarantine, cooperative chunking) and once stalling
    every request until mitigation finishes — and reports the latency
    split for requests that *arrived during an open mitigation window*.
    The two paths must leave byte-identical pool digests and both must
    recover; the bench aborts on a mismatch because the latency numbers
    would then compare different recoveries.
    """
    from repro.reactor.server import LiveRecoveryServer

    sides: Dict[str, Dict[str, object]] = {}
    for mode in ("quarantine", "stop-the-world"):
        server = LiveRecoveryServer(
            fid, solution=solution, seed=seed, mode=mode,
            keyspace=keyspace, detect_every=detect_every,
            release_after=release_after,
        )
        sides[mode] = server.run_sync(
            n_requests, arrival_period_s=arrival_period_s
        )
    scoped, stw = sides["quarantine"], sides["stop-the-world"]
    for label, rep in sides.items():
        if not rep["mitigation"]["recovered"] or rep["unavailable"]:
            raise RuntimeError(
                f"live-traffic bench: {label} serving did not recover"
            )
    if (
        scoped["digest_after_mitigation"] != stw["digest_after_mitigation"]
        or scoped["final_digest"] != stw["final_digest"]
    ):
        raise RuntimeError(
            "live-traffic bench: scoped and stop-the-world serving left "
            "different pool digests — the quarantine path corrupted state"
        )

    def ratio(which: str) -> float:
        denom = float(scoped["during_mitigation"][which])
        return float(stw["during_mitigation"][which]) / max(denom, 1e-9)

    return {
        "fid": fid,
        "solution": solution,
        "seed": seed,
        "n_requests": n_requests,
        "arrival_period_s": arrival_period_s,
        "keyspace": keyspace,
        "quarantine": _live_traffic_side(scoped),
        "stop_the_world": _live_traffic_side(stw),
        "stw_over_scoped_p50_ratio": ratio("p50"),
        "stw_over_scoped_p99_ratio": ratio("p99"),
        "stw_over_scoped_p999_ratio": ratio("p999"),
        "digests_identical": True,
        "recovered": True,
    }


# ----------------------------------------------------------------------
# top-level runner
# ----------------------------------------------------------------------
#: sections ``run_hotpaths(only=...)`` / ``bench-hotpaths --only`` accept
SECTIONS = ("plan", "mitigation", "vm", "write_path", "live_traffic")


def run_hotpaths(
    n_updates: int = 50_000,
    seed: int = 0,
    vm_iters: int = 50_000,
    rounds: int = 4,
    only: Optional[str] = None,
) -> Dict[str, object]:
    """Run the benchmarks; returns the JSON-ready report dict.

    ``only`` restricts the run to a single section (one of
    :data:`SECTIONS`) — the common iterate-on-one-hot-path loop.  A
    partial report omits the cross-section ``summary`` block, and
    :func:`write_report` merges it over the sections already on disk.
    """
    if only is not None and only not in SECTIONS:
        raise ValueError(f"unknown section {only!r}; pick from {SECTIONS}")

    def wanted(name: str) -> bool:
        return only is None or only == name

    report: Dict[str, object] = {
        "config": {
            "n_updates": n_updates,
            "seed": seed,
            "vm_iters": vm_iters,
            "plan_rounds": rounds,
            "decoys": N_DECOYS,
        },
    }
    if wanted("plan"):
        report["plan"] = bench_plan(n_updates, seed=seed, rounds=rounds)
    if wanted("mitigation"):
        report["mitigation"] = bench_mitigation(n_updates, seed=seed)
    if wanted("vm"):
        report["vm"] = bench_vm(vm_iters)
    if wanted("write_path"):
        report["write_path"] = bench_write_path(n_updates, seed=seed)
    if wanted("live_traffic"):
        report["live_traffic"] = bench_live_traffic(seed=seed)
    if only is not None:
        return report

    plan = report["plan"]
    mitigation = report["mitigation"]
    vm = report["vm"]
    write_path = report["write_path"]
    indexed = float(plan["indexed_seconds"]) + sum(
        float(m["indexed_seconds"]) for m in mitigation.values()
    )
    ref = float(plan["reference_seconds"]) + sum(
        float(m["reference_seconds"]) for m in mitigation.values()
    )
    report["summary"] = {
        "indexed_plan_plus_mitigation_seconds": indexed,
        "reference_plan_plus_mitigation_seconds": ref,
        "plan_plus_mitigation_speedup": ref / max(indexed, 1e-9),
        "vm_steps_per_second": vm["steps_per_second"],
        "write_path_updates_per_second":
            write_path["record_update"]["indexed_updates_per_second"],
        "write_path_index_overhead_pct":
            write_path["record_update"]["index_overhead_pct"],
        "live_traffic_stw_over_scoped_p99_ratio":
            report["live_traffic"]["stw_over_scoped_p99_ratio"],
    }
    return report


def render_summary(report: Dict[str, object]) -> str:
    """Human-readable digest of one (possibly partial) report."""
    cfg = report["config"]
    lines = [
        f"hot-path benchmark ({cfg['n_updates']} log updates, "
        f"seed {cfg['seed']})",
    ]
    plan = report.get("plan")
    if plan is not None:
        lines.append(
            f"  plan ({plan['rounds']} rounds):  "
            f"indexed {plan['indexed_seconds']:.4f}s   "
            f"reference {plan['reference_seconds']:.4f}s   "
            f"({plan['speedup']:.1f}x)"
        )
    for mode, row in (report.get("mitigation") or {}).items():
        lines.append(
            f"  {mode:<8}:  indexed {row['indexed_seconds']:.4f}s   "
            f"reference {row['reference_seconds']:.4f}s   "
            f"({row['speedup']:.1f}x, pool identical)"
        )
    vm = report.get("vm")
    if vm is not None:
        lines.append(
            f"  vm:        {vm['steps_per_second']:,.0f} steps/s fused "
            f"({vm['steps']} steps)"
        )
    wp = report.get("write_path")
    if wp is not None:
        rec, hook = wp["record_update"], wp["persist_hook"]
        lines.append(
            f"  write:     {rec['indexed_updates_per_second']:,.0f} "
            f"record_update/s (index overhead "
            f"{rec['index_overhead_pct']:+.1f}% vs seed path), "
            f"{hook['indexed_persists_per_second']:,.0f} persist-hook/s "
            f"({hook['index_overhead_pct']:+.1f}%)"
        )
        ycsb = wp.get("ycsb")
        if ycsb is not None:
            lines.append(
                f"  ycsb:      {ycsb['indexed_updates_per_second']:,.0f} "
                f"record_update/s zipfian(theta={ycsb['theta']}, "
                f"keyspace {ycsb['keyspace']}) "
                f"({ycsb['index_overhead_pct']:+.1f}% vs seed path)"
            )
    lt = report.get("live_traffic")
    if lt is not None:
        scoped = lt["quarantine"]["during_mitigation"]
        stw = lt["stop_the_world"]["during_mitigation"]
        lines.append(
            f"  serve:     during-mitigation p99 scoped "
            f"{scoped['p99'] * 1000:.1f}ms vs stop-the-world "
            f"{stw['p99'] * 1000:.1f}ms "
            f"({lt['stw_over_scoped_p99_ratio']:.1f}x, "
            f"{lt['quarantine']['quarantine']['stream_keys']} keys "
            f"quarantined, digests identical)"
        )
    isw = report.get("inject_sweep")
    if isw is not None:
        lines.append(
            f"  inject:    {isw['verified_consistent']}/{isw['cells']} "
            f"cells verified-consistent "
            f"({isw['recovery_success_rate_pct']:.0f}%), mean recovery "
            f"{isw['mean_recovery_seconds']:.2f} sim-s, "
            f"{isw['wall_seconds']:.1f}s wall"
        )
    s = report.get("summary")
    if s is not None:
        lines.append(
            f"  plan+mitigation speedup: "
            f"{s['plan_plus_mitigation_speedup']:.1f}x "
            f"(indexed {s['indexed_plan_plus_mitigation_seconds']:.4f}s, "
            f"reference {s['reference_plan_plus_mitigation_seconds']:.4f}s)"
        )
    return "\n".join(lines)


def run_and_write(
    n_updates: int = 50_000,
    seed: int = 0,
    vm_iters: int = 50_000,
    rounds: int = 4,
    out_path: Optional[str] = None,
    only: Optional[str] = None,
) -> Dict[str, object]:
    """Run the benchmarks and persist the JSON report (shared by the
    ``bench-hotpaths`` CLI subcommand and ``bench_perf_hotpaths.py``)."""
    report = run_hotpaths(
        n_updates=n_updates, seed=seed, vm_iters=vm_iters, rounds=rounds,
        only=only,
    )
    if out_path is not None:
        write_report(report, out_path)
    return report


def write_report(report: Dict[str, object], out_path: str) -> None:
    """Persist one report dict as pretty-printed JSON.

    Top-level sections already on disk but absent from ``report`` (say,
    the ``inject_sweep`` record from a previous full run when only one
    micro bench was re-run) are carried over rather than clobbered, so
    the file stays a superset of every section ever benchmarked.
    """
    merged = dict(report)
    try:
        with open(out_path) as f:
            existing = json.load(f)
    except (OSError, ValueError):
        existing = {}
    if isinstance(existing, dict):
        for key, value in existing.items():
            merged.setdefault(key, value)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
