"""Per-layer time budget for the traced bench run.

Wraps the public entry points of each layer, from bench code only: each
name is patched where callers look it up (class attributes, and module
globals imported by name), inside the traced child process, before any
node is built.  Nothing under ``src/`` changes.

Accounting, per thread:

* a span's *self* time is its duration minus its child spans, minus time
  parked in ``WorkerGate.checkpoint``, minus GC pauses;
* GC pauses (``gc.callbacks``) are charged to the ``gc`` row;
* the wrappers' own bookkeeping is charged to the ``tracer`` row: the
  part between clock reads as measured, plus the call into and out of
  the wrapper, which no clock read sees, as a per-span cost calibrated
  at install time;
* a call into a layer from inside the same layer folds into the outer
  span (``persist`` -> ``flush``/``fence``, ``replica_set`` ->
  ``primary_for``), so nothing is counted twice.

With the bench's ``idle`` (open-loop sleeps), the rows sum to the
measured wall time up to ``unaccounted`` — the bench loop itself.  Only
one thread runs at a time (the ``WorkerGate`` turnstile alternates the
serving thread and the mitigation worker), so the two threads' rows
add up to wall time too.

Full span records (layer, start, end, parent, request id, thread) are
kept for every ``RECORD_EVERY``-th request and for every span of a heal,
except the per-record layers (``UNRECORDED``), and written out at exit.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.checkpoint.log import CheckpointLog
from repro.detector.monitor import Detector
from repro.distributed.cluster import Cluster
from repro.distributed.recovery import DistributedReactor
from repro.distributed.ring import HashRing
from repro.distributed.shardmgr import ShardManager
from repro.instrument.tracer import PMTrace
from repro.lang.interp import Machine
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PMPool
from repro.reactor import plan as plan_module
from repro.reactor import server as server_module
from repro.reactor.revert import Reverter
from repro.reactor.server import WorkerGate

RECORD_EVERY = 100

#: layers whose spans are too frequent (per record or per word range)
#: to keep as full records; they are still timed and counted
UNRECORDED = frozenset(
    {"ring", "pool", "alloc", "ckpt.record", "ckpt.replay", "trace"}
)

#: budget closure tolerance: |unaccounted| as a share of wall time
CLOSURE_LIMIT = 0.05


def _count(name: str, fn: Callable) -> Callable:
    def after(tracer: "LayerTracer", args, result, dur: float) -> None:
        tracer.counts[name] += fn(args, result)
    return after


def _targets() -> List[Tuple[object, str, str, Optional[tuple], Optional[Callable]]]:
    """(owner, attribute, layer, probe, after) for every wrapped name.

    ``probe`` is ``(counter, fn(args) -> number)``, read before and after
    the call; ``after(tracer, args, result, seconds)`` runs on success.
    """
    steps = ("vm.steps", lambda a: a[0].steps_executed)
    words = ("pool.persisted_words", lambda a: a[0].stats["persisted_words"])
    detect_steps = ("detect.steps", lambda a: a[1].steps_executed)
    one = lambda a, r: 1  # noqa: E731
    reverted = _count("revert.attempts", lambda a, r: r.attempts)

    def revert_after(tracer, args, result, dur) -> None:
        reverted(tracer, args, result, dur)
        tracer.counts["revert.recovered"] += int(result.recovered)

    def detect_after(tracer, args, result, dur) -> None:
        # the reverter's re-executions are detector-observed runs
        if tracer.in_layer("revert"):
            tracer.counts["revert.reexec_s"] += dur

    def cascade_after(tracer, args, result, dur) -> None:
        discarded, cascaded, rounds = result
        tracer.counts["cascade.discarded_ops"] += len(discarded)
        tracer.counts["cascade.cascaded_ops"] += len(cascaded)
        tracer.counts["cascade.rounds"] += rounds

    def drain_after(tracer, args, result, dur) -> None:
        tracer.counts["ship.drained"] += result
        tracer.counts["ship.rounds"] += int(result > 0)

    def apply_after(tracer, args, result, dur) -> None:
        tracer.counts["ship.deltas"] += 1
        tracer.counts["ship.words"] += len(args[1])

    targets = [
        (HashRing, "primary_for", "ring", None, None),
        (HashRing, "replica_set", "ring", None, None),
        (HashRing, "preference_list", "ring", None, None),
        (Cluster, "insert", "cluster.op", None, None),
        (Cluster, "delete", "cluster.op", None, None),
        (Cluster, "lookup", "cluster.op", None, None),
        (Cluster, "drain", "ship", None, drain_after),
        (PMPool, "apply_words", "ship", None, apply_after),
        (CheckpointLog, "replay_record", "ckpt.replay", None, None),
        (Machine, "call", "vm", steps, None),
        (PMPool, "flush", "pool", None, None),
        (PMPool, "fence", "pool", words, _count("pool.fences", one)),
        (PMPool, "persist", "pool", None, None),
        (CheckpointLog, "flush_staging", "ckpt.merge", None, None),
        (CheckpointLog, "_flush_staging", "ckpt.merge", None, None),
        # PMTrace.record, a per-instruction list append, is left unwrapped:
        # the wrapper would cost ten times the work it times, so appends
        # stay in the vm row and only the batch paths are timed here
        (PMTrace, "flush", "trace", None, None),
        (PMTrace, "extend", "trace", None, None),
        (PMTrace, "load", "trace", None, None),
        (Detector, "observe", "detect", detect_steps, detect_after),
        (plan_module, "compute_plan", "plan", None,
         _count("plan.candidates", lambda a, r: len(r.candidates))),
        (server_module, "compute_plan", "plan", None,
         _count("plan.candidates", lambda a, r: len(r.candidates))),
        (Reverter, "mitigate_purge", "revert", None, revert_after),
        (Reverter, "mitigate_rollback", "revert", None, revert_after),
        (Reverter, "mitigate_bisect", "revert", None, revert_after),
        (DistributedReactor, "cascade_from", "cascade", None, cascade_after),
        (Cluster, "rebase_node", "rebase", None,
         _count("rebase.credited_ops", lambda a, r: r[0])),
        (Cluster, "compact", "compact", None,
         _count("compact.deltas_folded", lambda a, r: r)),
    ]
    for name in ("promote", "mitigate", "rebuild", "cascade", "resync"):
        targets.append((ShardManager, name, "heal", None, None))
    for name in ("zalloc", "free", "realloc", "unfree",
                 "replay_alloc", "replay_free"):
        targets.append((PMAllocator, name, "alloc", None, None))
    for name in ("record_update", "record_alloc", "record_free",
                 "record_tx_begin", "record_tx_commit", "link_realloc"):
        targets.append((CheckpointLog, name, "ckpt.record", None, None))
    return targets


class LayerTracer:
    """Online per-layer self time, call counts and sampled span records."""

    def __init__(self) -> None:
        self.active = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.overhead_s = 0.0
        self.gc_pause_s = 0.0
        self.gc_max_pause_s = 0.0
        self.gc_gen2 = 0
        self.parked_s = 0.0
        #: current request id, and whether its (or a heal's) spans are
        #: kept as full records
        self.request_id = -1
        self.keep = False
        self._healing = False
        self.records: List[tuple] = []
        self._local = threading.local()
        self._gc_start = 0.0
        #: per-span wrapper cost outside the clock reads (calibrated)
        self.call_cost = 0.0

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def request(self, rid: int) -> None:
        """The bench loop starts request ``rid``."""
        self.request_id = rid
        self.keep = self._healing or rid % RECORD_EVERY == 0

    @contextmanager
    def heal(self):
        """Keep every span record while a heal runs."""
        self._healing = self.keep = True
        try:
            yield
        finally:
            self._healing = False

    def in_layer(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack())

    def install(self) -> None:
        """Patch every target and hook the GC; call before building nodes."""
        self._calibrate()
        for owner, attr, layer, probe, after in _targets():
            setattr(owner, attr,
                    self._wrap(getattr(owner, attr), layer, probe, after))
        WorkerGate.checkpoint = self._wrap_parked(WorkerGate.checkpoint)
        gc.callbacks.append(self._on_gc)

    # ------------------------------------------------------------------
    def _wrap(self, fn, layer: str, probe, after):
        tracer = self
        perf = time.perf_counter
        record = layer not in UNRECORDED
        probe_name, probe_fn = probe if probe is not None else (None, None)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            ta = perf()
            gc_a = tracer.gc_pause_s
            stack = tracer._stack()
            if stack and stack[-1][0] == layer:
                # re-entrant call within the layer: the outer span owns it
                before = probe_fn(args) if probe_fn is not None else 0
                result = fn(*args, **kwargs)
                if probe_fn is not None:
                    tracer.counts[probe_name] += probe_fn(args) - before
                if after is not None:
                    after(tracer, args, result, 0.0)
                return result
            frame = [layer, 0.0]
            stack.append(frame)
            before = probe_fn(args) if probe_fn is not None else 0
            ok = False
            gc_0 = tracer.gc_pause_s
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                gc_1 = tracer.gc_pause_s
                stack.pop()
                dur = t1 - t0
                tracer.self_s[layer] += dur - frame[1]
                tracer.calls[layer] += 1
                if probe_fn is not None:
                    tracer.counts[probe_name] += probe_fn(args) - before
                if ok and after is not None:
                    after(tracer, args, result, dur)
                if record and tracer.keep:
                    tracer.records.append((
                        layer, t0, t1, stack[-1][0] if stack else None,
                        tracer.request_id, threading.get_ident(),
                    ))
                tb = perf()
                # a collection during the bookkeeping itself was already
                # charged to gc and excluded from the parent by _on_gc
                gc_out = (gc_0 - gc_a) + (tracer.gc_pause_s - gc_1)
                tracer.overhead_s += (tb - ta) - dur - gc_out + tracer.call_cost
                if stack:
                    stack[-1][1] += tb - ta - gc_out + tracer.call_cost

        return traced

    def _calibrate(self, n: int = 20_000, rounds: int = 5) -> None:
        """Time a wrapped no-op against the bare no-op; what the wrapper
        adds beyond its own measured bookkeeping is the per-span cost of
        entering and leaving it.  Minimum over rounds: the least
        disturbed estimate."""
        def noop(*args):
            return None

        wrapped = self._wrap(noop, "calibrate", None, None)
        perf = time.perf_counter
        gc_was_enabled = gc.isenabled()
        gc.disable()
        self.active = True
        try:
            costs = []
            for _ in range(rounds):
                t = perf()
                for _ in range(n):
                    noop(1)
                bare = perf() - t
                measured = self.overhead_s
                t = perf()
                for _ in range(n):
                    wrapped(1)
                traced = perf() - t
                costs.append((traced - bare - (self.overhead_s - measured)) / n)
        finally:
            self.active = False
            if gc_was_enabled:
                gc.enable()
        self.call_cost = max(0.0, min(costs))
        self.overhead_s = 0.0
        self.self_s.pop("calibrate", None)
        self.calls.pop("calibrate", None)

    def _wrap_parked(self, fn):
        """Time a mitigation worker spends parked for the serving thread
        is excluded from its open spans (the serving side's spans cover
        that interval)."""
        tracer = self
        perf = time.perf_counter

        def parked(gate):
            if not tracer.active:
                return fn(gate)
            t0 = perf()
            try:
                return fn(gate)
            finally:
                waited = perf() - t0
                tracer.parked_s += waited
                stack = tracer._stack()
                if stack:
                    stack[-1][1] += waited

        return parked

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.gc_pause_s += pause
        self.gc_max_pause_s = max(self.gc_max_pause_s, pause)
        if info.get("generation") == 2:
            self.gc_gen2 += 1
        stack = self._stack()
        if stack:
            stack[-1][1] += pause

    # ------------------------------------------------------------------
    def budget(self, wall_s: float, idle_s: float,
               host_s: float) -> Dict[str, float]:
        """Layer self times plus gc, tracer, idle, host-speed samples and
        unaccounted rows."""
        rows = {layer: self.self_s.get(layer, 0.0)
                for layer in dict.fromkeys(t[2] for t in _targets())}
        rows["gc"] = self.gc_pause_s
        rows["tracer"] = self.overhead_s
        rows["idle"] = idle_s
        rows["host"] = host_s
        rows["unaccounted"] = wall_s - sum(rows.values())
        return rows

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for layer, t0, t1, parent, rid, thread in self.records:
                out.write(json.dumps({
                    "layer": layer, "start": t0, "end": t1, "parent": parent,
                    "request": rid, "thread": thread,
                }) + "\n")
