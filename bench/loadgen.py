"""One workload of the end-to-end cluster bench, run in this process.

``bench/run.py`` starts one of these per workload run, and one per
extra set-up sample, so set-up time, peak RSS and GC state belong to a
single workload.  The last stdout line is one JSON object::

    python3 bench/loadgen.py --workload ycsb_a --seed 1 --seconds 10 \
        [--trace 0|1] [--setup-only] [--t0 MONOTONIC] [--spans PATH]

Every workload shares one set-up: a 3-node memcached cluster at
replication 2 on the default delta engine (group commit of 8), two
logical clients alternated from one thread, GC left on, and the guest's
own persist/fence calls as the flush policy.  The op list is generated
from ``--seed`` before timing starts; the cluster only sees those ops.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from oracle import Oracle, causal_cut_ok
from repro.detector.monitor import Detector, RunOutcome
from repro.detector.signature import FailureSignature
from repro.distributed.cluster import Cluster, ClusterClient, ShardUnavailable
from repro.distributed.shardmgr import ShardManager
from repro.errors import Trap
from repro.faults.registry import scenario_by_id
from repro.harness.cluster_sweep import POST_TRIGGER_OPS, target_shard
from repro.harness.experiment import ExperimentContext
from repro.harness.simclock import SimClock
from repro.reactor.server import WorkerGate
from repro.workloads.generators import VALUE_BASE, MixedWorkload
from repro.workloads.ycsb import zipf_keys

N_NODES = 3
N_CLIENTS = 2
REPLICATION = 2
#: ring placement and node seeds are configuration, not input: --seed
#: varies only the generated ops
CLUSTER_SEED = 0
ZIPF_THETA = 0.99
#: open-loop arrival rate of the heal workloads: about 1/6 of ycsb_a's
#: closed-loop capacity, so heal stalls show without queueing collapse
OPEN_RATE = 1000.0
#: the heal workloads wedge their shard this far into the stream
#: (op 1 500 of a 10 s, 10 000-op stream)
TRIGGER_SHARE = 0.15
#: closed loops run a fixed op count, ``--seconds`` times these rates
#: (their capacity on the 2-vCPU reference box), so every run does the
#: same work — heap growth, GC and peak RSS do not depend on host speed
CLOSED_OPS_PER_S = {"ycsb": 6_000, "churn": 4_000}
#: preloaded values sit apart from the per-op values ``VALUE_BASE + i``,
#: so a stale read never matches by accident
PRELOAD_BASE = VALUE_BASE + 100_000_000
#: node-local keys of the post-trigger burst, outside the cluster keyspace
BURST_KEY_BASE = 2_000_000
#: the host-speed kernel runs between ops once per this many seconds
HOST_EVERY = 0.010
#: kernel runs per second on the reference box; it only sets the scale
#: of the corrected timings, and a comparison of two runs divides it out
HOST_NOMINAL = 12_000.0

GET, SET, DEL = 0, 1, 2
Op = Tuple[int, int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    #: keys preloaded before timing (the pool holds 65 536 words; an
    #: item takes 11)
    keys: int
    mix: str  # "ycsb" or "churn"
    #: heal workloads: the fault scenario that wedges one shard
    fault: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("ycsb_a", 1000, "ycsb"),
        Workload("churn", 2000, "churn"),
        Workload("heal_f1", 1000, "ycsb", "f1"),
        Workload("heal_f2", 1000, "ycsb", "f2"),
    )
}


# ----------------------------------------------------------------------
# op generation
# ----------------------------------------------------------------------
def ycsb_ops(n: int, keys: int, seed: int) -> List[Op]:
    """YCSB-A: 50% reads, 50% updates, zipfian over the preloaded keys."""
    mix = random.Random(seed * 2 + 1)
    return [
        (GET, key, 0) if mix.random() < 0.5 else (SET, key, VALUE_BASE + i)
        for i, key in enumerate(zipf_keys(n, keys, ZIPF_THETA, seed))
    ]


def churn_ops(n: int, keys: int, seed: int) -> List[Op]:
    """45% inserts of fresh keys, 45% deletes of a random live key, 10%
    reads of a random live key — uniform over the live set."""
    rng = random.Random(seed)
    live = list(range(keys))
    fresh = keys
    ops: List[Op] = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.45 or not live:
            ops.append((SET, fresh, VALUE_BASE + i))
            live.append(fresh)
            fresh += 1
        elif roll < 0.90:
            j = rng.randrange(len(live))
            ops.append((DEL, live[j], 0))
            live[j] = live[-1]
            live.pop()
        else:
            ops.append((GET, live[rng.randrange(len(live))], 0))
    return ops


def generate(workload: Workload, seed: int, seconds: float) -> List[Op]:
    if workload.fault:
        n = int(OPEN_RATE * seconds)
    else:
        n = int(CLOSED_OPS_PER_S[workload.mix] * seconds)
    make = ycsb_ops if workload.mix == "ycsb" else churn_ops
    return make(n, workload.keys, seed)


# ----------------------------------------------------------------------
# set-up and serving
# ----------------------------------------------------------------------
class HostSpeed:
    """The rate of a fixed pure-Python kernel, sampled between ops.

    The reference box's host speed drifts by tens of percent within
    minutes, far more than the changes this bench must resolve.  Timings
    are reported scaled by ``factor`` (the kernel's rate over its
    nominal rate), which cancels a slowdown the kernel and the system
    share.  The kernel only rewrites a preallocated dict of small ints:
    it allocates nothing the GC tracks, so it never absorbs a collection.
    """

    def __init__(self) -> None:
        self._table = dict.fromkeys(range(256), 0)
        self.runs = 0
        self.seconds = 0.0
        self._next = 0.0

    def _kernel(self) -> None:
        table = self._table
        for i in range(1000):
            k = i & 255
            table[k] = table[k] ^ i

    def sample(self, now: float, before: float = float("inf")) -> float:
        """Run the kernel if a sample is due and (at its mean duration)
        ends well before ``before``; returns the time after."""
        if now < self._next:
            return now
        if self.runs and before - now < 2 * self.seconds / self.runs:
            return now
        self._kernel()
        end = time.perf_counter()
        self.runs += 1
        self.seconds += end - now
        self._next = end + HOST_EVERY
        return end

    @property
    def factor(self) -> float:
        if not self.runs:
            return 1.0
        return self.runs / self.seconds / HOST_NOMINAL


def build(workload: Workload,
          host: HostSpeed) -> Tuple[Cluster, List[ClusterClient], Oracle]:
    cluster = Cluster(
        n_nodes=N_NODES, n_clients=N_CLIENTS, seed=CLUSTER_SEED,
        replication=REPLICATION,
    )
    clients = [ClusterClient(cluster, i) for i in range(N_CLIENTS)]
    oracle = Oracle()
    for key in range(workload.keys):
        value = PRELOAD_BASE + key
        clients[key % N_CLIENTS].insert(key, value)
        oracle.acked_insert(key, value)
        host.sample(time.perf_counter())
    cluster.drain()
    gc.collect()
    return cluster, clients, oracle


class Server:
    """Serves generated ops through the cluster clients, checking reads."""

    def __init__(self, clients, oracle: Oracle, tracer=None):
        self.clients = clients
        self.oracle = oracle
        self.tracer = tracer
        self.failed = 0
        #: per served op: (start, latency, is_read, lateness)
        self.samples: List[Tuple[float, float, bool, float]] = []

    def serve(self, i: int, op: Op, start: float) -> None:
        """``start`` is the op's due time (open loop) or issue time."""
        if self.tracer is not None:
            self.tracer.request(i)
        code, key, value = op
        client = self.clients[i & 1]
        issued = time.perf_counter()
        got = None
        try:
            if code == GET:
                got = client.lookup(key)
            elif code == SET:
                client.insert(key, value)
                self.oracle.acked_insert(key, value)
            else:
                client.delete(key)
                self.oracle.acked_delete(key)
        except (ShardUnavailable, Trap):
            self.failed += 1
        done = time.perf_counter()
        self.samples.append((start, done - start, code == GET, issued - start))
        if got is not None:
            self.oracle.check_read(key, got, f"op {i}")


def run_closed(server: Server, ops: List[Op], host: HostSpeed) -> float:
    """Closed loop: the next op is sent when the previous one returns.
    Returns wall seconds."""
    perf = time.perf_counter
    t_start = perf()
    for i, op in enumerate(ops):
        server.serve(i, op, host.sample(perf()))
    return perf() - t_start


class Heal:
    """One shard's fault and heal, driven the way ``cluster_sweep``'s
    promoted mode does it, with the stream served during mitigation.

    trigger -> node-local burst -> detect -> confirm (restart + observe)
    -> note_verdict -> promote -> mitigate on a worker thread behind a
    ``WorkerGate`` -> rebuild -> cascade -> resync (handoff + compaction).
    No cluster request is served between the trigger and the promote: a
    wedged primary that is still up would ship its diverged state.
    """

    def __init__(self, cluster: Cluster, oracle: Oracle, fid: str, seed: int):
        self.cluster = cluster
        self.oracle = oracle
        self.scenario = scenario_by_id(fid)
        self.target = target_shard(fid)
        self.seed = seed
        self.started = False
        self.t_trigger = 0.0
        self.t_done = 0.0
        #: phase -> wall seconds
        self.phases: Dict[str, float] = {}
        #: serving-side waits for the mitigation worker, one per chunk
        self.chunks: List[float] = []
        self.manifested = False
        self.recovered = False
        self.recovered_by = ""
        self.demoted = False
        self.lost_writes = 0
        #: oplog length when the cascade settled: the causal cut is
        #: checked over these ops (later ops carry client clocks that
        #: absorbed the discarded ops, whatever they read)
        self.cut_ops: Optional[int] = None

    def in_window(self, due: float) -> bool:
        """Whether an op due at ``due`` falls between trigger and handoff."""
        return self.t_trigger <= due <= self.t_done

    def run(self, serve_due) -> None:
        perf = time.perf_counter
        self.started = True
        self.t_trigger = mark = perf()

        def phase(name: str) -> None:
            nonlocal mark
            now = perf()
            self.phases[name] = now - mark
            mark = now

        cluster, scenario, target = self.cluster, self.scenario, self.target
        node = cluster.nodes[target]
        ctx = ExperimentContext(node, scenario, self.seed)
        ctx.oracle = cluster.oracles[target]
        scenario.trigger(ctx)
        burst = MixedWorkload(
            seed=self.seed * 31 + 7,
            insert_ratio=scenario.post_mix[0],
            get_ratio=scenario.post_mix[1],
            exclude=lambda k: scenario.exclude_key(ctx, k),
        )
        burst._next_key = BURST_KEY_BASE
        detector = Detector()
        try:
            for op in burst.ops(POST_TRIGGER_OPS):
                scenario.apply_op(ctx, op)
        except Trap:
            fault = node.machine.last_fault
            sig = FailureSignature.from_fault(fault)
            detector.history.append(sig)
            outcome = RunOutcome(ok=False, fault=fault, signature=sig)
        else:
            outcome = detector.observe(
                node.machine, lambda: scenario.manifest(ctx)
            )
        if outcome.ok:
            self.t_done = perf()
            return  # did not manifest: reported as a failed heal
        self.manifested = True
        node.restart()
        detector.observe(
            node.machine, lambda: (node.recover(), scenario.manifest(ctx))
        )
        mgr = ShardManager(cluster, solution="arthas", seed=self.seed)
        mgr.note_verdict(target)
        mclock = SimClock()
        phase("detect")
        mgr.promote(target, clock=mclock)
        phase("promote")
        run = self._mitigate(mgr, ctx, outcome, detector, mclock, serve_due)
        phase("mitigate")
        serve_due()
        mark = perf()
        rebuilt = mgr.rebuild(target)
        phase("rebuild")
        self.recovered = run.recovered or rebuilt
        self.recovered_by = "rebuild" if rebuilt else (
            (run.ladder or {}).get("recovered_by") or ""
        )
        if self.recovered:
            serve_due()
            mark = perf()
            discarded, cascaded, _rounds = mgr.cascade(target, run)
            phase("cascade")
            self.lost_writes = len(discarded) + len(cascaded)
            self.cut_ops = len(cluster.oplog)
            self.oracle.rebuild(cluster.oplog)
            serve_due()
            mark = perf()
            self.demoted = mgr.resync(target, clock=mclock).demoted
            phase("resync")
        self.t_done = perf()

    def _mitigate(self, mgr, ctx, outcome, detector, mclock, serve_due):
        """Mitigate on a worker thread; serve every due op at each park."""
        gate = WorkerGate()
        box: Dict[str, object] = {}

        def work() -> None:
            try:
                box["run"] = mgr.mitigate(
                    self.target, ctx, self.scenario, outcome, detector,
                    gate=gate, mclock=mclock,
                )
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                box["error"] = exc
            finally:
                box["done"] = True
                gate.checkpoint()  # hand the last turn back to the server

        worker = threading.Thread(target=work, name="mitigate")
        worker.start()
        while True:
            t0 = time.perf_counter()
            gate.wait_parked()
            self.chunks.append(time.perf_counter() - t0)
            serve_due()
            if box.get("done"):
                gate.close()
                break
            gate.resume()
        worker.join()
        if "error" in box:
            raise box["error"]
        return box["run"]


def run_open(server: Server, ops: List[Op], heal: Heal,
             host: HostSpeed) -> Tuple[float, float]:
    """Open loop at ``OPEN_RATE``; the heal starts when its trigger op is
    due.  Host-speed samples fill idle gaps they fit in.  Returns (wall
    seconds, seconds slept waiting for due ops)."""
    perf = time.perf_counter
    period = 1.0 / OPEN_RATE
    trigger_at = int(len(ops) * TRIGGER_SHARE)
    t_start = perf()
    idle = 0.0
    nxt = 0

    def serve_due() -> None:
        nonlocal nxt
        host.sample(perf())  # heal turns: keep sampling the host's speed
        while nxt < len(ops) and t_start + nxt * period <= perf():
            server.serve(nxt, ops[nxt], t_start + nxt * period)
            nxt += 1

    while nxt < len(ops) or not heal.started:
        due = t_start + nxt * period
        now = host.sample(perf(), due)
        if now < due:
            time.sleep(due - now)
            idle += perf() - now
        if nxt >= trigger_at and not heal.started:
            if server.tracer is None:
                heal.run(serve_due)
            else:
                with server.tracer.heal():
                    heal.run(serve_due)
            continue
        server.serve(nxt, ops[nxt], due)
        nxt += 1
    return perf() - t_start, idle


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.999999) - 1))
    return ordered[rank]


def latency_metrics(samples, steady, speed: float) -> Dict[str, List]:
    """Medians over ops due outside any heal window (``steady``), so a
    heal that covers half the stream cannot flip which regime the median
    samples; tails over every op, so heal stalls show there.  Scaled by
    the host ``speed`` factor."""
    ms = 1e3 * speed
    out: Dict[str, List] = {}
    for kind, is_read in (("read", True), ("write", False)):
        every = [s[1] for s in samples if s[2] is is_read]
        calm = [s[1] for s in steady if s[2] is is_read]
        out[f"{kind}_p50_ms"] = [ms * percentile(calm, 0.50), "ms"]
        out[f"{kind}_p99_ms"] = [ms * percentile(every, 0.99), "ms"]
        out[f"{kind}_p999_ms"] = [ms * percentile(every, 0.999), "ms"]
    return out


def heal_metrics(server: Server, heal: Heal, steady,
                 speed: float) -> Dict[str, List]:
    ms = 1e3 * speed
    window = [s for s in server.samples if heal.in_window(s[0])]
    return {
        "time_to_heal_s": [speed * (heal.t_done - heal.t_trigger), "s"],
        "steady_p99_ms": [ms * percentile([s[1] for s in steady], 0.99), "ms"],
        "heal_p50_ms": [ms * percentile([s[1] for s in window], 0.50), "ms"],
        "heal_p99_ms": [ms * percentile([s[1] for s in window], 0.99), "ms"],
        "heal_window_ops": [len(window), "count"],
        "lost_writes": [heal.lost_writes, "count"],
        "loadgen.late_p99_ms": [
            1e3 * percentile([s[3] for s in steady], 0.99), "ms"],
    }


def layer_metrics(tracer, wall: float, idle: float, host_s: float, ops: int,
                  writes: int, trace_records: int,
                  heal: Optional[Heal]) -> Dict[str, List]:
    from layers import CLOSURE_LIMIT

    calls, counts = tracer.calls, tracer.counts
    per_write = max(1, writes)
    rows = tracer.budget(wall, idle, host_s)
    out: Dict[str, List] = {}
    for layer, seconds in rows.items():
        if layer not in ("gc", "tracer", "idle", "host", "unaccounted"):
            out[f"{layer}.self_s"] = [seconds, "s"]
    attempts = counts["revert.attempts"]
    out.update({
        "ring.calls": [calls["ring"], "count"],
        "ship.deltas": [counts["ship.deltas"], "count"],
        "ship.deltas_per_round": [
            counts["ship.drained"] / max(1, counts["ship.rounds"]), "count"],
        "ship.words_per_write": [counts["ship.words"] / per_write, "count"],
        "vm.calls": [calls["vm"], "count"],
        "vm.steps_per_op": [counts["vm.steps"] / max(1, ops), "count"],
        "pool.fences_per_write": [counts["pool.fences"] / per_write, "count"],
        "pool.persisted_words_per_write": [
            counts["pool.persisted_words"] / per_write, "count"],
        "alloc.calls": [calls["alloc"], "count"],
        "ckpt.records_per_write": [calls["ckpt.record"] / per_write, "count"],
        "ckpt.merge.calls": [calls["ckpt.merge"], "count"],
        "trace.records_per_write": [trace_records / per_write, "count"],
        "gc.pause_s": [tracer.gc_pause_s, "s"],
        "gc.max_pause_ms": [1e3 * tracer.gc_max_pause_s, "ms"],
        "gc.gen2_collections": [tracer.gc_gen2, "count"],
        "detect.calls": [calls["detect"], "count"],
        "detect.steps": [counts["detect.steps"], "count"],
        "plan.calls": [calls["plan"], "count"],
        "plan.candidates": [counts["plan.candidates"], "count"],
        "revert.attempts": [attempts, "count"],
        "revert.useful_ratio": [
            counts["revert.recovered"] / attempts if attempts else 0.0, "ratio"],
        "revert.reexec_s": [counts["revert.reexec_s"], "s"],
        "cascade.discarded_ops": [counts["cascade.discarded_ops"], "count"],
        "cascade.cascaded_ops": [counts["cascade.cascaded_ops"], "count"],
        "cascade.rounds": [counts["cascade.rounds"], "count"],
        "rebase.credited_ops": [counts["rebase.credited_ops"], "count"],
        "compact.deltas_folded": [counts["compact.deltas_folded"], "count"],
        "heal.gate_wait_s": [tracer.parked_s, "s"],
        "idle_s": [idle, "s"],
        "host_s": [host_s, "s"],
        "tracer_s": [rows["tracer"], "s"],
        "unaccounted_s": [rows["unaccounted"], "s"],
        "budget_closes": [abs(rows["unaccounted"]) <= CLOSURE_LIMIT * wall, "bool"],
    })
    for name in ("detect", "promote", "mitigate", "rebuild", "cascade", "resync"):
        out[f"heal.{name}_s"] = [heal.phases.get(name, 0.0) if heal else 0.0, "s"]
    out["heal.chunk_max_ms"] = [
        1e3 * max(heal.chunks) if heal and heal.chunks else 0.0, "ms"]
    return out


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build and preload, report setup_s, exit")
    ap.add_argument("--t0", type=float, default=None,
                    help="time.monotonic() at process launch (set-up start)")
    ap.add_argument("--spans", default=None,
                    help="traced runs: write sampled span records here")
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    workload = WORKLOADS[args.workload]

    gen_start = time.monotonic()
    ops = [] if args.setup_only else generate(workload, args.seed, args.seconds)
    gen_s = time.monotonic() - gen_start

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    setup_host = HostSpeed()
    cluster, clients, oracle = build(workload, setup_host)
    setup_s = time.monotonic() - t0 - gen_s - setup_host.seconds
    result: Dict[str, object] = {"workload": workload.name, "seed": args.seed}
    metrics: Dict[str, List] = {
        "setup_s": [setup_s * setup_host.factor, "s"]}
    result["metrics"] = metrics
    if args.setup_only:
        print(json.dumps(result))
        return 0

    server = Server(clients, oracle, tracer)
    heal = Heal(cluster, oracle, workload.fault, args.seed) if workload.fault else None
    traces = [(node.trace, len(node.trace)) for node in cluster.nodes]
    if tracer is not None:
        tracer.active = True
    host = HostSpeed()
    idle = 0.0
    if heal is None:
        wall = run_closed(server, ops, host)
    else:
        wall, idle = run_open(server, ops, heal, host)
    if tracer is not None:
        tracer.active = False

    served = len(server.samples)
    writes = sum(1 for s in server.samples if not s[2])
    speed = host.factor
    metrics["wall_s"] = [wall, "s"]
    metrics["host_speed"] = [speed, "ratio"]
    # closed loops: ops per second of serving (host samples excluded),
    # host-corrected; open loops: the served rate, which the schedule sets
    metrics["throughput_ops_s"] = [
        served / (wall - host.seconds) / speed if heal is None
        else served / wall, "ops/s"]
    steady = server.samples if heal is None else [
        s for s in server.samples if not heal.in_window(s[0])]
    metrics.update(latency_metrics(server.samples, steady, speed))
    if heal is not None:
        metrics.update(heal_metrics(server, heal, steady, speed))
        result.update({
            "manifested": heal.manifested, "recovered": heal.recovered,
            "recovered_by": heal.recovered_by, "demoted": heal.demoted,
            "phases": heal.phases,
        })
    if tracer is not None:
        # PM-address records appended on every node (primary records plus
        # replica extends); a trace replaced or rewound by a rebase is skipped
        records = sum(
            len(trace) - start for trace, start in traces
            if any(node.trace is trace for node in cluster.nodes)
            and len(trace) >= start
        )
        metrics.update(layer_metrics(
            tracer, wall, idle, host.seconds, served, writes, records, heal))
        if args.spans:
            tracer.write_spans(args.spans)

    swept = oracle.sweep(clients[0].lookup)
    cut_ok = causal_cut_ok(cluster.oplog[:heal.cut_ops if heal else None])
    heal_ok = heal is None or (heal.manifested and heal.recovered and heal.demoted)
    attempted = served + swept
    failed = server.failed + oracle.wrong
    metrics["error_rate"] = [failed / attempted, "ratio"]
    metrics["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"]
    result.update({
        "attempted": attempted,
        "failed": failed,
        "wrong": oracle.wrong,
        "mismatches": oracle.mismatches,
        "causal_cut_ok": cut_ok,
        "heal_ok": heal_ok,
        "correct": failed == 0 and cut_ok and heal_ok,
        "wall_s": wall,
        # host-corrected serving and heal work, for the tracing overhead
        "busy_s": (wall - idle - host.seconds) * speed,
        "served": served,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
