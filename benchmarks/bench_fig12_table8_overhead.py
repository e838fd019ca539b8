"""Figure 12 + Table 8: runtime overhead of Arthas on the five systems.

Measures real interpreter throughput (ops/second of wall-clock) for each
system under: vanilla, Arthas (checkpoint + tracing), checkpoint only,
instrumentation only, and pmCRIU (periodic pool snapshots).

One timing of 1,200 ops scatters by about +-0.3 of vanilla between
back-to-back runs on a shared host, so every (system, configuration)
cell is timed in ``ROUNDS`` interleaved rounds.  Each round times every
system under every configuration, rotating the configuration order so
each one runs first in some round; a relative throughput is the median
over rounds of that round's ratio to vanilla, and Table 8 shows median
ops/s.

Expected shape (paper): Arthas costs single-digit percent, most of it
from checkpointing; the tracing instrumentation is nearly free; pmCRIU's
periodic snapshots cost less than eager checkpointing.
"""

import statistics
import time

from conftest import emit

from repro.baselines.pmcriu import PmCRIU
from repro.harness.report import render_table
from repro.systems import ALL_ADAPTERS
from repro.workloads.generators import Op, OpKind
from repro.workloads.ycsb import YCSBWorkload

SYSTEMS = ("memcached", "redis", "pelikan", "pmemkv", "cceh")

#: Redis/Memcached run the YCSB 50/50 mix; the others a custom
#: insert-heavy benchmark, as in the paper (Section 6.7)
YCSB_SYSTEMS = {"memcached", "redis"}
RUN_OPS = 1200
KEYSPACE = 192
SNAPSHOT_EVERY_OPS = 120  # one simulated minute of traffic
ROUNDS = 5

#: configuration -> (tracing, checkpoint, pmCRIU snapshots)
CONFIGS = {
    "vanilla": (False, False, False),
    "arthas": (True, True, False),
    "ckpt_only": (False, True, False),
    "instr_only": (True, False, False),
    "pmcriu": (False, False, True),
}


def _workload_ops(system):
    wl = YCSBWorkload(seed=11, keyspace=KEYSPACE,
                      read_ratio=0.5 if system in YCSB_SYSTEMS else 0.0)
    return list(wl.load_ops()), list(wl.run_ops(RUN_OPS))


def _throughput(system, tracing, checkpoint, snapshots=False):
    adapter_cls = ALL_ADAPTERS[system]
    adapter = adapter_cls(
        seed=0, with_tracing=tracing, with_checkpoint=checkpoint,
        pool_words=1 << 17,
    )
    adapter.start()
    load, run = _workload_ops(system)
    for op in load:
        adapter.insert(op.key, op.value)
    criu = PmCRIU(adapter.pool, adapter.allocator) if snapshots else None
    start = time.perf_counter()
    for i, op in enumerate(run):
        if criu is not None and i % SNAPSHOT_EVERY_OPS == 0:
            criu.maybe_snapshot(float(i))
        if op.kind is OpKind.GET:
            adapter.lookup(op.key)
        else:
            adapter.insert(op.key, op.value)
    elapsed = time.perf_counter() - start
    return len(run) / elapsed


def _interleaved_samples():
    """system -> configuration -> ops/s, one sample per round."""
    names = list(CONFIGS)
    samples = {s: {name: [] for name in names} for s in SYSTEMS}
    for r in range(ROUNDS):
        order = names[r % len(names):] + names[:r % len(names)]
        for system in SYSTEMS:
            for name in order:
                samples[system][name].append(
                    _throughput(system, *CONFIGS[name])
                )
    return samples


def _median_ratio(cells, name):
    """Median over rounds of ``name``'s throughput relative to the same
    round's vanilla."""
    return statistics.median(
        x / v for x, v in zip(cells[name], cells["vanilla"])
    )


def test_fig12_table8_overhead(benchmark):
    benchmark.pedantic(
        lambda: _throughput("pmemkv", False, False), rounds=1, iterations=1
    )
    samples = _interleaved_samples()
    fig_rows = []
    table_rows = []
    for system in SYSTEMS:
        cells = samples[system]
        ops = {name: statistics.median(xs) for name, xs in cells.items()}
        fig_rows.append([
            system,
            f"{ops['vanilla']:.0f}",
            f"{_median_ratio(cells, 'arthas'):.3f}",
            f"{_median_ratio(cells, 'pmcriu'):.3f}",
        ])
        table_rows.append([
            system,
            f"{ops['vanilla']:.0f}",
            f"{ops['ckpt_only']:.0f}",
            f"{ops['instr_only']:.0f}",
            f"{ops['arthas']:.0f}",
        ])
    emit(render_table(
        "Figure 12: system throughput relative to vanilla "
        f"(interpreter ops/s, wall clock, median of {ROUNDS} rounds)",
        ["system", "vanilla ops/s", "w/ Arthas (rel)", "w/ pmCRIU (rel)"],
        fig_rows,
        note="relative throughput close to 1.0 = low overhead",
    ))
    emit(render_table(
        "Table 8: throughput with checkpointing vs instrumentation alone "
        f"(median ops/s of {ROUNDS} rounds)",
        ["system", "vanilla", "w/ checkpoint", "w/ instrumentation",
         "w/ both (Arthas)"],
        table_rows,
    ))
    for row in fig_rows:
        rel_arthas = float(row[2])
        rel_pmcriu = float(row[3])
        assert rel_arthas > 0.35, f"{row[0]}: Arthas overhead implausibly high"
        # the paper's ordering: periodic coarse snapshots cost less at
        # runtime than eager fine-grained checkpointing + tracing.  (The
        # absolute gap is larger here because per-instruction Python
        # hooks are far more expensive than the paper's inlined C
        # tracing; see EXPERIMENTS.md.)
        assert rel_pmcriu > rel_arthas - 0.05, (
            f"{row[0]}: pmCRIU should not cost more than Arthas"
        )
