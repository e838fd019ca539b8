"""Table 2: the 12 reproduced persistent faults.

Lists the reproduction registry and times one representative end-to-end
fault trigger (f4's append overflow) as the benchmark unit.
"""

from conftest import emit

from repro.errors import Trap
from repro.faults.registry import scenarios_by_family
from repro.harness.report import render_table
from repro.systems.memcached import MemcachedAdapter


def test_table2_fault_registry(benchmark):
    def trigger_f4():
        adapter = MemcachedAdapter()
        adapter.start()
        for k in range(30):
            adapter.insert(k, 900_000_000 + k)
        adapter.append(3, 257, 987_654_321)
        crashed = False
        try:
            for k in range(30):
                adapter.lookup(k)
        except Trap:
            crashed = True
        return crashed

    assert benchmark(trigger_f4)
    # the registry also holds the fuzzer's families (f13+); Table 2 is
    # the paper's own twelve
    rows = [
        [s.fid, s.system, s.fault, s.consequence]
        for s in scenarios_by_family()["table2"]
    ]
    emit(render_table(
        "Table 2: persistent faults reproduced for evaluation",
        ["No.", "System", "Fault", "Consequence"],
        rows,
    ))
    assert len(rows) == 12
