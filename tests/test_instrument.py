"""Tests for GUID assignment, metadata files and the runtime tracer."""

import pytest

from repro.analysis import analyze_module
from repro.errors import Trap
from repro.instrument.guids import GuidMap, guid_for
from repro.instrument.passes import instrument_module, uninstrument_module
from repro.instrument.tracer import PMTrace
from repro.lang.compiler import compile_module
from repro.lang.interp import Machine
from repro.systems.memcached import MemcachedAdapter


def test_instrument_marks_exactly_pm_instrs(kv_module):
    res = analyze_module(kv_module)
    guid_map, seconds = instrument_module(kv_module, res.pm)
    # the map holds every PM instruction; all but the covered geps are
    # traced, and each covered gep resolves to traced carriers
    mapped = {i.iid for i in kv_module.instructions()
              if guid_map.guid_of(i.iid) is not None}
    assert mapped == res.pm.pm_instr_iids
    assert len(guid_map) == len(mapped)
    covered = {
        iid for iid in mapped
        if guid_map.carriers(iid) != (guid_map.guid_of(iid),)
    }
    assert covered
    assert all(kv_module.instr(iid).op == "gep" for iid in covered)
    traced = {i.iid for i in kv_module.instructions() if i.guid is not None}
    assert traced == mapped - covered
    for iid in covered:
        for carrier in guid_map.carriers(iid):
            assert guid_map.iid_of(carrier) in traced
    assert seconds >= 0


def test_gep_read_by_a_carrier_and_escaping_keeps_its_record():
    # PMLang reads an address temp twice only in `p.f += v` (load and
    # store, both carriers), so the IR is edited: the temp that the load
    # of p[1] reads also becomes peek's argument
    module = compile_module("esc", """
def peek(ptr):
    return ptr[0]

def main():
    p = pm_alloc(2)
    v = p[1]
    return peek(p) + v
""")
    main = list(module.functions["main"].instructions())
    gep = next(i for i in main if i.op == "gep")
    call = next(i for i in main if i.op == "call")
    call.args = (call.args[0], [gep.dst])
    guid_map, _ = instrument_module(module, analyze_module(module).pm)
    assert gep.guid is not None
    assert guid_map.carriers(gep.iid) == (gep.guid,)
    # peek's own gep is read by its load alone: covered
    peek_gep = next(
        i for i in module.functions["peek"].instructions() if i.op == "gep"
    )
    assert peek_gep.guid is None
    assert Machine(module).call("main") == 0


def test_guid_roundtrip(kv_module):
    res = analyze_module(kv_module)
    guid_map, _ = instrument_module(kv_module, res.pm)
    for instr in kv_module.instructions():
        if instr.guid is not None:
            assert guid_map.iid_of(instr.guid) == instr.iid
            assert guid_map.guid_of(instr.iid) == instr.guid
            entry = guid_map.entry(instr.guid)
            assert entry.op == instr.op
            assert entry.location == instr.location()


def test_metadata_file_roundtrip(kv_module, tmp_path):
    res = analyze_module(kv_module)
    guid_map, _ = instrument_module(kv_module, res.pm)
    path = tmp_path / "guids.json"
    guid_map.save(str(path))
    loaded = GuidMap.load(str(path))
    assert len(loaded) == len(guid_map)
    some = next(i for i in kv_module.instructions() if i.guid)
    assert loaded.iid_of(some.guid) == some.iid
    # the carriers round-trip: every instruction resolves to the same
    # GUIDs, covered geps included
    for instr in kv_module.instructions():
        assert loaded.carriers(instr.iid) == guid_map.carriers(instr.iid)
    assert any(
        guid_map.carriers(i.iid) not in ((), (i.guid,))
        for i in kv_module.instructions()
    )


def test_uninstrument_strips_guids(kv_module):
    res = analyze_module(kv_module)
    instrument_module(kv_module, res.pm)
    uninstrument_module(kv_module)
    assert all(i.guid is None for i in kv_module.instructions())
    # re-instrument for other tests sharing the session module
    instrument_module(kv_module, res.pm)


def test_trace_records_pm_addresses(kv_module):
    res = analyze_module(kv_module)
    instrument_module(kv_module, res.pm)
    trace = PMTrace(flush_threshold=4)
    machine = Machine(kv_module)
    machine.trace = trace
    root = machine.call("kv_init")
    machine.call("kv_put", root, 1, 10)
    machine.call("kv_get", root, 1)
    trace.flush()
    assert len(trace) > 0
    assert trace.pairs()
    assert trace.addresses_for_guid(guid_for("kv", next(
        i for i in kv_module.functions["kv_put"].instructions() if i.op == "alloc"
    )))


def test_trace_buffering_and_crash():
    trace = PMTrace(flush_threshold=100)
    trace.record("g1", 0x1000)
    assert trace.pairs() == []  # buffered: not in the index yet
    assert trace.addresses_for_guid("g1") == set()
    assert len(trace) == 1
    trace.crash()
    assert len(trace) == 0  # buffered records lost, like a real crash
    trace.record("g1", 0x1000)
    trace.record("g1", 0x2000)
    trace.flush()
    assert trace.addresses_for_guid("g1") == {0x1000, 0x2000}
    assert sorted(trace.pairs()) == [("g1", 0x1000), ("g1", 0x2000)]
    assert trace.addresses_for_guid("gX") == set()


def test_trace_auto_flush_at_threshold():
    trace = PMTrace(flush_threshold=2)
    trace.record("a", 1)
    trace.record("b", 2)  # hits the threshold
    assert sorted(trace.pairs()) == [("a", 1), ("b", 2)]
    assert trace.addresses_for_guid("b") == {2}
    assert len(trace) == 2


def test_trace_len_counts_every_record_the_index_keeps_distinct_pairs():
    trace = PMTrace(flush_threshold=100)
    for _ in range(3):
        trace.record("g1", 0x10)
    trace.flush()
    trace.record("g1", 0x10)
    assert len(trace) == 4  # repeats count...
    assert trace.pairs() == [("g1", 0x10)]  # ...the index holds one pair
    trace.crash()
    assert len(trace) == 3  # the buffered record is lost
    trace.extend([("g2", 0x20), ("g2", 0x20)])
    assert len(trace) == 5
    assert trace.addresses_for_guid("g2") == {0x20}
    # a rebase installs a source's pairs and carries on its count
    trace.load([("g3", 0x30)], emitted=9)
    assert len(trace) == 9
    assert trace.pairs() == [("g3", 0x30)]
    assert trace.addresses_for_guid("g1") == set()


def test_trace_capture_returns_exactly_the_records_since_its_mark():
    trace = PMTrace(flush_threshold=100)
    trace.record("g0", 1)
    outer = trace.mark()  # flushes g0 before the capture opens
    trace.record("g1", 2)
    inner = trace.mark()  # flushes g1 into the outer capture only
    trace.record("g2", 3)
    trace.record("g2", 3)
    trace.flush()
    assert trace.since(inner) == [("g2", 3), ("g2", 3)]
    trace.record("g3", 4)  # still buffered when the capture closes
    trace.extend([("g4", 5)])
    assert trace.since(outer) == [("g1", 2), ("g2", 3), ("g2", 3), ("g4", 5)]
    trace.flush()  # nothing is open: the index grows, no tail does
    assert not trace._captures
    assert len(trace) == 6
    assert trace.addresses_for_guid("g3") == {4}


def test_trace_capture_is_closed_when_the_guest_traps():
    adapter = MemcachedAdapter()
    adapter.start()
    for key in range(5):
        adapter.insert(key, key)
    touched = adapter.recover()
    assert touched
    root = adapter.root
    adapter.root = 10 ** 9  # a wild root: the recovery function segfaults
    with pytest.raises(Trap):
        adapter.recover()
    assert not adapter.trace._captures
    adapter.root = root
    assert adapter.recover() == touched
    assert not adapter.trace._captures
