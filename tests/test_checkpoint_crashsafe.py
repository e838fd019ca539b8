"""Crash-safety of the checkpoint log and its on-disk region.

Covers the hardening added for the injection sweep: per-version
checksums, structural validation with a typed error, quarantine of
corrupt bytes, the self-verifying v2 region format with its torn-tail /
bit-flip recovery loader, and the reverter's write-ahead intent journal.
"""

import json
import zlib

import pytest

from repro import faultinject
from repro.checkpoint.log import MAX_VERSIONS, CheckpointLog, version_crc
from repro.errors import CorruptLogError, InjectedCrash
from repro.faultinject import InjectionPlan, InjectionSpec
from repro.instrument.artifacts import (
    load_checkpoint_log,
    open_and_verify,
    save_checkpoint_log,
)
from repro.pmem.allocator import PMAllocator
from repro.pmem.pool import PM_BASE, PMPool
from repro.reactor.revert import IntentJournal, Reverter
from tests.oracles import checkpoint as reference
from tests.oracles.checkpoint import structural_digest

A = PM_BASE
B = PM_BASE + 64


#: the canonical record stream, replayable against any log instance
_STREAM_OPS = (
    lambda log: log.record_alloc(A, 4),
    lambda log: log.record_update(A, 2, [11, 22]),
    lambda log: log.record_tx_begin(1),
    lambda log: log.record_update(A, 2, [33, 44], tx_id=1),
    lambda log: log.record_tx_commit(1),
    lambda log: log.record_alloc(B, 4),
    lambda log: log.record_update(B, 3, [1, 2, 3]),
    lambda log: log.record_free(B, 4),
)


def _apply_stream(log: CheckpointLog) -> CheckpointLog:
    for op in _STREAM_OPS:
        op(log)
    return log


def _small_log() -> CheckpointLog:
    return _apply_stream(CheckpointLog())


# ----------------------------------------------------------------------
# checksums + quarantine
# ----------------------------------------------------------------------
def test_every_recorded_version_carries_a_valid_checksum():
    log = _small_log()
    assert log.verify_checksums() == []
    for entry in log.entries.values():
        for v in entry.versions:
            assert v.crc >= 0
            assert v.crc == version_crc(entry.address, v.seq, v.data,
                                        v.size, v.tx_id)


def test_bitflip_is_detected_and_quarantined_not_deserialized():
    log = _small_log()
    entry = log.entries[A]
    victim = entry.versions[-1]
    victim.data = (victim.data[0] ^ 0x100, victim.data[1])
    assert log.verify_checksums() == [(A, victim.seq)]
    quarantined = log.quarantine_corrupt()
    assert [(a, v.seq) for a, v in quarantined] == [(A, victim.seq)]
    # the corrupt version is out of the ring; the entry now reports
    # evicted history, so the reverter floors instead of trusting a hole
    assert victim.seq not in [v.seq for v in entry.versions]
    assert entry.history_evicted
    assert log.verify_checksums() == []
    assert log.quarantined and log.quarantined[0][1].seq == victim.seq


# ----------------------------------------------------------------------
# structural validation (rebuild_indexes raises a typed error)
# ----------------------------------------------------------------------
def test_rebuild_indexes_rejects_out_of_order_event_seqs():
    log = _small_log()
    events = log.events
    events[0], events[1] = events[1], events[0]
    log.events = events
    with pytest.raises(CorruptLogError, match="out of order"):
        log.rebuild_indexes()


def test_rebuild_indexes_rejects_seq_beyond_next_seq():
    log = _small_log()
    events = log.events
    events[-1].seq = 999
    log.events = events
    with pytest.raises(CorruptLogError, match="next_seq"):
        log.rebuild_indexes()


def test_rebuild_indexes_rejects_dangling_realloc_forward_link():
    log = _small_log()
    log.entries[A].new_entry = 0xDEAD_0000
    with pytest.raises(CorruptLogError, match="dangling realloc"):
        log.rebuild_indexes()


def test_rebuild_indexes_rejects_unreciprocated_realloc_link():
    log = _small_log()
    log.entries[A].new_entry = B  # B.old_entry does not point back
    with pytest.raises(CorruptLogError, match="dangling realloc"):
        log.rebuild_indexes()


def test_backward_realloc_link_may_dangle():
    # the pre-realloc incarnation may never have been persisted, so only
    # forward links are strict
    log = _small_log()
    log.link_realloc(0x7777_0000, B)
    log.rebuild_indexes()  # does not raise


def test_quarantine_repair_path_skips_validation_but_stays_sound():
    log = _small_log()
    entry = log.entries[B]
    entry.versions[0].data = (9, 9, 9)
    log.quarantine_corrupt()
    log.rebuild_indexes()  # validates fine after repair


# ----------------------------------------------------------------------
# v2 region format: round-trip, strict load, recovery load
# ----------------------------------------------------------------------
def _region_lines(path):
    with open(path) as f:
        return f.read().splitlines()


def test_v2_region_roundtrip(tmp_path):
    log = _small_log()
    path = str(tmp_path / "ckpt.jsonl")
    save_checkpoint_log(log, path)
    loaded = load_checkpoint_log(path)
    assert loaded.total_updates == log.total_updates
    assert loaded._next_seq == log._next_seq
    assert set(loaded.entries) == set(log.entries)
    for addr in log.entries:
        assert [v.seq for v in loaded.entries[addr].versions] == \
            [v.seq for v in log.entries[addr].versions]
        assert [v.data for v in loaded.entries[addr].versions] == \
            [v.data for v in log.entries[addr].versions]
    assert [ev.seq for ev in loaded.events] == [ev.seq for ev in log.events]
    assert loaded.tx_members == log.tx_members
    # a clean region verifies clean
    _log2, report = open_and_verify(path)
    assert report.clean


def test_strict_load_rejects_flipped_record_byte(tmp_path):
    log = _small_log()
    path = str(tmp_path / "ckpt.jsonl")
    save_checkpoint_log(log, path)
    lines = _region_lines(path)
    # flip a digit inside an entry record's data, keeping valid JSON
    victim = next(i for i, ln in enumerate(lines) if '"t": "entry"' in ln)
    lines[victim] = lines[victim].replace('"data": [11,', '"data": [13,', 1)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with pytest.raises(CorruptLogError):
        load_checkpoint_log(path)
    # the recovery loader quarantines the record instead
    loaded, report = open_and_verify(path)
    assert not report.clean
    assert report.quarantined_records == 1
    assert loaded.entries  # the intact entries survived


def test_strict_load_rejects_missing_commit_record(tmp_path):
    log = _small_log()
    path = str(tmp_path / "ckpt.jsonl")
    save_checkpoint_log(log, path)
    lines = _region_lines(path)
    with open(path, "w") as f:
        f.write("\n".join(lines[:-1]) + "\n")  # drop the commit
    with pytest.raises(CorruptLogError):
        load_checkpoint_log(path)
    _loaded, report = open_and_verify(path)
    assert report.missing_commit


def test_open_and_verify_truncates_torn_tail(tmp_path):
    log = _small_log()
    path = str(tmp_path / "ckpt.jsonl")
    save_checkpoint_log(log, path)
    lines = _region_lines(path)
    # the writer died mid-append: half a record, no commit
    torn = lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]
    with open(path, "w") as f:
        f.write("\n".join(torn) + "\n")
    loaded, report = open_and_verify(path)
    assert report.truncated_records >= 1
    assert report.missing_commit
    loaded.rebuild_indexes()  # survivors are structurally valid
    assert loaded.entries


def test_open_and_verify_quarantines_checksum_failing_version(tmp_path):
    log = _small_log()
    entry = log.entries[A]
    victim = entry.versions[-1]
    victim.data = (victim.data[0] ^ 1, victim.data[1])  # corrupt pre-save
    path = str(tmp_path / "ckpt.jsonl")
    save_checkpoint_log(log, path)
    loaded, report = open_and_verify(path)
    assert (A, victim.seq) in report.quarantined_versions
    assert victim.seq not in [v.seq for v in loaded.entries[A].versions]


def _write_region(path, wrappers):
    with open(path, "w") as f:
        f.write("\n".join(json.dumps(w, sort_keys=True) for w in wrappers))
        f.write("\n")


def _reseal_region(path, mutate):
    """Apply ``mutate`` to every record, then re-seal each line's CRC
    and the commit record, so the mutation is the region's only damage."""
    recs = [json.loads(ln)["rec"] for ln in _region_lines(path)]
    running = 0
    wrappers = []
    for rec in recs[:-1]:
        mutate(rec)
        body = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
        running = zlib.crc32(body, running) & 0xFFFFFFFF
        wrappers.append({"crc": zlib.crc32(body) & 0xFFFFFFFF, "rec": rec})
    commit = dict(recs[-1], file_crc=running)
    body = json.dumps(commit, sort_keys=True, separators=(",", ":")).encode()
    wrappers.append({"crc": zlib.crc32(body) & 0xFFFFFFFF, "rec": commit})
    _write_region(path, wrappers)


def test_rollback_on_repaired_log_skips_quarantined_entry(tmp_path):
    # the loader quarantines A's entry record (its line CRC fails) but
    # keeps the update events naming A; a rollback must still run
    log = _small_log()
    b_seq = log.entries[B].versions[-1].seq
    path = str(tmp_path / "ckpt.jsonl")
    save_checkpoint_log(log, path)
    wrappers = [json.loads(ln) for ln in _region_lines(path)]
    victim = next(w for w in wrappers
                  if w["rec"]["t"] == "entry" and w["rec"]["address"] == A)
    victim["crc"] ^= 1
    _write_region(path, wrappers)
    loaded, report = open_and_verify(path)
    assert report.quarantined_records == 1
    assert A not in loaded.entries
    assert "update" in [ev.kind for ev in loaded.events if ev.addr == A]
    assert loaded.update_addrs_since(1) == [B]
    assert loaded.update_addrs_since(1) == \
        reference.update_addrs_since(loaded, 1)
    pool = PMPool(1024)
    reverter = Reverter(loaded, pool, PMAllocator(pool), lambda: None)
    assert reverter.rollback_to_before(1) == [b_seq]


@pytest.mark.parametrize("field,value", [
    ("kind", "bogus"),
    ("addr", -5),
    ("seq", 1 << 64),
    ("nwords", "4"),
    ("tx", None),
])
def test_loaders_quarantine_malformed_event_record(tmp_path, field, value):
    log = _small_log()
    victim_seq = next(ev.seq for ev in log.events if ev.kind == "free")
    path = str(tmp_path / "ckpt.jsonl")
    save_checkpoint_log(log, path)

    def mutate(rec):
        if rec["t"] == "event" and rec["seq"] == victim_seq:
            rec[field] = value

    _reseal_region(path, mutate)
    with pytest.raises(CorruptLogError, match="malformed event"):
        load_checkpoint_log(path)
    loaded, report = open_and_verify(path)
    assert report.quarantined_records == 1
    assert any("malformed event" in note for note in report.notes)
    assert [ev.seq for ev in loaded.events] == \
        [ev.seq for ev in log.events if ev.seq != victim_seq]
    loaded.rebuild_indexes()  # what survived is structurally valid


def test_open_and_verify_requires_a_header(tmp_path):
    path = str(tmp_path / "junk.jsonl")
    with open(path, "w") as f:
        f.write("this is not a checkpoint region\n")
    with pytest.raises(CorruptLogError):
        open_and_verify(path)


def test_v1_single_dict_format_is_rejected(tmp_path):
    # the seed-era single-dict format is retired: the strict loader reads
    # v2 regions only and treats anything else as damage
    log = _small_log()
    payload = {
        "max_versions": log.max_versions,
        "next_seq": log._next_seq,
        "total_updates": log.total_updates,
        "entries": [
            {
                "address": e.address,
                "max_versions": e.max_versions,
                "total_versions": e.total_versions,
                "old_entry": e.old_entry,
                "new_entry": e.new_entry,
                "versions": [
                    {"seq": v.seq, "data": list(v.data), "size": v.size,
                     "tx": v.tx_id}
                    for v in e.versions
                ],
            }
            for e in log.entries.values()
        ],
        "events": [
            {"seq": ev.seq, "kind": ev.kind, "addr": ev.addr,
             "nwords": ev.nwords, "tx": ev.tx_id}
            for ev in log.events
        ],
        "tx_members": {str(k): v for k, v in log.tx_members.items()},
    }
    path = str(tmp_path / "ckpt_v1.json")
    with open(path, "w") as f:
        json.dump(payload, f)
    with pytest.raises(CorruptLogError):
        load_checkpoint_log(path)


def test_strict_loader_rejects_empty_region(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    open(path, "w").close()
    with pytest.raises(CorruptLogError):
        load_checkpoint_log(path)


# ----------------------------------------------------------------------
# crash at the staged-index merge (ckpt.index_merge)
# ----------------------------------------------------------------------
def test_crash_at_index_merge_leaves_staging_intact_and_retry_converges():
    reference = _apply_stream(CheckpointLog(staging_limit=1))  # eager oracle

    log = _apply_stream(CheckpointLog())  # default window: nothing merged yet
    staged_before = log._stage.tobytes()
    words_before = list(log._stage_words)
    plan = InjectionPlan([InjectionSpec("ckpt.index_merge", 1, "crash")])
    with faultinject.activate(plan):
        with pytest.raises(InjectedCrash):
            log.flush_staging()
        # the site fires before any mutation: the staging tail and every
        # index are exactly as they were
        assert log._stage.tobytes() == staged_before
        assert log._stage_words == words_before
        assert len(log._seq_col) == 0 and len(log._row_col) == 0
        assert log._entries == {}
        # the spec is one-shot, so the post-crash retry merges clean
        log.flush_staging()
    assert plan.all_fired
    assert structural_digest(log) == structural_digest(reference)


def test_crash_at_midstream_autoflush_rebuild_converges():
    reference = _apply_stream(CheckpointLog(staging_limit=1))

    # a two-record window auto-merges mid-stream; crash the second merge
    log = CheckpointLog(staging_limit=2)
    plan = InjectionPlan([InjectionSpec("ckpt.index_merge", 2, "crash")])
    crashes = 0
    with faultinject.activate(plan):
        for op in _STREAM_OPS:
            try:
                op(log)
            except InjectedCrash:
                # the record that tripped the merge was staged before the
                # site fired; recovery re-merges and the stream resumes
                crashes += 1
                log.rebuild_indexes()
    assert crashes == 1
    assert structural_digest(log) == structural_digest(reference)


def test_crash_recovered_merge_roundtrips_through_region(tmp_path):
    reference = _apply_stream(CheckpointLog(staging_limit=1))

    log = _apply_stream(CheckpointLog())
    plan = InjectionPlan([InjectionSpec("ckpt.index_merge", 1, "crash")])
    with faultinject.activate(plan):
        with pytest.raises(InjectedCrash):
            log.flush_staging()
        log.rebuild_indexes()  # the recovery entry point retries the merge
    path = str(tmp_path / "ckpt.jsonl")
    save_checkpoint_log(log, path)
    loaded, report = open_and_verify(path)
    assert report.clean
    loaded.rebuild_indexes()
    assert structural_digest(loaded) == structural_digest(reference)


# ----------------------------------------------------------------------
# intent journal
# ----------------------------------------------------------------------
def test_intent_journal_replays_from_file(tmp_path):
    path = str(tmp_path / "intents.jsonl")
    j = IntentJournal(path)
    j.begin(17, mode="rollback")
    j.commit(17, recovered=False)
    j.begin(9, mode="rollback")  # crash before commit: stays pending
    j2 = IntentJournal(path)
    assert j2.is_done(17)
    assert not j2.is_done(9)
    assert j2.status[9] == "pending"
    assert j2.done_cuts() == [17]


def test_intent_journal_tolerates_torn_tail(tmp_path):
    path = str(tmp_path / "intents.jsonl")
    j = IntentJournal(path)
    j.begin(5, mode="rollback")
    j.commit(5)
    with open(path, "a") as f:
        f.write('{"op": "begi')  # writer died mid-append
    j2 = IntentJournal(path)
    assert j2.done_cuts() == [5]
