"""On-disk persistence of Arthas's runtime artifacts.

The paper's workflow runs across processes: the analyzer writes *metadata
files* (the static PDG and GUID mappings), the instrumented system
asynchronously flushes the *PM trace file*, the checkpoint library keeps
its log in a *persistent checkpoint region*, and the reactor server reads
all three after a failure (Figure 4's ❶-❼).  This module provides those
file formats so the reactor can run against a dead process's artifacts:

* :func:`save_trace` / :func:`load_trace` — the ``<GUID, address>`` trace.
* :func:`save_checkpoint_log` / :func:`load_checkpoint_log` — the full
  versioned log (entries, versions, events, transaction marks, links).
* :func:`open_and_verify` — the *recovery-time* loader: verifies every
  record, truncates torn tails, quarantines corrupt entries, and always
  returns a usable log plus a report of what it had to discard.
* (GUID metadata already round-trips via
  :meth:`repro.instrument.guids.GuidMap.save`/``load``.)

Checkpoint-region format (v2) — the writer process can die at any byte,
so the region is self-verifying:

* JSON-lines: a header line, one line per entry/event/tx record, then a
  **commit record** carrying the record count, the newest (monotonic)
  sequence number, and a running CRC over every preceding line;
* every line is ``{"crc": <crc32 of the record's canonical JSON>,
  "rec": {...}}`` — a flipped bit in any record is detected without
  trusting any other line;
* a torn tail (the writer died mid-line, or before the commit record)
  leaves a prefix of intact lines — exactly what
  :func:`open_and_verify` keeps.

:func:`load_checkpoint_log` is the *strict* loader: any corruption
raises :class:`~repro.errors.CorruptLogError`, as does any file that is
not a v2 region.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.checkpoint.log import (
    EVENT_KINDS,
    CheckpointEntry,
    CheckpointLog,
    LogEvent,
    Version,
)
from repro.errors import CorruptLogError
from repro.instrument.tracer import PMTrace

#: magic tag of the self-verifying checkpoint-region format
CKPT_FORMAT = "arthas-ckpt-v2"


# ----------------------------------------------------------------------
# trace files
# ----------------------------------------------------------------------
def save_trace(trace: PMTrace, path: str) -> int:
    """Flush and write the trace's distinct pairs, sorted; returns how
    many were saved."""
    trace.flush()
    pairs = sorted(trace.pairs())
    with open(path, "w") as f:
        json.dump({"records": [[g, a] for g, a in pairs]}, f)
    return len(pairs)


def load_trace(path: str) -> PMTrace:
    with open(path) as f:
        data = json.load(f)
    trace = PMTrace()
    for guid, addr in data["records"]:
        trace.record(guid, addr)
    trace.flush()
    return trace


# ----------------------------------------------------------------------
# checkpoint region: record codecs
# ----------------------------------------------------------------------
def _version_to_json(v: Version) -> dict:
    return {"seq": v.seq, "data": list(v.data), "size": v.size, "tx": v.tx_id,
            "crc": v.crc}


def _entry_to_json(e: CheckpointEntry) -> dict:
    return {
        "t": "entry",
        "address": e.address,
        "max_versions": e.max_versions,
        "total_versions": e.total_versions,
        "old_entry": e.old_entry,
        "new_entry": e.new_entry,
        "versions": [_version_to_json(v) for v in e.versions],
    }


def _entry_from_json(ej: dict) -> CheckpointEntry:
    entry = CheckpointEntry(ej["address"], ej["max_versions"])
    for vj in ej["versions"]:
        entry.versions.append(
            Version(vj["seq"], tuple(vj["data"]), vj["size"], vj["tx"],
                    crc=vj.get("crc", -1))
        )
    entry.total_versions = ej["total_versions"]
    entry.old_entry = ej["old_entry"]
    entry.new_entry = ej["new_entry"]
    return entry


def _event_to_json(ev: LogEvent) -> dict:
    return {"t": "event", "seq": ev.seq, "kind": ev.kind, "addr": ev.addr,
            "nwords": ev.nwords, "tx": ev.tx_id}


def _event_from_json(rec: dict) -> Optional[LogEvent]:
    """The event a record describes, or None when it does not fit the
    log's columns: a kind outside :data:`EVENT_KINDS`, or a seq, addr,
    nwords or tx that is not an int in ``[0, 2**64)``."""
    if rec.get("kind") not in EVENT_KINDS:
        return None
    fields = [rec.get(k) for k in ("seq", "addr", "nwords", "tx")]
    for v in fields:
        if type(v) is not int or not 0 <= v < 1 << 64:
            return None
    seq, addr, nwords, tx = fields
    return LogEvent(seq, rec["kind"], addr, nwords, tx)


def _canonical(rec: dict) -> bytes:
    return json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()


def _record_crc(rec: dict) -> int:
    return zlib.crc32(_canonical(rec)) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def save_checkpoint_log(log: CheckpointLog, path: str) -> None:
    records: List[dict] = [
        {
            "t": "header",
            "format": CKPT_FORMAT,
            "max_versions": log.max_versions,
            "next_seq": log._next_seq,
            "total_updates": log.total_updates,
        }
    ]
    records.extend(_entry_to_json(e) for e in log.entries.values())
    records.extend(_event_to_json(ev) for ev in log.events)
    if log.tx_members:
        records.append({
            "t": "tx-members",
            "members": {str(k): v for k, v in log.tx_members.items()},
        })
    lines: List[str] = []
    running = 0
    for rec in records:
        body = _canonical(rec)
        running = zlib.crc32(body, running) & 0xFFFFFFFF
        lines.append(json.dumps(
            {"crc": _record_crc(rec), "rec": rec}, sort_keys=True
        ))
    commit = {
        "t": "commit",
        "n_records": len(records),
        "last_seq": log.max_seq(),
        "file_crc": running,
    }
    lines.append(json.dumps({"crc": _record_crc(commit), "rec": commit},
                            sort_keys=True))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
@dataclass
class LogVerifyReport:
    """What :func:`open_and_verify` found (and discarded) in a region."""

    #: records dropped from a torn tail (unparseable / past the commit)
    truncated_records: int = 0
    #: mid-file records dropped for a per-line CRC or JSON failure
    quarantined_records: int = 0
    #: (address, seq) versions quarantined by the in-log checksum scan
    quarantined_versions: List[Tuple[int, int]] = field(default_factory=list)
    #: True when the commit record was missing or itself corrupt
    missing_commit: bool = False
    #: human-readable notes, one per finding
    notes: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            not self.truncated_records
            and not self.quarantined_records
            and not self.quarantined_versions
            and not self.missing_commit
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "clean": self.clean,
            "truncated_records": self.truncated_records,
            "quarantined_records": self.quarantined_records,
            "quarantined_versions": [list(p) for p in self.quarantined_versions],
            "missing_commit": self.missing_commit,
            "notes": list(self.notes),
        }


def _parse_lines(
    raw_lines: List[str], report: LogVerifyReport
) -> List[dict]:
    """Decode and CRC-check every line; drop what fails (with notes)."""
    records: List[dict] = []
    n = len(raw_lines)
    for i, line in enumerate(raw_lines):
        line = line.strip()
        if not line:
            continue
        try:
            wrapper = json.loads(line)
            rec = wrapper["rec"]
            crc = wrapper["crc"]
        except (ValueError, KeyError, TypeError):
            if i >= n - 1:
                report.truncated_records += 1
                report.notes.append(f"torn tail: line {i + 1} unparseable")
            else:
                report.quarantined_records += 1
                report.notes.append(f"line {i + 1} unparseable; quarantined")
            continue
        if _record_crc(rec) != crc:
            report.quarantined_records += 1
            report.notes.append(
                f"line {i + 1} ({rec.get('t', '?')}) failed its CRC; "
                f"quarantined"
            )
            continue
        records.append(rec)
    return records


def _build_log(
    records: List[dict], report: LogVerifyReport
) -> CheckpointLog:
    """Assemble a log from verified records, repairing as needed."""
    header = records[0]
    log = CheckpointLog(max_versions=header["max_versions"])
    log.total_updates = header["total_updates"]

    commit: Optional[dict] = None
    for rec in records:
        if rec.get("t") == "commit":
            commit = rec
    if commit is None:
        report.missing_commit = True
        report.notes.append("commit record missing: writer died mid-save")

    last_committed = commit["last_seq"] if commit is not None else None
    max_seq_seen = 0
    seen_seqs: set = set()
    events: List[LogEvent] = []
    for rec in records[1:]:
        kind = rec.get("t")
        if kind == "entry":
            entry = _entry_from_json(rec)
            if last_committed is not None:
                kept = [v for v in entry.versions if v.seq <= last_committed]
                if len(kept) != len(entry.versions):
                    report.truncated_records += 1
                    report.notes.append(
                        f"entry {entry.address:#x}: dropped "
                        f"{len(entry.versions) - len(kept)} uncommitted "
                        f"version(s)"
                    )
                    entry.versions = kept
            log.entries[entry.address] = entry
        elif kind == "event":
            ev = _event_from_json(rec)
            if ev is None:
                report.quarantined_records += 1
                report.notes.append(
                    f"malformed event record {rec!r}; quarantined"
                )
                continue
            if last_committed is not None and ev.seq > last_committed:
                report.truncated_records += 1
                report.notes.append(
                    f"event seq {ev.seq} past committed {last_committed}; "
                    f"truncated"
                )
                continue
            if ev.seq in seen_seqs:
                report.quarantined_records += 1
                report.notes.append(f"duplicate event seq {ev.seq}; dropped")
                continue
            seen_seqs.add(ev.seq)
            events.append(ev)
            max_seq_seen = max(max_seq_seen, ev.seq)
        elif kind == "tx-members":
            log.tx_members = {
                int(k): list(v) for k, v in rec["members"].items()
            }
    events.sort(key=lambda ev: ev.seq)
    log.events = events
    log._next_seq = max(header["next_seq"], max_seq_seen + 1)

    # clear realloc links into entries that did not survive verification
    for entry in log.entries.values():
        if entry.new_entry is not None and entry.new_entry not in log.entries:
            report.notes.append(
                f"entry {entry.address:#x}: cleared realloc link to "
                f"quarantined entry {entry.new_entry:#x}"
            )
            entry.new_entry = None
        target = (
            log.entries.get(entry.new_entry)
            if entry.new_entry is not None else None
        )
        if target is not None and target.old_entry != entry.address:
            target.old_entry = entry.address
    return log


def open_and_verify(path: str) -> Tuple[CheckpointLog, LogVerifyReport]:
    """Recovery-time open: verify, repair, and load a checkpoint region.

    Unlike :func:`load_checkpoint_log`, this never deserializes garbage
    and never gives up on a salvageable region: torn tails are truncated
    to the last committed record, records failing their CRC are
    quarantined, checksum-failing versions are quarantined inside the
    log, and what remains is revalidated before the indexes are rebuilt.
    Raises :class:`CorruptLogError` only when even the header is gone.
    """
    report = LogVerifyReport()
    with open(path) as f:
        raw_lines = f.read().splitlines()
    records = _parse_lines(raw_lines, report)
    if not records or records[0].get("t") != "header" \
            or records[0].get("format") != CKPT_FORMAT:
        raise CorruptLogError(
            f"{path}: checkpoint region header missing or corrupt"
        )
    log = _build_log(records, report)
    report.quarantined_versions = [
        (addr, v.seq) for addr, v in log.quarantine_corrupt()
    ]
    for addr, seq in report.quarantined_versions:
        report.notes.append(
            f"entry {addr:#x}: version {seq} failed its data checksum; "
            f"quarantined"
        )
    log.rebuild_indexes()  # validate what survived; raises only on bugs
    return log, report


def load_checkpoint_log(path: str) -> CheckpointLog:
    """Strict loader: raise :class:`CorruptLogError` on any damage.

    Reads the v2 JSONL region only; anything else (an empty file, the
    retired v1 single-dict format) is damage.  Mitigation paths that
    must make progress on a damaged region use :func:`open_and_verify`
    instead.
    """
    report = LogVerifyReport()
    with open(path) as f:
        raw_lines = f.read().splitlines()
    records = _parse_lines(raw_lines, report)
    if not report.clean or not records \
            or records[0].get("t") != "header" \
            or records[0].get("format") != CKPT_FORMAT:
        raise CorruptLogError(
            f"{path}: corrupt checkpoint region: "
            + ("; ".join(report.notes) or "no records")
        )
    commit = records[-1]
    if commit.get("t") != "commit":
        raise CorruptLogError(f"{path}: commit record missing")
    running = 0
    for rec in records[:-1]:
        running = zlib.crc32(_canonical(rec), running) & 0xFFFFFFFF
    if commit["file_crc"] != running or commit["n_records"] != len(records) - 1:
        raise CorruptLogError(f"{path}: commit record does not match region")
    log = _build_log(records, report)
    if report.quarantined_records:
        raise CorruptLogError(
            f"{path}: corrupt checkpoint region: " + "; ".join(report.notes)
        )
    bad = log.verify_checksums()
    if bad:
        raise CorruptLogError(
            f"{path}: {len(bad)} version(s) failed their data checksum"
        )
    log.rebuild_indexes()  # raises CorruptLogError on structural damage
    return log
