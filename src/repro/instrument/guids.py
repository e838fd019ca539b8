"""GUID assignment and the static metadata file (paper Section 4.1).

A GUID names one PM instruction stably across runs:
``<module>!<function>!<block>!<index>``.  The metadata file records the
``<GUID, source_location, instruction>`` mapping; as long as the target
program code does not change, the mapping stays consistent with the
binary — the property the paper relies on to reuse metadata in production.

A covered gep (see :mod:`repro.instrument.passes`) keeps its entry but
emits no record; the file also lists its *carriers*, the GUIDs whose
records hold its addresses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.lang.ir import Instr


def guid_for(module_name: str, instr: Instr) -> str:
    """The stable GUID of one instruction: module!function!block!index."""
    return f"{module_name}!{instr.func}!{instr.block}!{instr.index}"


@dataclass
class GuidEntry:
    """One metadata record: where the instruction lives and what it is."""

    guid: str
    iid: int
    location: str
    op: str
    src_line: int


class GuidMap:
    """Bidirectional GUID <-> instruction mapping with (de)serialisation."""

    def __init__(self, module_name: str):
        self.module_name = module_name
        self._by_guid: Dict[str, GuidEntry] = {}
        self._by_iid: Dict[int, str] = {}
        #: covered gep GUID -> the GUIDs whose records carry its addresses
        self._carriers: Dict[str, Tuple[str, ...]] = {}

    def add(self, instr: Instr) -> str:
        """Assign a GUID to an instruction and record its metadata."""
        guid = guid_for(self.module_name, instr)
        self._by_guid[guid] = GuidEntry(
            guid=guid,
            iid=instr.iid,
            location=instr.location(),
            op=instr.op,
            src_line=instr.src_line,
        )
        self._by_iid[instr.iid] = guid
        return guid

    def cover(self, iid: int, carriers: Sequence[str]) -> None:
        """Record that instruction ``iid`` emits no trace record of its
        own: ``carriers`` record every address it computes."""
        self._carriers[self._by_iid[iid]] = tuple(carriers)

    def carriers(self, iid: int) -> Tuple[str, ...]:
        """GUIDs whose trace records carry instruction ``iid``'s
        addresses: its own when it is traced, its carriers' when it is
        a covered gep, none when it is not instrumented."""
        guid = self._by_iid.get(iid)
        if guid is None:
            return ()
        return self._carriers.get(guid, (guid,))

    def guid_of(self, iid: int) -> Optional[str]:
        """GUID assigned to an instruction id (None if not instrumented)."""
        return self._by_iid.get(iid)

    def entry(self, guid: str) -> Optional[GuidEntry]:
        """Full metadata record for a GUID."""
        return self._by_guid.get(guid)

    def __len__(self) -> int:
        return len(self._by_guid)

    def __contains__(self, guid: str) -> bool:
        return guid in self._by_guid

    # ------------------------------------------------------------------
    # metadata file
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise the metadata mapping to a JSON document."""
        return json.dumps(
            {
                "module": self.module_name,
                "entries": [
                    {
                        "guid": e.guid,
                        "iid": e.iid,
                        "location": e.location,
                        "op": e.op,
                        "src_line": e.src_line,
                    }
                    for e in self._by_guid.values()
                ],
                "carriers": {g: list(c) for g, c in self._carriers.items()},
            },
            indent=2,
        )

    def save(self, path: str) -> None:
        """Write the metadata file to disk."""
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "GuidMap":
        data = json.loads(text)
        gm = cls(data["module"])
        for e in data["entries"]:
            entry = GuidEntry(
                guid=e["guid"],
                iid=e["iid"],
                location=e["location"],
                op=e["op"],
                src_line=e["src_line"],
            )
            gm._by_guid[entry.guid] = entry
            gm._by_iid[entry.iid] = entry.guid
        for guid, carriers in data.get("carriers", {}).items():
            gm._carriers[guid] = tuple(carriers)
        return gm

    @classmethod
    def load(cls, path: str) -> "GuidMap":
        with open(path) as f:
            return cls.from_json(f.read())
