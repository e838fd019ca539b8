"""Reaching definitions and def-use chains over registers.

Classic bit-vector-style dataflow per function: a definition is any
instruction with a destination register; parameters are defined by a
virtual entry definition (id ``PARAM_DEF_BASE - param_index`` per
function, negative so it never collides with instruction ids).  The PDG
builder turns the resulting use -> reaching-defs map into data edges and
wires parameter uses to call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.lang.ir import Function

#: virtual definition ids for parameters: -(1000 + index) within a function
PARAM_DEF_BASE = -1000


def param_def_id(param_index: int) -> int:
    """Virtual definition id of the ``param_index``-th parameter."""
    return PARAM_DEF_BASE - param_index


def is_param_def(def_id: int) -> bool:
    """True when a definition id denotes a virtual parameter definition."""
    return def_id <= PARAM_DEF_BASE


@dataclass
class DefUseResult:
    """Def-use information for one function."""

    func_name: str
    #: use site -> register -> set of reaching definition ids
    reaching: Dict[int, Dict[str, Set[int]]] = field(default_factory=dict)
    #: all definition sites per register (instruction ids only)
    defs_of: Dict[str, Set[int]] = field(default_factory=dict)

    def reaching_defs(self, iid: int, reg: str) -> Set[int]:
        """Definition ids of ``reg`` that reach instruction ``iid``."""
        return self.reaching.get(iid, {}).get(reg, set())


def compute_defuse(func: Function) -> DefUseResult:
    """Run reaching definitions over one function."""
    result = DefUseResult(func.name)

    # enumerate definitions
    def_sites: List[Tuple[int, str]] = []  # (def_id, reg)
    for i, param in enumerate(func.params):
        def_sites.append((param_def_id(i), param))
    for instr in func.instructions():
        if instr.dst is not None:
            def_sites.append((instr.iid, instr.dst))
            result.defs_of.setdefault(instr.dst, set()).add(instr.iid)

    defs_by_reg: Dict[str, Set[int]] = {}
    for def_id, reg in def_sites:
        defs_by_reg.setdefault(reg, set()).add(def_id)

    # block-level GEN/KILL
    gen: Dict[str, Dict[str, int]] = {}
    for label in func.block_order:
        block_gen: Dict[str, int] = {}
        for instr in func.blocks[label].instrs:
            if instr.dst is not None:
                block_gen[instr.dst] = instr.iid  # later defs shadow earlier
        gen[label] = block_gen

    # IN/OUT as register -> frozen set of def ids
    empty: Dict[str, FrozenSet[int]] = {}
    in_sets: Dict[str, Dict[str, FrozenSet[int]]] = {
        label: dict(empty) for label in func.block_order
    }
    entry_in = {
        param: frozenset({param_def_id(i)}) for i, param in enumerate(func.params)
    }
    in_sets[func.entry] = dict(entry_in)

    preds: Dict[str, List[str]] = {label: [] for label in func.block_order}
    for label in func.block_order:
        for s in func.blocks[label].successors():
            preds[s].append(label)

    def transfer(label: str, in_map: Dict[str, FrozenSet[int]]) -> Dict[str, FrozenSet[int]]:
        out = dict(in_map)
        for reg, def_iid in gen[label].items():
            out[reg] = frozenset({def_iid})
        return out

    out_sets: Dict[str, Dict[str, FrozenSet[int]]] = {
        label: transfer(label, in_sets[label]) for label in func.block_order
    }

    changed = True
    while changed:
        changed = False
        for label in func.block_order:
            merged: Dict[str, Set[int]] = {
                reg: set(ids) for reg, ids in (entry_in if label == func.entry else {}).items()
            }
            for p in preds[label]:
                for reg, ids in out_sets[p].items():
                    merged.setdefault(reg, set()).update(ids)
            frozen = {reg: frozenset(ids) for reg, ids in merged.items()}
            if frozen != in_sets[label]:
                in_sets[label] = frozen
                out_sets[label] = transfer(label, frozen)
                changed = True

    # per-instruction reaching sets (walk each block forward)
    for label in func.block_order:
        live: Dict[str, Set[int]] = {reg: set(ids) for reg, ids in in_sets[label].items()}
        for instr in func.blocks[label].instrs:
            used = instr.uses()
            if used:
                result.reaching[instr.iid] = {
                    reg: set(live.get(reg, set())) for reg in used
                }
            if instr.dst is not None:
                live[instr.dst] = {instr.iid}
    return result
