"""Andersen-style, field-sensitive points-to analysis.

Abstract memory locations are ``(site, offset)`` pairs where ``site`` is an
allocation-site instruction id (``alloc``/``realloc``) or the special pool
root cell, and ``offset`` is a word offset within the object or ``TOP``
(unknown — produced by array indexing and raw pointer arithmetic).

The inclusion constraints are the standard ones::

    alloc   d            pts(d)  ∋ (site_d, 0)
    mov     d, s         pts(d)  ⊇ pts(s)
    gep     d, b, k      pts(d)  ⊇ { (s, o+k) | (s, o) ∈ pts(b) }
    load    d, p         pts(d)  ⊇ ⋃ { heap(l) | l ∈ pts(p) }
    store   p, v         heap(l) ⊇ pts(v)   for l ∈ pts(p)
    call/ret             copy constraints between args/params/returns

The analysis is context-insensitive (the paper's is context-sensitive;
the difference only widens slices, it never misses a dependency) and
flow-insensitive over the heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.lang.ir import Module

#: sentinel offset for "somewhere in the object"
TOP = -1

#: the pool-root cell is modelled as a one-word pseudo allocation site
ROOT_SITE = -2

#: the solver stops after this many passes even short of a fixpoint
MAX_SOLVER_PASSES = 200

Loc = Tuple[int, int]  # (site, offset)


def _varkey(func: str, reg: str) -> str:
    return f"{func}::{reg}"


@dataclass
class PointsToResult:
    """Solved points-to sets plus per-instruction memory footprints."""

    #: variable key -> set of locations
    pts: Dict[str, Set[Loc]] = field(default_factory=dict)
    #: allocation site -> "pm" | "vol"
    site_space: Dict[int, str] = field(default_factory=dict)
    #: memory locations each load reads (load iid -> locs)
    load_locs: Dict[int, FrozenSet[Loc]] = field(default_factory=dict)
    #: memory locations each store-like instr writes (iid -> locs)
    store_locs: Dict[int, FrozenSet[Loc]] = field(default_factory=dict)
    #: solver iterations until fixpoint (reported in Table 9 context)
    iterations: int = 0

    def pts_of(self, func: str, reg: str) -> Set[Loc]:
        """The points-to set of one register."""
        return self.pts.get(_varkey(func, reg), set())

    def is_pm_site(self, site: int) -> bool:
        """True when an allocation site lives in persistent memory."""
        return site == ROOT_SITE or self.site_space.get(site) == "pm"

    def is_pm_pointer(self, func: str, reg: str) -> bool:
        """May this register hold a persistent-memory address?"""
        return any(self.is_pm_site(site) for site, _off in self.pts_of(func, reg))


class _Heap:
    """heap(site, offset) -> set of Locs, with a TOP bucket per site."""

    def __init__(self) -> None:
        self._cells: Dict[int, Dict[int, Set[Loc]]] = {}

    def read(self, loc: Loc) -> Set[Loc]:
        site, off = loc
        buckets = self._cells.get(site)
        if buckets is None:
            return set()
        if off == TOP:
            out: Set[Loc] = set()
            for vals in buckets.values():
                out |= vals
            return out
        return buckets.get(off, set()) | buckets.get(TOP, set())

    def write(self, loc: Loc, values: Set[Loc]) -> bool:
        if not values:
            return False
        site, off = loc
        bucket = self._cells.setdefault(site, {}).setdefault(off, set())
        before = len(bucket)
        bucket |= values
        return len(bucket) != before

    def site_contents(self, site: int) -> Set[Loc]:
        out: Set[Loc] = set()
        for vals in self._cells.get(site, {}).values():
            out |= vals
        return out


def _shift(locs: Set[Loc], offset: int, indexed: bool) -> Set[Loc]:
    out: Set[Loc] = set()
    for site, off in locs:
        if indexed or off == TOP:
            out.add((site, TOP))
        else:
            out.add((site, off + offset))
    return out


def _weaken(locs: Set[Loc]) -> Set[Loc]:
    return {(site, TOP) for site, _off in locs}


def analyze_pointers(module: Module) -> PointsToResult:
    """Solve the inclusion constraints to a fixpoint."""
    result = PointsToResult()
    pts = result.pts
    heap = _Heap()

    # returns per function, for call/ret copy constraints
    ret_regs: Dict[str, List[Tuple[str, str]]] = {}
    for fname, func in module.functions.items():
        regs = []
        for instr in func.instructions():
            if instr.op == "ret" and instr.args[0] is not None:
                regs.append((fname, instr.args[0]))
            if instr.op == "alloc":
                result.site_space[instr.iid] = instr.args[1]
            if instr.op == "realloc":
                result.site_space[instr.iid] = "pm"
        ret_regs[fname] = regs

    def get(func: str, reg: str) -> Set[Loc]:
        return pts.get(_varkey(func, reg), set())

    def add(func: str, reg: str, values: Set[Loc]) -> bool:
        if not values:
            return False
        key = _varkey(func, reg)
        bucket = pts.setdefault(key, set())
        before = len(bucket)
        bucket |= values
        return len(bucket) != before

    instrs = [(f.name, i) for f in module.functions.values() for i in f.instructions()]

    changed = True
    iteration = 0
    while changed and iteration < MAX_SOLVER_PASSES:
        changed = False
        iteration += 1
        for fname, instr in instrs:
            op = instr.op
            if op == "alloc":
                changed |= add(fname, instr.dst, {(instr.iid, 0)})
            elif op == "realloc":
                changed |= add(fname, instr.dst, {(instr.iid, 0)})
                # contents of the old block may flow into the new one
                for site, _off in get(fname, instr.args[0]):
                    changed |= heap.write((instr.iid, TOP), heap.site_contents(site))
            elif op == "mov":
                changed |= add(fname, instr.dst, get(fname, instr.args[0]))
            elif op == "gep":
                base, offset, index, _scale = instr.args
                locs = _shift(get(fname, base), offset, indexed=index is not None)
                changed |= add(fname, instr.dst, locs)
            elif op == "load":
                incoming: Set[Loc] = set()
                for loc in get(fname, instr.args[0]):
                    incoming |= heap.read(loc)
                changed |= add(fname, instr.dst, incoming)
            elif op == "store":
                values = get(fname, instr.args[1])
                for loc in get(fname, instr.args[0]):
                    changed |= heap.write(loc, values)
            elif op == "binop":
                merged = _weaken(get(fname, instr.args[1]) | get(fname, instr.args[2]))
                changed |= add(fname, instr.dst, merged)
            elif op == "unop":
                changed |= add(fname, instr.dst, _weaken(get(fname, instr.args[1])))
            elif op == "call":
                target, arg_regs = instr.args
                callee = module.functions[target]
                for param, arg in zip(callee.params, arg_regs):
                    changed |= add(target, param, get(fname, arg))
                if instr.dst is not None:
                    for rf, rr in ret_regs[target]:
                        changed |= add(fname, instr.dst, get(rf, rr))
            elif op == "setroot":
                changed |= heap.write(
                    (ROOT_SITE, 0), get(fname, instr.args[0])
                )
            elif op == "getroot":
                changed |= add(fname, instr.dst, heap.read((ROOT_SITE, 0)))
    result.iterations = iteration

    # per-instruction memory footprints for the PDG's memory data deps
    for fname, instr in instrs:
        if instr.op == "load":
            result.load_locs[instr.iid] = frozenset(get(fname, instr.args[0]))
        elif instr.op == "store":
            result.store_locs[instr.iid] = frozenset(get(fname, instr.args[0]))
        elif instr.op in ("alloc", "realloc"):
            # zero-initialisation defines the whole object
            result.store_locs[instr.iid] = frozenset({(instr.iid, TOP)})
    return result
