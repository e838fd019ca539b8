"""Control-flow graphs, dominators, post-dominators, control dependence.

Control dependence follows Ferrante/Ottenstein/Warren (the PDG paper the
authors cite): block ``B`` is control-dependent on the terminator of block
``A`` iff ``A`` has a successor from which ``B`` is reachable without
passing through ``B``'s post-dominators — computed here via the classic
"walk up the post-dominator tree from each CFG edge" formulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.lang.ir import Function

#: virtual exit node label used for post-dominance
VIRTUAL_EXIT = "<exit>"


class FunctionCFG:
    """Block-level CFG of one function with dominance information."""

    def __init__(self, func: Function):
        self.func = func
        self.succs: Dict[str, Tuple[str, ...]] = {}
        self.preds: Dict[str, List[str]] = {label: [] for label in func.block_order}
        for label in func.block_order:
            succs = func.blocks[label].successors()
            self.succs[label] = succs
            for s in succs:
                self.preds[s].append(label)
        self._ipdom: Optional[Dict[str, Optional[str]]] = None

    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    def immediate_postdominators(self) -> Dict[str, Optional[str]]:
        """ipdom of each block over the reversed CFG with a virtual exit.

        Every ``ret`` block gets an edge to the virtual exit; so does every
        block with no successors at all, so statically infinite loops do
        not wedge the fixpoint.
        """
        if self._ipdom is not None:
            return self._ipdom
        blocks = list(self.func.block_order) + [VIRTUAL_EXIT]
        # reversed-graph successors = CFG predecessors (+ exit wiring)
        rsuccs: Dict[str, List[str]] = {b: [] for b in blocks}
        rpreds: Dict[str, List[str]] = {b: [] for b in blocks}
        for label in self.func.block_order:
            targets = list(self.succs[label])
            if not targets:
                targets = [VIRTUAL_EXIT]
            for t in targets:
                rsuccs[t].append(label)
                rpreds[label].append(t)
        # iterative dominator algorithm (Cooper/Harvey/Kennedy) on the
        # reversed graph, rooted at the virtual exit
        order = self._rpo(rsuccs, VIRTUAL_EXIT)
        index = {b: i for i, b in enumerate(order)}
        ipdom: Dict[str, Optional[str]] = {b: None for b in blocks}
        ipdom[VIRTUAL_EXIT] = VIRTUAL_EXIT
        changed = True
        while changed:
            changed = False
            for b in order:
                if b == VIRTUAL_EXIT:
                    continue
                candidates = [p for p in rpreds[b] if ipdom[p] is not None]
                if not candidates:
                    continue
                new = candidates[0]
                for p in candidates[1:]:
                    new = self._intersect(new, p, ipdom, index)
                if ipdom[b] != new:
                    ipdom[b] = new
                    changed = True
        ipdom[VIRTUAL_EXIT] = None
        self._ipdom = ipdom
        return ipdom

    @staticmethod
    def _rpo(succs: Dict[str, List[str]], root: str) -> List[str]:
        seen: Set[str] = set()
        post: List[str] = []

        def visit(node: str) -> None:
            stack = [(node, iter(succs[node]))]
            seen.add(node)
            while stack:
                cur, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, iter(succs[nxt])))
                        advanced = True
                        break
                if not advanced:
                    post.append(cur)
                    stack.pop()

        visit(root)
        return list(reversed(post))

    @staticmethod
    def _intersect(
        a: str, b: str, idom: Dict[str, Optional[str]], index: Dict[str, int]
    ) -> str:
        while a != b:
            while index.get(a, 1 << 30) > index.get(b, 1 << 30):
                a = idom[a]  # type: ignore[assignment]
            while index.get(b, 1 << 30) > index.get(a, 1 << 30):
                b = idom[b]  # type: ignore[assignment]
        return a

    # ------------------------------------------------------------------
    def control_dependences(self) -> Dict[str, Set[str]]:
        """Map block -> set of blocks whose *terminator* it depends on.

        For each CFG edge (A -> B) where B does not post-dominate A, every
        block on the post-dominator-tree path from B up to (but excluding)
        ipdom(A) is control-dependent on A.
        """
        ipdom = self.immediate_postdominators()
        result: Dict[str, Set[str]] = {b: set() for b in self.func.block_order}
        for a in self.func.block_order:
            succs = self.succs[a]
            if len(succs) < 2:
                continue  # only conditional branches create control deps
            stop = ipdom.get(a)
            for b in succs:
                runner: Optional[str] = b
                while runner is not None and runner != stop and runner != VIRTUAL_EXIT:
                    result.setdefault(runner, set()).add(a)
                    runner = ipdom.get(runner)
        return result
