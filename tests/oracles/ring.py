"""Ring placement by walking the ring on every lookup.

Each function takes the :class:`~repro.distributed.ring.HashRing` as
its first argument and reads only its points, members, status flags and
seed — never the per-point placement table the production methods use.
"""

import hashlib
from bisect import bisect_left
from typing import List, Optional, Set

from repro.distributed.ring import HashRing


def key_point(ring: HashRing, key: int) -> int:
    """The key's ring position, hashed with a freshly keyed blake2b."""
    h = hashlib.blake2b(
        b"key:%d" % key, digest_size=8,
        key=ring.seed.to_bytes(8, "little", signed=True),
    )
    return int.from_bytes(h.digest(), "big")


def preference_list(ring: HashRing, key: int) -> List[int]:
    """Every node, in ring-walk order from the key's point."""
    if not ring._points:
        return []
    i = bisect_left(ring._points, (key_point(ring, key), -1))
    seen: Set[int] = set()
    out: List[int] = []
    n = len(ring._points)
    for j in range(n):
        _, nid = ring._points[(i + j) % n]
        if nid not in seen:
            seen.add(nid)
            out.append(nid)
            if len(out) == len(ring._nodes):
                break
    return out


def primary_for(ring: HashRing, key: int) -> Optional[int]:
    """First live, non-demoted preference node, else the first live one."""
    live = [n for n in preference_list(ring, key) if n not in ring.down]
    if not live:
        return None
    for nid in live:
        if nid not in ring.demoted:
            return nid
    return live[0]


def replica_set(ring: HashRing, key: int, r: int) -> List[int]:
    """The primary plus the next live preference nodes, at most ``r``."""
    primary = primary_for(ring, key)
    if primary is None:
        return []
    out = [primary]
    for nid in preference_list(ring, key):
        if len(out) >= r:
            break
        if nid in ring.down or nid == primary:
            continue
        out.append(nid)
    return out
