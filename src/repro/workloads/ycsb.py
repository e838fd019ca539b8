"""YCSB-style workload: zipfian key popularity, configurable mix.

Used by the overhead evaluation (Figure 12 / Table 8): the paper runs
YCSB with a 50% read / 50% write mix against Redis and Memcached, and
custom all-insert benchmarks against the other three systems.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator, List, Tuple

from repro.workloads.generators import VALUE_BASE, Op, OpKind


@lru_cache(maxsize=64)
def _zipf_cdf(keyspace: int, theta: float) -> Tuple[float, ...]:
    """Inverse-CDF table for a zipfian over ``keyspace`` ranks.

    The table depends only on ``(keyspace, theta)``, never on the seed,
    so it is cached: repeated ``run_ops`` batches and the sustained
    serving stream stop paying the O(keyspace) float build per call.
    """
    weights = [1.0 / ((rank + 1) ** theta) for rank in range(keyspace)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return tuple(cdf)


def zipf_keys(
    n: int, keyspace: int, theta: float, seed: int, use_cache: bool = True
) -> List[int]:
    """Draw ``n`` keys from a zipfian distribution over ``keyspace``.

    Uses the standard inverse-CDF construction (ranks weighted by
    ``1/rank**theta``); theta=0 degenerates to uniform.  The CDF is
    memoized per ``(keyspace, theta)``; ``use_cache=False`` rebuilds it
    from scratch (the oracle path — draws must come out identical, which
    ``tests/test_live_server.py`` pins).
    """
    rng = random.Random(seed)
    if use_cache:
        cdf = _zipf_cdf(keyspace, theta)
    else:
        weights = [1.0 / ((rank + 1) ** theta) for rank in range(keyspace)]
        total = sum(weights)
        acc = 0.0
        fresh = []
        for w in weights:
            acc += w / total
            fresh.append(acc)
        cdf = tuple(fresh)

    keys = []
    for _ in range(n):
        u = rng.random()
        lo, hi = 0, keyspace - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        keys.append(lo)
    return keys


class YCSBWorkload:
    """read/update mix over a preloaded zipfian keyspace."""

    def __init__(
        self,
        seed: int = 0,
        keyspace: int = 512,
        read_ratio: float = 0.5,
        theta: float = 0.9,
    ):
        self.rng = random.Random(seed)
        self.keyspace = keyspace
        self.read_ratio = read_ratio
        self.theta = theta

    def load_ops(self) -> Iterator[Op]:
        """The load phase: insert every key once."""
        for key in range(self.keyspace):
            yield Op(OpKind.INSERT, key, VALUE_BASE + key)

    def run_ops(self, n: int) -> Iterator[Op]:
        """The transaction phase: zipfian reads and updates."""
        keys = zipf_keys(n, self.keyspace, self.theta, self.rng.randrange(1 << 30))
        for key in keys:
            if self.rng.random() < self.read_ratio:
                yield Op(OpKind.GET, key)
            else:
                yield Op(OpKind.INSERT, key, VALUE_BASE + key + 1)
