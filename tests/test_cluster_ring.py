"""Tests for the consistent-hash ring (distributed placement layer)."""

import pytest

from repro.distributed.ring import HashRing
from tests.oracles import ring as walk


class TestPlacement:
    def test_deterministic_across_instances(self):
        r1 = HashRing(range(5), vnodes=32, seed=7)
        r2 = HashRing(range(5), vnodes=32, seed=7)
        for key in range(200):
            assert r1.primary_for(key) == r2.primary_for(key)
            assert r1.preference_list(key) == r2.preference_list(key)

    def test_seed_changes_placement(self):
        r1 = HashRing(range(5), seed=0)
        r2 = HashRing(range(5), seed=1)
        assert any(
            r1.primary_for(k) != r2.primary_for(k) for k in range(200)
        )

    def test_every_node_owns_keys(self):
        ring = HashRing(range(4))
        owners = {ring.primary_for(k) for k in range(400)}
        assert owners == {0, 1, 2, 3}

    def test_balance_is_roughly_even(self):
        ring = HashRing(range(4), vnodes=64)
        counts = {n: 0 for n in range(4)}
        for key in range(4000):
            counts[ring.primary_for(key)] += 1
        # virtual nodes keep the spread within a loose factor of fair
        assert min(counts.values()) > 4000 / 4 / 3
        assert max(counts.values()) < 4000 / 4 * 3

    def test_preference_list_covers_all_nodes_once(self):
        ring = HashRing(range(5))
        for key in (0, 17, 123456):
            pl = ring.preference_list(key)
            assert sorted(pl) == [0, 1, 2, 3, 4]

    def test_empty_ring(self):
        ring = HashRing([])
        assert ring.preference_list(1) == []
        assert ring.primary_for(1) is None
        assert ring.replica_set(1, 2) == []


class TestMembership:
    def test_join_remaps_only_a_fraction(self):
        before = HashRing(range(4), vnodes=64)
        after = HashRing(range(4), vnodes=64)
        after.add_node(4)
        keys = range(4000)
        moved = sum(
            1 for k in keys if before.primary_for(k) != after.primary_for(k)
        )
        # the new node takes ~1/5 of the space; modulo routing would
        # have remapped ~4/5 of all keys
        assert moved < len(keys) * 0.4
        # and everything that moved, moved TO the new node
        for k in keys:
            if before.primary_for(k) != after.primary_for(k):
                assert after.primary_for(k) == 4

    def test_leave_remaps_only_the_leavers_keys(self):
        before = HashRing(range(5), vnodes=64)
        after = HashRing([0, 1, 3, 4], vnodes=64)
        for k in range(2000):
            if before.primary_for(k) != 2:
                assert after.primary_for(k) == before.primary_for(k)
            else:
                assert after.primary_for(k) != 2

    def test_add_is_idempotent(self):
        ring = HashRing(range(3))
        points = list(ring._points)
        ring.add_node(1)
        assert ring._points == points


class TestStatus:
    def test_mark_down_promotes_next_preference_node(self):
        ring = HashRing(range(3))
        key = next(k for k in range(1000) if ring.primary_for(k) == 0)
        pl = ring.preference_list(key)
        ring.mark_down(0)
        assert ring.primary_for(key) == pl[1]
        ring.mark_up(0)
        assert ring.primary_for(key) == 0

    def test_down_node_never_in_replica_set(self):
        ring = HashRing(range(4))
        ring.mark_down(1)
        for key in range(300):
            assert 1 not in ring.replica_set(key, 3)

    def test_all_down_returns_none(self):
        ring = HashRing(range(2))
        ring.mark_down(0)
        ring.mark_down(1)
        assert ring.primary_for(5) is None
        assert ring.replica_set(5, 2) == []

    def test_demoted_node_serves_as_replica_not_primary(self):
        ring = HashRing(range(3))
        key = next(k for k in range(1000) if ring.primary_for(k) == 0)
        ring.demote(0)
        assert ring.primary_for(key) != 0
        assert 0 in ring.replica_set(key, 3)

    def test_demoted_fronts_reads_when_no_better_candidate(self):
        ring = HashRing(range(2))
        ring.demote(0)
        ring.demote(1)
        assert ring.primary_for(3) is not None

    def test_replica_set_size_bounded_by_live_nodes(self):
        ring = HashRing(range(3))
        ring.mark_down(2)
        for key in range(100):
            rs = ring.replica_set(key, 3)
            assert len(rs) == 2 and 2 not in rs


def _ring_states(n_nodes, seed):
    """(label, ring) per routing state: fresh, one node down, one node
    demoted, all but one down, all demoted, and a node added after the
    ring was built."""
    def ring():
        return HashRing(range(n_nodes), seed=seed)

    down = ring()
    down.mark_down(1)
    demoted = ring()
    demoted.demote(0)
    one_left = ring()
    for nid in range(1, n_nodes):
        one_left.mark_down(nid)
    all_demoted = ring()
    for nid in range(n_nodes):
        all_demoted.demote(nid)
    rejoined = HashRing([n for n in range(n_nodes) if n != 2], seed=seed)
    rejoined.add_node(2)
    return [
        ("fresh", ring()), ("one-down", down), ("one-demoted", demoted),
        ("all-but-one-down", one_left), ("all-demoted", all_demoted),
        ("added-after-build", rejoined),
    ]


class TestPlacementTable:
    """The per-point placement table routes every key exactly as a walk
    of the ring from the key's point does."""

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("n_nodes", [3, 5])
    def test_table_matches_ring_walk(self, n_nodes, seed):
        for label, ring in _ring_states(n_nodes, seed):
            for key in range(5000):
                assert ring.preference_list(key) == walk.preference_list(
                    ring, key
                ), (label, key)
                assert ring.primary_for(key) == walk.primary_for(
                    ring, key
                ), (label, key)
                for r in (2, n_nodes):
                    assert ring.replica_set(key, r) == walk.replica_set(
                        ring, key, r
                    ), (label, key, r)

    def test_empty_ring_matches_ring_walk(self):
        ring = HashRing([])
        assert ring.preference_list(1) == walk.preference_list(ring, 1) == []
        assert ring.primary_for(1) is walk.primary_for(ring, 1) is None
        assert ring.replica_set(1, 2) == walk.replica_set(ring, 1, 2) == []

    def test_flags_change_routing_without_a_rebuild(self):
        ring = HashRing(range(3))
        table = ring._table
        key = next(k for k in range(1000) if ring.primary_for(k) == 0)
        ring.mark_down(0)
        assert ring.primary_for(key) == walk.primary_for(ring, key) != 0
        ring.mark_up(0)
        assert ring.primary_for(key) == 0
        assert ring._table is table
