"""Mini-Memcached in PMLang: chained hashtable, refcounts, lazy expiry.

Carries the data-structure logic of faults f1-f5 (paper Table 2):

* **f1** — ``mi_refcount`` is an 8-bit counter incremented on every GET
  without an overflow check; ``mc_reap`` frees refcount-0 items assuming
  they are already unlinked.  A wrap to 0 frees a still-linked item; a
  re-insert reclaims the same block and links it to itself — GETs on that
  bucket loop forever (the "assoc_find dead loop").
* **f2** — ``mc_flush_all`` persists a *future* flush time without
  scheduling; GETs then lazily delete perfectly valid items.
* **f3** — ``mc_set`` reads the bucket head, then yields before
  publishing (no bucket lock): two concurrent inserts to one bucket lose
  the first update.
* **f4** — ``mc_append`` stores the value length in 8 bits; the capacity
  check uses the *wrapped* total, so a large append writes far past the
  inline value array, trashing neighbouring items' ``mi_hnext``/
  ``mi_refcount`` words.  The transaction nonetheless covers the real
  range (as PMDK's ``TX_ADD`` of the live buffer would), persisting the
  corruption.
* **f5** — the persisted ``m_rehashing`` flag, when bit-flipped by a
  hardware fault, sends every lookup to a null old-table.

Item layout (11 words): key, insert-time, value length, 6 inline value
words, hash-chain next, refcount — ``mi_hnext`` sits *after* the value
array so an overflow corrupts it, as the paper's bugs do.
"""

from __future__ import annotations

from typing import List

from repro.systems.common import SystemAdapter

#: inline value capacity in words
VALUE_CAP = 6

STRUCTS = {
    "mroot": [
        "m_ht",
        "m_htsize",
        "m_oldht",
        "m_oldhtsize",
        "m_rehashing",
        "m_count",
        "m_bytes",
        "m_flushat",
        "m_time",
        "m_expandlock",
    ],
    "mitem": [
        "mi_key",
        "mi_itime",
        "mi_vallen",
        "mi_d0",
        "mi_d1",
        "mi_d2",
        "mi_d3",
        "mi_d4",
        "mi_d5",
        "mi_hnext",
        "mi_refcount",
    ],
}

SOURCE = '''
def mc_init():
    root = get_root()
    if root == 0:
        root = pm_alloc(sizeof("mroot"))
        ht = pm_alloc(64)
        root.m_ht = ht
        root.m_htsize = 64
        root.m_oldht = 0
        root.m_oldhtsize = 0
        root.m_rehashing = 0
        root.m_count = 0
        root.m_bytes = 0
        root.m_flushat = 0
        root.m_time = 0
        root.m_expandlock = 0
        persist(root, sizeof("mroot"))
        set_root(root)
    return root


def mc_tick(root):
    t = root.m_time + 1
    root.m_time = t
    persist(addr(root.m_time), 1)
    return t


def mc_find(root, key):
    ht = root.m_ht
    size = root.m_htsize
    if root.m_rehashing != 0:
        ht = root.m_oldht
        size = root.m_oldhtsize
        if ht == 0:
            return 0
    b = key % size
    it = ht[b]
    while it != 0:
        if it.mi_key == key:
            return it
        it = it.mi_hnext
    return 0


def mc_set(root, key, val):
    now = mc_tick(root)
    it = mc_find(root, key)
    if it != 0:
        tx_begin()
        tx_add(addr(it.mi_d0), 1)
        tx_add(addr(it.mi_vallen), 1)
        tx_add(addr(root.m_bytes), 1)
        root.m_bytes = root.m_bytes - it.mi_vallen + 1
        it.mi_d0 = val
        it.mi_vallen = 1
        tx_commit()
        return 1
    it = pm_alloc(sizeof("mitem"))
    ht = root.m_ht
    b = key % root.m_htsize
    head = ht[b]
    thread_yield()
    tx_begin()
    tx_add(it, sizeof("mitem"))
    tx_add(addr(ht[b]), 1)
    tx_add(addr(root.m_count), 1)
    tx_add(addr(root.m_bytes), 1)
    it.mi_key = key
    it.mi_itime = now
    it.mi_vallen = 1
    it.mi_d0 = val
    it.mi_refcount = 1
    it.mi_hnext = head
    ht[b] = it
    root.m_count = root.m_count + 1
    root.m_bytes = root.m_bytes + 1
    tx_commit()
    if root.m_count > root.m_htsize * 2:
        mc_expand(root)
    return 1


def mc_get(root, key):
    it = mc_find(root, key)
    if it == 0:
        return -1
    if root.m_flushat != 0:
        if it.mi_itime <= root.m_flushat:
            mc_delete(root, key)
            return -1
    rc = (it.mi_refcount + 1) % 256
    it.mi_refcount = rc
    persist(addr(it.mi_refcount), 1)
    return it.mi_d0


def mc_append(root, key, n, val):
    it = mc_find(root, key)
    if it == 0:
        return 0
    total = it.mi_vallen + n
    stored = total % 256
    if stored > 6:
        return -1
    tx_begin()
    tx_add(it, 3 + total)
    tx_add(addr(root.m_bytes), 1)
    base = it + 3
    i = it.mi_vallen
    while i < total:
        base[i] = val
        i = i + 1
    it.mi_vallen = stored
    root.m_bytes = root.m_bytes + n
    tx_commit()
    return 1


def mc_delete(root, key):
    ht = root.m_ht
    size = root.m_htsize
    if root.m_rehashing != 0:
        ht = root.m_oldht
        size = root.m_oldhtsize
        if ht == 0:
            return 0
    b = key % size
    it = ht[b]
    prev = 0
    while it != 0:
        if it.mi_key == key:
            assert_true(it.mi_refcount < 256, "do_slabs_free: corrupt refcount")
            tx_begin()
            if prev == 0:
                tx_add(addr(ht[b]), 1)
                ht[b] = it.mi_hnext
            else:
                tx_add(addr(prev.mi_hnext), 1)
                prev.mi_hnext = it.mi_hnext
            tx_add(addr(root.m_count), 1)
            tx_add(addr(root.m_bytes), 1)
            root.m_count = root.m_count - 1
            root.m_bytes = root.m_bytes - it.mi_vallen
            tx_commit()
            pm_free(it)
            return 1
        prev = it
        it = it.mi_hnext
    return 0


def mc_reap(root):
    ht = root.m_ht
    size = root.m_htsize
    freed = 0
    b = 0
    while b < size:
        it = ht[b]
        while it != 0:
            nxt = it.mi_hnext
            if it.mi_refcount == 0:
                pm_free(it)
                freed = freed + 1
            it = nxt
        b = b + 1
    return freed


def mc_flush_all(root, when):
    root.m_flushat = when
    persist(addr(root.m_flushat), 1)
    return 1


def mc_expand(root):
    if root.m_expandlock != 0:
        return 0
    thread_yield()
    root.m_expandlock = 1
    newsize = root.m_htsize * 2
    newht = pm_alloc(newsize)
    tx_begin()
    tx_add(addr(root.m_oldht), 1)
    tx_add(addr(root.m_oldhtsize), 1)
    tx_add(addr(root.m_rehashing), 1)
    root.m_oldht = root.m_ht
    root.m_oldhtsize = root.m_htsize
    root.m_rehashing = 1
    oldht = root.m_oldht
    oldsize = root.m_oldhtsize
    b = 0
    while b < oldsize:
        it = oldht[b]
        while it != 0:
            nxt = it.mi_hnext
            nb = it.mi_key % newsize
            tx_add(addr(it.mi_hnext), 1)
            tx_add(addr(newht[nb]), 1)
            it.mi_hnext = newht[nb]
            newht[nb] = it
            it = nxt
        thread_yield()
        b = b + 1
    tx_add(addr(root.m_ht), 1)
    tx_add(addr(root.m_htsize), 1)
    tx_add(addr(root.m_rehashing), 1)
    tx_add(addr(root.m_oldht), 1)
    tx_add(addr(root.m_oldhtsize), 1)
    tx_add(addr(root.m_expandlock), 1)
    root.m_ht = newht
    root.m_htsize = newsize
    root.m_rehashing = 0
    root.m_oldht = 0
    root.m_oldhtsize = 0
    root.m_expandlock = 0
    tx_commit()
    return 1


def mc_check(root, key):
    it = mc_find(root, key)
    assert_true(it != 0, "check: key missing")
    if root.m_flushat != 0:
        assert_true(it.mi_itime > root.m_flushat, "check: key would be expired")
    return it.mi_d0


def mc_recover(root):
    n = 0
    total = 0
    ht = root.m_ht
    size = root.m_htsize
    b = 0
    while b < size:
        it = ht[b]
        while it != 0:
            k = it.mi_key
            total = total + it.mi_vallen
            emit("recover_key", k)
            n = n + 1
            it = it.mi_hnext
        b = b + 1
    root.m_count = n
    root.m_bytes = total
    persist(addr(root.m_count), 1)
    persist(addr(root.m_bytes), 1)
    return n


def mc_scan(root, limit):
    n = 0
    ht = root.m_ht
    size = root.m_htsize
    b = 0
    while b < size:
        it = ht[b]
        steps = 0
        while it != 0:
            if steps > limit:
                return -1
            n = n + 1
            steps = steps + 1
            it = it.mi_hnext
        b = b + 1
    return n


def mc_scan_bytes(root, limit):
    n = 0
    ht = root.m_ht
    size = root.m_htsize
    b = 0
    while b < size:
        it = ht[b]
        steps = 0
        while it != 0:
            if steps > limit:
                return -1
            n = n + it.mi_vallen
            steps = steps + 1
            it = it.mi_hnext
        b = b + 1
    return n


def mc_incr(root, key, delta):
    it = mc_find(root, key)
    if it == 0:
        return -1
    v = it.mi_d0 + delta
    tx_begin()
    tx_add(addr(it.mi_d0), 1)
    it.mi_d0 = v
    tx_commit()
    return v


def mc_touch(root, key, when):
    it = mc_find(root, key)
    if it == 0:
        return 0
    tx_begin()
    tx_add(addr(it.mi_itime), 1)
    it.mi_itime = when
    tx_commit()
    return 1


def mc_cas(root, key, expected, val):
    it = mc_find(root, key)
    if it == 0:
        return -1
    if it.mi_d0 != expected:
        return 0
    tx_begin()
    tx_add(addr(it.mi_d0), 1)
    it.mi_d0 = val
    tx_commit()
    return 1


def mc_refcount(root, key):
    it = mc_find(root, key)
    if it == 0:
        return -1
    return it.mi_refcount


def mc_count(root):
    return root.m_count


def mc_bytes(root):
    return root.m_bytes


def __driver__():
    root = mc_init()
    mc_set(root, 1, 2)
    mc_get(root, 1)
    mc_append(root, 1, 1, 3)
    mc_check(root, 1)
    mc_delete(root, 1)
    mc_reap(root)
    mc_flush_all(root, 0)
    mc_expand(root)
    mc_recover(root)
    mc_scan(root, 10)
    mc_scan_bytes(root, 10)
    mc_refcount(root, 1)
    mc_incr(root, 1, 1)
    mc_touch(root, 1, 5)
    mc_cas(root, 1, 0, 9)
    mc_count(root)
    mc_bytes(root)
    return 0
'''


class MemcachedAdapter(SystemAdapter):
    """Harness adapter for mini-Memcached."""

    NAME = "memcached"
    STRUCTS = STRUCTS
    SOURCE = SOURCE
    INIT_FN = "mc_init"
    RECOVER_FN = "mc_recover"

    ITEM_WORDS = len(STRUCTS["mitem"])

    def insert(self, key: int, value: int) -> int:
        return self.call("mc_set", self.root, key, value)

    def lookup(self, key: int) -> int:
        return self.call("mc_get", self.root, key)

    def delete(self, key: int) -> int:
        return self.call("mc_delete", self.root, key)

    def incr(self, key: int, delta: int) -> int:
        return self.call("mc_incr", self.root, key, delta)

    def touch(self, key: int, when: int) -> int:
        return self.call("mc_touch", self.root, key, when)

    def append(self, key: int, nwords: int, value: int) -> int:
        return self.call("mc_append", self.root, key, nwords, value)

    def flush_all(self, when: int) -> int:
        return self.call("mc_flush_all", self.root, when)

    def reap(self) -> int:
        return self.call("mc_reap", self.root)

    def expand(self) -> int:
        return self.call("mc_expand", self.root)

    def count_items(self) -> int:
        return self.call("mc_count", self.root)

    def check_key(self, key: int) -> None:
        self.call("mc_check", self.root, key)

    def consistency_violations(self) -> List[str]:
        violations = []
        count = self.count_items()
        limit = count + 64
        scanned = self.call("mc_scan", self.root, limit)
        if scanned == -1:
            violations.append("hash chain corrupt (walk exceeded bound)")
        elif scanned != count:
            violations.append(f"item count {count} != scanned items {scanned}")
        scanned_bytes = self.call("mc_scan_bytes", self.root, limit)
        stored_bytes = self.call("mc_bytes", self.root)
        if scanned_bytes != -1 and scanned_bytes != stored_bytes:
            violations.append(
                f"byte accounting {stored_bytes} != scanned bytes {scanned_bytes}"
            )
        return violations

    def _root_field(self, name: str) -> int:
        return self.pool.read(self.root + STRUCTS["mroot"].index(name))

    def expected_item_words(self) -> int:
        # items + current/old hashtables + the root struct itself
        return (
            self.count_items() * self.ITEM_WORDS
            + self._root_field("m_htsize")
            + self._root_field("m_oldhtsize")
            + len(STRUCTS["mroot"])
        )
