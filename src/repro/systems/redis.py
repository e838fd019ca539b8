"""Mini-Redis in PMLang: dict of refcounted objects, listpacks, slowlog.

Carries the logic of faults f6-f8 (paper Table 2):

* **f6** — the listpack element encoder mis-encodes the stored length of
  large elements (``elemlen % 48``) while writing ``elemlen`` words of
  data, so the walk cursor desynchronises and interprets a data word
  (a large value) as a length; the next hop reads far outside the pool —
  segmentation fault.  The corrupt listpack is persisted, so the fault
  recurs across restarts.
* **f7** — ``rd_getset`` decrements the replaced object's refcount twice
  (copy-paste logic bug).  A shared object hits refcount 0 while still
  referenced: it is freed and its persisted refcount reads 0, so the next
  access panics ("server panic").  The freed block is then reclaimed by
  later allocations, which is what makes purge-mode recovery semantically
  delicate.
* **f8** — ``rd_slowlog_trim`` unlinks old slowlog entries but forgets to
  free them: a persistent memory leak that grows for as long as slow
  commands arrive.

Objects are reference-counted (``rd_copy`` shares an object between two
keys).  Integer objects hold the value inline; listpack objects point to
a separately allocated, reallocatable block.
"""

from __future__ import annotations

from typing import List

from repro.systems.common import SystemAdapter

#: listpack elements at least this long take the (buggy) large encoding
LP_LARGE = 48

STRUCTS = {
    "rroot": [
        "rd_dict",
        "rd_dictsize",
        "rd_count",
        "rd_slowhead",
        "rd_slowlen",
        "rd_time",
    ],
    "rentry": ["re_key", "re_obj", "re_next"],
    "robj": ["ro_refcount", "ro_type", "ro_val"],
    "rlp": ["lp_nwords", "lp_cap", "lp_nelems"],
    "rslow": ["sl_time", "sl_dur", "sl_next"],
}

SOURCE = '''
def rd_init():
    root = get_root()
    if root == 0:
        root = pm_alloc(sizeof("rroot"))
        d = pm_alloc(64)
        root.rd_dict = d
        root.rd_dictsize = 64
        root.rd_count = 0
        root.rd_slowhead = 0
        root.rd_slowlen = 0
        root.rd_time = 0
        persist(root, sizeof("rroot"))
        set_root(root)
    return root


def rd_tick(root):
    t = root.rd_time + 1
    root.rd_time = t
    persist(addr(root.rd_time), 1)
    return t


def rd_find(root, key):
    d = root.rd_dict
    b = key % root.rd_dictsize
    e = d[b]
    while e != 0:
        if e.re_key == key:
            return e
        e = e.re_next
    return 0


def rd_new_int_obj(val):
    o = pm_alloc(sizeof("robj"))
    tx_begin()
    tx_add(o, sizeof("robj"))
    o.ro_refcount = 1
    o.ro_type = 0
    o.ro_val = val
    tx_commit()
    return o


def rd_set(root, key, val):
    rd_tick(root)
    e = rd_find(root, key)
    if e != 0:
        o = e.re_obj
        if o.ro_type == 0:
            tx_begin()
            tx_add(addr(o.ro_val), 1)
            o.ro_val = val
            tx_commit()
            return 1
        return 0
    o = rd_new_int_obj(val)
    e = pm_alloc(sizeof("rentry"))
    d = root.rd_dict
    b = key % root.rd_dictsize
    tx_begin()
    tx_add(e, sizeof("rentry"))
    tx_add(addr(d[b]), 1)
    tx_add(addr(root.rd_count), 1)
    e.re_key = key
    e.re_obj = o
    e.re_next = d[b]
    d[b] = e
    root.rd_count = root.rd_count + 1
    tx_commit()
    return 1


def rd_get(root, key):
    e = rd_find(root, key)
    if e == 0:
        return -1
    o = e.re_obj
    assert_true(o.ro_refcount > 0, "panic: refcount underflow on live object")
    if o.ro_type == 0:
        return o.ro_val
    return o.ro_val


def rd_copy(root, dst, src):
    se = rd_find(root, src)
    if se == 0:
        return 0
    if rd_find(root, dst) != 0:
        return 0
    o = se.re_obj
    rc = o.ro_refcount + 1
    tx_begin()
    tx_add(addr(o.ro_refcount), 1)
    o.ro_refcount = rc
    tx_commit()
    e = pm_alloc(sizeof("rentry"))
    d = root.rd_dict
    b = dst % root.rd_dictsize
    tx_begin()
    tx_add(e, sizeof("rentry"))
    tx_add(addr(d[b]), 1)
    tx_add(addr(root.rd_count), 1)
    e.re_key = dst
    e.re_obj = o
    e.re_next = d[b]
    d[b] = e
    root.rd_count = root.rd_count + 1
    tx_commit()
    return 1


def rd_decr_ref(o):
    rc = o.ro_refcount - 1
    o.ro_refcount = rc
    persist(addr(o.ro_refcount), 1)
    if rc == 0:
        if o.ro_type == 1:
            pm_free(o.ro_val)
        pm_free(o)
        return 1
    return 0


def rd_getset(root, key, val):
    e = rd_find(root, key)
    if e == 0:
        rd_set(root, key, val)
        return -1
    old = e.re_obj
    oldval = old.ro_val
    o = rd_new_int_obj(val)
    tx_begin()
    tx_add(addr(e.re_obj), 1)
    e.re_obj = o
    tx_commit()
    rd_decr_ref(old)
    rd_decr_ref(old)
    return oldval


def rd_delete(root, key):
    d = root.rd_dict
    b = key % root.rd_dictsize
    e = d[b]
    prev = 0
    while e != 0:
        if e.re_key == key:
            tx_begin()
            if prev == 0:
                tx_add(addr(d[b]), 1)
                d[b] = e.re_next
            else:
                tx_add(addr(prev.re_next), 1)
                prev.re_next = e.re_next
            tx_add(addr(root.rd_count), 1)
            root.rd_count = root.rd_count - 1
            tx_commit()
            rd_decr_ref(e.re_obj)
            pm_free(e)
            return 1
        prev = e
        e = e.re_next
    return 0


def rd_lpush(root, key, elemlen, val):
    rd_tick(root)
    e = rd_find(root, key)
    if e == 0:
        lp = pm_alloc(3 + 64)
        tx_begin()
        tx_add(lp, 3)
        lp.lp_nwords = 0
        lp.lp_cap = 64
        lp.lp_nelems = 0
        tx_commit()
        o = pm_alloc(sizeof("robj"))
        tx_begin()
        tx_add(o, sizeof("robj"))
        o.ro_refcount = 1
        o.ro_type = 1
        o.ro_val = lp
        tx_commit()
        en = pm_alloc(sizeof("rentry"))
        d = root.rd_dict
        b = key % root.rd_dictsize
        tx_begin()
        tx_add(en, sizeof("rentry"))
        tx_add(addr(d[b]), 1)
        tx_add(addr(root.rd_count), 1)
        en.re_key = key
        en.re_obj = o
        en.re_next = d[b]
        d[b] = en
        root.rd_count = root.rd_count + 1
        tx_commit()
        e = en
    o = e.re_obj
    if o.ro_type != 1:
        return 0
    lp = o.ro_val
    needed = lp.lp_nwords + 1 + elemlen
    if needed % 256 > lp.lp_cap:
        newcap = lp.lp_cap * 2
        while newcap < needed:
            newcap = newcap * 2
        lp = pm_realloc(lp, 3 + newcap)
        tx_begin()
        tx_add(addr(lp.lp_cap), 1)
        tx_add(addr(o.ro_val), 1)
        lp.lp_cap = newcap
        o.ro_val = lp
        tx_commit()
    base = lp + 3
    off = lp.lp_nwords
    tx_begin()
    tx_add(lp, 3 + needed)
    base[off] = elemlen
    i = 0
    while i < elemlen:
        base[off + 1 + i] = val
        i = i + 1
    lp.lp_nwords = needed
    lp.lp_nelems = lp.lp_nelems + 1
    tx_commit()
    return 1


def rd_lrange(root, key):
    e = rd_find(root, key)
    if e == 0:
        return -1
    o = e.re_obj
    if o.ro_type != 1:
        return -1
    lp = o.ro_val
    base = lp + 3
    total = 0
    off = 0
    while off < lp.lp_nwords:
        elen = base[off]
        i = 0
        while i < elen:
            total = total + base[off + 1 + i]
            i = i + 1
        off = off + 1 + elen
    return total


def rd_incr(root, key, delta):
    e = rd_find(root, key)
    if e == 0:
        rd_set(root, key, delta)
        return delta
    o = e.re_obj
    if o.ro_type != 0:
        return -1
    v = o.ro_val + delta
    tx_begin()
    tx_add(addr(o.ro_val), 1)
    o.ro_val = v
    tx_commit()
    return v


def rd_exists(root, key):
    if rd_find(root, key) != 0:
        return 1
    return 0


def rd_llen(root, key):
    e = rd_find(root, key)
    if e == 0:
        return -1
    o = e.re_obj
    if o.ro_type != 1:
        return -1
    lp = o.ro_val
    return lp.lp_nelems


def rd_slow_op(root, dur):
    now = rd_tick(root)
    s = pm_alloc(sizeof("rslow"))
    tx_begin()
    tx_add(s, sizeof("rslow"))
    tx_add(addr(root.rd_slowhead), 1)
    tx_add(addr(root.rd_slowlen), 1)
    s.sl_time = now
    s.sl_dur = dur
    s.sl_next = root.rd_slowhead
    root.rd_slowhead = s
    root.rd_slowlen = root.rd_slowlen + 1
    tx_commit()
    if root.rd_slowlen > 8:
        rd_slowlog_trim(root, 8)
    return 1


def rd_slowlog_trim(root, maxlen):
    n = 0
    s = root.rd_slowhead
    prev = 0
    while s != 0:
        n = n + 1
        nxt = s.sl_next
        if n == maxlen:
            tx_begin()
            tx_add(addr(s.sl_next), 1)
            tx_add(addr(root.rd_slowlen), 1)
            s.sl_next = 0
            root.rd_slowlen = maxlen
            tx_commit()
        prev = s
        s = nxt
    return n


def rd_check(root, key):
    e = rd_find(root, key)
    assert_true(e != 0, "check: key missing")
    o = e.re_obj
    assert_true(o.ro_refcount > 0, "check: refcount underflow")
    return o.ro_val


def rd_recover(root):
    n = 0
    d = root.rd_dict
    size = root.rd_dictsize
    b = 0
    while b < size:
        e = d[b]
        while e != 0:
            o = e.re_obj
            t = o.ro_type
            if t == 1:
                lp = o.ro_val
                w = lp.lp_nwords
            n = n + 1
            e = e.re_next
        b = b + 1
    m = 0
    s = root.rd_slowhead
    while s != 0:
        t = s.sl_time
        m = m + 1
        s = s.sl_next
    root.rd_count = n
    root.rd_slowlen = m
    persist(addr(root.rd_count), 1)
    persist(addr(root.rd_slowlen), 1)
    return n


def rd_lpcheck(root):
    bad = 0
    d = root.rd_dict
    size = root.rd_dictsize
    b = 0
    while b < size:
        e = d[b]
        while e != 0:
            o = e.re_obj
            if o.ro_type == 1:
                lp = o.ro_val
                if lp.lp_nwords > lp.lp_cap:
                    bad = bad + 1
            e = e.re_next
        b = b + 1
    return bad


def rd_scan(root, limit):
    n = 0
    d = root.rd_dict
    size = root.rd_dictsize
    b = 0
    while b < size:
        e = d[b]
        steps = 0
        while e != 0:
            if steps > limit:
                return -1
            n = n + 1
            steps = steps + 1
            e = e.re_next
        b = b + 1
    return n


def rd_count(root):
    return root.rd_count


def rd_slowlen(root):
    return root.rd_slowlen


def __driver__():
    root = rd_init()
    rd_set(root, 1, 2)
    rd_get(root, 1)
    rd_copy(root, 2, 1)
    rd_getset(root, 1, 3)
    rd_delete(root, 2)
    rd_lpush(root, 5, 2, 7)
    rd_lrange(root, 5)
    rd_incr(root, 1, 2)
    rd_exists(root, 1)
    rd_llen(root, 5)
    rd_slow_op(root, 11)
    rd_slowlog_trim(root, 8)
    rd_check(root, 5)
    rd_recover(root)
    rd_lpcheck(root)
    rd_scan(root, 10)
    rd_count(root)
    rd_slowlen(root)
    return 0
'''


class RedisAdapter(SystemAdapter):
    """Harness adapter for mini-Redis."""

    NAME = "redis"
    STRUCTS = STRUCTS
    SOURCE = SOURCE
    INIT_FN = "rd_init"
    RECOVER_FN = "rd_recover"

    def insert(self, key: int, value: int) -> int:
        return self.call("rd_set", self.root, key, value)

    def lookup(self, key: int) -> int:
        return self.call("rd_get", self.root, key)

    def delete(self, key: int) -> int:
        return self.call("rd_delete", self.root, key)

    def copy(self, dst: int, src: int) -> int:
        return self.call("rd_copy", self.root, dst, src)

    def getset(self, key: int, value: int) -> int:
        return self.call("rd_getset", self.root, key, value)

    def lpush(self, key: int, elemlen: int, value: int) -> int:
        return self.call("rd_lpush", self.root, key, elemlen, value)

    def lrange(self, key: int) -> int:
        return self.call("rd_lrange", self.root, key)

    def incr(self, key: int, delta: int) -> int:
        return self.call("rd_incr", self.root, key, delta)

    def exists(self, key: int) -> int:
        return self.call("rd_exists", self.root, key)

    def slow_op(self, duration: int) -> int:
        return self.call("rd_slow_op", self.root, duration)

    def count_items(self) -> int:
        return self.call("rd_count", self.root)

    def check_key(self, key: int) -> None:
        self.call("rd_check", self.root, key)

    def consistency_violations(self) -> List[str]:
        violations = []
        count = self.count_items()
        scanned = self.call("rd_scan", self.root, count + 64)
        if scanned == -1:
            violations.append("dict chain corrupt (walk exceeded bound)")
        elif scanned != count:
            violations.append(f"dict count {count} != scanned entries {scanned}")
        bad_lp = self.call("rd_lpcheck", self.root)
        if bad_lp:
            violations.append(f"{bad_lp} listpack(s) with size beyond capacity")
        return violations

    def expected_item_words(self) -> int:
        # integer objects only (leak scenarios avoid listpacks): entry + obj
        entry_words = len(STRUCTS["rentry"]) + len(STRUCTS["robj"])
        slow_words = self.call("rd_slowlen", self.root) * len(STRUCTS["rslow"])
        return (
            self.count_items() * entry_words
            + slow_words
            + 64
            + len(STRUCTS["rroot"])
        )
