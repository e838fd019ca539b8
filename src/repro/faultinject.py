"""Deterministic fault injection for the recovery pipeline.

Arthas exists because bad values survive restarts — but the recovery
pipeline itself persists data, records checkpoints, and patches the pool
across many steps, and a crash can land between any two of them.  This
module lets the harness *prove* the pipeline survives its own failures:

* instrumented code calls :func:`fire` at **named sites** — every
  flush/fence boundary (:mod:`repro.pmem.pool`, which every guest
  persists through), every checkpoint ``record_*`` hook
  (:mod:`repro.checkpoint.manager`), and between reversion steps
  (:mod:`repro.reactor.revert`);
* an :class:`InjectionPlan` decides whether the site fires a fault.
  Plans are **seeded and deterministic** (the same plan against the same
  run injects at exactly the same dynamic point) and **enumerable**
  (record mode counts every site occurrence, and
  :func:`enumerate_cells` expands the counts into the full sweep);
* five fault kinds model the WITCHER / Linux-PM-study failure classes:

  - ``crash``      — the process dies *before* the site's effect persists
                     (:class:`~repro.errors.InjectedCrash` is raised at
                     the site; un-fenced stores are lost when the harness
                     calls ``pool.crash()``);
  - ``torn``       — a fence persists only part of its staged lines, then
                     the process dies (torn cache-line writeback — the
                     Linux-PM-study torn/alignment-update pattern);
  - ``bitflip``    — one bit of a just-recorded checkpoint-log version is
                     flipped (media corruption of checkpoint bytes);
  - ``skip-flush`` — a flush (``clwb``) is silently elided: the range is
                     never staged for writeback, modelling the program
                     *missing* the flush call (WITCHER's missing-flush
                     bug class).  The store stays in the write buffer,
                     reads still see it, and the next power loss drops
                     it even though the program believed it durable;
  - ``skip-fence`` — a fence (``sfence``) is silently elided: staged
                     lines stay staged and persist hooks do not fire, so
                     the ordering the program relied on between the
                     writes before and after the fence is lost
                     (WITCHER's persist-ordering bug class).

``fire`` is a no-op (one module-attribute load and a None check) when no
plan is active, so production paths pay nothing.

Site-name taxonomy (`family` below is what :func:`enumerate_cells`
groups by; occurrences are counted per family per plan):

=========================  ====================================================
site family                fired from
=========================  ====================================================
``pmem.flush``             :meth:`PMPool.flush` (clwb boundary)
``pmem.fence``             :meth:`PMPool.fence`, before durability (sfence)
``ckpt.record_update``     :class:`CheckpointManager` persist hook
``ckpt.record_alloc``      alloc hook
``ckpt.record_free``       free hook
``ckpt.record_tx_begin``   transaction-begin hook
``ckpt.record_tx_commit``  transaction-commit hook
``ckpt.index_merge``       :meth:`CheckpointLog.flush_staging`, before the
                           staged records are merged into the indexes
``revert.cut``             :meth:`Reverter.run_cuts`, before applying a cut
``revert.commit``          after an applied cut re-executes or the budget
                           stops it, before its intent is marked done
``cluster.promote``        :meth:`ShardManager.promote`, after the sick
                           node is marked down on the ring, before the
                           promotion journal entry completes
``cluster.resync``         :meth:`ShardManager.resync`, at the start of
                           the catch-up pass; :meth:`Cluster.rebase_node`,
                           before each op it credits
``cluster.handoff``        :meth:`ShardManager.resync`, after the healed
                           node is demoted + marked up, before the
                           journal records the handoff
``cluster.ship_delta``     :meth:`Cluster._drain_node`, before a queued
                           batch of physical replica deltas is applied
                           to one node (delta replication engine)
``cluster.compact``        :meth:`Cluster.compact`, after the replica
                           round is drained, before the acked delta prefix
                           is truncated
=========================  ====================================================

The ``cluster.*`` sites model a *second* fault arriving mid-promotion:
only ``crash`` applies there (the supervisor is host-side code — there
is no torn store or checkpoint record to corrupt), and every phase is
journaled so a crashed-and-retried promotion converges.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InjectedCrash

#: the supported fault kinds
KINDS = ("crash", "torn", "bitflip", "skip-flush", "skip-fence")

#: kinds the crash-consistency fuzzer injects into *guest* persistence
#: (the recovery-pipeline sweep keeps using crash/torn/bitflip)
FUZZ_KINDS = ("crash", "torn", "skip-flush", "skip-fence")

#: site families the fuzzer targets — the guest-visible persistence
#: boundaries only, so occurrence counts are identical whatever recovery
#: solution (checkpointing or not) is attached to the run
FUZZ_SITES = ("pmem.flush", "pmem.fence")

#: shard-supervisor phase boundaries (promotion protocol) plus the
#: delta-replication shipping/compaction boundaries; crash-only
CLUSTER_SITES = (
    "cluster.promote",
    "cluster.resync",
    "cluster.handoff",
    "cluster.ship_delta",
    "cluster.compact",
)

#: kinds that only make sense at specific site families
_TORN_SITES = ("pmem.fence",)
_BITFLIP_SITES = ("ckpt.record_update",)
_SKIP_FLUSH_SITES = ("pmem.flush",)
_SKIP_FENCE_SITES = ("pmem.fence",)


@dataclass(frozen=True, order=True)
class InjectionSpec:
    """One planned fault: fire ``kind`` at the n-th firing of ``site``."""

    site: str
    occurrence: int = 1
    kind: str = "crash"
    #: seeds the torn split point / flipped bit position
    seed: int = 0

    def label(self) -> str:
        return f"{self.site}#{self.occurrence}:{self.kind}"


class InjectionPlan:
    """Counts site firings and decides which one injects a fault.

    ``record=True`` turns the plan into a pure site recorder: nothing is
    injected, but :attr:`counts` accumulates how often each site fired —
    the input to :func:`enumerate_cells`.

    Every spec is one-shot: a site occurrence passes its counter exactly
    once, so a retry of the crashed step proceeds clean — which is
    exactly the fail-once/recover-after model the sweep verifies.

    A ``(site, occurrence)`` pair can fire at most one spec, so plans
    holding two specs for the same pair are rejected at construction —
    the second spec could never fire, which would silently pin
    :attr:`all_fired` to False and starve the fuzzer of its coverage
    signal.  :meth:`observe` *consumes* the matched spec, making
    ``all_fired`` exactly "every planned injection happened".
    """

    def __init__(self, specs: Iterable[InjectionSpec] = (), record: bool = False):
        self.specs: List[InjectionSpec] = list(specs)
        self.record = record
        #: (site, occurrence) -> spec not yet fired; observe() consumes
        self._pending: Dict[Tuple[str, int], InjectionSpec] = {}
        for spec in self.specs:
            key = (spec.site, spec.occurrence)
            if key in self._pending:
                raise ValueError(
                    f"duplicate injection spec at {spec.site}"
                    f"#{spec.occurrence}: a site occurrence can fire at "
                    f"most one spec, so the duplicate could never fire"
                )
            self._pending[key] = spec
        #: site -> number of times it fired under this plan
        self.counts: Dict[str, int] = {}
        #: specs that actually injected
        self.fired: List[InjectionSpec] = []

    def observe(self, site: str) -> Optional[InjectionSpec]:
        """Count one firing of ``site``; return the spec to inject, if any."""
        n = self.counts.get(site, 0) + 1
        self.counts[site] = n
        if self.record:
            return None
        spec = self._pending.pop((site, n), None)
        if spec is not None:
            self.fired.append(spec)
        return spec

    @property
    def all_fired(self) -> bool:
        """Every planned spec fired — a sound coverage signal now that
        ``observe`` consumes specs and duplicates are rejected."""
        return not self._pending


#: the currently armed plan (None = injection disabled, zero-cost path)
_active: Optional[InjectionPlan] = None


def active() -> Optional[InjectionPlan]:
    """The currently armed plan, if any."""
    return _active


@contextmanager
def activate(plan: InjectionPlan) -> Iterator[InjectionPlan]:
    """Arm ``plan`` for the duration of the ``with`` block."""
    global _active
    prev = _active
    _active = plan
    try:
        yield plan
    finally:
        _active = prev


def fire(site: str) -> Optional[InjectionSpec]:
    """Report that execution reached a named injection site.

    Raises :class:`~repro.errors.InjectedCrash` when the armed plan
    schedules a ``crash`` here.  Returns the spec for kinds the site
    must apply itself (``torn``, ``bitflip``) and None otherwise.
    """
    plan = _active
    if plan is None:
        return None
    spec = plan.observe(site)
    if spec is None:
        return None
    if spec.kind == "crash":
        raise InjectedCrash(
            f"injected crash at {site}#{spec.occurrence}", location=site
        )
    return spec


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def _sample_occurrences(n: int, max_per_site: int) -> List[int]:
    """Up to ``max_per_site`` occurrence indexes in [1, n], always
    including the first and (when allowed) the last — deterministic."""
    if n <= 0:
        return []
    if max_per_site <= 0 or n <= max_per_site:
        return list(range(1, n + 1))
    if max_per_site == 1:
        return [1]
    # spread evenly, endpoints pinned
    step = (n - 1) / (max_per_site - 1)
    occs = sorted({1 + round(i * step) for i in range(max_per_site)})
    return occs


def kind_applies(site: str, kind: str) -> bool:
    """Whether a fault kind is meaningful at a site family."""
    if kind == "crash":
        return True
    if kind == "torn":
        return any(site.startswith(f) for f in _TORN_SITES)
    if kind == "bitflip":
        return any(site.startswith(f) for f in _BITFLIP_SITES)
    if kind == "skip-flush":
        return any(site.startswith(f) for f in _SKIP_FLUSH_SITES)
    if kind == "skip-fence":
        return any(site.startswith(f) for f in _SKIP_FENCE_SITES)
    return False


def enumerate_cells(
    counts: Dict[str, int],
    kinds: Sequence[str] = ("crash",),
    max_per_site: int = 3,
    seed: int = 0,
) -> List[InjectionSpec]:
    """Expand recorded site counts into the sweep's cell list.

    One cell per (site, sampled occurrence, applicable kind), in a
    deterministic order.  ``torn`` cells only target fence sites and
    ``bitflip`` cells only checkpoint-update sites; ``crash`` applies
    everywhere.
    """
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; pick from {KINDS}")
    cells: List[InjectionSpec] = []
    for site in sorted(counts):
        occs = _sample_occurrences(counts[site], max_per_site)
        for kind in kinds:
            if not kind_applies(site, kind):
                continue
            for occ in occs:
                cells.append(InjectionSpec(site, occ, kind, seed=seed))
    return cells
