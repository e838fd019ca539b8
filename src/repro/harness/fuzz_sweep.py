"""Deterministic crash-consistency fuzzer over the guest persistence layer.

The seeded f1–f12 scenarios reproduce *known* bugs; this module grows
the study by *discovering* new ones.  It perturbs the guest-visible
persistence boundaries (``pmem.flush`` / ``pmem.fence`` — chosen because
their firing counts are identical whatever recovery solution is
attached, so a discovered reproducer behaves the same in every matrix
column) with randomized site x kind x occurrence plans:

1. **count** — run a record-mode :class:`FuzzedScenario` through
   ``run_experiment(detect_only=True)`` per system: site firing counts
   for the fuzz window (split into the steady insert burst and the
   reboot-cycle init region) plus the window's *baseline* losses (keys a
   clean run already fails to serve, e.g. level-hash bucket evictions);
2. **fuzz** — deterministic trials (seeded per ``(sweep_seed, system,
   trial)``, so a ``--quick`` sweep is a strict prefix of the full one)
   draw 1–3 specs biased toward the window tail and probe them through
   the same detect-only pipeline; a candidate counts when the failure
   manifests in-guest (the detector needs a fault instruction);
3. **minimize** — symptom-preserving delta debugging: the smallest spec
   subset (singles, then pairs) reproducing the *same* victim set and
   recovery-trap signature becomes the reproducer;
4. **register** — deduplicated discoveries (per-system cap) become
   ``FUZZED_FAULT_SPECS`` entries (``--emit-registry`` rewrites the
   generated block in :mod:`repro.faults.fuzzed`), classified into the
   two new families:

   * ``crash-consistency`` — ``skip-flush`` / ``skip-fence`` in the
     steady region (WITCHER's missing-flush / persist-ordering classes,
     corroborated by the quiescence invariant probe);
   * ``kernel-pm`` — ``torn`` fences (torn/alignment updates) and any
     spec landing in the init region (initialization races).

``python -m repro fuzz-sweep`` drives this through the shared sweep core
(:mod:`repro.harness.sweep`); ``--quick`` runs the first 10 trials per
system and fails when they drift from the committed report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faultinject import FUZZ_KINDS, FUZZ_SITES, kind_applies
from repro.faults.fuzzed import (
    FAMILY_CRASH_CONSISTENCY,
    FAMILY_KERNEL_PM,
    FuzzedScenario,
)
from repro.faults.registry import TABLE2_SCENARIOS
from repro.harness.experiment import run_experiment
from repro.harness.sweep import DriftRule, run_cells
from repro.systems import ALL_ADAPTERS

#: first fid the fuzzer may assign (right after the seeded scenarios)
FIRST_FUZZ_FID = len(TABLE2_SCENARIOS) + 1

DEFAULT_SWEEP_SEED = 2026
#: fuzz trials per system: full sweep, and the ``--quick`` prefix
TRIALS = 40
QUICK_TRIALS = 10
#: registered reproducers per system cap
MAX_PER_SYSTEM = 2

#: probe solution: tracing + checkpointing attached, like any arthas run
PROBE_SOLUTION = "arthas"

Spec = Tuple[str, int, str, int]


# ----------------------------------------------------------------------
@dataclass
class Discovery:
    """One registered fuzzer discovery."""

    fid: str
    system: str
    family: str
    phase: str
    kind: str
    fault: str
    consequence: str
    specs: List[Spec]
    baseline: List[int]
    trial: int
    minimized_from: int
    victims: Dict[int, str] = field(default_factory=dict)
    recover_trap: Optional[str] = None
    invariant: Dict[str, object] = field(default_factory=dict)

    @property
    def signature(self) -> str:
        """Registry dedup identity (fid-independent).

        Deliberately occurrence-free: two torn fences at different
        offsets of the same window are the *same* failure shape, and
        deduping them keeps the per-system cap buying family diversity
        instead of near-duplicates.
        """
        parts = "+".join(
            sorted(f"{site}:{kind}" for site, _occ, kind, _ in self.specs)
        )
        return f"{self.system}|{self.phase}|{parts}"

    def to_json(self) -> dict:
        return {
            "fid": self.fid,
            "system": self.system,
            "family": self.family,
            "phase": self.phase,
            "kind": self.kind,
            "fault": self.fault,
            "consequence": self.consequence,
            "specs": [list(s) for s in self.specs],
            "baseline": list(self.baseline),
            "trial": self.trial,
            "minimized_from": self.minimized_from,
            "victims": {str(k): v for k, v in sorted(self.victims.items())},
            "recover_trap": self.recover_trap,
            "invariant": dict(self.invariant),
            "signature": self.signature,
        }


@dataclass
class SystemFuzz:
    """One system's fuzz window and what its trials registered."""

    system: str
    window_counts: Dict[str, int]
    steady_counts: Dict[str, int]
    baseline_losses: List[int]
    candidates: int = 0
    #: starts at the record-mode window probe
    probes: int = 1
    discoveries: List[Discovery] = field(default_factory=list)

    @property
    def progress_line(self) -> str:
        return (f"{self.system}: {len(self.discoveries)} registered from "
                f"{self.candidates} candidates")

    def to_json(self) -> dict:
        return {
            "window_counts": self.window_counts,
            "steady_counts": self.steady_counts,
            "baseline_losses": self.baseline_losses,
            "candidates": self.candidates,
            "registered": [d.signature for d in self.discoveries],
        }


@dataclass
class FuzzReport:
    """Outcome of one sweep."""

    sweep_seed: int
    trials_per_system: int
    systems: List[SystemFuzz] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def discoveries(self) -> List[Discovery]:
        return [d for row in self.systems for d in row.discoveries]

    @property
    def passed(self) -> bool:
        """The fuzzer's product is its discoveries; only drift fails it."""
        return True

    def to_json(self) -> dict:
        by_family: Dict[str, int] = {}
        for d in self.discoveries:
            by_family[d.family] = by_family.get(d.family, 0) + 1
        return {
            "sweep_seed": self.sweep_seed,
            "trials_per_system": self.trials_per_system,
            "max_per_system": MAX_PER_SYSTEM,
            "probes": sum(row.probes for row in self.systems),
            "systems": {row.system: row.to_json() for row in self.systems},
            "discovered": len(self.discoveries),
            "by_family": {k: by_family[k] for k in sorted(by_family)},
            "entries": [d.to_json() for d in self.discoveries],
        }

    def summary(self) -> str:
        lines = [
            f"fuzz-sweep: {len(self.discoveries)} reproducers registered "
            f"from {sum(row.probes for row in self.systems)} probes over "
            f"{len(self.systems)} systems ({self.wall_seconds:.1f}s wall)"
        ]
        for d in self.discoveries:
            lines.append(
                f"  {d.fid} [{d.family}/{d.phase}] {d.system}: {d.fault}"
            )
        return "\n".join(lines)


DRIFT = DriftRule(
    identity=("sweep_seed", "max_per_system"),
    scope=lambda report: [
        f"{system}#{trial}" for system in report["systems"]
        for trial in range(report["trials_per_system"])
    ],
    # a trial with no entry is "no cell"; fids are numbered across the
    # whole sweep, so a quick run renumbers them
    contracts=lambda report: {
        f"{e['system']}#{e['trial']}": {
            k: v for k, v in e.items() if k != "fid"
        }
        for e in report["entries"]
    },
)


# ----------------------------------------------------------------------
# probing
# ----------------------------------------------------------------------
def probe_scenario(scenario: FuzzedScenario) -> bool:
    """Run the candidate through the real experiment pipeline (phase A +
    trigger + detection); True when the failure manifests *in-guest*."""
    result = run_experiment(scenario, PROBE_SOLUTION, detect_only=True)
    if not result.manifested or result.detection_fault is None:
        return False
    # the detector needs missing/trap victims (or a trapping recovery) —
    # wrong-value-only candidates cannot hand it a fault instruction
    return bool(
        scenario.last_recover_trap
        or any(h in ("missing", "trap") for h in scenario.last_victims.values())
    )


def _symptom(scenario: FuzzedScenario) -> Tuple:
    return (
        scenario.last_recover_trap,
        tuple(sorted(scenario.last_victims.items())),
    )


def record_window(system: str) -> FuzzedScenario:
    """Record-mode probe: window site counts + baseline losses."""
    scenario = FuzzedScenario("fx", system, [], record=True)
    run_experiment(scenario, PROBE_SOLUTION, detect_only=True)
    return scenario


# ----------------------------------------------------------------------
# trial generation
# ----------------------------------------------------------------------
def _draw_specs(rng: random.Random, counts: Dict[str, int]) -> List[Spec]:
    """1–3 distinct (site, occurrence) specs, biased toward the window
    tail (where unrepaired skips survive to the power loss)."""
    r = rng.random()
    n = 1 if r < 0.55 else (2 if r < 0.85 else 3)
    specs: List[Spec] = []
    used = set()
    for _ in range(n * 4):
        if len(specs) >= n:
            break
        site = rng.choice([s for s in FUZZ_SITES if counts.get(s, 0) > 0])
        count = counts[site]
        if rng.random() < 0.5:
            occ = rng.randint(1, count)
        else:
            occ = max(1, count - rng.randint(0, 4))
        if (site, occ) in used:
            continue
        used.add((site, occ))
        kinds = [k for k in FUZZ_KINDS if kind_applies(site, k)]
        kind = rng.choice(kinds)
        specs.append((site, occ, kind, rng.randint(0, 999)))
    return specs


def minimize_specs(
    system: str,
    specs: List[Spec],
    baseline: Sequence[int],
    symptom: Tuple,
) -> Tuple[List[Spec], FuzzedScenario, int]:
    """Symptom-preserving delta debugging over the spec list.

    Returns the smallest subset (singles first, then pairs) whose probe
    reproduces exactly ``symptom``, the probed scenario carrying its
    telemetry, and the number of probes spent.
    """
    probes = 0
    if len(specs) > 1:
        for size in (1, 2):
            if size >= len(specs):
                break
            for subset in combinations(specs, size):
                scenario = FuzzedScenario(
                    "fx", system, list(subset), baseline=baseline
                )
                probes += 1
                if probe_scenario(scenario) and _symptom(scenario) == symptom:
                    return list(subset), scenario, probes
    scenario = FuzzedScenario("fx", system, list(specs), baseline=baseline)
    probes += 1
    probe_scenario(scenario)
    return list(specs), scenario, probes


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def classify(
    specs: Sequence[Spec],
    steady_counts: Dict[str, int],
    scenario: FuzzedScenario,
) -> Tuple[str, str, str, str, str]:
    """(family, phase, kind, fault label, consequence) of a reproducer."""
    regions = [
        "init" if occ > steady_counts.get(site, 0) else "steady"
        for site, occ, _kind, _seed in specs
    ]
    if all(r == "init" for r in regions):
        phase = "init"
    elif any(r == "init" for r in regions):
        phase = "mixed"
    else:
        phase = "steady"
    torn = any(kind == "torn" for _s, _o, kind, _x in specs)
    if phase != "steady" or torn:
        family = FAMILY_KERNEL_PM
    else:
        family = FAMILY_CRASH_CONSISTENCY

    if scenario.last_recover_trap:
        kind_ = "trap"
        consequence = "Repeated crash at recovery"
    elif any(h == "trap" for h in scenario.last_victims.values()):
        kind_ = "trap"
        consequence = "Lookup crash"
    else:
        kind_ = "dataloss"
        consequence = "Data loss"

    _DESCR = {
        "skip-flush": "missing flush at {w}",
        "skip-fence": "elided fence at {w}",
        "torn": "torn fence at {w}",
        "crash": "untimely crash at {w}",
    }
    parts = []
    for (site, occ, kind, _seed), region in zip(specs, regions):
        where = f"{site}#{occ}"
        if region == "init":
            where += " (recovery path)"
        parts.append(_DESCR[kind].format(w=where))
    fault = " + ".join(parts)
    inv = scenario.last_probe
    if inv and not inv.get("consistent", True):
        fault += (
            f"; invariant: {inv.get('at_risk_words', 0)} word(s) at risk "
            f"in the write buffer at quiescence"
        )
    nv = len(scenario.last_victims)
    if scenario.last_recover_trap:
        fault += f"; recovery traps ({scenario.last_recover_trap})"
    elif nv:
        fault += f"; {nv} acked key(s) lost at power loss"
    return family, phase, kind_, fault, consequence


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def fuzz_system(
    system: str, seed: int = DEFAULT_SWEEP_SEED, trials: int = TRIALS,
) -> SystemFuzz:
    """Fuzz one system's persistence window; deterministic per seed.

    Trial RNG streams are seeded per ``(seed, system, trial)``, so fewer
    trials discover a strict prefix of a longer run's discoveries — the
    property the quick drift check relies on.  Discoveries keep the
    placeholder fid ``f?`` until the sweep numbers them.
    """
    sys_idx = sorted(ALL_ADAPTERS).index(system)
    recorder = record_window(system)
    row = SystemFuzz(
        system=system,
        window_counts={s: recorder.last_counts.get(s, 0) for s in FUZZ_SITES},
        steady_counts={
            s: recorder.last_steady_counts.get(s, 0) for s in FUZZ_SITES
        },
        baseline_losses=sorted(recorder.last_raw_victims),
    )
    counts, baseline = row.window_counts, row.baseline_losses
    if not any(counts.values()):
        return row
    for trial in range(trials):
        if len(row.discoveries) >= MAX_PER_SYSTEM:
            break
        rng = random.Random(seed * 1_000_003 + sys_idx * 10_007 + trial)
        specs = _draw_specs(rng, counts)
        if not specs:
            continue
        candidate = FuzzedScenario("fx", system, specs, baseline=baseline)
        row.probes += 1
        if not probe_scenario(candidate):
            continue
        row.candidates += 1
        minimal, probed, spent = minimize_specs(
            system, specs, baseline, _symptom(candidate)
        )
        row.probes += spent
        family, phase, kind_, fault, consequence = classify(
            minimal, row.steady_counts, probed
        )
        discovery = Discovery(
            fid="f?",
            system=system,
            family=family,
            phase=phase,
            kind=kind_,
            fault=fault,
            consequence=consequence,
            specs=[tuple(s) for s in minimal],
            baseline=list(baseline),
            trial=trial,
            minimized_from=len(specs),
            victims=dict(probed.last_victims),
            recover_trap=probed.last_recover_trap,
            invariant=dict(probed.last_probe),
        )
        if discovery.signature in {d.signature for d in row.discoveries}:
            continue
        row.discoveries.append(discovery)
    return row


def run_sweep(
    seed: int = DEFAULT_SWEEP_SEED, quick: bool = False, progress=None,
) -> FuzzReport:
    """Fuzz every system (``quick``: the first :data:`QUICK_TRIALS`
    trials each) and number the discoveries in sweep order."""
    trials = QUICK_TRIALS if quick else TRIALS
    report = FuzzReport(sweep_seed=seed, trials_per_system=trials)
    report.systems, report.wall_seconds = run_cells(
        sorted(ALL_ADAPTERS),
        lambda system: fuzz_system(system, seed, trials),
        progress,
    )
    for i, d in enumerate(report.discoveries):
        d.fid = f"f{FIRST_FUZZ_FID + i}"
    return report


# ----------------------------------------------------------------------
# registry emission
# ----------------------------------------------------------------------
_BEGIN = ("# --- BEGIN FUZZED FAULT SPECS "
          "(generated by `repro fuzz-sweep --emit-registry`) ---")
_END = "# --- END FUZZED FAULT SPECS ---"


def render_registry_block(discoveries: Sequence[Discovery]) -> str:
    """The generated ``FUZZED_FAULT_SPECS`` block, byte-deterministic."""
    lines = [_BEGIN, "FUZZED_FAULT_SPECS: List[Dict[str, object]] = ["]
    for d in discoveries:
        lines.append("    {")
        lines.append(f'        "fid": {d.fid!r},')
        lines.append(f'        "system": {d.system!r},')
        lines.append(f'        "family": {d.family!r},')
        lines.append(f'        "phase": {d.phase!r},')
        lines.append(f'        "kind": {d.kind!r},')
        lines.append(f'        "fault": {d.fault!r},')
        lines.append(f'        "consequence": {d.consequence!r},')
        lines.append(
            '        "specs": ['
            + ", ".join(repr(list(s)) for s in d.specs)
            + "],"
        )
        lines.append(f'        "baseline": {sorted(d.baseline)!r},')
        lines.append("    },")
    lines.append("]")
    lines.append(_END)
    return "\n".join(lines)


def emit_registry(discoveries: Sequence[Discovery], path: str) -> None:
    """Rewrite the generated block of ``faults/fuzzed.py`` in place."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    start = text.index(_BEGIN)
    end = text.index(_END) + len(_END)
    new_text = text[:start] + render_registry_block(discoveries) + text[end:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(new_text)
