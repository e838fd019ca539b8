"""The one core behind the seeded sweeps and the committed reports.

``matrix-all``, ``inject-sweep``, ``fuzz-sweep`` and ``cluster-sweep``
share one skeleton: seeded cells → run → verdict → report → drift
check.  Each sweep module keeps only what is its own — a cell
enumerator for ``(seed, quick)``, a cell function, a cell record and
its summary lines (a report with ``to_json()``, ``summary()`` and a
``passed`` verdict) — plus a :class:`DriftRule` over its report JSON.
This module owns the rest, without knowing which sweep it serves:

* :func:`run_cells` — the timed cell loop;
* :func:`write_report` — the one ``results/*.json`` writer (indent 2,
  sorted keys, trailing newline; ``-`` skips writing), which
  ``serve-bench`` uses too;
* :func:`check_against` — the drift rule;
* :func:`conclude` — the subcommands' shared tail and exit code.

**No measured time in a report.**  A report's JSON is a pure function
of the code and its seed: wall-clock seconds go to the summary lines,
never into ``to_json()``.  So a full run regenerates its committed
report byte-identical, and ``git diff --exit-code results/`` after the
four full runs is the drift check CI runs.

**The drift rule.**  A sweep names its *identity* (top-level report
fields that must match exactly) and supplies two pure functions of its
report JSON, applied alike to the fresh report and the committed one:
*scope* (the cell keys the fresh run covered) and *contracts* (each
cell's deterministic outcome fields, by cell key).  A check fails when an
identity field differs, or when, for some key in the fresh scope, the
committed contract differs from the fresh one; nested fields are named
with dots (``summary.mitigation.attempts``).  A key absent on one side
counts as "no cell", so a vanished cell and a new one are both flagged.

Both modes drift-check against the report at ``--out`` when one exists.
``--quick`` runs the CI subset, fails on drift and writes nothing.  A
full run prints the same drift lines, then rewrites ``--out``; its exit
code is the sweep's own verdict.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class DriftRule:
    """What a sweep's committed report must agree on with a fresh run."""

    #: top-level report fields that must match exactly
    identity: Sequence[str]
    #: report -> the cell keys the run covered
    scope: Callable[[dict], Iterable[str]]
    #: report -> {cell key: deterministic outcome fields}
    contracts: Callable[[dict], Dict[str, dict]]


def run_cells(
    cells: Iterable,
    run_cell: Callable,
    progress: Optional[Callable] = None,
) -> Tuple[list, float]:
    """Run every cell in order: the records and the wall seconds taken,
    counting any work the ``cells`` iterable does lazily."""
    t0 = time.time()
    records = []
    for cell in cells:
        record = run_cell(cell)
        records.append(record)
        if progress is not None:
            progress(record)
    return records, time.time() - t0


def check_against(fresh: dict, committed: dict, rule: DriftRule) -> List[str]:
    """The drift rule; returns one line per problem (empty: no drift)."""
    problems = [
        f"{name} mismatch: committed {committed.get(name)!r} vs "
        f"{fresh.get(name)!r}"
        for name in rule.identity
        if committed.get(name) != fresh.get(name)
    ]
    if problems:
        return problems
    want, got = rule.contracts(committed), rule.contracts(fresh)
    for key in rule.scope(fresh):
        old, new = want.get(key), got.get(key)
        if old == new:
            continue
        if old is None or new is None:
            side = "committed report" if old is None else "fresh run"
            problems.append(f"cell {key} missing from {side}")
            continue
        old, new = _flat(old), _flat(new)
        problems.extend(
            f"cell {key} drifted on {field}: committed "
            f"{old.get(field)!r} vs {new.get(field)!r}"
            for field in sorted(set(old) | set(new))
            if old.get(field) != new.get(field)
        )
    return problems


def _flat(record: dict, prefix: str = "") -> dict:
    """``record`` with nested dicts flattened to dotted field names."""
    out = {}
    for name, value in record.items():
        if isinstance(value, dict) and value:
            out.update(_flat(value, f"{prefix}{name}."))
        else:
            out[prefix + name] = value
    return out


def write_report(payload: dict, out: str) -> None:
    """Write a results JSON; ``out == "-"`` skips writing."""
    if out == "-":
        return
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out}", file=sys.stderr)


def conclude(report, rule: DriftRule, out: str, quick: bool) -> int:
    """Print the summary, drift-check against the report at ``out``
    when there is one, then write ``out`` (full runs only).

    Exit code 0 only when the sweep's own verdict (``report.passed``)
    holds and, for a quick run, a committed report exists and shows no
    drift.
    """
    print(report.summary())
    payload = report.to_json()
    problems: List[str] = []
    if out != "-" and os.path.exists(out):
        with open(out) as f:
            problems = check_against(payload, json.load(f), rule)
        if not problems:
            print(f"drift check: no drift against {out}", file=sys.stderr)
    elif quick:
        problems = [f"no committed report at {out}"]
    for p in problems:
        print(f"drift check: {p}", file=sys.stderr)
    if quick:
        return 0 if report.passed and not problems else 1
    write_report(payload, out)
    return 0 if report.passed else 1
