"""Baselines evaluated against Arthas (paper Section 6.1).

* :mod:`repro.baselines.pmcriu` — CRIU enhanced with PM-pool dumps:
  coarse-grained, periodic (1/min) whole-pool snapshots, restored
  newest-first on failure.
* :mod:`repro.baselines.arckpt` — Arthas's checkpoint log *without* the
  analyzer: fine-grained entries reverted one at a time in strict
  reverse-time order.  A facet of Arthas, not a real alternative: it only
  recovers bugs whose bad update is the most recent one.

Both are cut sources run by the Arthas reverter's one cut loop.
"""

from repro.baselines.arckpt import ArCkpt
from repro.baselines.pmcriu import PmCRIU

__all__ = ["PmCRIU", "ArCkpt"]
