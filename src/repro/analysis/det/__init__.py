"""Determinism & parallel-safety analysis (``repro-analyze``'s det).

The third analyzer, gating the space-parallel kernel (see
:doc:`docs/determinism`):

* **Static** — :mod:`.rules` runs three whole-program rules
  (shared-mutable-state, rng-stream-discipline, unordered-merge) over
  the same per-file summaries and call graph as verify.
* **Dynamic** — :mod:`.perturb` reruns a scenario under shuffled
  tie-break order, shuffled session registration, ``workers=1`` vs
  ``workers=N``, and shuffled space-parallel partitions, diffing
  observables and traces and minimizing any divergence to the first
  differing event (``repro-analyze --perturb SCENARIO``).

This ``__init__`` imports only the static side; the differ (which
pulls the experiment stack) is imported lazily by the front door.
"""

from repro.analysis.det.rules import registered_rules

__all__ = ["registered_rules"]
