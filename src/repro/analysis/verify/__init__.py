"""Whole-program semantic analysis + runtime conservation sanitizer.

Two coupled layers (see :doc:`docs/static_analysis` and
:doc:`docs/sanitizer`):

* **Static** — :mod:`.model` extracts per-file summaries and joins
  them into a :class:`~repro.analysis.verify.model.Program` (symbol
  table, call graph, dimension inference); :mod:`.rules` runs four
  interprocedural rules over it.  ``repro-analyze``
  (:mod:`repro.analysis.front`) builds, caches and runs them.
* **Runtime** — :mod:`.sanitizer` installs conservation-law checkers
  into a live simulation (``--sanitize`` / ``REPRO_SANITIZE=1``),
  verifying per-node packet conservation, reservation sums, LiT label
  monotonicity, and kernel-clock monotonicity with zero hot-path cost
  when disabled.

This ``__init__`` deliberately imports only the cheap AST-side API;
the sanitizer (which touches simulator types) is imported lazily by
:class:`repro.net.network.Network` when enabled.
"""

from repro.analysis.verify.model import Program, summarize_tree
from repro.analysis.verify.rules import ProgramRule, registered_rules

__all__ = [
    "Program",
    "ProgramRule",
    "registered_rules",
    "summarize_tree",
]
