"""Profile-guided hot-path performance analysis (``repro-analyze``'s hot).

The fourth analyzer in the suite (after lint, verify and det).  The
static half proves per-event costs — allocations, deep attribute
chains, dict probes, ``__dict__``-carrying instances, exception
control flow — inside the kernel-reachability closure; the dynamic
half (``repro-analyze --profile SCENARIO``) runs a shortened scenario
under ``cProfile`` and ranks every finding by measured hotness so
reports lead with what costs real time.
"""

from repro.analysis.hot.model import HotProgram
from repro.analysis.hot.rules import HotRule, registered_rules

__all__ = [
    "HotProgram",
    "HotRule",
    "registered_rules",
]
