"""Admission control procedure 3: arbitrary constant ``d_s`` values.

Each session declares a constant ``d_s``; admission requires (eq. 19)::

    C ≥ (Σ_A L_max,s · Σ_A r_s) / (Σ_A r_s·d_s)    for every ∅ ≠ A ⊆ φ

The paper notes this needs ``2^|φ| − 1`` subset tests — the cost of the
procedure's full flexibility — and that procedure 2 with one class and
ε = 0 is the special case where every session shares the same ``d``.

We evaluate the test exactly up to :attr:`Procedure3.exhaustive_limit`
sessions. Beyond that we fall back to a *sufficient* condition that is
safe but conservative::

    min_s d_s ≥ (Σ_φ L_max,s) / C

(then for any A: Σ_A r·d ≥ Σ_A r · ΣL_φ/C ≥ Σ_A r · Σ_A L / C, which
rearranges to eq. 19). Admission decisions remain sound either way;
only *rejections* can be spurious in the fallback regime, and the
result object says which regime ran.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

from repro.admission.base import Procedure
from repro.errors import AdmissionError, ConfigurationError
from repro.net.session import Session
from repro.sched.policy import DelayPolicy

__all__ = ["Procedure3", "subsets_feasible"]


def subsets_feasible(entries: List[Tuple[float, float, float]],
                     capacity: float) -> bool:
    """Exact eq.-19 check: entries are ``(rate, l_max, d)`` triples."""
    n = len(entries)
    for size in range(1, n + 1):
        for subset in combinations(entries, size):
            sum_l = sum(l for _, l, _ in subset)
            sum_r = sum(r for r, _, _ in subset)
            sum_rd = sum(r * d for r, _, d in subset)
            if sum_rd <= 0:
                return False
            if capacity < (sum_l * sum_r) / sum_rd - 1e-9:
                return False
    return True


class Procedure3(Procedure):
    """Arbitrary per-session constant ``d_s`` with the eq.-19 guard."""

    def __init__(self, capacity: float, *,
                 exhaustive_limit: int = 18) -> None:
        super().__init__(capacity)
        if exhaustive_limit < 1:
            raise ConfigurationError(
                f"exhaustive limit must be >= 1, got {exhaustive_limit}")
        self.exhaustive_limit = exhaustive_limit
        #: ``(rate, l_max, d)`` per admitted session, in admission order.
        self._entries: Dict[str, Tuple[float, float, float]] = {}
        #: True when the last admit had to use the sufficient condition.
        self.last_check_was_conservative = False

    def _entries_with(self, session: Session,
                      d: float) -> List[Tuple[float, float, float]]:
        return [*self._entries.values(), (session.rate, session.l_max, d)]

    def _check(self, session: Session, d: float) -> None:
        if d <= 0:
            raise ConfigurationError(
                f"d_s must be positive, got {d}")
        self.check_rate_reservation(session)
        entries = self._entries_with(session, d)
        if len(entries) <= self.exhaustive_limit:
            self.last_check_was_conservative = False
            if not subsets_feasible(entries, self.capacity):
                raise AdmissionError(
                    f"eq. 19 fails for some session subset with "
                    f"d={d * 1e3:.3f} ms", rule="eq-19")
            return
        # Conservative fallback beyond the exponential regime.
        self.last_check_was_conservative = True
        total_l = sum(l for _, l, _ in entries)
        min_d = min(delay for _, _, delay in entries)
        if min_d < total_l / self.capacity - 1e-12:
            raise AdmissionError(
                f"sufficient condition fails: min d = {min_d * 1e3:.3f} ms "
                f"< Σ L_max / C = {total_l / self.capacity * 1e3:.3f} ms "
                f"(exact test skipped above {self.exhaustive_limit} "
                "sessions)", rule="eq-19-sufficient")

    def admit(self, session: Session, *, d: float,
              **_ignored) -> DelayPolicy:
        """Admit with constant service parameter ``d`` seconds."""
        self.check_not_admitted(session)
        self._check(session, d)
        policy = DelayPolicy(slope=0.0, offset=float(d),
                             l_max=session.l_max, l_min=session.l_min)
        self._rates[session.id] = session.rate
        self._entries[session.id] = (session.rate, session.l_max, float(d))
        return policy

    def release(self, session_id: str) -> None:
        super().release(session_id)
        self._entries.pop(session_id, None)

    def delay_of(self, session_id: str) -> Optional[float]:
        entry = self._entries.get(session_id)
        return None if entry is None else entry[2]
