"""Shared admission-procedure machinery.

A procedure instance guards ONE server node (one outgoing link). It
tracks admitted sessions, enforces the rate-reservation constraint
(paper eq. 18) common to all three procedures, and mints the
:class:`~repro.sched.policy.DelayPolicy` that fixes ``d_{i,s}`` at this
node. Each sum a test needs is one ``sum`` over an insertion-ordered
dict of floats, in admission order, so it is bit-identical to summing
the admitted sessions; running ``+=``/``-=`` totals would not be.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict

from repro.errors import AdmissionError
from repro.net.session import Session
from repro.sched.policy import DelayPolicy

__all__ = ["Procedure"]

#: Slack for floating-point equality in the ≤-capacity tests; the
#: paper's configurations commit capacity *exactly* (48 × 32 kbit/s on
#: a 1536 kbit/s link), which must pass.
RATE_EPSILON = 1e-6


class Procedure(ABC):
    """Base class: one admission procedure guarding one link."""

    def __init__(self, capacity: float) -> None:
        if capacity <= 0:
            raise AdmissionError(
                f"link capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        #: Reserved rate per admitted session, in admission order.
        self._rates: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Common state
    # ------------------------------------------------------------------
    @property
    def reserved_rate(self) -> float:
        """Σ r_j over admitted sessions."""
        return sum(self._rates.values())

    @property
    def admitted_count(self) -> int:
        return len(self._rates)

    def is_admitted(self, session_id: str) -> bool:
        return session_id in self._rates

    def check_rate_reservation(self, session: Session) -> None:
        """Paper eq. 18: Σ r_j ≤ C including the candidate."""
        projected = self.reserved_rate + session.rate
        if projected > self.capacity + RATE_EPSILON:
            raise AdmissionError(
                f"rate reservation would exceed capacity: "
                f"{projected:.0f} > {self.capacity:.0f} bit/s",
                rule="eq-18")

    def check_not_admitted(self, session: Session) -> None:
        """Reject a second admission of the same session id."""
        if session.id in self._rates:
            raise AdmissionError(
                f"session {session.id!r} is already admitted here",
                rule="duplicate")

    # ------------------------------------------------------------------
    # Procedure-specific
    # ------------------------------------------------------------------
    @abstractmethod
    def admit(self, session: Session, **options) -> DelayPolicy:
        """Run every test; record the session; return its delay policy.

        Raises (leaving state untouched) if any test fails:
        :class:`~repro.errors.AdmissionError` for a rejection,
        :class:`~repro.errors.ConfigurationError` for bad options.
        """

    def release(self, session_id: str) -> None:
        """Tear down a session's reservation (connection teardown)."""
        self._rates.pop(session_id, None)
