"""Admission control procedure 1 (paper rules 1.1-1.3a).

Classes are numbered 1..P with nested bandwidth caps
``R_1 ≤ ... ≤ R_P = C`` and base delays ``σ_1 ≤ ... ≤ σ_P``. Admitting
session ``s_a`` into class ``j`` requires:

* (1.1)  ``R_m ≥ Σ_{classes ≤ m} r``            for m = j..P
* (1.2)  ``σ_m ≥ Σ_{classes ≤ m} L_max/C``      for m = j..P−1

and assigns the service parameter:

* (1.3)   ``d_{i,s} = L_i·R_j/(r·C) + σ_{j-1} + ε``   (per-packet), or
* (1.3a)  ``d_{i,s} = L_max·R_j/(r·C) + σ_{j-1} + ε`` (constant),

with ``σ_0 = 0``. Note σ_P is never used — its value is irrelevant
here, which is why procedure 1 can always exploit the full link
bandwidth (the paper's contrast with procedure 2).

With one class and ε = 0, rule (1.3) gives ``d = L_i/r`` — VirtualClock
mode, under which the delay bound (eq. 15) equals PGPS's.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Sequence

from repro.admission.base import Procedure, RATE_EPSILON
from repro.admission.classes import DelayClass, validate_classes
from repro.errors import AdmissionError, ConfigurationError
from repro.net.session import Session
from repro.sched.policy import DelayPolicy

__all__ = ["Procedure1"]


class Procedure1(Procedure):
    """Nested delay classes, rules (1.1)-(1.3a)."""

    #: Which σ index rule (x.3) uses relative to the admitted class,
    #: and which R index: overridden by Procedure2.
    _SIGMA_SHIFT = -1  # σ_{j-1}
    _R_SHIFT = 0       # R_j

    def __init__(self, capacity: float,
                 classes: Sequence[DelayClass]) -> None:
        super().__init__(capacity)
        self.classes: List[DelayClass] = validate_classes(classes, capacity)
        #: Per class (class k at index k-1), in admission order: each
        #: session's rate r and its L_max/C.
        self._class_rates: List[Dict[str, float]] = [{} for _ in self.classes]
        self._class_loads: List[Dict[str, float]] = [{} for _ in self.classes]
        self._class_index: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def class_count(self) -> int:
        return len(self.classes)

    def rate_in_classes_upto(self, m: int) -> float:
        """Σ r over classes 1..m (rule 1.1's left side).

        One ``sum`` over the whole prefix, not partial sums chained
        across classes: CPython 3.12's ``sum`` compensates rounding
        within a call, so a chained sum can differ in the last bit.
        """
        return sum(chain.from_iterable(
            map(dict.values, self._class_rates[:m])))

    def transmission_load_upto(self, m: int) -> float:
        """Σ L_max,s / C over classes 1..m (the σ tests' left side)."""
        return sum(chain.from_iterable(
            map(dict.values, self._class_loads[:m])))

    # ------------------------------------------------------------------
    # Tests
    # ------------------------------------------------------------------
    def _sigma_test_range(self, j: int) -> range:
        """Rule (1.2) checks m = j..P−1; procedure 2 extends to P."""
        return range(j, self.class_count)

    def _check(self, session: Session, class_number: int) -> None:
        if not 1 <= class_number <= self.class_count:
            raise ConfigurationError(
                f"class {class_number} out of range 1..{self.class_count}")
        self.check_rate_reservation(session)
        # Rule (1.1): bandwidth nesting for m = j..P.
        for m in range(class_number, self.class_count + 1):
            projected = self.rate_in_classes_upto(m) + session.rate
            if projected > self.classes[m - 1].limit_rate + RATE_EPSILON:
                raise AdmissionError(
                    f"class {m} bandwidth cap exceeded: {projected:.0f} > "
                    f"{self.classes[m - 1].limit_rate:.0f} bit/s",
                    rule="1.1")
        # Rule (1.2)/(2.2): base-delay budget.
        for m in self._sigma_test_range(class_number):
            projected = (self.transmission_load_upto(m)
                         + session.l_max / self.capacity)
            if projected > self.classes[m - 1].base_delay + 1e-12:
                raise AdmissionError(
                    f"class {m} base delay too small: needs "
                    f"{projected * 1e3:.3f} ms, has "
                    f"{self.classes[m - 1].base_delay * 1e3:.3f} ms",
                    rule="1.2" if self._SIGMA_SHIFT == -1 else "2.2")

    # ------------------------------------------------------------------
    # Policy construction
    # ------------------------------------------------------------------
    def _policy(self, session: Session, class_number: int, *,
                per_packet: bool, epsilon: float) -> DelayPolicy:
        if epsilon < 0:
            raise ConfigurationError(
                f"epsilon must be non-negative, got {epsilon}")
        r_index = class_number + self._R_SHIFT
        r_value = 0.0 if r_index == 0 else self.classes[r_index - 1].limit_rate
        sigma_index = class_number + self._SIGMA_SHIFT
        sigma = (0.0 if sigma_index == 0
                 else self.classes[sigma_index - 1].base_delay)
        scale = r_value / (session.rate * self.capacity)
        if per_packet:
            # Rule (x.3): d = L_i·R/(r·C) + σ + ε.
            return DelayPolicy(slope=scale, offset=sigma + epsilon,
                               l_max=session.l_max, l_min=session.l_min)
        # Rule (x.3a): constant d = L_max·R/(r·C) + σ + ε.
        return DelayPolicy(slope=0.0,
                           offset=session.l_max * scale + sigma + epsilon,
                           l_max=session.l_max, l_min=session.l_min)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def admit(self, session: Session, *, class_number: int = 1,
              per_packet: bool = True,
              epsilon: float = 0.0) -> DelayPolicy:
        """Admit ``session`` into ``class_number`` (1-based).

        ``per_packet=True`` uses rule (1.3); ``False`` uses (1.3a).
        Returns the node's delay policy for the session.
        """
        self.check_not_admitted(session)
        self._check(session, class_number)
        policy = self._policy(session, class_number,
                              per_packet=per_packet, epsilon=epsilon)
        index = class_number - 1
        self._rates[session.id] = session.rate
        self._class_rates[index][session.id] = session.rate
        self._class_loads[index][session.id] = session.l_max / self.capacity
        self._class_index[session.id] = index
        return policy

    def release(self, session_id: str) -> None:
        super().release(session_id)
        index = self._class_index.pop(session_id, None)
        if index is not None:
            del self._class_rates[index][session_id]
            del self._class_loads[index][session_id]
