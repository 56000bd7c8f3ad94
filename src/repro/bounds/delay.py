"""End-to-end delay bounds (paper eq. 12-15).

The bound has three parts::

    D_max < D_ref_max + β + α            (eq. 12)

* ``D_ref_max`` — the session's worst delay in its private fixed-rate
  reference server; for a token-bucket ``(r, b0)`` session it is
  ``b0 / r`` (eq. 14).
* ``β`` (eq. 13) — per-hop constants: one maximum-packet transmission
  time plus propagation per hop, plus ``d_max`` of every hop but the
  last.
* ``α`` — the last hop's worst excess of ``d_i`` over ``L_i/r_s``;
  zero whenever ``d_i = L_i/r_s`` (VirtualClock mode), in which case
  eq. 15 coincides with the PGPS bound.

The low-level functions are pure arithmetic over explicit per-node
parameters; :func:`compute_session_bounds` extracts those parameters
from a built :class:`~repro.net.network.Network` and a session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.bounds.buffer import buffer_bounds_along_route
from repro.bounds.jitter import jitter_bound
from repro.errors import ConfigurationError
from repro.sched.policy import DelayPolicy, virtual_clock_policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.session import Session

__all__ = [
    "beta_constant",
    "alpha_constant",
    "delay_bound",
    "token_bucket_reference_delay",
    "SessionBounds",
    "compute_session_bounds",
    "provision_buffers",
]


def beta_constant(l_max_network: float, capacities: Sequence[float],
                  propagations: Sequence[float],
                  d_maxes: Sequence[float]) -> float:
    """β (eq. 13): Σ_n (L_MAX/C_n + Γ_n) + Σ_{n<N} d_max^n.

    ``capacities``, ``propagations`` and ``d_maxes`` align with the
    session's route (length N ≥ 1).
    """
    hops = len(capacities)
    if hops == 0:
        raise ConfigurationError("a route needs at least one hop")
    if not (len(propagations) == len(d_maxes) == hops):
        raise ConfigurationError(
            "capacities, propagations, and d_maxes must align")
    per_hop = sum(l_max_network / c + g
                  for c, g in zip(capacities, propagations))
    regulator_part = sum(d_maxes[:-1])
    return per_hop + regulator_part


def alpha_constant(last_hop_policy: DelayPolicy, rate: float) -> float:
    """α^N: max_i (d_{i,s}^N − L_{i,s}/r_s) at the last hop (eq. 12)."""
    return last_hop_policy.alpha_term(rate)


def delay_bound(d_ref_max: float, beta: float, alpha: float) -> float:
    """Eq. 12 assembled: D_max < D_ref_max + β + α."""
    return d_ref_max + beta + alpha


def token_bucket_reference_delay(depth: float, rate: float) -> float:
    """Eq. 14: D_ref_max = b0 / r for a token-bucket (r, b0) session."""
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    if depth < 0:
        raise ConfigurationError(f"depth must be non-negative, got {depth}")
    return depth / rate


@dataclass
class SessionBounds:
    """Every closed-form guarantee for one session on one route.

    ``d_ref_max`` may be ``None`` (no declared traffic envelope), in
    which case only the *distribution* bound — which needs no finite
    reference delay — is available, via :attr:`shift`. This is the
    paper's point about tolerant applications: the distribution bound
    exists "even where there is no upper bound on delay".
    """

    session_id: str
    rate: float
    hops: int
    d_ref_max: Optional[float]
    beta: float
    alpha: float
    #: The constant the reference-server delay distribution is shifted
    #: right by in eq. 16: β + α.
    shift: float
    #: Eq. 12 bound, or None when d_ref_max is unknown.
    max_delay: Optional[float]
    #: Eq. 17 bounds (see repro.bounds.jitter), None without d_ref_max.
    jitter: Optional[float]
    #: Per-node buffer bounds in bits, aligned with the route.
    buffers: List[Optional[float]] = field(default_factory=list)


def _policies_along_route(network: "Network",
                          session: "Session") -> List[DelayPolicy]:
    policies = []
    for node_name in session.route:
        policy = session.policy_for(node_name)
        if policy is None:
            policy = virtual_clock_policy(session.rate, session.l_max,
                                          session.l_min)
        policies.append(policy)
    return policies


def compute_session_bounds(network: "Network", session: "Session", *,
                           d_ref_max: Optional[float] = None
                           ) -> SessionBounds:
    """Assemble every guarantee for ``session`` in ``network``.

    ``d_ref_max`` overrides the reference-server delay bound; when
    omitted it is derived from the session's declared token bucket
    (eq. 14) if present, else left unknown.
    """
    links = [network.nodes[name].link for name in session.route]
    capacities = [link.capacity for link in links]
    propagations = [link.propagation for link in links]
    policies = _policies_along_route(network, session)
    d_maxes = [policy.d_max for policy in policies]
    l_max_network = network.l_max

    beta = beta_constant(l_max_network, capacities, propagations, d_maxes)
    alpha = alpha_constant(policies[-1], session.rate)

    if d_ref_max is None and session.token_bucket is not None:
        bucket_rate, depth = session.token_bucket
        if abs(bucket_rate - session.rate) > 1e-9:
            raise ConfigurationError(
                f"session {session.id!r}: token-bucket rate {bucket_rate} "
                f"differs from reserved rate {session.rate}; eq. 14 applies "
                "to a bucket at the reserved rate")
        d_ref_max = token_bucket_reference_delay(depth, session.rate)

    max_delay = (delay_bound(d_ref_max, beta, alpha)
                 if d_ref_max is not None else None)
    jitter = (jitter_bound(d_ref_max, l_max_network, capacities, d_maxes,
                           session.l_min, alpha,
                           jitter_control=session.jitter_control)
              if d_ref_max is not None else None)
    buffers = (buffer_bounds_along_route(
        session.rate, d_ref_max, l_max_network, capacities, d_maxes,
        session.l_min, jitter_control=session.jitter_control)
        if d_ref_max is not None else [None] * len(links))

    return SessionBounds(
        session_id=session.id,
        rate=session.rate,
        hops=len(links),
        d_ref_max=d_ref_max,
        beta=beta,
        alpha=alpha,
        shift=beta + alpha,
        max_delay=max_delay,
        jitter=jitter,
        buffers=buffers,
    )


def provision_buffers(network: "Network", session: "Session", *,
                      bounds: Optional[SessionBounds] = None,
                      headroom_bits: float = 0.0) -> List[float]:
    """Install per-node finite buffers at the closed-form bound.

    The buffer bounds are the provisioning level at which a session
    never loses a packet; this helper turns them into enforced limits
    (plus optional ``headroom_bits``) on every node of the route,
    making the loss-free claim falsifiable in simulation: any drop
    after provisioning would disprove the bound.

    Returns the installed limits in route order.
    """
    if bounds is None:
        bounds = compute_session_bounds(network, session)
    limits: List[float] = []
    for node_name, bound in zip(session.route, bounds.buffers):
        if bound is None:
            raise ConfigurationError(
                f"session {session.id!r} has no buffer bound (declare a "
                "token bucket or pass explicit bounds)")
        limit = bound + headroom_bits
        network.nodes[node_name].set_buffer_limit(session.id, limit)
        limits.append(limit)
    return limits
