"""The paper's Figure-6 topology and its MIX / CROSS configurations.

Five server nodes in tandem, T1 links (1536 kbit/s), 1 ms propagation.
Traffic flows left to right; entrances ``a``-``e`` and exits ``f``-``j``
as encoded in :mod:`repro.net.route`.

Two canonical traffic configurations from Section 3:

* **MIX** — 12 routes with the session counts below, which put exactly
  48 sessions (and, at 32 kbit/s each, exactly the full T1 capacity of
  1536 kbit/s) through every node. The paper's per-hop summary contains
  a small arithmetic slip (it says 8 four-hop sessions where the listed
  routes give 12); we follow the explicit per-route list, which is the
  one consistent with full capacity commitment at every node.
* **CROSS** — route ``a-j`` plus the five one-hop routes; the one-hop
  routes carry the *cross traffic*.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, \
    Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.net.network import Network
from repro.net.route import route_from_letters
from repro.sim.kernel import Simulator
from repro.units import PAPER_PROPAGATION_S, T1_RATE_BPS

__all__ = [
    "PaperTopology",
    "build_paper_network",
    "MIX_ROUTE_COUNTS",
    "CROSS_ROUTES",
    "PAPER_NODE_COUNT",
    "route_edges",
    "partition_network",
    "validate_partition",
    "cut_lookahead",
]

#: Number of tandem servers in Figure 6.
PAPER_NODE_COUNT = 5

#: The MIX traffic configuration: route label -> number of sessions.
MIX_ROUTE_COUNTS: Dict[str, int] = {
    "a-j": 10,
    "b-g": 10,
    "c-h": 10,
    "d-i": 10,
    "a-f": 16,
    "e-j": 16,
    "a-h": 8,
    "c-j": 8,
    "a-g": 8,
    "d-j": 8,
    "a-i": 6,
    "b-j": 6,
}

#: The CROSS traffic configuration's routes: a-j plus one-hop routes.
CROSS_ROUTES: List[str] = ["a-j", "a-f", "b-g", "c-h", "d-i", "e-j"]

#: The one-hop routes of the CROSS configuration (the cross traffic).
CROSS_ONE_HOP_ROUTES: List[str] = ["a-f", "b-g", "c-h", "d-i", "e-j"]


class PaperTopology:
    """Builder for the Figure-6 network.

    Parameters
    ----------
    scheduler_factory:
        Zero-argument callable returning a fresh scheduler for each
        node (schedulers are per-node objects).
    capacity / propagation:
        Link parameters; default to the paper's T1 and 1 ms.
    seed:
        Master RNG seed for the network's random streams.
    sim:
        Pre-built simulator for the network to run on; ``None`` (the
        default) lets :class:`Network` create its own.  The
        schedule-perturbation differ (``repro-analyze --perturb``) injects
        an instrumented kernel through this.
    """

    def __init__(self, scheduler_factory: Callable[[], object], *,
                 capacity: float = T1_RATE_BPS,
                 propagation: float = PAPER_PROPAGATION_S,
                 node_count: int = PAPER_NODE_COUNT,
                 seed: int = 0,
                 l_max_network: Optional[float] = None,
                 sim: Optional[Simulator] = None) -> None:
        self.scheduler_factory = scheduler_factory
        self.capacity = capacity
        self.propagation = propagation
        self.node_count = node_count
        self.seed = seed
        self.l_max_network = l_max_network
        self.sim = sim

    def build(self) -> Network:
        """Create the network with its tandem of server nodes."""
        network = Network(sim=self.sim, seed=self.seed,
                          l_max_network=self.l_max_network)
        for index in range(1, self.node_count + 1):
            network.add_node(f"n{index}", self.scheduler_factory(),
                             capacity=self.capacity,
                             propagation=self.propagation)
        return network


def build_paper_network(scheduler_factory: Callable[[], object], *,
                        capacity: float = T1_RATE_BPS,
                        propagation: float = PAPER_PROPAGATION_S,
                        seed: int = 0,
                        l_max_network: Optional[float] = None,
                        sim: Optional[Simulator] = None) -> Network:
    """One-call construction of the Figure-6 network."""
    return PaperTopology(scheduler_factory, capacity=capacity,
                         propagation=propagation, seed=seed,
                         l_max_network=l_max_network, sim=sim).build()


def mix_session_specs() -> List[Dict[str, object]]:
    """Expand MIX into per-session specs: route label, node list, index.

    Returns a list of dicts with keys ``label``, ``route`` (node-name
    list) and ``index`` (1-based within the route), in a deterministic
    order so seeded experiments are reproducible.
    """
    specs: List[Dict[str, object]] = []
    for label in sorted(MIX_ROUTE_COUNTS):
        entrance, exit_ = label.split("-")
        nodes = route_from_letters(entrance, exit_)
        for index in range(1, MIX_ROUTE_COUNTS[label] + 1):
            specs.append({"label": label, "route": nodes, "index": index})
    return specs


# ----------------------------------------------------------------------
# Graph partitioning for the space-parallel kernel
# ----------------------------------------------------------------------
def route_edges(network: Network) -> Dict[Tuple[str, str], float]:
    """Directed forwarding edges and their lookahead.

    One entry per consecutive node pair ``(u, v)`` appearing in any
    registered session route, mapped to the propagation ``Γ`` of
    ``u``'s outgoing link — the time a packet finishing transmission at
    ``u`` takes to reach ``v``, i.e. the lookahead that edge grants the
    space-parallel kernel if it becomes a partition boundary.
    """
    edges: Dict[Tuple[str, str], float] = {}
    for session in network.sessions.values():
        route = session.route
        for u, v in zip(route, route[1:]):
            edges[(u, v)] = network.nodes[u].link.propagation
    return edges


def partition_network(network: Network,
                      parts: int) -> Tuple[FrozenSet[str], ...]:
    """Deterministically split a network's nodes into ``parts`` shards.

    Nodes joined by a zero-``Γ`` edge are **serially merged** first
    (union-find): such an edge carries zero lookahead, so its endpoints
    can never simulate past each other and must live on one shard (see
    ``docs/parallel_kernel.md``).  The resulting supernodes — in node
    registration order, which keeps the split reproducible — are packed
    into ``parts`` contiguous groups balanced by node count.

    Raises :class:`~repro.errors.ConfigurationError` when ``parts``
    exceeds the number of supernodes (the zero-``Γ`` merges make that
    many shards impossible).
    """
    if parts < 1:
        raise ConfigurationError(
            f"partition count must be >= 1, got {parts}")
    names = list(network.nodes)
    if not names:
        raise ConfigurationError("cannot partition an empty network")

    # Union-find over node names; roots keep the smallest order index
    # so the merged supernode inherits its earliest member's position.
    order = {name: i for i, name in enumerate(names)}
    parent = {name: name for name in names}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:
            parent[name], name = root, parent[name]
        return root

    for (u, v), gamma in route_edges(network).items():
        if gamma <= 0.0:
            ru, rv = find(u), find(v)
            if ru != rv:
                if order[rv] < order[ru]:
                    ru, rv = rv, ru
                parent[rv] = ru

    supernodes: Dict[str, List[str]] = {}
    for name in names:
        supernodes.setdefault(find(name), []).append(name)
    groups = [supernodes[root] for root in sorted(supernodes, key=order.get)]
    if parts > len(groups):
        raise ConfigurationError(
            f"cannot split {len(names)} nodes into {parts} partitions: "
            f"zero-propagation (zero-lookahead) edges merge them into "
            f"only {len(groups)} indivisible groups")

    # Pack contiguous supernode runs into `parts` shards, cutting at
    # the ideal cumulative node-count boundaries.
    total = len(names)
    shards: List[List[str]] = [[] for _ in range(parts)]
    consumed = 0
    index = 0
    for k, group in enumerate(groups):
        if shards[index] and index < parts - 1:
            # Advance once the current shard met its ideal quota — or
            # when exactly as many groups remain as empty shards, so
            # every shard ends non-empty.
            groups_left = len(groups) - k
            if (consumed >= total * (index + 1) / parts
                    or groups_left <= parts - index - 1):
                index += 1
        shards[index].extend(group)
        consumed += len(group)
    partition = tuple(frozenset(shard) for shard in shards)
    validate_partition(network, partition)
    return partition


def validate_partition(network: Network,
                       partition: Sequence[Iterable[str]]) -> None:
    """Check a partition is exact and cuts no zero-lookahead edge.

    Every node must appear in exactly one non-empty part, and every cut
    edge (a forwarding edge whose endpoints live on different shards)
    must have strictly positive ``Γ`` — a zero-``Γ`` cut edge would
    give the barrier-window protocol a zero-width window, so it is
    rejected with a :class:`~repro.errors.SimulationError`.
    """
    parts = [frozenset(p) for p in partition]
    owner: Dict[str, int] = {}
    for i, part in enumerate(parts):
        if not part:
            raise ConfigurationError(
                f"partition {i} is empty; every shard needs >= 1 node")
        for name in part:
            if name in owner:
                raise ConfigurationError(
                    f"node {name!r} appears in partitions {owner[name]} "
                    f"and {i}")
            if name not in network.nodes:
                raise ConfigurationError(
                    f"partition {i} references unknown node {name!r}")
            owner[name] = i
    missing = sorted(set(network.nodes) - set(owner))
    if missing:
        raise ConfigurationError(
            f"partition does not cover nodes {missing}")
    for (u, v), gamma in sorted(route_edges(network).items()):
        if owner[u] != owner[v] and gamma <= 0.0:
            raise SimulationError(
                f"partition cuts the zero-propagation edge "
                f"{u!r} -> {v!r}: a zero-Γ link carries no lookahead "
                f"and cannot be a shard boundary; merge the two nodes "
                f"into one partition (see docs/parallel_kernel.md)")


def cut_lookahead(network: Network,
                  partition: Sequence[Iterable[str]]) -> float:
    """Minimum ``Γ`` over the partition's cut edges (the window width).

    ``inf`` when no forwarding edge crosses a shard boundary — e.g. a
    single-partition run — in which case the barrier-window loop needs
    no intermediate barriers at all.
    """
    parts = [frozenset(p) for p in partition]
    owner = {name: i for i, part in enumerate(parts) for name in part}
    width = math.inf
    for (u, v), gamma in route_edges(network).items():
        if owner[u] != owner[v] and gamma < width:
            width = gamma
    return width


def sessions_per_node(route_counts: Dict[str, int]) -> Dict[str, int]:
    """How many sessions traverse each node under ``route_counts``.

    Used by admission tests and by the unit tests that check the MIX
    configuration loads every node with exactly 48 sessions.
    """
    loads: Dict[str, int] = {}
    for label, count in route_counts.items():
        entrance, exit_ = label.split("-")
        for node in route_from_letters(entrance, exit_):
            loads[node] = loads.get(node, 0) + count
    return loads
