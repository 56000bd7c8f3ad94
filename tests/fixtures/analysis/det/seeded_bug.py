"""A deliberately planted nondeterminism bug for the perturbation differ.

A tiny single-kernel workload whose RNG streams are named by
*registration order* — a mutated module-level counter — instead of the
session id.  Statically, the det analyzer flags both halves of the bug:
the counter mutation happens on a kernel-reachable path
(shared-mutable-state) and the stream name reads mutated module state
(rng-stream-discipline).  Dynamically, shuffling the registration
order hands each session a different substream, so arrival times — and
the per-session arrival counts — diverge: exactly the class of bug
``repro-analyze --perturb`` exists to catch.
"""

from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

REGISTERED = []


def attach(sim, streams, session_id, log):
    REGISTERED.append(session_id)
    rng = streams.stream(f"src-{len(REGISTERED)}")

    def arrival():
        log.append((sim.now, session_id))
        sim.schedule(rng.random() * 0.01, arrival, priority=0)

    sim.schedule(rng.random() * 0.01, arrival, priority=0)


def run(session_ids, horizon=0.25):
    """Sorted per-session arrival counts for one registration order."""
    del REGISTERED[:]
    sim = Simulator()
    streams = RandomStreams(0)
    log = []
    for session_id in session_ids:
        attach(sim, streams, session_id, log)
    sim.run(until=horizon)
    counts = {}
    for _time, session_id in log:
        counts[session_id] = counts.get(session_id, 0) + 1
    return sorted(counts.items())
