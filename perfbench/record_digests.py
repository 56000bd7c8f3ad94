"""Record the simulated-output digests the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/record_digests.py --seeds 0-9
    python3 perfbench/record_digests.py --seeds 3 --workload fault_flap

Runs one untraced repetition per workload and seed, refuses to record
a run whose conservation or delay-bound checks fail, and merges the
digests into ``perfbench/digests.json``.  Re-record only when a change
is meant to alter the simulated output; the digest is what shows that
a change intended to be behaviour-preserving really was.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from run import DIGESTS, WORKLOAD_NAMES, load_digests, run_child


def _seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="e.g. 0-9 or 0,3,5-7")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        action="append",
                        help="workload to record (default: all)")
    args = parser.parse_args()
    digests = load_digests() if DIGESTS.is_file() else {}
    for workload in args.workload or WORKLOAD_NAMES:
        for seed in _seeds(args.seeds):
            result = run_child(workload, seed)
            if not result["conserved"] or result["bound_failures"]:
                print(f"{workload} seed {seed}: checks failed, not "
                      f"recorded: {result['conservation']} "
                      f"{result['bound_failures']}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = result["digest"]
            print(f"{workload} seed {seed} {result['digest']}")
    with open(DIGESTS, "w") as handle:
        json.dump({w: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
                   for w, d in sorted(digests.items())},
                  handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
