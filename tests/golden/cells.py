"""Golden identity cells: small deployments whose observable output is
pinned byte for byte in ``tests/golden/digests.json``.

Each cell records, per round, a digest of :func:`transcript_entry` (every
node's evidence digest and mode), the byte total of every channel at the
end of the run, and the system's logical crypto counters.  Together they
fingerprint the protocol's decisions, its wire traffic and its crypto
work, so any change that is meant to be behaviour-preserving (a faster
data structure, a shared message object) must reproduce them exactly.

Key generation seeds from Python's salted ``hash()``, so the cells only
reproduce under a pinned ``PYTHONHASHSEED``; the test runs this module in
a subprocess with :data:`HASH_SEED`.

Usage::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.golden.cells          # print JSON
    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.golden.cells --write  # refresh the file
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Callable, Dict, Optional

from repro.analysis.metrics import transcript_entry
from repro.chaos.impairments import ChaosRoundNetwork, ImpairmentPlan
from repro.core import ReboundConfig, ReboundSystem
from repro.faults.adversary import CrashBehavior, EquivocateBehavior
from repro.net.topology import erdos_renyi_topology
from repro.sched.workload import WorkloadGenerator

HASH_SEED = "0"
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "digests.json")

ROUNDS = 24
EQUIVOCATE_ROUND = 10


def _workload(seed: int):
    return WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )


def _er60_multi() -> ReboundSystem:
    config = ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256)
    return ReboundSystem(erdos_renyi_topology(60, seed=1), _workload(1), config, seed=1)


def _er40_basic_chaos() -> ReboundSystem:
    config = ReboundConfig(fmax=1, fconc=1, variant="basic", rsa_bits=256)
    plan = ImpairmentPlan(seed=3, dup_prob=0.25, reorder_prob=0.5)
    return ReboundSystem(
        erdos_renyi_topology(40, seed=2), _workload(2), config, seed=2,
        network_factory=lambda topo: ChaosRoundNetwork(topo, plan),
    )


def _equivocate(system: ReboundSystem, round_no: int) -> None:
    if round_no == EQUIVOCATE_ROUND:
        schedule = system.nodes[system.topology.controllers[0]].current_schedule
        host = min(schedule.placements.values())
        system.inject_now(host, EquivocateBehavior())


def _er6(variant: str) -> Callable[[], ReboundSystem]:
    def build() -> ReboundSystem:
        config = ReboundConfig(fmax=2, fconc=1, variant=variant, rsa_bits=256)
        return ReboundSystem(erdos_renyi_topology(6, seed=2), _workload(2), config, seed=2)

    return build


def _equivocate_then_crash(system: ReboundSystem, round_no: int) -> None:
    if round_no == 8:
        system.inject_now(0, EquivocateBehavior())
    if round_no == 14:
        system.inject_now(1, CrashBehavior())


#: cell name -> (system builder, per-round fault script or None)
CELLS: Dict[str, Any] = {
    "er60-multi": (_er60_multi, None),
    "er60-multi-equivocate": (_er60_multi, _equivocate),
    "er40-basic-dup-reorder": (_er40_basic_chaos, None),
    "er6-basic-equivocate-crash": (_er6("basic"), _equivocate_then_crash),
    "er6-multi-equivocate-crash": (_er6("multi"), _equivocate_then_crash),
}


def channel_bytes(system: ReboundSystem) -> Dict[str, int]:
    """Byte total per channel, keyed ``p2p:a-b`` or ``bus:id``."""
    out = {}
    for (kind, ident), stats in system.network.channel_stats.items():
        name = "-".join(str(x) for x in sorted(ident)) if kind == "p2p" else str(ident)
        out[f"{kind}:{name}"] = stats.total_bytes()
    return dict(sorted(out.items()))


def run_cell(
    name: str,
    on_system: Optional[Callable[[ReboundSystem], None]] = None,
) -> Dict[str, Any]:
    """Run one cell; ``on_system`` sees the built system before round 1."""
    build, script = CELLS[name]
    system = build()
    if on_system is not None:
        on_system(system)
    rounds = []
    try:
        for round_no in range(1, ROUNDS + 1):
            if script is not None:
                script(system, round_no)
            system.run_round()
            entry = repr(transcript_entry(system)).encode()
            rounds.append(hashlib.sha256(entry).hexdigest()[:16])
        return {
            "transcript": rounds,
            "channel_bytes": channel_bytes(system),
            "crypto_counters": system.total_crypto_counters().as_dict(),
        }
    finally:
        system.close()


def run_all() -> Dict[str, Any]:
    return {name: run_cell(name) for name in CELLS}


def main(argv) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        print(f"set PYTHONHASHSEED={HASH_SEED}", file=sys.stderr)
        return 2
    result = run_all()
    if "--write" in argv:
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(result, sys.stdout, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
