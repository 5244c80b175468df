"""Golden identity: small deployments reproduce committed digests exactly.

``tests/golden/digests.json`` pins, for five cells (ER n=60 MULTI
fault-free, the same with an equivocator from round 10, ER n=40 BASIC
under duplicate+reorder chaos, and ER n=6 BASIC and MULTI with an
equivocator at round 8 and a crash at round 14), the per-round transcript
digest, the byte total of every channel and the logical crypto counters.  Key generation
seeds from the salted ``hash()``, so every cell runs in a subprocess with
``PYTHONHASHSEED`` pinned (see ``tests/golden/cells.py``).
"""

import json
import os
import subprocess
import sys
from collections import defaultdict

from repro.crypto import verify_cache
from tests.golden.cells import GOLDEN_PATH, HASH_SEED, run_cell

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_pinned(*args: str):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    out = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def flood_probe():
    """Run the fault-free MULTI cell, recording every message a controller
    sends: which object went to whom, and where its data packets lead."""
    misrouted = 0
    packet_messages = 0
    floods = defaultdict(list)  # (round, sender) -> packet-free messages sent

    def hook(system):
        net = system.network
        send = net.send

        def recording_send(sender, destination, payload):
            nonlocal misrouted, packet_messages
            key = (net.round_no, sender)
            if payload.packets:
                packet_messages += 1
                paths = system.nodes[sender].forwarding.paths.by_id
                hops = {paths[p.path_id].next_hop(sender) for p in payload.packets}
                misrouted += hops != {destination}
            else:
                floods[key].append(payload)
            send(sender, destination, payload)

        net.send = recording_send

    result = run_cell("er60-multi", on_system=hook)
    return {
        "node_rounds": len(floods),
        "shared_ok": all(
            all(msg is sent[0] for msg in sent) for sent in floods.values()
        ),
        "packet_messages": packet_messages,
        "misrouted": misrouted,
        "channel_bytes": result["channel_bytes"],
    }


def verify_cache_probe():
    """Run the fault-free MULTI cell from an empty verification cache and
    return the cache's stats at the end."""

    def hook(_system):
        verify_cache.GLOBAL.clear()
        verify_cache.GLOBAL.reset_stats()

    run_cell("er60-multi", on_system=hook)
    return verify_cache.stats()


def test_cells_match_golden_digests():
    current = _run_pinned("-m", "tests.golden.cells")
    golden = _golden()
    assert sorted(current) == sorted(golden)
    for name in golden:
        for field in ("transcript", "channel_bytes", "crypto_counters"):
            assert current[name][field] == golden[name][field], (name, field)


def test_one_flood_message_per_node_round():
    probe = _run_pinned(
        "-c",
        "import json; from tests.test_golden import flood_probe; "
        "print(json.dumps(flood_probe()))",
    )
    assert probe["node_rounds"] > 0
    # Every packet-free neighbour of a node got the same object that round.
    assert probe["shared_ok"]
    # The run carries data, and each packet went to its path's next hop only.
    assert probe["packet_messages"] > 0
    assert probe["misrouted"] == 0
    assert probe["channel_bytes"] == _golden()["er60-multi"]["channel_bytes"]


def test_verify_cache_hits_within_bound():
    stats = _run_pinned(
        "-c",
        "import json; from tests.test_golden import verify_cache_probe; "
        "print(json.dumps(verify_cache_probe()))",
    )
    # The cache did real work on the flood and stayed within its bound.
    assert stats["hits"] > stats["misses"]
    assert stats["entries"] <= stats["capacity"]
