"""Exclusive (self) time per protocol layer, recorded from outside the program.

:func:`install` wraps the public entry points of each layer -- functions
in every module that imported them, methods on the class that defines
them -- with a span that charges its duration, minus the time covered by
nested spans, to the layer's bucket.  Time the tracer is running but no
span is open goes to ``other``, so the buckets sum exactly to the traced
wall time.  Call counts and outcome tallies are recorded by the same
wrappers.

Wrapping happens once per process, before the system is built; the
benchmark runs every traced trial in its own interpreter.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: bucket -> [(module, class name or None, attribute names)].  A ``None``
#: class wraps module-level functions and every alias of them in other
#: ``repro`` modules.
ENTRY_POINTS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "net.message.encode": [("repro.net.message", None, ("encode", "encoded_size"))],
    "net.network.send": [("repro.net.network", "RoundNetwork", ("send", "broadcast"))],
    "net.network.deliver": [("repro.net.network", "RoundNetwork", ("run_round",))],
    "core.forwarding.receive": [
        ("repro.core.forwarding", "ForwardingLayer", ("receive_batch", "receive")),
    ],
    "core.forwarding.end_round": [("repro.core.forwarding", "ForwardingLayer", ("end_round",))],
    "crypto.verify": [
        ("repro.core.identity", "NodeCrypto", (
            "verify", "ms_verify_value", "ms_verify_batch", "ms_warm_batch",
            "verify_operator",
        )),
    ],
    "crypto.sign": [("repro.core.identity", "NodeCrypto", ("sign", "ms_sign", "ms_combine"))],
    "crypto.keygen": [("repro.core.identity", "Directory", ("register",))],
    "core.heartbeat.coverage_build": [("repro.core.heartbeat", "CoverageCalculator", ("__init__",))],
    "core.evidence.verify": [
        ("repro.core.evidence", "EvidenceVerifier", ("verify", "verify_blessing")),
    ],
    "core.evidence.pattern": [("repro.core.evidence", "EvidenceSet", ("failure_pattern",))],
    "core.evidence.add": [("repro.core.evidence", "EvidenceSet", ("add",))],
    "sched.modegen.generate": [("repro.sched.modegen", "ModeTreeGenerator", ("generate",))],
    "sched.modegen.lookup": [("repro.sched.modegen", "ModeTree", ("schedule_for",))],
    # _audit_one_inner is one replica's replay of a primary's bundle; its
    # call count is core.auditing.replays.
    "core.auditing.execute": [
        ("repro.core.auditing", "AuditingLayer", ("execute_round", "_audit_one_inner")),
    ],
    "core.node.step": [
        ("repro.core.node", "ReboundNode", ("on_round_start", "on_receive", "on_round_end")),
    ],
    "durability.store.end_round": [("repro.durability.store", "NodeDurableStore", ("end_round",))],
    "durability.store.snapshot": [("repro.durability.store", "NodeDurableStore", ("snapshot",))],
    "durability.log.flush": [("repro.durability.log", "ChainedEventLog", ("flush",))],
    "stabilize.audit": [("repro.stabilize.auditor", "StateAuditor", ("maybe_audit",))],
    "chaos.monitor.observe": [("repro.chaos.monitor", "BTRMonitor", ("observe",))],
    # The impairment layer's entry points are the RoundNetwork hooks it
    # overrides.
    "chaos.impairments": [
        ("repro.chaos.impairments", "ChaosRoundNetwork", (
            "_enqueue", "_begin_round", "_collect_deliveries",
        )),
    ],
    "net.shard.step_round": [("repro.net.shard", "ShardedRoundEngine", ("step_round",))],
}

#: entry points whose truthy results are tallied (admitted evidence).
TALLIED = frozenset({"EvidenceSet.add"})


class LayerTracer:
    """Stack of open spans plus per-bucket self time, calls and outcomes."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.truthy: Dict[str, int] = defaultdict(int)
        self.active = False
        self.wall_s = 0.0
        self._stack: List[List[Any]] = []
        self._resumed_at = 0.0

    # -- the traced region ------------------------------------------------------

    def resume(self) -> None:
        self.active = True
        self._resumed_at = _clock()

    def pause(self) -> None:
        if self._stack:
            raise RuntimeError("pause() inside an open span")
        self.wall_s += _clock() - self._resumed_at
        self.active = False

    # -- spans ------------------------------------------------------------------

    def wrap(self, fn: Callable, bucket: str, key: str) -> Callable:
        tracer = self
        stack = self._stack
        self_s = self.self_s
        calls, truthy = self.calls, self.truthy
        tally = key in TALLIED

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                self_s[bucket] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            calls[key] += 1
            if tally and result:
                truthy[key] += 1
            return result

        return span

    def report(self) -> Dict[str, Any]:
        buckets = {f"{bucket}.self_s": self.self_s.get(bucket, 0.0) for bucket in ENTRY_POINTS}
        buckets["other.self_s"] = self.wall_s - sum(buckets.values())
        return {
            "wall_s": self.wall_s,
            "buckets": buckets,
            "calls": dict(self.calls),
            "truthy": dict(self.truthy),
        }


def _wrap_function(tracer: LayerTracer, module_name: str, name: str, bucket: str) -> None:
    original = getattr(sys.modules[module_name], name)
    wrapped = tracer.wrap(original, bucket, name)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install() -> LayerTracer:
    """Import every traced layer and wrap its entry points; returns the
    (paused) tracer.  Call before the system is built."""
    import importlib

    tracer = LayerTracer()
    for bucket, targets in ENTRY_POINTS.items():
        for module_name, class_name, names in targets:
            module = importlib.import_module(module_name)
            for name in names:
                if class_name is None:
                    _wrap_function(tracer, module_name, name, bucket)
                    continue
                cls = getattr(module, class_name)
                original = cls.__dict__[name]
                setattr(cls, name, tracer.wrap(original, bucket, f"{class_name}.{name}"))
    return tracer
