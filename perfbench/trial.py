"""One benchmark trial in a fresh interpreter: build a workload, run all of
its rounds, check the outcome, print one JSON line.

``run.py`` starts this file once per trial, so process-wide caches (the
verify cache, the codec memo, the coverage and frame caches) start cold
in every trial and the peak resident memory it reports is the trial's own.
Untraced trials time set-up and every round under a ``SpeedProbe``
(``speed.py``) and report each time both in wall seconds and in reference
seconds; traced trials report wall seconds only, because the probe's
samples would land in the tracer's spans.

    python3 perfbench/trial.py --workload er40-churn --seed 1 \
        --workdir .perfbench_tmp/t0 [--trace] [--workers 2]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.analysis.metrics import transcript_entry  # noqa: E402
from repro.obs import registry  # noqa: E402

import tracer as layer_tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _counter_delta(before: Dict[str, Dict[str, Any]], after: Dict[str, Dict[str, Any]]):
    """Per-component numeric deltas of two registry snapshots."""
    out: Dict[str, Dict[str, float]] = {}
    for comp, stats in after.items():
        base = before.get(comp, {})
        out[comp] = {
            key: value - base.get(key, 0)
            for key, value in stats.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
    return out


def _touches(pattern, node: int) -> bool:
    return node in pattern.nodes or any(node in link for link in pattern.links)


def run_trial(name: str, seed: int, workdir: str, trace: bool, workers: int,
              rounds: Optional[int] = None) -> Dict[str, Any]:
    """One trial; ``rounds`` cuts the workload's script short (a prefix run
    whose transcript is compared with a full run's first rounds)."""
    registry.ensure_default_components()
    tracer = layer_tracer.install() if trace else None
    before = registry.stats_snapshot()
    probe = None if trace else SpeedProbe()
    if probe is not None:
        probe.start()
        probe.sample()
    try:
        return _run(name, seed, workdir, workers, rounds, tracer, probe, before)
    finally:
        if probe is not None:
            probe.stop()


def _run(name: str, seed: int, workdir: str, workers: int, rounds: Optional[int],
         tracer: Optional[layer_tracer.LayerTracer], probe: Optional[SpeedProbe],
         before: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The body of :func:`run_trial`, which owns the probe's signal handler."""
    if tracer is not None:
        tracer.resume()
    t0 = time.perf_counter()
    deployment = WORKLOADS[name](seed, workdir, workers)
    setup_span = (t0, time.perf_counter())
    if tracer is not None:
        tracer.pause()
    if probe is not None:
        probe.sample()
    system = deployment.system
    d_max = system.config.d_max

    round_spans: List[Tuple[float, float]] = []
    digest = hashlib.sha256()
    round_digests: List[str] = []
    mode_switches = 0
    last_modes: Optional[Dict[int, Any]] = None
    link_bytes: List[float] = []
    messages = 0
    total_bytes = 0
    activations: Dict[int, int] = {}
    detected_at: Dict[int, int] = {}
    converged_since: Optional[int] = None
    errors: List[str] = []
    attempted = 0
    for round_no in range(1, min(deployment.rounds, rounds or deployment.rounds) + 1):
        attempted += 1
        faulty_before = set(system.true_faulty_nodes)
        if tracer is not None:
            tracer.resume()
        start = time.perf_counter()
        try:
            deployment.before_round(system, round_no)
            system.run_round()
        except Exception as exc:  # a raised invariant or crash fails the round
            errors.append(f"round {round_no}: {type(exc).__name__}: {exc}")
            break
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.pause()
        round_spans.append((start, end))
        if probe is not None:
            probe.sample()
        for node in system.true_faulty_nodes - faulty_before:
            activations[node] = round_no
        entry = transcript_entry(system)
        digest.update(repr(entry).encode())
        round_digests.append(digest.hexdigest())
        modes = {node_id: mode for node_id, _ev, mode in entry}
        if last_modes is not None:
            mode_switches += sum(1 for k, v in modes.items() if last_modes.get(k) != v)
        last_modes = modes
        if round_no > d_max:
            link_bytes.append(system.mean_link_bytes_in_round(round_no))
        messages += sum(
            s.messages_in_round(round_no) for s in system.network.channel_stats.values()
        )
        total_bytes += system.network.bytes_in_round(round_no)
        correct = system.correct_controllers()
        for node in activations:
            if node in detected_at:
                continue
            if any(_touches(system.nodes[c].fault_pattern, node) for c in correct):
                detected_at[node] = round_no
        if system.converged():
            if converged_since is None:
                converged_since = round_no
        else:
            converged_since = None

    if not errors:
        errors.extend(_end_checks(deployment, activations, detected_at, converged_since))
    storage = system.mean_storage_bytes()
    after = system.fastpath_stats()
    counters = system.total_crypto_counters().as_dict()
    durable_bytes = _durable_bytes(system)
    engine = getattr(system, "_engine", None)
    engine_stats = None
    if engine is not None:
        engine_stats = {"profile": engine.profiler.stats(), "ipc": engine._ipc_stats()}
    system.close()

    if probe is not None:
        setup_s, setup_ref_s = probe.split(*setup_span)
        timed = [probe.split(*span) for span in round_spans]
        round_s, round_ref_s = [w for w, _ in timed], [r for _, r in timed]
    else:
        setup_s, setup_ref_s = setup_span[1] - setup_span[0], None
        round_s, round_ref_s = [end - start for start, end in round_spans], None
    last_activation = max(activations.values()) if activations else None
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "engine": system.engine_name,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "round_s": round_s,
        "round_ref_s": round_ref_s,
        "probe_samples": len(probe.samples) if probe is not None else 0,
        "d_max": d_max,
        "attempted": attempted,
        "failed": 1 if errors else 0,
        "errors": errors,
        "digest": digest.hexdigest(),
        "round_digests": round_digests,
        "link_bytes_per_round": sum(link_bytes) / len(link_bytes) if link_bytes else 0.0,
        "storage_bytes_per_node": storage,
        "messages": messages,
        "bytes": total_bytes,
        "detect_rounds": max(
            (detected_at[n] - activations[n] + 1 for n in detected_at), default=0
        ),
        "recovery_rounds": _recovery_rounds(last_activation, converged_since, detected_at),
        "mode_switches": mode_switches,
        "modes": system.mode_tree.num_modes,
        "crypto": counters,
        "stats": _counter_delta(before, after),
        "durable_bytes": durable_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "engine_stats": engine_stats,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def _recovery_rounds(last_activation, converged_since, detected_at) -> int:
    """Rounds from the last activation through the round from which every
    fault is detected and ``converged()`` holds to the end (0: no fault)."""
    if last_activation is None or converged_since is None:
        return 0
    recovered = max([converged_since, last_activation, *detected_at.values()])
    return recovered - last_activation + 1


def _end_checks(deployment, activations, detected_at, converged_since) -> List[str]:
    system = deployment.system
    errors: List[str] = []
    monitor = system.monitor
    if monitor is not None and monitor.violations:
        errors.append(f"BTRMonitor violations: {monitor.census()}")
    if not system.converged() or converged_since is None:
        errors.append("converged() does not hold at the end of the run")
    for node in activations:
        if node not in detected_at:
            errors.append(f"fault at node {node} never detected")
    bound = deployment.stabilization_bound
    if bound is not None:
        if len(system.transient_corruptions) == 0:
            errors.append("no transient corruption was applied")
        for corruption in system.transient_corruptions:
            audits = system.auditors[corruption["node"]].audits
            if not any(
                corruption["round"] < tick <= corruption["round"] + bound
                and not outstanding
                for tick, outstanding in audits
            ):
                errors.append(
                    f"corruption {corruption['kind']} at node {corruption['node']} "
                    f"(round {corruption['round']}) not resolved within {bound} rounds"
                )
    return errors


def _durable_bytes(system) -> int:
    total = 0
    for node in system.nodes.values():
        store = getattr(node, "durable", None)
        if store is None:
            continue
        store.flush()
        if os.path.exists(store.log.path):
            total += os.path.getsize(store.log.path)
        total += int(store.timings.get("snapshot_bytes", 0))
    return total


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    result = run_trial(
        args.workload, args.seed, args.workdir, args.trace, args.workers, args.rounds
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
