"""The REBOUND benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload er500-steady --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each trial builds the workload's
``ReboundSystem`` from the seed in a fresh interpreter (``trial.py``), runs
all of its simulated rounds, and checks the outcome.  Trials repeat while
the next one should end within ``--seconds`` (at least ``MIN_TRIALS``
run).  The same seed must give the same per-round transcript and the same
deterministic counts in every trial of a run and in every earlier run of
the same code in this checkout (recorded under ``.perfbench_state/``).

``--trace 0`` reports the end-to-end metrics as medians over the trials.
Its times are *reference seconds* (``speed.py``): the machine this runs on
is shared and its speed swings by up to 2x from one second to the next, so
every untraced trial times a fixed reference kernel while it works and
scales each interval's wall time to a machine on which the kernel takes
``speed.REF_KERNEL_S``.  The same medians in wall seconds are in the report
line.

``--trace 1`` runs one untraced and one traced trial and reports the
per-layer metrics of the traced one: exclusive self time per layer
(summing exactly to the traced wall time), layer call counts and
outcome ratios, and the tracing overhead.  On ``er500-steady`` it also
runs the first rounds of the same inputs on the sharded engine with two
workers, for the engine's own layers, and requires its transcript to equal
the serial run's over those rounds.

The last stdout line is the result,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
where ``attempted`` counts simulated rounds and ``failed`` the rounds that
raised, broke a ``BTRMonitor`` invariant, or ended a trial whose end-of-run
gate failed.  The line before it is a report with the ``env`` block, the
sample counts and the per-trial detail.

Workload seeds are free; a gain found while tuning should be confirmed on
the held-out seed ``HELD_OUT_SEED``, which is kept out of tuning runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
#: deterministic counts of earlier runs, keyed by workload, seed and code.
STATE = os.path.join(ROOT, ".perfbench_state")

#: the names in ``workloads.py``; this file never imports the program.
WORKLOADS = ("er500-steady", "er60-attack", "er40-churn")
HELD_OUT_SEED = 7919
#: a run still busy after this many seconds kills its trial and fails.
RUN_DEADLINE_S = 170
#: no further trial starts after this many seconds, whatever ``--seconds`` says.
RUN_BUDGET_S = 100
#: the smallest number of samples a tail percentile must have beyond it.
TAIL_BEYOND = 10
#: trials a run makes even past ``--seconds``.  An er40-churn trial has 43
#: steady rounds, of which the 6 snapshot and 3 flood-onset rounds stand
#: well above the rest; with fewer trials the tail falls in or next to the
#: gap below them and jumps with the trial count.  Three trials put 18
#: snapshot rounds around it.
MIN_TRIALS = {"er40-churn": 3}
SHARDED_WORKERS = 2
#: steady rounds the sharded engine runs past the flood ramp (a prefix of
#: the serial run, to keep the traced run inside its deadline).
SHARDED_STEADY_ROUNDS = 4

#: counts that depend only on the seed; they must repeat exactly.
DETERMINISTIC = (
    "digest", "attempted", "link_bytes_per_round", "storage_bytes_per_node",
    "messages", "bytes", "detect_rounds", "recovery_rounds", "mode_switches",
    "crypto", "modes",
)


class TrialError(RuntimeError):
    """A trial process died, hung, or printed no result."""


def run_trial(workload: str, seed: int, deadline: float, trace: bool = False,
              workers: int = 0, rounds: Optional[int] = None) -> Dict[str, Any]:
    workdir = os.path.join(TMP, str(time.monotonic_ns()))
    cmd = [
        sys.executable, os.path.join(HERE, "trial.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", workdir,
        "--workers", str(workers),
    ]
    if trace:
        cmd.append("--trace")
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    # Key generation seeds on hash() of tuples holding strings, which the
    # interpreter salts per process; pinning the salt to the workload seed
    # makes the same seed give the same keys, signatures and transcript.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    # Own session, so a hung trial is killed together with any engine
    # workers it started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise TrialError(f"trial still running at the {RUN_DEADLINE_S}s deadline") from exc
    except BaseException:
        # Interrupted or terminated: take the trial down with us.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise TrialError(f"trial exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _steady(trial: Dict[str, Any]) -> List[float]:
    return trial["round_ref_s"][trial["d_max"]:]


def tail(samples: List[float]) -> Dict[str, Any]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above
    it.  With too few samples for that to reach the median, the median
    (upper middle sample) stands in, so the tail never reads below p50."""
    ordered = sorted(samples)
    index = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return {
        "value": ordered[index],
        "percentile": 100.0 * (index + 1) / len(ordered),
        "samples": len(ordered),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hit_ratio(stats: Dict[str, Any]) -> float:
    return _ratio(stats.get("hits", 0), stats.get("hits", 0) + stats.get("misses", 0))


def consistency_errors(trials: List[Dict[str, Any]]) -> List[str]:
    """Every deterministic count of every trial must equal the first's."""
    errors = []
    first = trials[0]
    for i, trial in enumerate(trials[1:], start=1):
        for key in DETERMINISTIC:
            if trial.get(key) != first.get(key):
                errors.append(
                    f"trial {i} {key} = {trial.get(key)!r} differs from trial 0's "
                    f"{first.get(key)!r}"
                )
    return errors


def remembered_errors(workload: str, seed: int, trial: Dict[str, Any]) -> List[str]:
    """Compare the deterministic counts with those an earlier run of the
    same workload, seed and code recorded in this checkout (and record them
    when none did), so determinism is checked across runs as well."""
    counts = {key: trial.get(key) for key in DETERMINISTIC}
    code = _tree_digest([os.path.join(SRC, "repro"), HERE])
    path = os.path.join(STATE, f"{workload}-{seed}.json")
    try:
        with open(path) as fh:
            earlier = json.load(fh)
    except (OSError, ValueError):
        earlier = None
    if earlier is None or earlier.get("code") != code:
        os.makedirs(STATE, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"code": code, "counts": counts}, fh, sort_keys=True)
        return []
    return [
        f"{key} = {counts[key]!r} differs from an earlier run's {earlier['counts'].get(key)!r}"
        for key in DETERMINISTIC
        if counts[key] != earlier["counts"].get(key)
    ]


def end_to_end(trials: List[Dict[str, Any]]) -> Dict[str, Any]:
    steady = [s for t in trials for s in _steady(t)]
    first = trials[0]
    round_tail = tail(steady)
    metrics = {
        "setup_s": (statistics.median(t["setup_ref_s"] for t in trials), "s"),
        "run_s": (statistics.median(sum(t["round_ref_s"]) for t in trials), "s"),
        "round_p50_s": (statistics.median(steady), "s"),
        "round_tail_s": (round_tail["value"], "s"),
        "peak_rss_mb": (statistics.median(t["peak_rss_mb"] for t in trials), "MB"),
        "link_bytes_per_round": (first["link_bytes_per_round"], "bytes"),
        "storage_bytes_per_node": (first["storage_bytes_per_node"], "bytes"),
    }
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "round_tail": round_tail,
        # The same medians in wall seconds, to read against a stopwatch.
        "wall": {
            "setup_s": statistics.median(t["setup_s"] for t in trials),
            "run_s": statistics.median(sum(t["round_s"]) for t in trials),
        },
    }


def per_layer(traced: Dict[str, Any], untraced: Dict[str, Any],
              sharded: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    trace = traced["trace"]
    calls, truthy, stats = trace["calls"], trace["truthy"], traced["stats"]
    crypto = traced["crypto"]
    quotas = stats.get("quotas", {})
    values: Dict[str, Any] = {name: (v, "s") for name, v in trace["buckets"].items()}
    # The serial trace never enters the engine; its step time comes from
    # the sharded trial below.
    del values["net.shard.step_round.self_s"]
    values.update({
        "net.message.encode.calls": (calls.get("encode", 0) + calls.get("encoded_size", 0), "count"),
        "net.message.memo_hit_ratio": (_hit_ratio(stats.get("codec_memo", {})), "ratio"),
        "net.network.messages": (traced["messages"], "count"),
        "net.network.bytes": (traced["bytes"], "bytes"),
        "crypto.verify_cache.hit_ratio": (_hit_ratio(stats.get("verify_cache", {})), "ratio"),
        "crypto.rsa_verify": (crypto["rsa_verify"], "count"),
        "crypto.ms_verify": (crypto["ms_verify"], "count"),
        "crypto.rsa_sign": (crypto["rsa_sign"], "count"),
        "core.heartbeat.coverage_build.calls": (calls.get("CoverageCalculator.__init__", 0), "count"),
        "core.evidence.verify.calls": (
            calls.get("EvidenceVerifier.verify", 0) + calls.get("EvidenceVerifier.verify_blessing", 0),
            "count",
        ),
        "core.evidence.pattern.calls": (calls.get("EvidenceSet.failure_pattern", 0), "count"),
        "core.evidence.admitted_ratio": (
            _ratio(truthy.get("EvidenceSet.add", 0), calls.get("EvidenceSet.add", 0)), "ratio",
        ),
        "core.quotas.drop_ratio": (
            _ratio(quotas.get("dropped", 0), quotas.get("dropped", 0) + quotas.get("charged", 0)),
            "ratio",
        ),
        "sched.modegen.modes": (traced["modes"], "count"),
        "sched.place_memo.hit_ratio": (_hit_ratio(stats.get("place_memo", {})), "ratio"),
        "core.auditing.replays": (calls.get("AuditingLayer._audit_one_inner", 0), "count"),
        "core.node.mode_switches": (traced["mode_switches"], "count"),
        "durability.bytes_written": (traced["durable_bytes"], "bytes"),
        "stabilize.resyncs": (stats.get("stabilize", {}).get("resyncs", 0), "count"),
        "btr.detect_rounds": (traced["detect_rounds"], "rounds"),
        "btr.recovery_rounds": (traced["recovery_rounds"], "rounds"),
        "trace.wall_s": (trace["wall_s"], "s"),
        "trace.overhead_ratio": (_ratio(sum(traced["round_s"]), sum(untraced["round_s"])), "x"),
        "net.shard.step_round_s": (0.0, "s"),
        "net.frames.bytes_shipped": (0, "bytes"),
        "net.frames.interned_hits": (0, "count"),
    })
    if sharded is not None:
        ipc = sharded["engine_stats"]["ipc"]
        values["net.shard.step_round_s"] = (
            sharded["trace"]["buckets"]["net.shard.step_round.self_s"], "s",
        )
        values["net.frames.bytes_shipped"] = (ipc["delivery_bytes"] + ipc["intent_bytes"], "bytes")
        values["net.frames.interned_hits"] = (ipc["interned_hits"], "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}


def trace_errors(trial: Dict[str, Any]) -> List[str]:
    trace = trial["trace"]
    total = sum(trace["buckets"].values())
    errors = []
    if abs(total - trace["wall_s"]) > 1e-9 * max(1.0, trace["wall_s"]):
        errors.append(f"trace buckets sum to {total} s, traced wall is {trace['wall_s']} s")
    if trace["buckets"]["other.self_s"] < -1e-6:
        errors.append("trace spans overlap: other.self_s is negative")
    return errors


def _tree_digest(roots: List[str]) -> str:
    """SHA-256 over the paths and contents of the ``.py`` files under ``roots``."""
    digest = hashlib.sha256()
    for root in roots:
        for base, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def environment() -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        # The checkout is not a git repository; the source digest names the
        # code the numbers were taken on.
        "commit": "src-sha256:" + _tree_digest([os.path.join(SRC, "repro")])[:16],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (report, result)."""
    report: Dict[str, Any] = {"workload": workload, "seed": seed,
                              "held_out_seed": HELD_OUT_SEED}
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    if not trace:
        trials: List[Dict[str, Any]] = []
        longest = 0.0
        # Another trial starts only when it should end within the run's
        # seconds, so that a run lasts about as long as it was asked to.
        while len(trials) < MIN_TRIALS.get(workload, 1) or (
            time.monotonic() - start + longest <= min(seconds, RUN_BUDGET_S)
        ):
            began = time.monotonic()
            trials.append(run_trial(workload, seed, deadline))
            longest = max(longest, time.monotonic() - began)
        summary = end_to_end(trials)
        metrics = summary["metrics"]
        report["round_tail"] = summary["round_tail"]
        report["wall"] = summary["wall"]
        checked = trials
    else:
        untraced = run_trial(workload, seed, deadline)
        traced = run_trial(workload, seed, deadline, trace=True)
        sharded = None
        checked = [untraced, traced]
        if workload == "er500-steady":
            sharded = run_trial(
                workload, seed, deadline, trace=True, workers=SHARDED_WORKERS,
                rounds=untraced["d_max"] + SHARDED_STEADY_ROUNDS,
            )
            profile = sharded["engine_stats"]["profile"]
            sharded_s = sum(sharded["round_s"])
            report["sharded"] = {
                "rounds": sharded["attempted"],
                "run_s": sharded_s,
                "serial_over_sharded": _ratio(
                    sum(untraced["round_s"][: sharded["attempted"]]), sharded_s
                ),
                # Diagnostic only: the engine's own stage sum over the wall
                # clock of the same rounds (known to overcount).
                "profiler_stage_sum_over_wall": _ratio(profile["total_s"], sharded_s),
            }
        metrics = per_layer(traced, untraced, sharded)
    errors = [e for t in checked for e in t["errors"]]
    errors += consistency_errors(checked)
    errors += remembered_errors(workload, seed, checked[0])
    if trace:
        errors += [e for t in checked[1:] for e in trace_errors(t)]
        if sharded is not None:
            errors += sharded["errors"] + trace_errors(sharded)
            if sharded["digest"] != untraced["round_digests"][sharded["attempted"] - 1]:
                errors.append("the sharded engine's transcript differs from the serial one")
            checked.append(sharded)
    attempted = sum(t["attempted"] for t in checked)
    failed = sum(t["failed"] for t in checked)
    if errors and failed == 0:
        failed = 1  # a cross-trial gate failed: charge it to the last round
    report.update({
        "env": environment(),
        "trials": len(checked),
        "errors": errors,
        "failed_round_share": _ratio(failed, attempted),
        "detect_rounds": checked[0]["detect_rounds"],
        "recovery_rounds": checked[0]["recovery_rounds"],
        "per_trial": [
            {k: t[k] for k in ("engine", "setup_s", "peak_rss_mb", "digest", "errors")}
            | {"run_s": sum(t["round_s"])}
            for t in checked
        ],
    })
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def contract_metrics(trace: bool) -> set:
    """The metric names ``BENCHMARK.json`` promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    return {m["name"] for m in contract["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running trial is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    os.makedirs(TMP, exist_ok=True)
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except TrialError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(TMP))
        except OSError:
            pass  # another run still uses it
    declared = contract_metrics(bool(args.trace))
    if set(result["metrics"]) != declared:
        print(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ declared)}",
              file=sys.stderr)
        return 3
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
