"""The benchmark's workloads: how each one builds a ``ReboundSystem`` from a
seed and which faults it fires in which round.

Every input derives from the seed alone (topology, task set, fault
targets, impairment RNG), so the same seed gives the same deployment and
the same per-round transcript.  The benchmark drives the system only
through its public entry points; nothing here reaches into protocol state
except to read it.

Workloads (see ``BENCHMARK.json`` for the one-line reasons):

* ``er500-steady`` -- Erdos-Renyi n=500, fault-free, REBOUND-MULTI,
  fmax=fconc=0, RSA-256, five generated tasks, serial engine.  The
  heartbeat-flooding hot path at scale.  Its traced run also drives the
  first rounds of the same inputs on the sharded engine, for the engine's
  own layers.
* ``er60-attack`` -- ER n=60, MULTI, fmax=2, fconc=1, RSA-512, twelve
  generated tasks.  A task host starts equivocating at round 10; once its
  proof of misbehavior no longer explains new link-failure declarations,
  the highest-degree correct controller starts the Fig. 6 LFD storm.
* ``er40-churn`` -- ER n=40, BASIC, fmax=1, fconc=1, durable state with
  snapshots every 8 rounds, state audits every 4 rounds, an in-budget
  duplicate+reorder impairment plan from round 1, one evidence flooder
  (rate 100, the highest-degree controller) from round 10, and one
  transient corruption of each kind on rotating correct controllers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import networkx as nx

from repro.chaos.corruption import CORRUPTIONS
from repro.chaos.impairments import IN_BUDGET, ChaosRoundNetwork, ImpairmentPlan
from repro.chaos.monitor import BTRMonitor
from repro.core.config import ReboundConfig
from repro.core.quotas import pom_lfd_slack
from repro.core.runtime import ReboundSystem
from repro.faults.adversary import (
    EquivocateBehavior,
    EvidenceFloodBehavior,
    LFDStormBehavior,
)
from repro.net.topology import ROLE_CONTROLLER, Topology
from repro.sched.task import Workload as TaskWorkload
from repro.sched.workload import WorkloadGenerator

#: Round in which the ``er60-attack`` task host starts equivocating.
EQUIVOCATE_ROUND = 10

#: Steady-state rounds after the ``d_max`` flood ramp on ``er500-steady``.
ER500_STEADY_ROUNDS = 12


def er_topology(n: int, seed: int) -> Topology:
    """A connected Erdos-Renyi G(n, m) graph with the paper's density
    (m = p * n(n-1)/2 with p = 3 ln n / n, as in S5.1).  Fixing the edge
    count instead of drawing it (G(n, p)) keeps the flooding work the same
    across seeds; which edges exist still varies."""
    p = min(1.0, 3.0 * math.log(n) / n)
    edges = round(p * n * (n - 1) / 2)
    attempt = 0
    while True:
        graph = nx.gnm_random_graph(n, edges, seed=seed + 7919 * attempt)
        if nx.is_connected(graph):
            break
        attempt += 1
    topology = Topology()
    for node in range(n):
        topology.add_node(node, role=ROLE_CONTROLLER)
    for a, b in sorted(graph.edges):
        topology.add_link(a, b)
    return topology


def fixed_task_workload(seed: int, n_tasks: int) -> TaskWorkload:
    """Chains of alternately 2 and 1 tasks (the last one cut to fit) with
    the paper's S5.1 periods and utilizations, until exactly ``n_tasks``
    tasks exist.  The fixed shape fixes the task and chain counts, which set
    the per-round work and the memory a deployment needs, across seeds;
    periods and utilizations still vary."""
    generator = WorkloadGenerator(seed=seed)
    flows = []
    next_task = 1
    while next_task <= n_tasks:
        length = min(2 - len(flows) % 2, n_tasks - next_task + 1)
        generator.chain_length_range = (length, length)
        flow = generator.flow(len(flows), next_task)
        flows.append(flow)
        next_task += len(flow.tasks)
    return TaskWorkload(flows)


@dataclass
class Deployment:
    """One built workload: the system plus its fault script."""

    system: ReboundSystem
    rounds: int
    #: ``(system, round_no) -> None``, called just before each round runs;
    #: injects whatever the script schedules for that round.
    before_round: Callable[[ReboundSystem, int], None]
    #: Req-S convergence bound for transient corruptions, when armed.
    stabilization_bound: Optional[int] = None


def _no_faults(system: ReboundSystem, round_no: int) -> None:
    return None


def build_er500_steady(seed: int, workdir: str, workers: int = 0) -> Deployment:
    topology = er_topology(500, seed)
    config = ReboundConfig(fmax=0, fconc=0, variant="multi", rsa_bits=256)
    system = ReboundSystem(
        topology, fixed_task_workload(seed, 5), config, seed=seed,
        scale_workers=workers,
    )
    d_max = config.d_max
    system.attach_monitor(BTRMonitor(context={"workload": "er500-steady"}))
    return Deployment(
        system=system,
        rounds=d_max + ER500_STEADY_ROUNDS,
        before_round=_no_faults,
    )


def _max_degree_controller(system: ReboundSystem, exclude: set) -> int:
    topology = system.topology
    controllers = set(topology.controllers)
    candidates = [c for c in topology.controllers if c not in exclude]
    return max(
        candidates,
        key=lambda c: (
            sum(1 for x in topology.neighbors(c) if x in controllers), -c
        ),
    )


def build_er60_attack(seed: int, workdir: str, workers: int = 0) -> Deployment:
    topology = er_topology(60, seed)
    config = ReboundConfig(fmax=2, fconc=1, variant="multi", rsa_bits=512)
    system = ReboundSystem(
        topology, fixed_task_workload(seed, 12), config, seed=seed,
        scale_workers=workers,
    )
    schedule = system.nodes[topology.controllers[0]].current_schedule
    hosts = sorted(set(schedule.placements.values()))
    equivocator = hosts[seed % len(hosts)]
    stormer = _max_degree_controller(system, {equivocator})
    # The storm starts once the equivocator's PoM no longer explains new
    # LFDs (pom_lfd_slack rounds after its accusation round).  Starting it
    # earlier -- even after the monitor's r_max recovery window -- leaves
    # the first storm LFDs ignored and breaks Req. 1 on some seeds.
    d_max = config.d_max
    storm_round = EQUIVOCATE_ROUND + pom_lfd_slack(d_max) + 2
    # The storm declares one link a round; the run lasts until the longest
    # storm G(60, m) produces has ended and the system has settled.
    rounds = storm_round + 44

    def before_round(system: ReboundSystem, round_no: int) -> None:
        if round_no == EQUIVOCATE_ROUND:
            system.inject_now(equivocator, EquivocateBehavior())
        elif round_no == storm_round:
            system.inject_now(stormer, LFDStormBehavior())

    system.attach_monitor(BTRMonitor(context={"workload": "er60-attack"}))
    return Deployment(
        system=system, rounds=rounds, before_round=before_round,
    )


def build_er40_churn(seed: int, workdir: str, workers: int = 0) -> Deployment:
    from repro.stabilize.auditor import convergence_bound

    topology = er_topology(40, seed)
    config = ReboundConfig(
        fmax=1, fconc=1, variant="basic", rsa_bits=256,
        durability_enabled=True, durability_dir=workdir, snapshot_interval=8,
        stabilize_enabled=True, audit_interval=4,
    )
    plan = ImpairmentPlan(seed=seed, dup_prob=0.25, reorder_prob=0.5)
    budget = config.fmax - 1  # the flooder spends one fault unit
    if plan.classify(budget) != IN_BUDGET:
        raise ValueError("er40-churn impairment plan must stay in budget")
    system = ReboundSystem(
        topology, fixed_task_workload(seed, 6), config, seed=seed,
        network_factory=lambda topo: ChaosRoundNetwork(topo, plan, budget=budget),
        scale_workers=workers,
    )
    flooder = _max_degree_controller(system, set())
    # One corruption of each kind, every audit interval from round 16.
    corruptions = {
        16 + 4 * index: (index, kind) for index, kind in enumerate(sorted(CORRUPTIONS))
    }

    def before_round(system: ReboundSystem, round_no: int) -> None:
        if round_no == 10:
            system.inject_now(flooder, EvidenceFloodBehavior(rate=100, seed=seed))
        if round_no in corruptions:
            index, kind = corruptions[round_no]
            correct = sorted(system.correct_controllers())
            victim = correct[(seed + 7 * index) % len(correct)]
            system.corrupt_now(victim, CORRUPTIONS[kind](seed=seed + index))

    d_max = config.d_max
    system.attach_monitor(BTRMonitor(context={"workload": "er40-churn"}))
    return Deployment(
        system=system,
        rounds=48,
        before_round=before_round,
        stabilization_bound=convergence_bound(config.audit_interval, d_max),
    )


WORKLOADS: Dict[str, Callable[..., Deployment]] = {
    "er500-steady": build_er500_steady,
    "er60-attack": build_er60_attack,
    "er40-churn": build_er40_churn,
}
