"""Seeded generators of the benchmark's two control-loop workloads.

Every workload is a list of independent *instances*: one generated fleet,
its vjob stream, its constraints and its fault schedule.  An instance is a
pure function of ``(workload, seed, index)``, so the same ``--seed`` always
gives the same inputs, and the program under test only ever sees the
generated objects.  A run measures a fixed set of instances, so a faster
program gets more timing samples but never other inputs.

Why these two (the prediction each one carries is in ``WORKLOADS``):

* ``fenced-8zone`` holds each of eight zones to its own nodes with a
  ``Fence`` and solves them with ``engine="partitioned"``: the zone CP
  search dominates.  It is the only constrained workload, and its fence
  violations (a migration pivot parked outside the fence) stay visible.
* ``churn-repair`` streams arrivals, node crashes and migration failures
  through ``engine="repair"``.  Its full-solve fallbacks use up the
  solver budget, and it is the workload that measures repair latency.

Between them they run every layer: observe, decide, partition, CP,
solve, repair, plan, execute and the constraint checker.  A workload
without the CP solver (FFD-planned consolidation) is left out: its
rounds are pure interpreter work, so its timings follow the host's
speed from one run to the next: a fifth between the quartiles of ten
runs, too close to the widest bound (a quarter) to gate on.

Instances are small and many (a dozen or more per run rather than one
large fleet): the rounds of one control-loop run differ by orders of
magnitude, so only many instances per run make a run's figures agree
across seeds.  Each instance runs several times in a run, so that every
round is also timed at a moment the host's speed drift left alone.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from repro import Fence, FaultSchedule, Node, Scenario
from repro.workloads import (
    DEFAULT_NODE_PROFILES,
    MEMORY_CHOICES_MB,
    Benchmark,
    NASGridSpec,
    ProblemClass,
    make_nasgrid_vjob,
)

#: Seed kept out of every tuning run: a later performance claim must also
#: hold on a seed nobody tuned against.
HELD_OUT_SEED = 7919


@dataclass
class Instance:
    """Everything one control-loop run is built from."""

    nodes: list
    workloads: list
    constraints: list = field(default_factory=list)
    faults: FaultSchedule | None = None
    #: Extra ``Scenario`` keyword arguments (policy, engine, timeouts).
    options: dict[str, Any] = field(default_factory=dict)

    @property
    def vm_count(self) -> int:
        return sum(len(w.vjob.vm_names) for w in self.workloads)

    def scenario(self, observers: Sequence[Any] = (), trace: bool = False) -> Scenario:
        return Scenario(
            nodes=self.nodes,
            workloads=self.workloads,
            constraints=self.constraints,
            faults=self.faults,
            observers=list(observers),
            trace=trace,
            **self.options,
        )


# The generators are stratified: an instance always holds the same mix of
# node profiles, vjob shapes and memory sizes, and the seed only decides
# their order, arrival jitter and phase jitter.  Instances of one
# workload then load the loop alike, so a run's figures move with the
# program, not with which shapes a seed happened to draw.


def _fleet(rng: random.Random, count: int, prefix: str) -> list[Node]:
    """``count`` working nodes, an equal share of each default profile."""
    kinds = len(DEFAULT_NODE_PROFILES)
    profiles = [DEFAULT_NODE_PROFILES[i % kinds] for i in range(count)]
    rng.shuffle(profiles)
    return [
        Node(name=f"{prefix}-{index}", cpu_capacity=cpu, memory_capacity=memory)
        for index, (cpu, memory) in enumerate(profiles)
    ]


def _stream(
    rng: random.Random,
    count: int,
    gap_s: float,
    classes: Sequence[ProblemClass],
    vm_counts: Sequence[int],
    prefix: str,
) -> list:
    """``count`` NASGrid vjobs cycling through every (benchmark, class, VM
    count) shape, one arriving in each ``gap_s`` slot of the stream.  The
    VMs' memory sizes cycle through every choice too, so the migration
    volume of a stream does not depend on the seed."""
    shapes = [(b, c, n) for b in Benchmark for c in classes for n in vm_counts]
    order = [shapes[i % len(shapes)] for i in range(count)]
    rng.shuffle(order)
    vm_total = sum(n for _, _, n in order)
    kinds = len(MEMORY_CHOICES_MB)
    memory = [MEMORY_CHOICES_MB[i % kinds] for i in range(vm_total)]
    rng.shuffle(memory)
    offsets = [sum(n for _, _, n in order[:index]) for index in range(count)]
    return [
        make_nasgrid_vjob(
            name=f"{prefix}{index}",
            spec=NASGridSpec(benchmark, problem_class, vm_count),
            memory_mb=memory[offsets[index] : offsets[index] + vm_count],
            priority=index,
            submitted_at=(index + rng.random()) * gap_s,
            rng=rng,
            jitter=0.1,
        )
        for index, (benchmark, problem_class, vm_count) in enumerate(order)
    ]


def fenced_8zone(
    seed: int, zones: int, nodes_per_zone: int, vjobs_per_zone: int
) -> Instance:
    """``zones`` independent sub-fleets, each fenced onto its own nodes and
    fed W-class vjobs of 2 to 4 VMs every 10 s, solved zone by zone on at
    most two worker processes."""
    rng = random.Random(seed)
    nodes: list = []
    workloads: list = []
    fences: list = []
    for zone in range(zones):
        zone_nodes = _fleet(rng, nodes_per_zone, f"z{zone}-node")
        zone_workloads = _stream(
            rng, vjobs_per_zone, 10.0, (ProblemClass.W,), (2, 3, 4), f"z{zone}-vjob"
        )
        nodes += zone_nodes
        workloads += zone_workloads
        fences.append(
            Fence(
                [vm for w in zone_workloads for vm in w.vjob.vm_names],
                [node.name for node in zone_nodes],
            )
        )
    return Instance(
        nodes=nodes,
        workloads=workloads,
        constraints=fences,
        options={
            "policy": "consolidation",
            "engine": "partitioned",
            "max_workers": min(2, os.cpu_count() or 1),
            "optimizer_timeout": 0.8,
        },
    )


#: Simulated times of the node crashes of ``churn-repair``.
CRASH_TIMES_S = (300.0, 900.0, 1500.0)


def churn_repair(seed: int, nodes: int, vjobs: int) -> Instance:
    """An unconstrained fleet under a stream of W-class vjobs (one every
    10 s), three node crashes and a 5 % migration-failure rate, replanned
    by the repair engine with a 0.1 s budget per round."""
    rng = random.Random(seed)
    fleet = _fleet(rng, nodes, "node")
    faults = FaultSchedule(migration_failure_rate=0.05, seed=seed)
    for at, victim in zip(CRASH_TIMES_S, rng.sample(fleet, len(CRASH_TIMES_S))):
        faults.node_crash(victim.name, at=at)
    return Instance(
        nodes=fleet,
        workloads=_stream(rng, vjobs, 10.0, (ProblemClass.W,), (2, 4, 9), "vjob"),
        faults=faults,
        options={
            "policy": "consolidation",
            "engine": "repair",
            "optimizer_timeout": 0.1,
        },
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a generator, its sizes and its prediction."""

    name: str
    why: str
    #: Layer predicted to dominate the traced self time.
    dominant: str
    generator: Callable[..., Instance]
    sizes: Mapping[str, Any]
    #: Distinct instances measured per run.
    instances: int
    #: Tail percentile of the round wall-clock, fixed so that the rounds
    #: of one rep per instance leave at least ten beyond it.
    tail_percentile: float
    #: Smallest sizes that still exercise every layer of the workload
    #: (warm-up and the benchmark's own tests).
    tiny: Mapping[str, Any]

    def scaled(self, sizes: Mapping[str, Any]) -> "Workload":
        """The same workload at other sizes, one instance per pass."""
        return replace(self, sizes=sizes, instances=1)

    def instance_seed(self, seed: int, index: int) -> int:
        # A string seed hashes through SHA-512, so it is stable across
        # processes and Python runs (unlike ``hash()``).
        return random.Random(f"{self.name}/{seed}/{index}").randrange(2**31)

    def generate(self, seed: int, index: int) -> Instance:
        return self.generator(self.instance_seed(seed, index), **self.sizes)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fenced-8zone",
            why=(
                "8 fenced zones on the partitioned engine: zone search dominates "
                "(cp ~40%, scale.parallel ~19%); the only constrained workload, "
                "its fence violations stay visible"
            ),
            dominant="cp",
            generator=fenced_8zone,
            sizes={"zones": 8, "nodes_per_zone": 6, "vjobs_per_zone": 8},
            instances=26,
            tail_percentile=97.0,
            tiny={"zones": 2, "nodes_per_zone": 4, "vjobs_per_zone": 3},
        ),
        Workload(
            name="churn-repair",
            why=(
                "arrivals, crashes and migration failures on the repair engine: "
                "full solves that use up the budget dominate (cp ~46%); covers "
                "fault handling and repair latency"
            ),
            dominant="cp, inside the repair engine's full solves",
            generator=churn_repair,
            sizes={"nodes": 16, "vjobs": 40},
            instances=30,
            tail_percentile=99.0,
            tiny={"nodes": 8, "vjobs": 6},
        ),
    )
}
