"""Measure one workload: run its instances, check them, aggregate metrics.

One *rep* is one complete ``Scenario(...).build().run()`` of one generated
instance: a closed loop with a single loop process, where arrivals and
faults happen on the simulated clock.  A run executes every instance of
the workload once per pass, makes at least two passes and keeps cycling
until ``seconds`` have passed, so the inputs are fixed and the timings
get more samples on a faster machine.

Aggregation rules:

* wall-clock times are *least-disturbed* times: the host's speed drifts
  by tens of percent over seconds (other tenants share its cores), while
  the least time of a short piece of work measured many times over half
  a minute stays within a few percent.  An instance's reps are spread
  over the whole run and replay the same rounds, so each round is timed
  at its least over the reps (the fastest rep stands in when the reps
  disagree on the number of rounds).  ``round_tail_ms`` pools those
  rounds and takes a fixed percentile; ``loop_wall_s`` is the mean over
  instances of their sum plus the least lead-in before the first round
  (the time to schedule the whole workload, one instance each);
* simulated-time quantities (makespan, switch duration, utilization,
  cost) take the median over each instance's reps, then the mean of the
  middle half of the instances.  The per-instance figures are skewed
  (one long early switch, or a fallback plan, can double an instance's
  mean switch duration), so a plain mean swings with a single instance,
  while the median alone jumps between the clusters the figures form;
* the median and mean round are printed but are not metrics.  A round
  either plans a context switch or only observes, the two kinds differ
  fivefold, and the median falls in the thin gap between them, where
  the share of switch rounds an input happens to need moves it by a
  fifth; the mean moves with the number of rounds, which the switch
  durations (and, under a solver budget, the host's speed) decide.  The
  work of the whole run, ``loop_wall_s``, stays put;
* outcome shares (budget, degraded rounds, violations) pool every rep;
* ``setup_s`` is the median over every rep.
"""

from __future__ import annotations

import gc
import resource
import statistics
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy

from repro.obs.summary import load_trace
from probes import LAYERS, LayerTimer, RoundProbe, clock
from workloads import Workload

#: Untraced passes over a workload's instances a run makes at least.
MIN_PASSES = 2

#: ``(name, unit, better)`` of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("loop_wall_s", "s", "lower"),
    ("round_tail_ms", "ms", "lower"),
    ("makespan_s", "s", "lower"),
    ("switch_duration_mean_s", "s", "lower"),
    ("cpu_utilization", "share", "higher"),
    ("solve_within_budget", "share", "higher"),
    ("clean_switch_rounds", "share", "higher"),
    ("violation_free_rounds", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(name, unit, better)`` of every per-layer metric of a traced run.
PER_LAYER = (
    ("observe.ms", "ms", "lower"),
    ("observe.dirty_nodes", "count", "lower"),
    ("decide.ms", "ms", "lower"),
    ("decide.calls", "count", "lower"),
    ("decide.can_host_calls", "count", "lower"),
    ("decide.suspended_vjobs", "count", "lower"),
    ("partition.ms", "ms", "lower"),
    ("partition.zones", "count", "lower"),
    ("partition.exact_share", "share", "higher"),
    ("cp.ms", "ms", "lower"),
    ("cp.solves", "count", "lower"),
    ("cp.nodes", "count", "lower"),
    ("cp.backtracks", "count", "lower"),
    ("cp.propagations", "count", "lower"),
    ("cp.solutions", "count", "higher"),
    ("cp.proven_share", "share", "higher"),
    ("solve.ms", "ms", "lower"),
    ("solve.calls", "count", "lower"),
    ("solve.fallbacks", "count", "lower"),
    ("solve.budget_exhausted", "count", "lower"),
    ("repair.repair_rounds", "count", "higher"),
    ("repair.full_rounds", "count", "lower"),
    ("repair.attempts", "count", "lower"),
    ("repair.dirty_vms", "count", "lower"),
    ("repair.frozen_vms", "count", "higher"),
    ("plan.ms", "ms", "lower"),
    ("plan.calls", "count", "lower"),
    ("plan.actions", "count", "lower"),
    ("plan.pools", "count", "lower"),
    ("execute.ms", "ms", "lower"),
    ("execute.actions", "count", "lower"),
    ("execute.failed_actions", "count", "lower"),
    ("execute.sim_duration_s", "s", "lower"),
    ("check.ms", "ms", "lower"),
    ("check.violations", "count", "lower"),
    ("loop.self_ms", "ms", "lower"),
    ("loop.rounds", "count", "lower"),
    ("loop.switch_rounds", "count", "lower"),
    ("loop.wall_ms", "ms", "lower"),
    ("loop.trace_overhead_ms", "ms", "lower"),
)

#: Module that owns each layer of the self-time table.
LAYER_MODULES = {
    "observe": "sim.monitoring / model",
    "decide": "decision",
    "partition": "scale.partition",
    "cp": "cp",
    "solve": "core.optimizer / scale.parallel / repair",
    "plan": "core.planner",
    "execute": "sim.executor",
    "check": "constraints.checker",
    "loop": "api.loop (self)",
}


@dataclass
class Rep:
    """The measured outcome of one control-loop run."""

    index: int
    traced: bool
    setup_s: float
    wall_s: float
    #: Wall-clock from the start of ``run()`` to its first round.
    lead_s: float
    round_s: list[float]
    switch_rounds: int
    degraded_rounds: int
    violation_rounds: int
    solve_calls: int
    solve_exhausted: int
    #: Switch-needing rounds lost to an exception (the run raised).
    failed_rounds: int = 0
    makespan_s: float = 0.0
    switch_cost: float = 0.0
    switch_durations: list[float] = field(default_factory=list)
    switch_duration_mean_s: float = 0.0
    cpu_utilization: float = 0.0
    constraint_violations: int = 0
    repair_latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Traced reps only: per-layer metric values of this run.
    layers: dict[str, float] = field(default_factory=dict)


def run_instance(workload: Workload, seed: int, index: int, traced: bool) -> Rep:
    """Generate, build, run and check one instance."""
    # Every run starts from a collected heap, whatever the previous left.
    gc.collect()
    started = clock()
    instance = workload.generate(seed, index)
    probe = RoundProbe()
    loop = instance.scenario(observers=[probe], trace=traced).build()
    setup_s = clock() - started

    failures = []
    configuration = loop.cluster.configuration
    built = (
        len(configuration.vm_names),
        len(configuration.node_names),
        len(loop.workloads),
    )
    generated = (instance.vm_count, len(instance.nodes), len(instance.workloads))
    if built != generated:
        failures.append(
            f"built loop has (VMs, nodes, vjobs) = {built}, generated {generated}"
        )
    probe.attach(loop)
    timer = LayerTimer() if traced else None
    result = None
    with timer.attached(loop) if timer else nullcontext():
        run_started = clock()
        try:
            result = loop.run()
        except Exception:  # a raising run is a measured failure, not a crash
            failures.append("run raised:\n" + traceback.format_exc())
        wall_s = clock() - run_started
    probe.finish(run_started + wall_s)

    rounds = probe.rounds
    rep = Rep(
        index=index,
        traced=traced,
        setup_s=setup_s,
        wall_s=wall_s,
        lead_s=rounds[0].start - run_started if rounds else wall_s,
        round_s=[r.end - r.start for r in rounds],
        switch_rounds=sum(r.needed for r in rounds),
        degraded_rounds=sum(r.degraded for r in rounds),
        violation_rounds=sum(r.violations > 0 for r in rounds),
        solve_calls=len(probe.solve_s),
        solve_exhausted=probe.budget_exhausted(),
        failures=failures,
    )
    if result is None:
        # The schedule is lost: every switch-needing round of the run is
        # degraded and failed (at least the one that raised).
        rep.switch_rounds = rep.degraded_rounds = rep.failed_rounds = max(
            1, rep.switch_rounds
        )
        return rep
    _check(rep, result, instance, probe)
    rep.makespan_s = result.makespan
    rep.switch_cost = result.total_switch_cost
    rep.switch_durations = [s.duration for s in result.switches if s.action_count]
    rep.switch_duration_mean_s = result.average_switch_duration
    rep.cpu_utilization = statistics.fmean(
        s.cpu_fraction for s in result.utilization
    )
    rep.constraint_violations = len(result.constraint_violations)
    rep.repair_latencies = list(result.repair_latencies.values())
    if timer is not None:
        rep.layers = _layer_metrics(timer, probe, result, wall_s)
    return rep


def _check(rep: Rep, result: Any, instance: Any, probe: RoundProbe) -> None:
    """Output checks of one finished run; failures land on ``rep``."""
    names = {w.vjob.name for w in instance.workloads}
    if result.unfinished_vjobs or set(result.completion_times) != names:
        missing = sorted(names - set(result.completion_times))
        rep.failures.append(
            f"{len(missing)} of {len(names)} vjobs never completed: {missing[:5]}"
        )
    if result.metadata.get("final_viable") is not True:
        rep.failures.append("final configuration is not viable")
    if not len(result.switches) == probe.executions == probe.switch_records:
        rep.failures.append(
            f"{probe.executions} switches executed, {probe.switch_records} "
            f"reported, {len(result.switches)} recorded"
        )


def _cp_wall_s(trace: dict) -> tuple[float, int]:
    """Wall-clock covered by ``cp.solve`` spans, and their count.

    Zone solves run in worker processes, concurrently; their spans are
    re-parented under the round's ``solve`` span.  The union of their
    intervals, clipped to that span, is the time the loop waited on CP.
    """
    intervals: list[tuple[float, float]] = []
    solves = 0

    def walk(node, window):
        nonlocal solves
        end = node.end if node.end is not None else node.start
        if node.name == "solve":
            window = (node.start, end)
        elif node.name == "cp.solve":
            solves += 1
            low, high = window or (node.start, end)
            intervals.append((max(node.start, low), min(end, high)))
        for child in node.children:
            walk(child, window)

    walk(load_trace(trace), None)
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered, solves


def _layer_metrics(
    timer: LayerTimer, probe: RoundProbe, result: Any, wall_s: float
) -> dict[str, float]:
    counts = timer.counts
    self_s = dict(timer.self_s)
    cp_s, cp_solves = _cp_wall_s(result.trace)
    # CP runs inside ``optimize``: move its share out of the solve layer.
    self_s["cp"] = min(cp_s, self_s.get("solve", 0.0))
    self_s["solve"] = self_s.get("solve", 0.0) - self_s["cp"]
    solver = result.metadata.get("solver", {})
    totals = solver.get("totals", {})
    solver_rounds = solver.get("rounds", [])
    repair = result.metadata.get("repair_engine", {})
    metrics = {f"{layer}.ms": 1000.0 * self_s.get(layer, 0.0) for layer in LAYERS}
    metrics.update(
        {
            "observe.dirty_nodes": counts["observe.dirty_nodes"],
            "decide.calls": counts["decide.calls"],
            "decide.can_host_calls": counts["decide.can_host_calls"],
            "decide.suspended_vjobs": counts["decide.suspended_vjobs"],
            "partition.zones": counts["partition.zones"],
            "partition.exact_share": _share_of(
                counts["partition.exact"], counts["partition.calls"]
            ),
            "cp.solves": cp_solves,
            "cp.nodes": totals.get("nodes", 0),
            "cp.backtracks": totals.get("backtracks", 0),
            "cp.propagations": totals.get("propagations", 0),
            "cp.solutions": totals.get("solutions", 0),
            "cp.proven_share": _share_of(
                sum(r["proven_optimal"] for r in solver_rounds), len(solver_rounds)
            ),
            "solve.calls": counts["solve.calls"],
            "solve.fallbacks": counts["solve.fallbacks"],
            "solve.budget_exhausted": probe.budget_exhausted(),
            "repair.repair_rounds": repair.get("repair_rounds", 0),
            "repair.full_rounds": repair.get("full_rounds", 0),
            "repair.attempts": repair.get("attempts_total", 0),
            "repair.dirty_vms": repair.get("dirty_vms_total", 0),
            "repair.frozen_vms": repair.get("frozen_vms_total", 0),
            "plan.calls": counts["plan.calls"],
            "plan.actions": counts["plan.actions"],
            "plan.pools": counts["plan.pools"],
            "execute.actions": counts["execute.actions"],
            "execute.failed_actions": counts["execute.failed_actions"],
            "execute.sim_duration_s": counts["execute.sim_duration_s"],
            "check.violations": counts["check.violations"],
            "loop.self_ms": 1000.0 * (wall_s - sum(self_s.values())),
            "loop.rounds": len(probe.rounds),
            "loop.switch_rounds": sum(r.needed for r in probe.rounds),
            "loop.wall_ms": 1000.0 * wall_s,
        }
    )
    return metrics


def measure(
    workload: Workload, seed: int, seconds: float, traced: bool
) -> list[Rep]:
    """Run ``workload``'s instances for ``seconds``, and at least twice.

    Untraced, every instance runs once per pass and passes repeat while
    time is left, so each instance gets several reps spread over the run.
    Traced, each instance runs traced and then untraced (the pair gives
    the tracing overhead) until time is up, at least one pair.
    """
    reps: list[Rep] = []
    started = clock()
    count = 0
    minimum = 1 if traced else MIN_PASSES * workload.instances
    while count < minimum or clock() - started < seconds:
        index = count % workload.instances
        if traced:
            reps.append(run_instance(workload, seed, index, traced=True))
        reps.append(run_instance(workload, seed, index, traced=False))
        count += 1
    return reps


def _least_disturbed(reps: list[Rep]) -> list[tuple[float, list[float], bool]]:
    """Per instance, its lead-in and its rounds, each at its least time
    over the instance's reps, and whether the reps' rounds lined up."""
    by_instance: dict[int, list[Rep]] = defaultdict(list)
    for rep in reps:
        by_instance[rep.index].append(rep)
    least = []
    for same in by_instance.values():
        aligned = len({len(r.round_s) for r in same}) == 1
        if aligned:
            rounds = [min(times) for times in zip(*(r.round_s for r in same))]
        else:
            rounds = min(same, key=lambda r: r.wall_s).round_s
        least.append((min(r.lead_s for r in same), rounds, aligned))
    return least


def _per_instance(reps: list[Rep], field_name: str) -> list[float]:
    """Median of ``field_name`` over each instance's reps, per instance."""
    by_instance: dict[int, list[float]] = defaultdict(list)
    for rep in reps:
        by_instance[rep.index].append(getattr(rep, field_name))
    return [statistics.median(values) for values in by_instance.values()]


def _interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values``."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter : len(ordered) - quarter])


def _share_of(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(workload: Workload, reps: list[Rep]) -> dict[str, Any]:
    """Every metric of a run, the diagnostics printed beside them, and
    the failure accounting."""
    plain = [r for r in reps if not r.traced]
    least = _least_disturbed(plain)
    rounds = [s for _, times, _ in least for s in times]
    tail = workload.tail_percentile
    tail_s = float(numpy.percentile(rounds, tail))
    solve_calls = sum(r.solve_calls for r in plain)
    exhausted = _share_of(sum(r.solve_exhausted for r in plain), solve_calls)
    switch_rounds = sum(r.switch_rounds for r in plain)
    degraded = _share_of(sum(r.degraded_rounds for r in plain), switch_rounds)
    durations = [d for r in plain for d in r.switch_durations]
    latencies = [x for r in plain for x in r.repair_latencies]
    violation_rounds = sum(r.violation_rounds for r in plain)

    def typical(field_name: str) -> float:
        return _interquartile_mean(_per_instance(plain, field_name))

    end_to_end = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "loop_wall_s": statistics.fmean(lead + sum(times) for lead, times, _ in least),
        "round_tail_ms": 1000.0 * tail_s,
        "makespan_s": typical("makespan_s"),
        "switch_duration_mean_s": typical("switch_duration_mean_s"),
        "cpu_utilization": typical("cpu_utilization"),
        "solve_within_budget": 1.0 - exhausted,
        "clean_switch_rounds": 1.0 - degraded,
        "violation_free_rounds": 1.0
        - _share_of(violation_rounds, sum(len(r.round_s) for r in plain)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for s in rounds if s > tail_s)
    diagnostics = {
        "switch_duration_p50_s": "{:.2f} s over {} switches".format(
            statistics.median(durations) if durations else 0.0, len(durations)
        ),
        "switch_cost": f"{typical('switch_cost'):.0f} cost per instance",
        "round_p50_ms": f"{1000.0 * statistics.median(rounds):.4f} ms",
        "round_mean_ms": f"{1000.0 * statistics.fmean(rounds):.4f} ms",
        "least_disturbed": "{:.1f} reps per instance; {} of {} instances' reps "
        "disagreed on the rounds (fastest rep used)".format(
            len(plain) / len(least),
            sum(not aligned for _, _, aligned in least),
            len(least),
        ),
        "round_tail": f"p{tail:g} of {len(rounds)} rounds, {beyond} beyond it",
        "solve_budget_exhausted": f"{exhausted:.4f} of {solve_calls} optimizer calls",
        "degraded_rounds": f"{degraded:.4f} of {switch_rounds} switch-needing rounds",
        "constraint_violations": "{:.1f} records per run".format(
            statistics.fmean(r.constraint_violations for r in plain)
        ),
    }
    if latencies:
        diagnostics["repair_latency_p50_s"] = (
            f"{statistics.median(latencies):.2f} s over {len(latencies)} repairs"
        )
    traced = [r for r in reps if r.traced]
    per_layer = {}
    if traced:
        per_layer = {
            name: statistics.fmean(r.layers.get(name, 0.0) for r in traced)
            for name, _, _ in PER_LAYER
            if name != "loop.trace_overhead_ms"
        }
        untraced_of = {r.index: r.wall_s for r in plain}
        per_layer["loop.trace_overhead_ms"] = 1000.0 * statistics.fmean(
            r.wall_s - untraced_of[r.index] for r in traced
        )
    return {
        "end_to_end": end_to_end,
        "diagnostics": diagnostics,
        "per_layer": per_layer,
        "attempted": sum(r.switch_rounds for r in reps),
        "failed": sum(r.failed_rounds for r in reps),
        "failures": [f"instance {r.index}: {f}" for r in reps for f in r.failures],
        "reps": len(reps),
    }


def self_time_table(per_layer: dict[str, float]) -> list[str]:
    """Rows of the traced run's self-time table (ms and share of wall)."""
    wall = per_layer["loop.wall_ms"]
    rows = []
    for layer in (*LAYERS, "loop"):
        ms = per_layer[f"{layer}.ms" if layer != "loop" else "loop.self_ms"]
        rows.append(
            f"  {LAYER_MODULES[layer]:<42} {ms:12.1f} ms {100 * ms / wall:6.1f} %"
        )
    rows.append(f"  {'traced loop_wall_s':<42} {wall:12.1f} ms {100.0:6.1f} %")
    return rows

