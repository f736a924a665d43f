"""Instrumentation the benchmark attaches to a built ``ControlLoop``.

Nothing here changes the program: every probe wraps a public entry point
of one layer from the outside and restores it afterwards.

* :class:`RoundProbe` is attached to every run.  It costs one clock read
  per round and per solve, so end-to-end metrics stay untraced: round
  boundaries come from the ``on_iteration`` observer hook, switch-needing
  rounds from ``switcher.compute``/``plan_to``, solve times from
  ``switcher.optimizer.optimize``.
* :class:`LayerTimer` is attached to traced runs only.  It times the
  entry point of each layer and keeps *self* time: a call nested in
  another timed call is subtracted from its parent, so the layers and the
  loop's own remainder add up to the run's wall-clock.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator

import repro.api.loop as loop_module
import repro.core.planner as planner_module
import repro.scale.parallel as parallel_module
import repro.sim.executor as executor_module
from repro.api.events import LoopObserver
from repro.core.planner import ReconfigurationPlanner
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.vjob import VJobState

clock = time.perf_counter


class Round:
    """What one control-loop round did, as seen from outside the loop."""

    __slots__ = ("start", "end", "needed", "planning_error", "fallback", "violations")

    def __init__(self, start: float) -> None:
        self.start = start
        self.end = start
        #: The decision asked for a context switch (the loop planned one).
        self.needed = False
        self.planning_error = False
        self.fallback = False
        self.violations = 0

    @property
    def degraded(self) -> bool:
        return self.needed and (self.planning_error or self.fallback)


class RoundProbe(LoopObserver):
    """Per-round wall-clock and outcome of one run."""

    def __init__(self) -> None:
        self.rounds: list[Round] = []
        #: Wall-clock seconds of every ``optimizer.optimize`` call.
        self.solve_s: list[float] = []
        self.executions = 0
        self.switch_records = 0
        self.timeout = 0.0

    def attach(self, loop: Any) -> None:
        switcher = loop.switcher
        self.timeout = getattr(switcher.optimizer, "timeout", 0.0)
        switcher.compute = self._planning(switcher.compute)
        switcher.plan_to = self._planning(switcher.plan_to)
        switcher.optimizer.optimize = self._solving(switcher.optimizer.optimize)
        loop.executor.execute = self._counting(loop.executor.execute)

    def _planning(self, call: Callable) -> Callable:
        def planned(*args, **kwargs):
            current = self.rounds[-1]
            current.needed = True
            try:
                return call(*args, **kwargs)
            except PlanningError:
                current.planning_error = True
                raise

        return planned

    def _solving(self, call: Callable) -> Callable:
        def solved(*args, **kwargs):
            started = clock()
            result = call(*args, **kwargs)
            self.solve_s.append(clock() - started)
            return result

        return solved

    def _counting(self, call: Callable) -> Callable:
        def executed(*args, **kwargs):
            self.executions += 1
            return call(*args, **kwargs)

        return executed

    def finish(self, at: float) -> None:
        """Close the last round at ``at`` (end of ``run()``, or the raise)."""
        if self.rounds:
            self.rounds[-1].end = at

    # -- observer hooks --------------------------------------------------

    def on_iteration(self, time_s: float, configuration: Any) -> None:
        now = clock()
        if self.rounds:
            self.rounds[-1].end = now
        self.rounds.append(Round(now))

    def on_switch(self, record: Any, report: Any) -> None:
        self.switch_records += 1
        if record.used_fallback:
            self.rounds[-1].fallback = True

    def on_constraint_violation(self, record: Any) -> None:
        if self.rounds:
            self.rounds[-1].violations += 1

    # -- derived ---------------------------------------------------------

    def budget_exhausted(self) -> int:
        """Solves whose wall-clock reached the optimizer timeout."""
        if self.timeout <= 0:
            return 0
        return sum(1 for s in self.solve_s if s >= 0.99 * self.timeout)


#: Layer names of the self-time table, in loop order.
LAYERS = ("observe", "decide", "partition", "cp", "solve", "plan", "execute", "check")


class LayerTimer:
    """Self time and work counters per layer for one traced run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: Open timed calls: ``[layer, seconds spent in timed children]``.
        self._stack: list[list] = []

    def timed(
        self, layer: str, call: Callable, record: Callable | None = None
    ) -> Callable:
        """Wrap ``call`` so its self time lands on ``layer``; ``record``
        gets ``(result, args, kwargs)`` to update the layer's counters."""

        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            self._stack.append(frame)
            started = clock()
            try:
                result = call(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self._stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.counts[f"{layer}.calls"] += 1
            if record is not None:
                record(result, args, kwargs)
            return result

        return wrapper

    @property
    def current_layer(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    @contextmanager
    def attached(self, loop: Any) -> Iterator["LayerTimer"]:
        """Install every layer probe on ``loop`` (instance attributes) and
        on the module functions it reaches; restore them on exit."""
        counts = self.counts
        loop.monitoring.observe = self.timed("observe", loop.monitoring.observe)

        def decided(decision, args, kwargs):
            counts["decide.suspended_vjobs"] += sum(
                1 for s in decision.vjob_states.values() if s is VJobState.SLEEPING
            )

        loop.decision_module.decide = self.timed(
            "decide", loop.decision_module.decide, decided
        )

        def solved(result, args, kwargs):
            counts["solve.fallbacks"] += bool(result.used_fallback)

        optimizer = loop.switcher.optimizer
        optimizer.optimize = self.timed("solve", optimizer.optimize, solved)

        def executed(report, args, kwargs):
            counts["execute.actions"] += report.action_count
            counts["execute.failed_actions"] += len(report.failures)
            counts["execute.sim_duration_s"] += report.duration

        loop.executor.execute = self.timed("execute", loop.executor.execute, executed)

        def planned(plan, args, kwargs):
            counts["plan.actions"] += plan.action_count()
            counts["plan.pools"] += len(plan.pools)

        def partitioned(decomposition, args, kwargs):
            counts["partition.zones"] += len(decomposition.zones)
            counts["partition.exact"] += bool(decomposition.exact)

        def checked(violations, args, kwargs):
            counts["check.violations"] += len(violations)

        viability = Configuration.viability_violations
        timed_viability = self.timed("observe", viability)
        can_host = Configuration.can_host

        def viability_violations(configuration, *args, **kwargs):
            # Only the loop's own observe-phase call is a layer boundary;
            # calls made inside another layer stay that layer's time.
            if self._stack:
                return viability(configuration, *args, **kwargs)
            if kwargs.get("only_dirty"):
                counts["observe.dirty_nodes"] += len(configuration.dirty_nodes())
            return timed_viability(configuration, *args, **kwargs)

        def counted_can_host(configuration, *args, **kwargs):
            counts[f"{self.current_layer}.can_host_calls"] += 1
            return can_host(configuration, *args, **kwargs)

        def layer(owner, name, layer_name, record):
            return owner, name, self.timed(layer_name, getattr(owner, name), record)

        patches = (
            layer(ReconfigurationPlanner, "build", "plan", planned),
            layer(parallel_module, "partition", "partition", partitioned),
            layer(loop_module, "check_configuration", "check", checked),
            layer(executor_module, "check_configuration", "check", checked),
            layer(planner_module, "check_plan", "check", checked),
            (Configuration, "viability_violations", viability_violations),
            (Configuration, "can_host", counted_can_host),
        )
        with ExitStack() as restore:
            for owner, name, replacement in patches:
                restore.callback(setattr, owner, name, getattr(owner, name))
                setattr(owner, name, replacement)
            yield self
