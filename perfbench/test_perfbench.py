"""The benchmark's own tests, at tiny sizes.

Run from the root of a checkout: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    Rep,
    _cp_wall_s,
    _interquartile_mean,
    _least_disturbed,
    measure,
    summarize,
)
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _fingerprint(instance):
    """Everything the program receives, reduced to comparable values."""
    return {
        "nodes": [(n.name, n.cpu_capacity, n.memory_capacity) for n in instance.nodes],
        "vjobs": [
            (w.vjob.name, w.vjob.submitted_at, [vm.memory for vm in w.vjob.vms])
            for w in instance.workloads
        ],
        "constraints": [c.label for c in instance.constraints],
        "faults": (
            [(e.time, e.kind.value, e.target) for e in instance.faults.ordered()]
            if instance.faults
            else []
        ),
        "options": instance.options,
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    workload = WORKLOADS[name].scaled(WORKLOADS[name].tiny)
    first = _fingerprint(workload.generate(seed=3, index=0))
    assert first == _fingerprint(workload.generate(seed=3, index=0))
    assert first != _fingerprint(workload.generate(seed=4, index=0))
    assert first != _fingerprint(workload.generate(seed=3, index=1))


def test_fenced_workload_fences_every_vm_to_its_zone():
    instance = WORKLOADS["fenced-8zone"].generate(seed=1, index=0)
    fenced = [vm for fence in instance.constraints for vm in fence.vms]
    assert len(instance.constraints) == 8
    assert sorted(fenced) == sorted(
        vm for w in instance.workloads for vm in w.vjob.vm_names
    )


def test_benchmark_json_names_the_workloads_and_their_reasons():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_printed_metric_names_match_benchmark_json(name):
    workload = WORKLOADS[name].scaled(WORKLOADS[name].tiny)
    reps = measure(workload, seed=1, seconds=0.0, traced=True)
    summary = summarize(workload, reps)
    assert not summary["failures"]
    assert summary["attempted"] >= 1
    assert list(summary["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(END_TO_END) == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]
    ]
    assert sorted(summary["per_layer"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert list(PER_LAYER) == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ]


def test_layer_self_times_add_up_to_the_traced_wall_clock():
    workload = WORKLOADS["churn-repair"].scaled(WORKLOADS["churn-repair"].tiny)
    layers = summarize(workload, measure(workload, 1, 0.0, traced=True))["per_layer"]
    parts = [layers[f"{name}.ms"] for name in ("observe", "decide", "partition", "cp")]
    parts += [layers[f"{name}.ms"] for name in ("solve", "plan", "execute", "check")]
    assert sum(parts) + layers["loop.self_ms"] == pytest.approx(layers["loop.wall_ms"])
    assert layers["loop.self_ms"] >= 0.0


def test_cp_wall_clock_is_the_union_of_concurrent_solves_inside_the_round():
    trace = {
        "name": "run",
        "start": 0.0,
        "end": 10.0,
        "children": [
            {
                "name": "solve",
                "start": 1.0,
                "end": 5.0,
                "children": [
                    {"name": "cp.solve", "start": 1.5, "end": 3.0},
                    {"name": "cp.solve", "start": 2.0, "end": 3.5},
                    # A worker span shifted past its round is clipped.
                    {"name": "cp.solve", "start": 4.5, "end": 6.0},
                ],
            }
        ],
    }
    covered, solves = _cp_wall_s(trace)
    assert solves == 3
    assert covered == pytest.approx(2.0 + 0.5)


def _rep(index, wall_s, lead_s, round_s):
    return Rep(index, False, 0.0, wall_s, lead_s, round_s, 0, 0, 0, 0, 0)


def test_rounds_are_timed_at_their_least_over_an_instances_reps():
    reps = [
        _rep(0, 1.0, 0.2, [0.3, 0.5]),
        _rep(0, 1.0, 0.1, [0.4, 0.2]),
        # Reps that disagree on the rounds: the fastest one stands in.
        _rep(1, 2.0, 0.5, [1.0, 0.5]),
        _rep(1, 1.5, 0.4, [0.3, 0.3, 0.5]),
    ]
    assert _least_disturbed(reps) == [
        (0.1, [0.3, 0.2], True),
        (0.4, [0.3, 0.3, 0.5], False),
    ]


def test_interquartile_mean_drops_a_quarter_at_each_end():
    assert _interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]) == 3.5
    assert _interquartile_mean([7.0]) == 7.0
