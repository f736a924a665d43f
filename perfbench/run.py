"""Control-loop benchmark: full ``Scenario(...).build().run()`` rounds on
seeded, generated fleets, with end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fenced-8zone --seed 1 --seconds 60 --trace 0

``--trace 0`` measures untraced runs and prints the end-to-end metrics;
``--trace 1`` runs each instance traced and untraced and prints the
per-layer metrics, a self-time table and the tracing overhead.  Human
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``attempted``
counts switch-needing rounds, ``failed`` those of runs that raised; rounds
that ended in a planning error or a fallback plan are degraded, not
failed, and show in ``clean_switch_rounds``.  The exit code is 1 when an
output check failed and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src'} has no repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Imported only now: they import the program under test.
    from bench import END_TO_END, PER_LAYER, measure, self_time_table, summarize
    from workloads import HELD_OUT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    traced = bool(args.trace)
    # Warm-up on the smallest instance: imports and lazy set-up finish
    # before anything is timed.
    warm_up = measure(workload.scaled(workload.tiny), args.seed, 0.0, traced=False)
    summary = summarize(workload, measure(workload, args.seed, args.seconds, traced))
    summary["failures"] += [f"warm-up: {f}" for rep in warm_up for f in rep.failures]

    lines = [
        f"workload {workload.name}  seed {args.seed}  (held-out seed {HELD_OUT_SEED})  "
        f"{summary['reps']} runs of {workload.instances} instances  "
        f"predicted dominant layer: {workload.dominant}",
        "end-to-end (untraced):",
    ]
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, value in summary["end_to_end"].items():
        lines.append(f"  {name:<24} {value:14.4f} {units[name]}")
    for name, text in summary["diagnostics"].items():
        lines.append(f"  {name:<24} {text}")
    if traced:
        per_layer = summary["per_layer"]
        lines.append("self time per layer (traced, mean per run):")
        lines += self_time_table(per_layer)
        lines.append(
            f"  tracing overhead: {per_layer['loop.trace_overhead_ms']:.1f} ms "
            "(traced minus untraced loop_wall_s)"
        )
        lines.append("per-layer metrics:")
        lines += [
            f"  {name:<28} {per_layer[name]:16.4f} {unit}"
            for name, unit, _ in PER_LAYER
        ]
    for failure in summary["failures"]:
        lines.append(f"CHECK FAILED {failure}")
    print("\n".join(lines))
    if traced:
        metrics = {
            name: {"value": summary["per_layer"][name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": summary["end_to_end"][name], "unit": unit}
            for name, unit, _ in END_TO_END
        }
    correct = not summary["failures"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
