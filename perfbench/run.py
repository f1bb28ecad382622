"""Benchmark for kgcil: three seeded workloads, end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_query --seed 1 --seconds 20 --trace 0

--workload all runs the three workloads in turn and ends with one result
whose metric names carry the workload as a prefix.

--trace 0 reports the end-to-end metrics, untraced; --trace 1 runs the
workload once more with spans around every call into the package's layers
and reports the per-layer metrics. Earlier stdout lines hold the environment
and a readable table; the last line is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 0 means a result was
printed, even one with correct=false; without a package to measure (no
src/kgcil beside this directory) the exit code is 2 and nothing is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib as bl  # noqa: E402

WORKLOADS = ("cold_query", "incremental_run", "allocate_lookup")


def load_units() -> dict[tuple[bool, str], str]:
    """(traced, metric name) -> unit, from BENCHMARK.json."""
    spec = json.loads((bl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {(False, m["name"]): m["unit"] for m in spec["end_to_end"]}
    units.update({(True, m["name"]): m["unit"] for m in spec["per_layer"]})
    return units


def run_workload(name: str, seed: int, seconds: float, trace: bool, **overrides) -> bl.Outcome:
    module = __import__(name)
    ctx = bl.make_context(name, seed, seconds)
    try:
        return module.run(ctx, trace, **overrides)
    finally:
        bl.remove_context(ctx)


def report(outcome: bl.Outcome, trace: bool, env: dict, units: dict) -> dict:
    """Print the environment and a table, then return the result line's object."""
    expected = {name for traced, name in units if traced == trace}
    if set(outcome.metrics) != expected:
        raise RuntimeError(f"metrics {sorted(outcome.metrics)} do not match BENCHMARK.json")
    print(json.dumps({"environment": env}))
    for note in outcome.notes:
        print(f"FAILED: {note}")
    for name, value in outcome.metrics.items():
        print(f"{name:<34} {value:>16.6f} {units[(trace, name)]}")
        if name in outcome.samples:
            values = " ".join(f"{v:.4f}" for v in outcome.samples[name])
            print(f"{'':<4}median of {len(outcome.samples[name])}: {values}")
    print(f"{'error_rate':<34} {outcome.failed / outcome.attempted:>16.6f} fraction "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[(trace, name)]}
                    for name, value in outcome.metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (bl.SRC / "kgcil" / "__init__.py").is_file():
        print(f"no kgcil package under {bl.SRC}; run from the root of a kgcil checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(bl.SRC))
    trace = bool(args.trace)
    units = load_units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, trace)
        results[name] = report(outcome, trace, bl.environment(name, args.seed), units)
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
