#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, plain or traced.

    python3 perfbench/run.py --workload catalog --seed 1729 --seconds 36 --trace 0

Run from the root of a checkout.  Plain mode (``--trace 0``) prints the
end-to-end metrics named in BENCHMARK.json; traced mode (``--trace 1``)
prints the per-layer metrics and writes the spans of its last traced pass
to ``.perfbench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="octoweyl benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric_specs(trace: bool) -> dict[str, str]:
    """Declared metric names and units for the mode, in declaration order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_lines(outcome, specs: dict[str, str], env: dict) -> list[str]:
    """Human-readable lines, then the JSON result line."""
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    lines += outcome.notes
    lines += [f"FAIL {problem}" for problem in outcome.failures]
    failed = len(outcome.failures)
    lines.append(
        f"fail_ratio {failed / outcome.attempted!r} ratio ({failed}/{outcome.attempted} runs)"
    )
    metrics = {}
    for name, unit in specs.items():
        value = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name} {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # Measure the package of this checkout, never an installed copy.
    if not (ROOT / "src" / "octoweyl" / "__init__.py").is_file():
        print(f"perfbench: no octoweyl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 0:
        print("perfbench: --seconds must be >= 0", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    specs = metric_specs(bool(args.trace))
    env = dict(bench.environment(args.seed), workload=workload.name, trace=args.trace)
    golden = bench.load_golden(workload.name) if args.seed == bench.GOLDEN_SEED else None
    if args.trace:
        trace_path = ROOT / ".perfbench_out" / f"spans-{workload.name}.tsv"
        outcome = bench.measure_traced(
            workload, args.seed, args.seconds, golden, trace_path, json.dumps(env)
        )
    else:
        outcome = bench.measure(workload, args.seed, args.seconds, golden, SETUP_REPEATS)
    print("\n".join(result_lines(outcome, specs, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
