#!/usr/bin/env python3
"""Rewrite perfbench/golden.json: the report digest of every workload run.

    PYTHONPATH=src python3 perfbench/make_golden.py

Digests are taken at the golden seed.  Rewrite them only for a change that
is meant to alter reports, and say so in that change.
"""

import json

import bench
from octoweyl import suites
from octoweyl.quiver import default_lambda


def main() -> None:
    cfg = suites.SuiteConfig(seed=bench.GOLDEN_SEED)
    golden = {}
    for name, workload in bench.WORKLOADS.items():
        golden[name] = {}
        for run in workload.runs:
            suite, weights = run
            report = suites.run_suite(suite, weights, default_lambda(len(weights)), cfg)
            if bench.check_report(bench.run_key(run), report, None) is not None:
                raise SystemExit(f"{bench.run_key(run)} fails; no golden written")
            golden[name][bench.run_key(run)] = bench.digest(report)
    with open(bench.GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
