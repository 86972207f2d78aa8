"""Golden gate: every benchmark report is bit-identical to its committed digest.

The digests live in ``perfbench/golden.json``, one key per benchmark workload
("catalog", "long_arm", "many_arms") and under it one SHA-256 of
``json.dumps(report, sort_keys=True)`` per ``"<suite> <weights>"`` run at the
golden seed.  Each run is derived from its key.  This test only reads that
file; a change that is meant to alter reports rewrites it with
``perfbench/make_golden.py`` and says so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from octoweyl.quiver import default_lambda
from octoweyl.suites import DEFAULT_CATALOG, SUITE_NAMES, SuiteConfig, run_suite

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
GOLDEN_SEED = 1729
RUN_COUNTS = {"catalog": 110, "long_arm": 4, "many_arms": 20}


def _digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _golden(workload: str) -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)[workload]


def test_catalog_key_covers_every_suite_and_catalog_weight():
    runs = {
        f"{name} {','.join(map(str, w))}" for w in DEFAULT_CATALOG for name in SUITE_NAMES
    }
    assert set(_golden("catalog")) == runs


@pytest.mark.parametrize("workload", sorted(RUN_COUNTS))
def test_reports_match_golden_digests(workload):
    golden = _golden(workload)
    assert len(golden) == RUN_COUNTS[workload]
    cfg = SuiteConfig(seed=GOLDEN_SEED)
    differing = []
    for key, want in golden.items():
        name, weights = key.split(" ")
        w = tuple(int(a) for a in weights.split(","))
        if _digest(run_suite(name, w, default_lambda(len(w)), cfg)) != want:
            differing.append(key)
    assert differing == []
