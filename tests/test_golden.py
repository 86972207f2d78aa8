"""Golden gate: every catalog report is bit-identical to its committed digest.

The digests live in ``perfbench/golden.json`` (key "catalog"), one SHA-256 of
``json.dumps(report, sort_keys=True)`` per ``"<suite> <weights>"`` run at the
golden seed.  This test only reads that file; a change that is meant to alter
reports rewrites it with ``perfbench/make_golden.py`` and says so.
"""

import hashlib
import json
from pathlib import Path

from octoweyl.quiver import default_lambda
from octoweyl.suites import DEFAULT_CATALOG, SUITE_NAMES, SuiteConfig, run_suite

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
GOLDEN_SEED = 1729


def _digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_catalog_reports_match_golden_digests():
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        golden = json.load(f)["catalog"]
    cfg = SuiteConfig(seed=GOLDEN_SEED)
    got = {}
    # Same order as `octoweyl verify --suite all`: weights outer, suites inner.
    for w in DEFAULT_CATALOG:
        for name in SUITE_NAMES:
            report = run_suite(name, w, default_lambda(len(w)), cfg)
            got[f"{name} {','.join(map(str, w))}"] = _digest(report)
    assert len(got) == 110
    assert got.keys() == golden.keys()
    differing = sorted(k for k in got if got[k] != golden[k])
    assert differing == []
