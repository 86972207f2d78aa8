"""Smoke tests of the benchmark itself, on a workload of one small run.

    python3 -m pytest -q perfbench
"""

import json
import sys

import pytest

import bench
import run
import tracer
from octoweyl import suites
from octoweyl.quiver import default_lambda

TINY_RUN = ("presentations", (2, 2, 2))
TINY = bench.Workload("tiny", (TINY_RUN,), TINY_RUN)
KEY = bench.run_key(TINY_RUN)


@pytest.fixture(scope="module")
def golden():
    report = suites.run_suite(
        "presentations", (2, 2, 2), default_lambda(3), suites.SuiteConfig(seed=1729)
    )
    return {KEY: bench.digest(report)}


def _package_functions() -> dict:
    return {
        (mod_name, attr): value
        for mod_name, mod in list(sys.modules.items())
        if mod_name.split(".")[0] == "octoweyl"
        for attr, value in vars(mod).items()
        if callable(value)
    }


def _printed(outcome, trace: bool):
    specs = run.metric_specs(trace)
    lines = run.result_lines(outcome, specs, {})
    return specs, lines, json.loads(lines[-1])


def _assert_every_metric(specs, lines, result):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(specs)
    for name, unit in specs.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))
        assert f"{name} {entry['value']!r} {unit}" in lines


def test_plain_mode_prints_every_end_to_end_metric(golden):
    outcome = bench.measure(TINY, 1729, 0, golden, setup_repeats=1)
    specs, lines, result = _printed(outcome, trace=False)
    _assert_every_metric(specs, lines, result)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_mode_prints_every_layer_metric_and_restores_functions(golden, tmp_path):
    before = _package_functions()
    outcome = bench.measure_traced(TINY, 1729, 0, golden, tmp_path / "spans.tsv", "{}")
    assert _package_functions() == before
    specs, lines, result = _printed(outcome, trace=True)
    _assert_every_metric(specs, lines, result)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    metrics = result["metrics"]
    assert metrics["presentations.verify.calls"]["value"] == 2
    assert metrics["lattice.build.calls"]["value"] > 0
    assert metrics["weyl.root_orbit.calls"]["value"] == 0
    assert metrics["curve.2-2-2.s"]["value"] == metrics["suites.presentations.s"]["value"]
    spans = (tmp_path / "spans.tsv").read_text().splitlines()
    assert spans[3].split("\t")[1] == tracer.RUN_SPAN


def test_wrappers_are_installed_everywhere_and_removed_after_an_error():
    before = _package_functions()
    with pytest.raises(RuntimeError):
        with tracer.installed(tracer.Tracer()):
            from octoweyl import exact, suites as suites_module, weyl

            assert weyl.mat_mul is exact.mat_mul is suites_module.mat_mul
            assert exact.mat_mul is not before[("octoweyl.exact", "mat_mul")]
            raise RuntimeError
    assert _package_functions() == before


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: inner() + inner())
    t.run("r", outer)
    calls, total, own = t.stats["outer"]
    assert calls == 1 and t.stats["inner"][0] == 2
    assert own == pytest.approx(total - t.stats["inner"][1])
    assert [span[3] for span in t.spans] == [None, 0, 1, 1]


def test_altered_report_fails_the_digest_check(golden, monkeypatch):
    real = suites.run_suite

    def altered(*args):
        report = real(*args)
        report["details"] = report["details"][:-1]  # every remaining check holds
        return report

    monkeypatch.setattr(suites, "run_suite", altered)
    outcome = bench.measure(TINY, 1729, 0, golden, setup_repeats=1)
    assert outcome.failures == [f"{KEY}: report digest differs from the golden digest"]
    _specs, lines, result = _printed(outcome, trace=False)
    assert (result["correct"], result["failed"]) == (False, 1)
    assert f"FAIL {KEY}: report digest differs from the golden digest" in lines


def test_golden_digests_cover_every_workload_run():
    with open(bench.GOLDEN_PATH, encoding="utf-8") as f:
        golden = json.load(f)
    assert set(golden) == set(bench.WORKLOADS)
    for name, workload in bench.WORKLOADS.items():
        assert set(golden[name]) == {bench.run_key(r) for r in workload.runs}
