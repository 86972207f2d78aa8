"""Workloads, timed passes and the correctness gate of the octoweyl benchmark.

A workload is a fixed sequence of suite runs, issued closed-loop by one
caller: each ``run_suite`` call starts only after the previous one returned,
in the order ``octoweyl verify`` uses (weights outer, suites inner).  A pass
is one trip through that sequence; a measurement repeats passes until its
time is used up and reports medians.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from octoweyl import suites
from octoweyl.quiver import default_lambda
from octoweyl.suites import SuiteConfig

from reference import NOMINAL_RATE, Reference
from tracer import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 1729

# Frozen here rather than read from the package, so that a change to the
# package's catalog or suite list cannot silently change what is measured.
SUITES = (
    "presentations",
    "semidirect",
    "artin",
    "vanderlek",
    "prop44",
    "translations",
    "roots-decomposition",
    "mutations",
    "twists",
    "cone",
)
CATALOG = (
    (2, 2, 2),
    (2, 2, 3),
    (2, 3, 3),
    (2, 3, 4),
    (3, 3, 3),
    (2, 4, 4),
    (2, 3, 6),
    (2, 2, 2, 2),
    (2, 3, 7),
    (2, 4, 5),
    (3, 3, 4),
)

Run = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[Run, ...]
    largest: Run  # the fixed job reported as run_max_s

    @property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        return tuple(dict.fromkeys(w for _suite, w in self.runs))


WORKLOADS = {
    w.name: w
    for w in (
        # verify --suite all: many small runs, dominated by per-run fixed costs.
        Workload(
            "catalog",
            tuple((s, w) for w in CATALOG for s in SUITES),
            ("cone", (2, 3, 4)),
        ),
        # Witness words of 2^(j+2)-2 letters: word evaluation and dense products.
        Workload(
            "long_arm",
            tuple(("translations", (2, 3, k)) for k in (7, 8, 9, 10)),
            ("translations", (2, 3, 10)),
        ),
        # Ranks up to 14: large root orbits, mutations and relation checks.
        Workload(
            "many_arms",
            tuple((s, w) for w in ((4, 4, 4), (4, 4, 4, 4)) for s in SUITES),
            ("cone", (4, 4, 4, 4)),
        ),
    )
}

CURVE_WEIGHTS = tuple(dict.fromkeys(w for wl in WORKLOADS.values() for w in wl.weights))


def run_key(run: Run) -> str:
    suite, weights = run
    return f"{suite} {','.join(map(str, weights))}"


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def load_golden(workload: str) -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)[workload]


def check_report(key: str, report: dict, golden: dict[str, str] | None) -> str | None:
    """Why a report is wrong, or None when it is right.

    With golden digests the report must match byte for byte; without them
    (any seed but the golden one) every detail must hold.
    """
    if not report["pass"] or not all(d["holds"] for d in report["details"]):
        return f"{key}: a check does not hold"
    if golden is not None and golden.get(key) != digest(report):
        return f"{key}: report digest differs from the golden digest"
    return None


@dataclass
class Outcome:
    """What a measurement attempted, what failed, and its metric values."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def run_pass(
    workload: Workload,
    seed: int,
    golden: dict[str, str] | None,
    outcome: Outcome,
    read,
    tracer: Tracer | None = None,
) -> list[tuple]:
    """One pass over the workload: the (start, end) ``read()`` of each run.

    Reports are checked after the last run, outside every timed region.
    """
    cfg = SuiteConfig(seed=seed)
    results = []
    marks = []
    for run in workload.runs:
        suite, weights = run
        args = (suite, weights, default_lambda(len(weights)), cfg)
        start = read()
        try:
            if tracer is None:
                report = suites.run_suite(*args)
            else:
                report = tracer.run(run_key(run), suites.run_suite, *args)
        except Exception as exc:  # a raising run is a failed run; the pass goes on
            report = exc
        marks.append((start, read()))
        results.append((run, report))
    for run, report in results:
        outcome.attempted += 1
        key = run_key(run)
        if isinstance(report, Exception):
            problem = f"{key}: raised {type(report).__name__}: {report}"
        else:
            problem = check_report(key, report, golden)
        if problem is not None:
            outcome.failures.append(problem)
    return marks


def _repeat(deadline: float, step, at_least_once: bool) -> None:
    """Call step while another call, as long as the last one, would end by deadline."""
    last = 0.0
    while perf_counter() + last <= deadline or (at_least_once and last == 0.0):
        begin = perf_counter()
        step()
        last = perf_counter() - begin


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    golden: dict[str, str] | None,
    setup_repeats: int,
) -> Outcome:
    """End-to-end metrics in nominal seconds, with the reference kernel running."""
    outcome = Outcome()
    passes: list[list[float]] = []
    with Reference() as ref:
        before = ref.read()
        setup_cpu = setup_cpu_seconds(workload, setup_repeats)
        setup_rate = ref.rate(before, ref.read())
        setup = [cpu * setup_rate / NOMINAL_RATE for cpu in setup_cpu]

        def one_pass():
            begin = perf_counter()
            marks = run_pass(workload, seed, golden, outcome, ref.read)
            passes.append(ref.nominal(marks))
            outcome.notes.append(
                f"pass {len(passes)}: {perf_counter() - begin:.3f} s elapsed, "
                f"{sum(passes[-1]):.3f} nominal s, "
                f"kernel rate {ref.rate(marks[0][0], marks[-1][1]):.0f}/s"
            )

        deadline = perf_counter() + seconds
        _repeat(deadline, one_pass, at_least_once=True)
        # The largest run alone, in the time left, gives run_max_s more
        # samples than there are passes.
        alone = Workload(workload.name, (workload.largest,), workload.largest)
        largest = [p[workload.runs.index(workload.largest)] for p in passes]
        _repeat(
            deadline,
            lambda: largest.extend(ref.nominal(run_pass(alone, seed, golden, outcome, ref.read))),
            at_least_once=False,
        )
    outcome.notes.append(f"largest run: {len(largest)} samples")
    per_run = [statistics.median(column) for column in zip(*passes)]
    outcome.metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(p) for p in passes),
        "run_p50_s": statistics.median(per_run),
        "run_max_s": statistics.median(largest),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return outcome


def measure_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    golden: dict[str, str] | None,
    trace_path: Path,
    header: str,
) -> Outcome:
    """Per-layer metrics from traced passes, each after a plain pass.

    Spans are timed in CPU seconds of the workload thread, so the reference
    kernel's turns stay out of them, and then scaled to nominal seconds by
    the kernel rate over the traced pass.  The spans of the last traced pass
    are written to ``trace_path``.
    """
    outcome = Outcome()
    plain_totals: list[float] = []
    traced_totals: list[float] = []
    layer_values: list[dict[str, float]] = []
    tracers: list[Tracer] = []
    with Reference() as ref:

        def one_pass():
            plain_totals.append(sum(ref.nominal(run_pass(workload, seed, golden, outcome, ref.read))))
            tracer = Tracer()
            with installed(tracer):
                marks = run_pass(workload, seed, golden, outcome, ref.read, tracer)
            traced_totals.append(sum(ref.nominal(marks)))
            scale = ref.rate(marks[0][0], marks[-1][1]) / NOMINAL_RATE
            layer_values.append(_layer_metrics(tracer, scale))
            tracers[:] = [tracer]

        _repeat(perf_counter() + seconds, one_pass, at_least_once=True)
    values = {k: statistics.median(v[k] for v in layer_values) for k in layer_values[0]}
    values["trace.overhead_ratio"] = statistics.median(traced_totals) / statistics.median(
        plain_totals
    )
    outcome.metrics = values
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracers[0].write(trace_path, header)
    return outcome


def _layer_metrics(tracer: Tracer, scale: float) -> dict[str, float]:
    """Layer values of one traced pass, with every time multiplied by scale."""
    values = tracer.values()
    for suite in SUITES:
        values[f"suites.{suite}.s"] = 0.0
    for weights in CURVE_WEIGHTS:
        values[f"curve.{'-'.join(map(str, weights))}.s"] = 0.0
    for key, seconds in tracer.run_seconds().items():
        suite, weights = key.split(" ")
        values[f"suites.{suite}.s"] += seconds
        values[f"curve.{weights.replace(',', '-')}.s"] += seconds
    return {k: v * scale if k.endswith(("_s", ".s")) else v for k, v in values.items()}


SETUP_CODE = """
import time
start = time.process_time()
import octoweyl
for w in {weights!r}:
    octoweyl.star_lattice(w)
    octoweyl.octopus_lattice(w, octoweyl.default_lambda(len(w)))
print(time.process_time() - start)
"""


def setup_cpu_seconds(workload: Workload, repeats: int) -> list[float]:
    """CPU seconds to import octoweyl and build the workload's lattices, each
    time in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = SETUP_CODE.format(weights=workload.weights)
    out = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def environment(seed: int) -> dict:
    """Interpreter, CPU, core count and commit the results were measured on."""
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git.

    A checkout that is not a git work tree reports "unknown"; git itself
    would walk up into any repository that encloses it.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"
