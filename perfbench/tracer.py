"""Outside-in layer trace of the octoweyl package for the benchmark.

The benchmark wraps each layer's public functions from the outside: the
package itself is not changed.  Modules bind names with
``from .exact import mat_mul``, so a wrapper is installed in every loaded
``octoweyl.*`` module that holds the original function object, and removed
from all of them when the traced pass ends.

Every call of a wrapped function records one span (name, start, end, parent
span, suite run id).  Spans are kept in memory; self time is derived as the
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import thread_time

from octoweyl import weyl
from octoweyl.errors import NotInConeWithinBudget


def _letters(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["weyl.evaluate_word.letters"] += len(result.word)


def _word_letters(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["weyl.translation_element.word_letters"] += len(result.word)


_ORBIT_SIGNATURE = inspect.signature(weyl.root_orbit)


def _roots(tracer, args, kwargs, result, exc):
    bound = _ORBIT_SIGNATURE.bind(*args, **kwargs).arguments
    key = (bound["lattice"], tuple(bound["basis"]), bound["word_depth"])
    if key in tracer.orbits_seen:
        tracer.counts["weyl.root_orbit.repeats"] += 1
    tracer.orbits_seen.add(key)
    if exc is None:
        tracer.counts["weyl.root_orbit.roots"] += len(result[0])


def _relations(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["presentations.verify.relations"] += len(result.outcomes)


def _steps(tracer, args, kwargs, result, exc):
    if isinstance(exc, NotInConeWithinBudget):
        tracer.counts["cone.make_dominant.exhausted"] += 1
        tracer.counts["cone.make_dominant.steps"] += exc.steps
    elif exc is None:
        tracer.counts["cone.make_dominant.steps"] += result.steps


def _roots_checked(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["cone.is_regular.roots_checked"] += result.roots_checked


# (span name, defining module, function, count hook, counts the hook keeps)
TARGETS = (
    ("exact.mat_mul", "octoweyl.exact", "mat_mul", None, ()),
    ("exact.mat_vec", "octoweyl.exact", "mat_vec", None, ()),
    ("exact.mat_inv", "octoweyl.exact", "mat_inv", None, ()),
    ("lattice.build", "octoweyl.lattice", "star_lattice", None, ()),
    ("lattice.build", "octoweyl.lattice", "octopus_lattice", None, ()),
    ("weyl.reflection", "octoweyl.weyl", "reflection", None, ()),
    ("weyl.preserves_form", "octoweyl.weyl", "preserves_form", None, ()),
    ("weyl.evaluate_word", "octoweyl.weyl", "evaluate_word", _letters, ("letters",)),
    (
        "weyl.translation_element",
        "octoweyl.weyl",
        "translation_element",
        _word_letters,
        ("word_letters",),
    ),
    ("weyl.root_orbit", "octoweyl.weyl", "root_orbit", _roots, ("roots", "repeats")),
    ("presentations.spec", "octoweyl.presentations", "star_coxeter_spec", None, ()),
    ("presentations.spec", "octoweyl.presentations", "semidirect_spec", None, ()),
    (
        "presentations.spec",
        "octoweyl.presentations",
        "generalized_coxeter_spec_W",
        None,
        (),
    ),
    ("presentations.spec", "octoweyl.presentations", "artin_spec", None, ()),
    ("presentations.spec", "octoweyl.presentations", "van_der_lek_spec", None, ()),
    ("presentations.verify", "octoweyl.presentations", "verify", _relations, ("relations",)),
    ("ktheory.braid_act", "octoweyl.ktheory", "braid_act", None, ()),
    (
        "ktheory.coxeter_from_collection",
        "octoweyl.ktheory",
        "coxeter_from_collection",
        None,
        (),
    ),
    ("cone.make_dominant", "octoweyl.cone", "make_dominant", _steps, ("steps", "exhausted")),
    ("cone.is_regular", "octoweyl.cone", "is_regular", _roots_checked, ("roots_checked",)),
)

RUN_SPAN = "suites.run_suite"


class Tracer:
    """Spans and counts of one traced pass, held in memory.

    Spans are timed in CPU seconds of the calling thread, so the turns of
    another thread sharing the interpreter stay out of them.
    """

    def __init__(self):
        # One (name, start, end, parent index, run id) tuple per call; a
        # span's index is fixed when it opens, so parents precede children.
        self.spans: list[tuple | None] = []
        self.run_id: str | None = None
        self._stack: list[list] = []  # [span index, time covered by children]
        self.stats = {RUN_SPAN: [0, 0.0, 0.0]}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.orbits_seen: set = set()
        for name, _module, _attr, _hook, keys in TARGETS:
            self.stats[name] = [0, 0.0, 0.0]
            for key in keys:
                self.counts[f"{name}.{key}"] = 0

    def _open(self) -> list:
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans[frame[0]] = (
            name,
            start,
            end,
            None if parent is None else parent[0],
            self.run_id,
        )
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]

    def wrap(self, name: str, fn, hook=None):
        self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            start = thread_time()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                self._close(name, frame, start, thread_time())
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        return traced

    def run(self, run_id: str, fn, *args):
        """Call one suite run as a root span tagged with its run id."""
        self.run_id = run_id
        frame = self._open()
        start = thread_time()
        try:
            return fn(*args)
        finally:
            self._close(RUN_SPAN, frame, start, thread_time())
            self.run_id = None

    def values(self) -> dict[str, float]:
        """Per-layer metrics of this pass, by name."""
        out: dict[str, float] = dict(self.counts)
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = own
        orbit_calls = out["weyl.root_orbit.calls"]
        out["weyl.root_orbit.repeat_ratio"] = _ratio(
            out["weyl.root_orbit.repeats"], orbit_calls
        )
        out["weyl.root_orbit.yield"] = _ratio(
            out["weyl.root_orbit.roots"], self._mat_vec_under_orbit()
        )
        out["cone.make_dominant.exhausted_ratio"] = _ratio(
            out["cone.make_dominant.exhausted"], out["cone.make_dominant.calls"]
        )
        return out

    def run_seconds(self) -> dict[str, float]:
        """Duration of each root suite-run span, by run id."""
        return {
            span[4]: span[2] - span[1]
            for span in self.spans
            if span is not None and span[0] == RUN_SPAN
        }

    def _mat_vec_under_orbit(self) -> int:
        under = [False] * len(self.spans)
        found = 0
        for i, (name, _start, _end, parent, _run) in enumerate(self.spans):
            if parent is not None:
                under[i] = under[parent] or self.spans[parent][0] == "weyl.root_orbit"
            if under[i] and name == "exact.mat_vec":
                found += 1
        return found

    def write(self, path, header: str) -> None:
        """Write the spans as tab-separated lines after a header line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# {header}\n# clock: thread CPU seconds\n")
            out.write("# index\tname\tstart\tend\tparent\trun\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                out.write(
                    f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t"
                    f"{'' if parent is None else parent}\t{run}\n"
                )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target in every loaded octoweyl module; restore on exit."""
    replaced = []
    try:
        for name, module, attr, hook, _keys in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = tracer.wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "octoweyl":
                    continue
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    replaced.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)
