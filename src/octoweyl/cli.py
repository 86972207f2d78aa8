"""Command line front end: construction, enumeration, verification suites.

Every invocation is a pure computation from flags to a report; exit code 0
means all requested checks passed, 1 means some check failed, 2 means the
request itself was invalid.  If standard output is closed before the report
is written (``octoweyl verify ... | head``), the command stops quietly with
exit code 141, which a shell also reports for a process ended by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .errors import OctoweylError, ValidationError
from .exact import format_rational
from .ktheory import (
    braid_word_act,
    is_full,
    numerically_exceptional,
    parse_braid_word,
    simples_collection,
)
from .lattice import (
    euler_characteristic,
    octopus_lattice,
    star_lattice,
    weyl_class,
)
from .quiver import (
    Weights,
    build_octopus,
    build_star,
    default_lambda,
    parse_lambda,
    parse_weights,
    vertex_str,
)
from .suites import DEFAULT_CATALOG, DEFAULT_SEED, SUITE_NAMES, SuiteConfig, run_suite
from .weyl import (
    DEFAULT_ROOT_CAP,
    Finite,
    coxeter_element,
    enumerate_real_roots,
    order_of,
    serre_coxeter_matrix,
)

TOOL = {"name": "octoweyl", "version": __version__}
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--weights", help="comma separated arm multiplicities, e.g. 2,2,3")
    p.add_argument(
        "--lambda",
        dest="lam",
        help="comma separated marked points: inf, rationals p/q (default inf,0,1,2,...)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")


def _lattices(args):
    if args.weights is None:
        raise ValidationError("--weights is required for this command")
    w = parse_weights(args.weights)
    lam = parse_lambda(args.lam) if args.lam is not None else default_lambda(w.r)
    if len(lam.entries) != w.r:
        raise ValidationError(
            f"lambda tuple has {len(lam.entries)} points for {w.r} arms"
        )
    return w, lam


def _emit(args, payload: dict, text_lines):
    """Print the payload as JSON, or the text lines; text_lines may be a
    generator, which then runs only for ``--format text``."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _matrix_lines(label, m):
    yield f"{label}:"
    for row in m:
        yield "  [" + " ".join(f"{x:3d}" for x in row) + "]"


def cmd_describe(args) -> int:
    w, lam = _lattices(args)
    star_q, octo_q = build_star(w), build_octopus(w, lam)
    star, octo = star_lattice(w), octopus_lattice(w, lam)
    chi = euler_characteristic(w)
    payload = {
        "tool": TOOL,
        "weights": list(w.a),
        "lambda": str(lam),
        "chi": format_rational(chi),
        "class": weyl_class(w),
        "star": {
            "vertices": [vertex_str(v) for v in star_q.vertices],
            "arrows": len(star_q.arrows),
            "euler": [list(r) for r in star.euler],
            "cartan": [list(r) for r in star.cartan],
            "radical_rank": len(star.radical),
            "radical_basis": [list(b) for b in star.radical],
        },
        "octopus": {
            "vertices": [vertex_str(v) for v in octo_q.vertices],
            "arrows": len(octo_q.arrows),
            "relations": {"(1,1*)": 2},
            "euler": [list(r) for r in octo.euler],
            "cartan": [list(r) for r in octo.cartan],
            "radical_rank": len(octo.radical),
            "radical_basis": [list(b) for b in octo.radical],
            "delta": list(octo.delta),
        },
    }

    def lines():
        yield f"weights {w}  chi_A = {format_rational(chi)}  class: {weyl_class(w)}"
        yield f"lambda: {lam}"
        yield f"star: {len(star_q.vertices)} vertices, {len(star_q.arrows)} arrows"
        yield (
            f"octopus: {len(octo_q.vertices)} vertices, {len(octo_q.arrows)} arrows, "
            "relation multiplicity 2 on (1, 1*)"
        )
        yield from _matrix_lines("star Euler matrix", star.euler)
        yield from _matrix_lines("star Cartan matrix", star.cartan)
        yield from _matrix_lines("octopus Euler matrix", octo.euler)
        yield from _matrix_lines("octopus Cartan matrix", octo.cartan)
        yield f"star radical rank {len(star.radical)}: {[list(b) for b in star.radical]}"
        yield f"octopus radical rank {len(octo.radical)}: {[list(b) for b in octo.radical]}"
        yield f"delta = {list(octo.delta)}"

    _emit(args, payload, lines())
    return 0


def _pick_lattice(args, w, lam):
    return star_lattice(w) if args.kind == "star" else octopus_lattice(w, lam)


def cmd_roots(args) -> int:
    w, lam = _lattices(args)
    lat = _pick_lattice(args, w, lam)
    if args.n_bound is not None and args.n_bound < 0:
        raise ValidationError("--n-bound must be >= 0")
    if args.n_bound is not None and not lat.is_octopus:
        raise ValidationError("--n-bound needs --kind octopus: a star root has no delta coordinate")
    if args.limit < 0:
        raise ValidationError("--limit must be >= 0")
    roots = enumerate_real_roots(lat, args.depth, args.cap)
    payload = {
        "tool": TOOL,
        "weights": list(w.a),
        "kind": lat.kind,
        "depth": args.depth,
        "cap": args.cap,
        "count": len(roots),
        "roots": [list(r) for r in roots],
    }
    lines = [f"{lat.kind} {w}: {len(roots)} roots within word depth {args.depth}"]
    if args.n_bound is not None:
        window = [r for r in roots if abs(lat.delta_coordinate(r)) <= args.n_bound]
        payload["n_bound"] = args.n_bound
        payload["window_count"] = len(window)
        lines.append(
            f"window |delta coordinate| <= {args.n_bound}: {len(window)} roots"
        )
    lines += ["  " + str(list(r)) for r in roots[: args.limit]]
    if len(roots) > args.limit:
        lines.append(f"  ... ({len(roots) - args.limit} more, use --limit)")
    _emit(args, payload, lines)
    return 0


def cmd_coxeter(args) -> int:
    w, lam = _lattices(args)
    lat = _pick_lattice(args, w, lam)
    c = coxeter_element(lat)
    probe = order_of(c, args.cap)
    serre_ok = c.matrix == serre_coxeter_matrix(lat)
    delta_ok = True
    if lat.is_octopus:
        delta_ok = c.apply(lat.delta) == lat.delta
    payload = {
        "tool": TOOL,
        "weights": list(w.a),
        "kind": lat.kind,
        "matrix": [list(r) for r in c.matrix],
        "order": probe.order if isinstance(probe, Finite) else None,
        "order_cap": args.cap,
        "serre_identity": serre_ok,
        "fixes_delta": delta_ok,
        "pass": serre_ok and delta_ok,
    }

    def lines():
        yield from _matrix_lines(f"coxeter element of the {lat.kind} {w}", c.matrix)
        order = probe.order if isinstance(probe, Finite) else f"> {args.cap} (truncated)"
        yield f"order: {order}"
        yield f"matches -C^-1 C^T: {serre_ok}"
        if lat.is_octopus:
            yield f"fixes delta: {delta_ok}"

    _emit(args, payload, lines())
    return 0 if (serre_ok and delta_ok) else 1


def cmd_verify(args) -> int:
    if args.weights is None and args.lam is not None:
        raise ValidationError("--lambda without --weights is ambiguous")
    cfg = SuiteConfig(
        seed=args.seed,
        depth=args.depth,
        cap=args.cap,
        n_bound=args.n_bound,
        budget=args.budget,
        samples=args.samples,
    )
    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    if args.weights is not None:
        w, lam = _lattices(args)
        targets = [(w, lam)]
    else:
        targets = [(Weights(a), default_lambda(len(a))) for a in DEFAULT_CATALOG]
    reports = []
    for w, lam in targets:
        for name in suites:
            reports.append(run_suite(name, w, lam, cfg))
    ok = all(r["pass"] for r in reports)
    payload = {
        "tool": TOOL,
        "weights": [list(w.a) for w, _ in targets]
        if len(targets) > 1
        else list(targets[0][0].a),
        "lambda": [str(lam) for _, lam in targets]
        if len(targets) > 1
        else str(targets[0][1]),
        "seed": args.seed,
        "bounds": asdict(cfg),
        "scope": (
            "exact finite checks only: relation verification shows homomorphism "
            "well-definedness, root and wall scans are bounded windows; "
            "isomorphism, injectivity and whole-infinite-system claims are not "
            "decided here"
        ),
        "suites": reports,
        "pass": ok,
    }
    lines = []
    for rep in reports:
        n_checks = len(rep["details"])
        verdict = "PASS" if rep["pass"] else "FAIL"
        lines.append(
            f"{verdict} {rep['name']}[{','.join(map(str, rep['weights']))}] "
            f"({n_checks} checks)"
        )
        if not rep["pass"]:
            for d in rep["details"]:
                if not d["holds"]:
                    lines.append(f"  FAIL {json.dumps(d, sort_keys=True)}")
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_mutate(args) -> int:
    w, lam = _lattices(args)
    lat = _pick_lattice(args, w, lam)
    moves = parse_braid_word(args.word)
    coll = simples_collection(lat)
    image = braid_word_act(coll, moves)
    check = numerically_exceptional(image)
    full = is_full(image)
    # The image keeps its classes as supports; the dense ones are for output.
    classes = [list(c) for c in image.classes]
    payload = {
        "tool": TOOL,
        "weights": list(w.a),
        "kind": lat.kind,
        "word": args.word,
        "classes": classes,
        "numerically_exceptional": check.ok,
        "full": full,
    }
    lines = [f"applied {args.word} to the simples of the {lat.kind} {w}:"]
    lines += ["  " + str(c) for c in classes]
    lines.append(f"numerically exceptional: {check.ok}   full: {full}")
    _emit(args, payload, lines)
    return 0 if check.ok and full else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octoweyl",
        description="Exact checks for star/octopus root systems, Weyl and Artin "
        "presentations, and braid actions on lattice classes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="quiver, matrices, characteristic, radical")
    _add_common(p)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("roots", help="bounded real root enumeration")
    _add_common(p)
    p.add_argument("--kind", choices=("star", "octopus"), default="star")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--cap", type=int, default=DEFAULT_ROOT_CAP)
    p.add_argument("--n-bound", type=int, default=None)
    p.add_argument("--limit", type=int, default=24, help="roots to print in text mode")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("coxeter", help="coxeter element and order probe")
    _add_common(p)
    p.add_argument("--kind", choices=("star", "octopus"), default="star")
    p.add_argument("--cap", type=int, default=1_000)
    p.set_defaults(fn=cmd_coxeter)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument(
        "--suite",
        required=True,
        choices=SUITE_NAMES + ("all",),
    )
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_ROOT_CAP)
    p.add_argument("--n-bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=1_000)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mutate", help="apply a braid word to the simples collection")
    _add_common(p)
    p.add_argument("--kind", choices=("star", "octopus"), default="octopus")
    p.add_argument(
        "--word", required=True, help="mutation tokens, e.g. 'b1,b2,e3,B1'"
    )
    p.set_defaults(fn=cmd_mutate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # interpreter exit cannot fail again, and stop without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OctoweylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
