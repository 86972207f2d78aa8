"""Named verification suites shared by the command line and the test suite.

Every suite takes a weight tuple (plus optional marked points and bounds),
runs a family of exact checks, and returns a JSON-ready report with one
entry per check.  All randomness comes from an explicitly seeded generator
so reports are reproducible bit for bit; the translations' closed-form
samples are drawn in bulk and checked all at once as packed integers, and
the cone suite draws its points by plain ``randrange`` calls.

A suite is a body registered with ``@_suite(name)``.  It gets a prepared
``SuiteRun``, records each check with ``run.add`` and returns its bounds;
the registration builds the report.  Checks that differ only in their data
are table rows, and rows look up this module's names (``verify``,
``braid_word_act``, ...) when they run, so a rebinding of them is seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from math import lcm

from .cone import DualPoint, is_regular, make_dominant
from .errors import NotInConeWithinBudget, NotStarVertex, ValidationError
# mat_mul is not called here; it stays importable from this module because
# perfbench/test_perfbench.py checks that the tracer wraps it here too.
from .exact import (  # noqa: F401
    Sparse,
    Vec,
    dense_rows,
    mat_mul,
    sparse_mat_vec,
    vec_neg,
)
from .ktheory import (
    braid_act,
    braid_word_act,
    changed_window,
    coxeter_agrees_on_window,
    is_full,
    numerically_exceptional,
    preserved_on_window,
    simples_collection,
    spherical_twist_K,
    twist_rows,
)
from .lattice import (
    RootLattice,
    euler_characteristic,
    octopus_lattice,
    star_lattice,
)
from .presentations import (
    SEMIDIRECT_LETTERS,
    PresentationSpec,
    adjoint_families,
    adjoint_pairs,
    artin_spec,
    check_coxeter_power_equivalences,
    generalized_coxeter_spec_W,
    letter_words,
    reflection_assignment,
    semidirect_assignment,
    semidirect_spec,
    star_coxeter_spec,
    van_der_lek_assignment,
    van_der_lek_spec,
    verify,
)
from .quiver import LambdaTuple, Weights, as_weights, default_lambda, vertex_str
from .weyl import (
    DEFAULT_ROOT_CAP,
    WeylElement,
    act_word,
    enumerate_real_roots,
    enumerate_until_stable,
    evaluate_program,
    lift_i,
    product_rows,
    project_p,
    simple_reflection,
    split_roots,
    translation_element,
)

DEFAULT_SEED = 1729

DEFAULT_CATALOG: tuple[tuple[int, ...], ...] = (
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


def finite_star_root_count(w: Weights) -> int:
    """The number of roots of a star with chi > 0, which has weights (2,2,k)
    or (2,3,k) with k <= 5: (2,2,k) is D_(k+2), with 2(k+2)(k+1) roots, and
    (2,3,3), (2,3,4), (2,3,5) are E6, E7, E8 (Bourbaki VI, Plates IV-VII)."""
    _, b, k = sorted(w.a)
    if b == 2:
        return 2 * (k + 2) * (k + 1)
    return {3: 72, 4: 126, 5: 240}[k]


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = DEFAULT_SEED
    depth: int | None = None  # None picks a per-class default
    cap: int = DEFAULT_ROOT_CAP
    n_bound: int = 3
    budget: int = 1_000
    samples: int = 100

    def __post_init__(self):
        lows = {"samples": 1, "budget": 1, "cap": 1, "n_bound": 0, "depth": 0}
        for name, least in lows.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValidationError(f"{name} must be >= {least}")


@dataclass
class SuiteRun:
    """One suite run: its inputs, what it resolves on first use, its checks."""

    w: Weights
    lam: LambdaTuple | None
    cfg: SuiteConfig
    details: list[dict] = field(default_factory=list)

    @cached_property
    def star(self) -> RootLattice:
        return star_lattice(self.w)

    @cached_property
    def octo(self) -> RootLattice:
        lam = self.lam if self.lam is not None else default_lambda(self.w.r)
        return octopus_lattice(self.w, lam)

    @cached_property
    def rng(self) -> random.Random:
        return random.Random(self.cfg.seed)

    def add(self, check: str, holds: bool, **data) -> None:
        self.details.append({"check": check, **data, "holds": holds})

    def add_spec(self, report) -> None:
        """One entry per relation of a presentations.VerificationReport."""
        for o in report.outcomes:
            entry = {"spec": report.spec_name, "tag": o.tag, "holds": o.holds}
            self.details.append(entry if o.holds else o.add_sides(entry))


SUITES = {}


def _suite(name: str):
    """Register a suite body, which takes a SuiteRun and returns its bounds.

    The registered function takes ``(w, lam=None, cfg)``.  With ``lam=None``
    the octopus has the default marked points and the report says null.
    """

    def register(body):
        def suite(w, lam=None, cfg=SuiteConfig()) -> dict:
            run = SuiteRun(as_weights(w), lam, cfg)
            bounds = body(run)
            return {
                "name": name,
                "weights": list(run.w.a),
                "lambda": str(lam) if lam is not None else None,
                "details": run.details,
                "bounds": bounds or {},
                "pass": all(d["holds"] for d in run.details),
            }

        suite.__name__ = suite.__qualname__ = body.__name__
        suite.__doc__ = body.__doc__
        SUITES[name] = suite
        return suite

    return register


# The presentation suites: each verifies its (spec, assignment) rows in order.
PRESENTATION_SUITES = {
    # Coxeter relations of the star and of the octopus under the reflections.
    "presentations": (
        lambda run: (star_coxeter_spec(run.w), reflection_assignment(run.star)),
        lambda run: (generalized_coxeter_spec_W(run.w), reflection_assignment(run.octo)),
    ),
    # Reflection/translation relations under the octopus assignment.
    "semidirect": (
        lambda run: (semidirect_spec(run.w), semidirect_assignment(run.octo)),
    ),
    # Artin-side relations under the reflection assignment.
    "artin": (lambda run: (artin_spec(run.w), reflection_assignment(run.octo)),),
    # Fundamental-group style relations under reflections and translations.
    "vanderlek": (
        lambda run: (van_der_lek_spec(run.w), van_der_lek_assignment(run.octo)),
    ),
}


def _presentation_suite(name: str):
    def body(run: SuiteRun) -> None:
        for row in PRESENTATION_SUITES[name]:
            run.add_spec(verify(*row(run)))

    body.__name__ = f"suite_{name}"
    return _suite(name)(body)


suite_presentations, suite_semidirect, suite_artin, suite_vanderlek = map(
    _presentation_suite, PRESENTATION_SUITES
)


@_suite("prop44")
def suite_prop44(run: SuiteRun) -> None:
    """Sigma-form versus power-form equivalences on the reflections."""
    run.add_spec(check_coxeter_power_equivalences(run.w))


# The check names of the translations suite, by rule of ``adjoint_pairs``.
ADJOINT_CHECKS = ("adjoint-inverse", "adjoint-commute", "adjoint-product")


# A Mersenne word's top byte b gives getrandbits(5) = b >> 3, below 19 if b < 152.
_TOP_5_BITS, _REJECTED = bytes(b >> 3 for b in range(256)), bytes(range(152, 256))


def bulk_draws_below_19(rng: random.Random, count: int) -> bytearray:
    """The next count values of ``rng.randrange(19)``.  ``getrandbits(32 k)``
    is the next k words, lowest first; a word gives at most one value, so no
    round draws more words than values are missing."""
    out = bytearray()
    while len(out) < count:
        k = count - len(out)
        words = rng.getrandbits(32 * k).to_bytes(4 * k, "little")
        out += words[3::4].translate(_TOP_5_BITS, _REJECTED)
    return out


def closed_form_samples(
    rng: random.Random, element: WeylElement, c_v: Sparse, delta: Vec, samples: int
) -> bool:
    """Whether element maps x to x - (c_v . x) delta on ``samples`` random x,
    drawn one sample after another as ``rng.randrange(19) - 9``.

    Coordinate j of all samples is packed as sum_k x_jk 2^(width k), and each
    row that the element moves or delta touches is compared as one integer
    combination.  A slot is at most 9 times the row's L1 norm, below
    2^(width - 1), so the slots pack uniquely and a difference's lowest set
    bit is in the slot of the first failing sample.  After a failing sample
    the generator is where a loop that stops there leaves it.
    """
    n = len(delta)
    state = rng.getstate()
    draws = bulk_draws_below_19(rng, samples * n)
    moved = dict(element.rows)
    c_norm = max(map(abs, delta)) * sum(abs(a) for _, a in c_v)
    norm = max([1 + c_norm] + [sum(map(abs, row)) for _, row in element.rows])
    step = ((9 * norm).bit_length() + 8) // 8  # bytes per slot, width = 8 step
    nines = 9 * int.from_bytes(b"\1".ljust(step, b"\0") * samples, "little")
    slots = bytearray(step * samples)
    x = []
    for j in range(n):
        slots[::step] = draws[j::n]
        x.append(int.from_bytes(slots, "little") - nines)
    coeff = sum(a * x[j] for j, a in c_v)
    bad = 0  # the OR of the differences, whose lowest set bit is the lowest of any
    for i in moved.keys() | {i for i, d in enumerate(delta) if d}:
        got = sum(a * y for a, y in zip(moved[i], x) if a) if i in moved else x[i]
        bad |= got - (x[i] - delta[i] * coeff)
    if not bad:
        return True
    rng.setstate(state)
    # Draw again, up to the end of the first failing sample.
    bulk_draws_below_19(rng, (((bad & -bad).bit_length() - 1) // (8 * step) + 1) * n)
    return False


@_suite("translations")
def suite_translations(run: SuiteRun) -> dict:
    """Translation elements: closed form, adjoint rules, projection, kernel."""
    octo, star, cfg, rng = run.octo, run.star, run.cfg, run.rng
    n = octo.rank

    star_verts = octo.star_vertices()
    translations = {v: translation_element(octo, v) for v in star_verts}
    # Subword products of this run's witnesses, shared along each arm.
    memo = {}
    for v in star_verts:
        tau, vx = translations[v], vertex_str(v)
        word_el = evaluate_program(octo, tau.word, memo)
        run.add("translation-word-matrix", word_el.rows == tau.rows, vertex=vx)
        # I(x, e_v) is x . C e_v, and C e_v is row v of the symmetric C.
        c_v = octo.cartan_rows[octo.index(v)]
        ok = closed_form_samples(rng, word_el, c_v, octo.delta, cfg.samples)
        run.add("translation-closed-form-samples", ok, vertex=vx, samples=cfg.samples)

    # The adjoint rules, as families tagged by their checks, verified in
    # their order: the outcomes follow ``adjoint_pairs``.
    letters = [letter_words(star, m) for m in SEMIDIRECT_LETTERS]
    assignment = semidirect_assignment(octo)
    families = adjoint_families(star, ADJOINT_CHECKS, *letters, labelled=False)
    spec = PresentationSpec("Adjoint", tuple(run.w.a), tuple(assignment), tuple(families))
    s = [vertex_str(v) for v in star.vertices]
    outcomes = verify(spec, assignment).outcomes
    for (a, b, _rule), outcome in zip(adjoint_pairs(star), outcomes, strict=True):
        run.add(outcome.tag, outcome.holds, pair=[s[a], s[b]])

    for v in star_verts:
        vx = vertex_str(v)
        p_i = project_p(octo, lift_i(octo, v)).rows
        run.add("project-after-lift", p_i == simple_reflection(star, v).rows, vertex=vx)
        killed = project_p(octo, translations[v]).is_identity()
        run.add("project-kills-translation", killed, vertex=vx)

    # Product of translation powers is the identity exactly on the radical.
    test_vectors = [tuple(b) for b in star.radical]
    test_vectors.append(tuple(int(i == 0) for i in range(star.rank)))
    for _ in range(20):
        test_vectors.append(tuple(rng.randint(-4, 4) for _ in range(star.rank)))
    for coeffs in test_vectors:
        steps = []
        for v, m_v in zip(star_verts, coeffs):
            steps += [translations[v] if m_v > 0 else translations[v].inverse()] * abs(m_v)
        in_radical = all(x == 0 for x in sparse_mat_vec(star.cartan_rows, coeffs))
        # The product is the identity when no row differs from a unit row.
        holds = (not product_rows(n, steps)) == in_radical
        run.add("kernel-iff", holds, coeffs=list(coeffs), in_radical=in_radical)
    return {"seed": cfg.seed, "samples": cfg.samples}


def _auto_depth(w: Weights, cfg: SuiteConfig) -> int:
    if cfg.depth is not None:
        return cfg.depth
    chi = euler_characteristic(w)
    if chi > 0:
        return 24
    if chi == 0:
        return 12
    return 4


def witness_walk(octo: RootLattice, v, sign: int):
    """The roots e_v + m sign delta for m = 0, 1, 2, ...: one walk from the
    simple root at v, one translation application per root after the first.

    Each step is a translation power at a star neighbour u of v: the hub
    uses (1, 1), a first arm slot the hub and a deeper slot its
    predecessor.  The translation at u maps x to x - I(x, e_u) delta, and
    I(e_v, e_u) = -1, so each power moves e_v by exactly delta.  Any other
    vertex raises NotStarVertex.
    """
    if v == "1":
        carrier = (1, 1)
    elif isinstance(v, tuple):
        i, j = v
        carrier = "1" if j == 1 else (i, j - 1)
    else:
        raise NotStarVertex(f"no witness recipe for vertex {v!r}")
    tau = translation_element(octo, carrier)
    step = tau if sign >= 0 else tau.inverse()
    out = octo.basis_vector(v)
    while True:
        yield out
        out = step.apply(out)


def witness_root(octo: RootLattice, v, n: int):
    """A root equal to the simple root at v shifted n levels along delta,
    the root |n| steps along ``witness_walk``."""
    return next(islice(witness_walk(octo, v, n), abs(n), None))


def witness_shifts(octo: RootLattice, v, n_bound: int):
    """(n, witness_root(octo, v, n)) for n = 0, 1, ..., n_bound, then
    n = -1, ..., -n_bound: one walk in each direction from e_v, 2 n_bound
    translation applications in all, each taken only when it is read."""
    up = zip(range(n_bound + 1), witness_walk(octo, v, 1))
    down = zip(range(-1, -n_bound - 1, -1), islice(witness_walk(octo, v, -1), 1, None))
    return chain(up, down)


@_suite("roots-decomposition")
def suite_roots(run: SuiteRun) -> dict:
    """Bounded root enumeration and its split-basis decomposition."""
    octo, star, cfg = run.octo, run.star, run.cfg
    chi = euler_characteristic(run.w)
    depth = _auto_depth(run.w, cfg)
    shifts = range(-cfg.n_bound, cfg.n_bound + 1)

    if chi > 0:
        star_roots = set(enumerate_until_stable(star, cap=cfg.cap))
        if cfg.depth is None:
            # The window needs height(highest root) + n_bound rounds.
            depth = max(depth, max(map(sum, star_roots)) + cfg.n_bound)
        expected = finite_star_root_count(run.w)
        run.add(
            "star-count",
            len(star_roots) == expected,
            count=len(star_roots),
            expected=expected,
        )
    else:
        star_roots = set(enumerate_real_roots(star, depth, cfg.cap))
        # Real roots have norm two and are positive or negative (Kac, 1.3, 5.1).
        ok = all(star.form(x, x) == 2 and (min(x) >= 0 or max(x) <= 0) for x in star_roots)
        run.add("star-count-bounded", ok, count=len(star_roots), depth=depth)

    # The window in split coordinates: star part first, delta level j last.
    j = octo.split_indices[1]
    octo_roots = split_roots(octo, depth, cfg.cap)
    window = {beta + (m,) for beta, m in octo_roots if abs(m) <= cfg.n_bound}
    in_star = all(y[:j] in star_roots for y in window)
    run.add("star-part-membership", in_star, window=len(window))
    if chi > 0:
        count, expected = len(window), len(star_roots) * len(shifts)
        run.add("window-count", count == expected, count=count, expected=expected)
        shifted = {beta + (m,) for beta in star_roots for m in shifts}
        run.add("window-set-equality", window == shifted)

    for v in octo.star_vertices():
        # e_v + n delta has split coordinates (e_v, n).
        e_v = octo.basis_vector(v)[:j]
        ok = True
        for n, root in witness_shifts(octo, v, cfg.n_bound):
            built = octo.to_split(root)
            if built != e_v + (n,) or (chi > 0 and built not in window):
                ok = False
                break
        run.add("witness", ok, vertex=vertex_str(v))
    return {"depth": depth, "cap": cfg.cap, "n_bound": cfg.n_bound}


def _braid_relations(mu: int) -> dict:
    """Pairs of braid words that act equally on a collection of mu classes."""

    def b(i, sign=1):
        return ("b", i, sign)

    return {
        "braid-commuting": [
            ([b(i), b(j)], [b(j), b(i)]) for i in range(1, mu) for j in range(i + 2, mu)
        ],
        "braid-adjacent": [
            ([b(i), b(i + 1), b(i)], [b(i + 1), b(i), b(i + 1)]) for i in range(1, mu - 1)
        ],
        "braid-inverse": [
            pair
            for i in range(1, mu)
            for pair in (([b(i), b(i, -1)], []), ([b(i, -1), b(i)], []))
        ],
        "shift-involution": [([("e", i), ("e", i)], []) for i in range(1, mu + 1)],
        "braid-shift-compatibility": [
            ([b(i), ("e", i)], [("e", i + 1), b(i)]) for i in range(1, mu)
        ],
    }


@_suite("mutations")
def suite_mutations(run: SuiteRun) -> dict:
    """Braid moves on the simples: group relations and preserved invariants.

    Each single move's image is compared with the simples over the window
    of positions where their classes differ; the random words keep the
    scans of the whole collection, since their images differ everywhere.
    """
    octo = run.octo
    simples = simples_collection(octo)
    mu = len(simples)
    moves = [("b", i, s) for i in range(1, mu) for s in (1, -1)]
    moves += [("e", i) for i in range(1, mu + 1)]
    images = {m: braid_act(simples, m) for m in moves}
    run.add("simples-exceptional", numerically_exceptional(simples).ok)
    run.add("simples-full", is_full(simples))

    # Sign convention: the mutated class is the Euler pairing times the pivot
    # minus the moved class, whenever the reverse pairing vanishes.
    ok = True
    for i in range(1, mu):
        x, y = simples.classes[i - 1], simples.classes[i]
        if octo.euler_form(y, x) == 0:
            coeff = octo.euler_form(x, y)
            mutated = dense_rows((images[("b", i, 1)].supports[i],), mu)[0]
            ok &= mutated == tuple(coeff * b - a for a, b in zip(x, y))
    run.add("mutation-class-formula", ok)

    def act(word):
        """The classes of a word's image, from the stored image of its first move."""
        if not word:
            return simples.supports
        return braid_word_act(images[word[0]], word[1:]).supports

    for check, pairs in _braid_relations(mu).items():
        run.add(check, all(act(lhs) == act(rhs) for lhs, rhs in pairs))

    windows = {m: changed_window(simples, k) for m, k in images.items()}
    preserved = all(preserved_on_window(simples, images[m], w) for m, w in windows.items())
    run.add("single-move-preservation", preserved)

    ok = True
    for _ in range(5):
        word = [moves[run.rng.randrange(len(moves))] for _ in range(6)]
        image = braid_word_act(simples, word)
        ok &= numerically_exceptional(image).ok and is_full(image)
    run.add("random-word-preservation", ok, words=5)

    invariant = all(
        coxeter_agrees_on_window(simples, images[m], w) for m, w in windows.items()
    )
    run.add("coxeter-mutation-invariance", invariant)
    return {"seed": run.cfg.seed}


@_suite("twists")
def suite_twists(run: SuiteRun) -> None:
    """Twists against reflections, and the Artin relations for twists."""
    octo = run.octo
    twist_assignment = {}
    for v in octo.vertices:
        s, vx = octo.basis_vector(v), vertex_str(v)
        twist = WeylElement(octo.rank, twist_rows(octo, s))
        reflection = simple_reflection(octo, v)
        reflects = twist.rows == reflection.rows
        run.add("twist-equals-reflection", reflects, vertex=vx)
        # A twist equal to its reflection is that element, step and all.
        twist_assignment[vx] = reflection if reflects else twist
        negates = spherical_twist_K(octo, s, s) == vec_neg(s)
        run.add("twist-negates-own-class", negates, vertex=vx)
    run.add_spec(verify(artin_spec(run.w), twist_assignment))


def _random_rationals(rng: random.Random, count: int) -> tuple[int, tuple[int, ...]]:
    """count rationals a/b, each drawn as randrange(17) - 8 over
    randrange(6) + 1: the lcm d of their b, and their numerators over d."""
    pairs = [(rng.randrange(17) - 8, rng.randrange(6) + 1) for _ in range(count)]
    d = lcm(*(b for _a, b in pairs))
    return d, tuple(a * (d // b) for a, b in pairs)


@_suite("cone")
def suite_cone(run: SuiteRun) -> dict:
    """Dominance chasing with word consistency, wall detection, monotonicity."""
    star, cfg, rng = run.star, run.cfg, run.rng
    chi = euler_characteristic(run.w)
    n = star.rank

    def random_point():
        d, values = _random_rationals(rng, 2 * n)
        return DualPoint(d, values[:n], values[n:])

    def pushed_point():
        """A dominant seed pushed by a random word: a point inside the cone.

        It draws n seed values randrange(9) + 1, then n rationals, then 8
        letters randrange(n)."""
        seeds = [rng.randrange(9) + 1 for _ in range(n)]
        d, re = _random_rationals(rng, n)
        word = [(star.vertices[rng.randrange(n)], 1) for _ in range(8)]
        # The seed's rows over d, chased through the word's transvections:
        # the rows of the pushed point h M over the same d.
        rows = [list(re), [x * d for x in seeds]]
        act_word(star, word, rows)
        return DualPoint(d, *map(tuple, rows))

    def steps_to_dominance(p: DualPoint) -> int | None:
        """Steps to a consistent dominant point, or None if none was reached."""
        try:
            res = make_dominant(star, p, cfg.budget)
        except NotInConeWithinBudget:
            return None
        # The rows of p times the matrix M of the returned word, its letters
        # applied in turn, against the rows of the returned point over the
        # same denominator.
        rows = [list(p.re), list(p.im)]
        act_word(star, res.word, rows)
        q = res.point
        consistent = q.d == p.d and rows == [list(q.re), list(q.im)]
        return res.steps if consistent and all(x >= 0 for x in q.im) else None

    def chase(check: str, count: int, draw) -> None:
        """Chase up to count drawn points; stop at the first that fails."""
        worst, ok = 0, True
        for _ in range(count):
            steps = steps_to_dominance(draw())
            if steps is None:
                ok = False
                break
            worst = max(worst, steps)
        run.add(check, ok, points=count, max_steps=worst, budget=cfg.budget)

    if chi > 0:
        # Finite group: the cone is everything, any point must terminate.
        chase("dominance-termination-random", cfg.samples, random_point)
    chase("dominance-termination-pushed", 25 if chi > 0 else 10, pushed_point)

    # Planted wall: h vanishes imaginarily on the hub root and hits level 1.
    plant = DualPoint(
        1,
        tuple(int(i == 0) for i in range(n)),
        tuple(int(i != 0) for i in range(n)),
    )
    root_depth = 6 if chi <= 0 else 12
    reg = is_regular(star, plant, root_depth, cfg.n_bound + 2, cfg.cap)
    run.add("planted-wall-detected", reg.status == "on_wall", result=reg.to_json())

    # A wall hit may not disappear when the bounds are enlarged.  A pair is
    # decided only when its smaller scan is on a wall, so only such a point
    # gets the larger scan.  All points are drawn before the first scan.
    ok = True
    for p in [plant] + [random_point() for _ in range(5)]:
        small = is_regular(star, p, root_depth, cfg.n_bound, cfg.cap)
        if small.status == "on_wall":
            large = is_regular(star, p, root_depth + 2, cfg.n_bound + 2, cfg.cap)
            if large.status == "regular":
                ok = False
    run.add("regularity-monotone", ok)
    return {
        "seed": cfg.seed,
        "budget": cfg.budget,
        "root_depth": root_depth,
        "n_bound": cfg.n_bound,
    }


SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, w, lam=None, cfg: SuiteConfig = SuiteConfig()) -> dict:
    """The report of suite ``name``; it always names the marked points used."""
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    report = SUITES[name](w, lam, cfg)
    if lam is None:
        report["lambda"] = str(default_lambda(len(report["weights"])))
    return report
