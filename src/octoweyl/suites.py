"""Named verification suites shared by the command line and the test suite.

Every suite takes a weight tuple (plus optional marked points and bounds),
runs a family of exact checks, and returns a JSON-ready report with one
entry per check.  All randomness comes from an explicitly seeded generator
so reports are reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cone import DualPoint, is_regular, make_dominant
from .errors import NotInConeWithinBudget, ValidationError
# mat_mul is not called here; it stays importable from this module because
# perfbench/test_perfbench.py checks that the tracer wraps it here too.
from .exact import (  # noqa: F401
    dot,
    identity,
    mat_mul,
    mat_vec,
    sparse_mat_vec,
    transpose,
    vec_neg,
)
from .ktheory import (
    braid_act,
    braid_word_act,
    coxeter_from_collection,
    is_full,
    numerically_exceptional,
    simples_collection,
    spherical_twist_K,
    twist_matrix,
)
from .lattice import (
    RootLattice,
    euler_characteristic,
    octopus_lattice,
    star_lattice,
)
from .presentations import (
    artin_spec,
    check_coxeter_power_equivalences,
    generalized_coxeter_spec_W,
    reflection_assignment,
    semidirect_assignment,
    semidirect_spec,
    star_coxeter_spec,
    van_der_lek_assignment,
    van_der_lek_spec,
    verify,
)
from .quiver import LambdaTuple, Weights, default_lambda, vertex_str
from .weyl import (
    WeylElement,
    enumerate_real_roots,
    enumerate_until_stable,
    evaluate_word,
    lift_i,
    project_p,
    right_product,
    simple_reflection,
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

# Root counts of the finite star diagrams, frozen from the closure oracle.
FINITE_STAR_ROOT_COUNTS = {
    (2, 2, 2): 24,
    (2, 2, 3): 40,
    (2, 2, 4): 60,
    (2, 2, 5): 84,
    (2, 3, 3): 72,
    (2, 3, 4): 126,
    (2, 3, 5): 240,
}


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = DEFAULT_SEED
    depth: int | None = None  # None picks a per-class default
    cap: int = 500_000
    n_bound: int = 3
    budget: int = 1_000
    samples: int = 100

    def __post_init__(self):
        if self.samples < 1:
            raise ValidationError("samples must be >= 1")
        if self.budget < 1:
            raise ValidationError("budget must be >= 1")
        if self.cap < 1:
            raise ValidationError("cap must be >= 1")
        if self.n_bound < 0:
            raise ValidationError("n_bound must be >= 0")
        if self.depth is not None and self.depth < 0:
            raise ValidationError("depth must be >= 0")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "depth": self.depth,
            "cap": self.cap,
            "n_bound": self.n_bound,
            "budget": self.budget,
            "samples": self.samples,
        }


def _normalize_weights(w) -> Weights:
    return w if isinstance(w, Weights) else Weights(tuple(w))


def _octopus(w: Weights, lam: LambdaTuple | None) -> RootLattice:
    return octopus_lattice(w, lam if lam is not None else default_lambda(w.r))


def _report(name, w, lam, details, bounds=None) -> dict:
    return {
        "name": name,
        "weights": list(w.a),
        "lambda": str(lam) if lam is not None else None,
        "details": details,
        "bounds": bounds or {},
        "pass": all(d["holds"] for d in details),
    }


def _spec_details(report) -> list[dict]:
    return [{"spec": report.spec_name, **o.to_json()} for o in report.outcomes]


def suite_presentations(w, lam=None, cfg=SuiteConfig()) -> dict:
    """Coxeter relations of the star and of the octopus under the reflections."""
    w = _normalize_weights(w)
    star = star_lattice(w)
    octo = _octopus(w, lam)
    details = _spec_details(verify(star_coxeter_spec(w), reflection_assignment(star)))
    details += _spec_details(
        verify(generalized_coxeter_spec_W(w), reflection_assignment(octo))
    )
    return _report("presentations", w, lam, details)


def suite_semidirect(w, lam=None, cfg=SuiteConfig()) -> dict:
    """Reflection/translation relations under the octopus assignment."""
    w = _normalize_weights(w)
    octo = _octopus(w, lam)
    report = verify(semidirect_spec(w), semidirect_assignment(octo))
    return _report("semidirect", w, lam, _spec_details(report))


def suite_artin(w, lam=None, cfg=SuiteConfig()) -> dict:
    """Artin-side relations under the reflection assignment."""
    w = _normalize_weights(w)
    octo = _octopus(w, lam)
    report = verify(artin_spec(w), reflection_assignment(octo))
    return _report("artin", w, lam, _spec_details(report))


def suite_vanderlek(w, lam=None, cfg=SuiteConfig()) -> dict:
    """Fundamental-group style relations under reflections and translations."""
    w = _normalize_weights(w)
    octo = _octopus(w, lam)
    report = verify(van_der_lek_spec(w), van_der_lek_assignment(octo))
    return _report("vanderlek", w, lam, _spec_details(report))


def suite_prop44(w, lam=None, cfg=SuiteConfig()) -> dict:
    """Sigma-form versus power-form equivalences on the reflections."""
    w = _normalize_weights(w)
    report = check_coxeter_power_equivalences(w)
    return _report("prop44", w, lam, _spec_details(report))


def suite_translations(w, lam=None, cfg=SuiteConfig()) -> dict:
    """Translation elements: closed form, adjoint rules, projection, kernel."""
    w = _normalize_weights(w)
    octo = _octopus(w, lam)
    star = star_lattice(w)
    rng = random.Random(cfg.seed)
    n = octo.rank
    delta = octo.delta
    details = []

    star_verts = octo.star_vertices()
    translations = {v: translation_element(octo, v) for v in star_verts}
    inverses = {v: tau.inverse() for v, tau in translations.items()}
    for v in star_verts:
        tau = translations[v]
        word_el = evaluate_word(octo, tau.word)
        details.append(
            {
                "check": "translation-word-matrix",
                "vertex": vertex_str(v),
                "holds": word_el.matrix == tau.matrix,
            }
        )
        # I(vec, e_v) is vec . C e_v, and C e_v is row v of the symmetric C.
        c_v = octo.cartan[octo.index(v)]
        ok = True
        for _ in range(cfg.samples):
            # randrange(19) - 9 draws exactly as randint(-9, 9), only faster.
            vec = tuple(rng.randrange(19) - 9 for _ in range(n))
            coeff = dot(vec, c_v)
            expected = tuple(x - coeff * d for x, d in zip(vec, delta))
            if word_el.apply(vec) != expected:
                ok = False
                break
        details.append(
            {
                "check": "translation-closed-form-samples",
                "vertex": vertex_str(v),
                "samples": cfg.samples,
                "holds": ok,
            }
        )

    for v in star_verts:
        rv = simple_reflection(octo, v)
        for u in star_verts:
            tu = translations[u]
            lhs = right_product(rv.matrix, (tu, rv))
            if u == v:
                rhs = inverses[u].matrix
                tag = "adjoint-inverse"
            else:
                entry = octo.cartan[octo.index(v)][octo.index(u)]
                if entry == 0:
                    rhs = tu.matrix
                    tag = "adjoint-commute"
                elif entry == -1:
                    rhs = right_product(translations[v].matrix, (tu,))
                    tag = "adjoint-product"
                else:
                    continue
            details.append(
                {
                    "check": tag,
                    "pair": [vertex_str(v), vertex_str(u)],
                    "holds": lhs == rhs,
                }
            )

    for v in star_verts:
        details.append(
            {
                "check": "project-after-lift",
                "vertex": vertex_str(v),
                "holds": project_p(octo, lift_i(octo, v)).matrix
                == simple_reflection(star, v).matrix,
            }
        )
        details.append(
            {
                "check": "project-kills-translation",
                "vertex": vertex_str(v),
                "holds": project_p(octo, translations[v]).is_identity(),
            }
        )

    # Product of translation powers is the identity exactly on the radical.
    test_vectors = [tuple(b) for b in star.radical]
    test_vectors.append(tuple(int(i == 0) for i in range(star.rank)))
    for _ in range(20):
        test_vectors.append(tuple(rng.randint(-4, 4) for _ in range(star.rank)))
    ident = identity(n)
    for coeffs in test_vectors:
        steps = []
        for v, m_v in zip(star_verts, coeffs):
            if m_v == 0:
                continue
            step = translations[v] if m_v > 0 else inverses[v]
            steps += [step] * abs(m_v)
        prod = right_product(ident, steps)
        in_radical = all(x == 0 for x in sparse_mat_vec(star.cartan_rows, coeffs))
        details.append(
            {
                "check": "kernel-iff",
                "coeffs": list(coeffs),
                "in_radical": in_radical,
                "holds": (prod == ident) == in_radical,
            }
        )
    return _report(
        "translations", w, lam, details, {"seed": cfg.seed, "samples": cfg.samples}
    )


def _auto_depth(w: Weights, cfg: SuiteConfig) -> int:
    if cfg.depth is not None:
        return cfg.depth
    chi = euler_characteristic(w)
    if chi > 0:
        return 24
    if chi == 0:
        return 12
    return 4


def witness_root(octo: RootLattice, v, n: int):
    """A root equal to the simple root at v shifted n levels along delta.

    Performed with actual translation powers: first arm slots ride the hub
    translation, deeper slots the translation at their predecessor, and the
    hub vertex starts from its own simple root (even shifts) or from the
    extension root (odd shifts), where one hub translation moves two levels.
    """
    if isinstance(v, tuple):
        i, j = v
        base = octo.basis_vector(v)
        carrier = "1" if j == 1 else (i, j - 1)
        power = n
    elif v == "1":
        if n % 2 == 0:
            base = octo.basis_vector("1")
            power = -n // 2
        else:
            base = octo.basis_vector("1*")
            power = -(n - 1) // 2
        carrier = "1"
    else:
        raise ValueError(f"no witness recipe for vertex {v!r}")
    tau = translation_element(octo, carrier)
    step = tau if power >= 0 else tau.inverse()
    out = base
    for _ in range(abs(power)):
        out = step.apply(out)
    return out


def suite_roots(w, lam=None, cfg=SuiteConfig()) -> dict:
    """Bounded root enumeration and its split-basis decomposition."""
    w = _normalize_weights(w)
    octo = _octopus(w, lam)
    star = star_lattice(w)
    chi = euler_characteristic(w)
    depth = _auto_depth(w, cfg)
    details = []

    star_key = tuple(sorted(w.a))
    if chi > 0:
        star_roots = set(enumerate_until_stable(star, cap=cfg.cap))
        expected = FINITE_STAR_ROOT_COUNTS.get(star_key)
        details.append(
            {
                "check": "star-count",
                "count": len(star_roots),
                "expected": expected,
                "holds": expected is None or len(star_roots) == expected,
            }
        )
    else:
        star_roots = set(enumerate_real_roots(star, depth, cfg.cap))
        details.append(
            {
                "check": "star-count-bounded",
                "count": len(star_roots),
                "depth": depth,
                "holds": True,
            }
        )

    octo_roots = enumerate_real_roots(octo, depth, cfg.cap)
    window = [x for x in octo_roots if abs(octo.delta_coordinate(x)) <= cfg.n_bound]
    details.append(
        {
            "check": "star-part-membership",
            "window": len(window),
            "holds": all(octo.star_part(x) in star_roots for x in window),
        }
    )
    if chi > 0:
        expected_window = {
            octo.from_split(beta + (m,))
            for beta in star_roots
            for m in range(-cfg.n_bound, cfg.n_bound + 1)
        }
        details.append(
            {
                "check": "window-count",
                "count": len(window),
                "expected": len(star_roots) * (2 * cfg.n_bound + 1),
                "holds": len(window) == len(star_roots) * (2 * cfg.n_bound + 1),
            }
        )
        details.append(
            {
                "check": "window-set-equality",
                "holds": set(window) == expected_window,
            }
        )

    window_set = set(window)
    for v in octo.star_vertices():
        ok = True
        for n in range(-cfg.n_bound, cfg.n_bound + 1):
            built = witness_root(octo, v, n)
            target = tuple(
                b + n * d for b, d in zip(octo.basis_vector(v), octo.delta)
            )
            if built != target:
                ok = False
                break
            if chi > 0 and built not in window_set:
                ok = False
                break
        details.append(
            {"check": "witness", "vertex": vertex_str(v), "holds": ok}
        )
    bounds = {"depth": depth, "cap": cfg.cap, "n_bound": cfg.n_bound}
    return _report("roots-decomposition", w, lam, details, bounds)


def suite_mutations(w, lam=None, cfg=SuiteConfig()) -> dict:
    """Braid moves on the simples: group relations and preserved invariants."""
    w = _normalize_weights(w)
    octo = _octopus(w, lam)
    rng = random.Random(cfg.seed)
    simples = simples_collection(octo)
    mu = len(simples)
    details = [
        {
            "check": "simples-exceptional",
            "holds": numerically_exceptional(simples).ok,
        },
        {"check": "simples-full", "holds": is_full(simples)},
    ]

    # Sign convention: the mutated class is the Euler pairing times the pivot
    # minus the moved class, whenever the reverse pairing vanishes.
    ok = True
    for i in range(1, mu):
        x, y = simples.classes[i - 1], simples.classes[i]
        if octo.euler_form(y, x) != 0:
            continue
        mutated = braid_act(simples, ("b", i, 1)).classes[i]
        coeff = octo.euler_form(x, y)
        if mutated != tuple(coeff * b - a for a, b in zip(x, y)):
            ok = False
    details.append({"check": "mutation-class-formula", "holds": ok})

    def same(a, b):
        return a.classes == b.classes

    ok_far = all(
        same(
            braid_word_act(simples, [("b", i, 1), ("b", j, 1)]),
            braid_word_act(simples, [("b", j, 1), ("b", i, 1)]),
        )
        for i in range(1, mu)
        for j in range(i + 2, mu)
    )
    details.append({"check": "braid-commuting", "holds": ok_far})
    ok_adj = all(
        same(
            braid_word_act(simples, [("b", i, 1), ("b", i + 1, 1), ("b", i, 1)]),
            braid_word_act(simples, [("b", i + 1, 1), ("b", i, 1), ("b", i + 1, 1)]),
        )
        for i in range(1, mu - 1)
    )
    details.append({"check": "braid-adjacent", "holds": ok_adj})
    details.append(
        {
            "check": "braid-inverse",
            "holds": all(
                same(braid_word_act(simples, [("b", i, 1), ("b", i, -1)]), simples)
                and same(braid_word_act(simples, [("b", i, -1), ("b", i, 1)]), simples)
                for i in range(1, mu)
            ),
        }
    )
    details.append(
        {
            "check": "shift-involution",
            "holds": all(
                same(braid_word_act(simples, [("e", i), ("e", i)]), simples)
                for i in range(1, mu + 1)
            ),
        }
    )
    details.append(
        {
            "check": "braid-shift-compatibility",
            "holds": all(
                same(
                    braid_word_act(simples, [("b", i, 1), ("e", i)]),
                    braid_word_act(simples, [("e", i + 1), ("b", i, 1)]),
                )
                for i in range(1, mu)
            ),
        }
    )

    moves = [("b", i, s) for i in range(1, mu) for s in (1, -1)]
    moves += [("e", i) for i in range(1, mu + 1)]
    ok_single = all(
        numerically_exceptional(braid_act(simples, m)).ok
        and is_full(braid_act(simples, m))
        for m in moves
    )
    details.append({"check": "single-move-preservation", "holds": ok_single})

    ok_words = True
    for _ in range(5):
        word = [moves[rng.randrange(len(moves))] for _ in range(6)]
        image = braid_word_act(simples, word)
        if not numerically_exceptional(image).ok or not is_full(image):
            ok_words = False
    details.append(
        {"check": "random-word-preservation", "words": 5, "holds": ok_words}
    )

    c0 = coxeter_from_collection(simples).matrix
    details.append(
        {
            "check": "coxeter-mutation-invariance",
            "holds": all(
                coxeter_from_collection(braid_act(simples, m)).matrix == c0
                for m in moves
            ),
        }
    )
    return _report("mutations", w, lam, details, {"seed": cfg.seed})


def suite_twists(w, lam=None, cfg=SuiteConfig()) -> dict:
    """Twist matrices against reflections, and the Artin relations for twists."""
    w = _normalize_weights(w)
    octo = _octopus(w, lam)
    details = []
    for v in octo.vertices:
        s = octo.basis_vector(v)
        details.append(
            {
                "check": "twist-equals-reflection",
                "vertex": vertex_str(v),
                "holds": twist_matrix(octo, s) == simple_reflection(octo, v).matrix,
            }
        )
        details.append(
            {
                "check": "twist-negates-own-class",
                "vertex": vertex_str(v),
                "holds": spherical_twist_K(octo, s, s) == vec_neg(s),
            }
        )
    twist_assignment = {
        vertex_str(v): WeylElement(twist_matrix(octo, octo.basis_vector(v)))
        for v in octo.vertices
    }
    report = verify(artin_spec(w), twist_assignment)
    details += _spec_details(report)
    return _report("twists", w, lam, details)


def _random_rational_vec(rng, n):
    return tuple(
        Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(n)
    )


def suite_cone(w, lam=None, cfg=SuiteConfig()) -> dict:
    """Dominance chasing with word consistency, wall detection, monotonicity."""
    w = _normalize_weights(w)
    star = star_lattice(w)
    chi = euler_characteristic(w)
    rng = random.Random(cfg.seed)
    n = star.rank
    details = []

    def check_point(p: DualPoint):
        try:
            res = make_dominant(star, p, cfg.budget)
        except NotInConeWithinBudget:
            return None
        # M^T h on the integer rows of p, against the returned point times d.
        d, re, im = p.scaled
        mt = transpose(evaluate_word(star, res.word).matrix)
        consistent = mat_vec(mt, re) == tuple(
            x * d for x in res.point.re
        ) and mat_vec(mt, im) == tuple(x * d for x in res.point.im)
        dominant = all(x >= 0 for x in res.point.im)
        return res.steps, consistent and dominant

    if chi > 0:
        # Finite group: the cone is everything, any point must terminate.
        worst = 0
        ok = True
        for _ in range(cfg.samples):
            p = DualPoint(_random_rational_vec(rng, n), _random_rational_vec(rng, n))
            out = check_point(p)
            if out is None or not out[1]:
                ok = False
                break
            worst = max(worst, out[0])
        details.append(
            {
                "check": "dominance-termination-random",
                "points": cfg.samples,
                "max_steps": worst,
                "budget": cfg.budget,
                "holds": ok,
            }
        )

    # Points manufactured inside the cone: dominant seeds pushed by words.
    ok = True
    worst = 0
    pushes = 25 if chi > 0 else 10
    for _ in range(pushes):
        seed_im = tuple(Fraction(rng.randint(1, 9)) for _ in range(n))
        seed_re = _random_rational_vec(rng, n)
        word = [(star.vertices[rng.randrange(n)], 1) for _ in range(8)]
        m = evaluate_word(star, word).matrix
        mt = transpose(m)
        p = DualPoint(mat_vec(mt, seed_re), mat_vec(mt, seed_im))
        out = check_point(p)
        if out is None or not out[1]:
            ok = False
            break
        worst = max(worst, out[0])
    details.append(
        {
            "check": "dominance-termination-pushed",
            "points": pushes,
            "max_steps": worst,
            "budget": cfg.budget,
            "holds": ok,
        }
    )

    # Planted wall: h vanishes imaginarily on the hub root and hits level 1.
    plant = DualPoint(
        tuple(Fraction(int(i == 0)) for i in range(n)),
        tuple(Fraction(int(i != 0)) for i in range(n)),
    )
    root_depth = 6 if chi <= 0 else 12
    reg = is_regular(star, plant, root_depth, cfg.n_bound + 2, cfg.cap)
    details.append(
        {
            "check": "planted-wall-detected",
            "result": reg.to_json(),
            "holds": reg.status == "on_wall",
        }
    )

    # A regular point stays regular only while bounds grow monotonically;
    # a wall hit may not disappear when bounds are enlarged.
    probe_points = [plant]
    for _ in range(5):
        probe_points.append(
            DualPoint(_random_rational_vec(rng, n), _random_rational_vec(rng, n))
        )
    ok = True
    for p in probe_points:
        small = is_regular(star, p, root_depth, cfg.n_bound, cfg.cap)
        large = is_regular(star, p, root_depth + 2, cfg.n_bound + 2, cfg.cap)
        if small.status == "on_wall" and large.status == "regular":
            ok = False
    details.append({"check": "regularity-monotone", "holds": ok})
    bounds = {
        "seed": cfg.seed,
        "budget": cfg.budget,
        "root_depth": root_depth,
        "n_bound": cfg.n_bound,
    }
    return _report("cone", w, lam, details, bounds)


SUITES = {
    "presentations": suite_presentations,
    "semidirect": suite_semidirect,
    "artin": suite_artin,
    "vanderlek": suite_vanderlek,
    "prop44": suite_prop44,
    "translations": suite_translations,
    "roots-decomposition": suite_roots,
    "mutations": suite_mutations,
    "twists": suite_twists,
    "cone": suite_cone,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, w, lam=None, cfg: SuiteConfig = SuiteConfig()) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    w = _normalize_weights(w)
    if lam is None:
        lam = default_lambda(w.r)  # reports always name the points used
    return SUITES[name](w, lam, cfg)
