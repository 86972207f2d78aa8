"""Presentations as data: relation lists generated from Cartan matrices.

Every presentation is a list of (lhs, rhs) word pairs over a formal
generator alphabet.  One generator, ``_relations``, reads the Cartan matrix
of a star or octopus lattice and emits the relation families in one fixed
order: involutions, commute/braid pairs, hub and arm bound pairs over the
sigma words, translation commutation, the inverse rule 4.3e and the
ordered-pair adjoint rules.  A presentation names the families it uses (a
tag map) and its reflection and translation letters (letter maps), so new
weight tuples need no new code.  Verification evaluates both sides of every
relation under an assignment of matrices to generators and compares
exactly; it checks that a generator assignment defines a homomorphism,
nothing more.  A commutation xy = yx of two generators that carry a
transvection, I - u p^T, is decided from their pairings by
``weyl.transvections_commute``: the two products differ by exactly
(p_x . u_y) u_x p_y^T - (p_y . u_x) u_y p_x^T, so the relation holds when
both pairings vanish or these rank-one matrices agree.  That covers the
commute families W1.0, 4.3b, 4.3d, 4.3f, E1, Ec, E3 and A1.0 under the
reflection and translation assignments.  Every other relation, and a
commutation that the pairings find broken, is multiplied out side by side
by ``weyl.product_rows`` over the rows its letters move, and the dense
matrices of the two sides are built only for a relation that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import DimensionMismatch, MissingGenerator
from .exact import Mat
from .lattice import RootLattice, octopus_lattice, star_lattice
from .quiver import EXT, HUB, Weights, default_lambda, vertex_str
from .weyl import (
    expand_rows,
    product_rows,
    simple_reflection,
    translation_element,
    translation_word,
    transvections_commute,
)

GroupWord = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Relation:
    tag: str
    lhs: GroupWord
    rhs: GroupWord


@dataclass(frozen=True)
class PresentationSpec:
    name: str
    weights: tuple[int, ...]
    generators: tuple[str, ...]
    relations: tuple[Relation, ...]

    def __post_init__(self):
        used = {g for rel in self.relations for g, _ in rel.lhs + rel.rhs}
        stray = sorted(used.difference(self.generators))
        if stray:
            raise MissingGenerator(f"relations use non-generator letters: {stray}")


@dataclass(frozen=True)
class RelationOutcome:
    tag: str
    holds: bool
    lhs_matrix: Mat | None = None
    rhs_matrix: Mat | None = None

    def to_json(self) -> dict:
        entry = {"tag": self.tag, "holds": self.holds}
        if not self.holds:
            entry["lhs"] = [list(r) for r in self.lhs_matrix]
            entry["rhs"] = [list(r) for r in self.rhs_matrix]
        return entry


@dataclass(frozen=True)
class VerificationReport:
    spec_name: str
    weights: tuple[int, ...]
    outcomes: tuple[RelationOutcome, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(o.holds for o in self.outcomes)

    def failures(self) -> tuple[RelationOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.holds)

    def to_json(self) -> dict:
        return {
            "spec": self.spec_name,
            "weights": list(self.weights),
            "relations": [o.to_json() for o in self.outcomes],
            "pass": self.passed,
        }


def _word(*letters) -> GroupWord:
    return tuple((g, 1) for g in letters)


def sigma_word(v) -> GroupWord:
    """The derived sigma (Weyl side) and rho (Artin side) letter of a star
    vertex, expanded: ``weyl.translation_word`` on the vertex letters."""
    return tuple((vertex_str(x), e) for x, e in translation_word(v))


def _letters(name: str):
    """Letter map sending a vertex v to the letter ``name[v]``."""
    return lambda v: f"{name}[{vertex_str(v)}]"


# Reflection and translation letter maps of the two paired presentations.
SEMIDIRECT_LETTERS = (_letters("w"), _letters("tau"))
_VAN_DER_LEK_LETTERS = (_letters("g"), _letters("rho"))

# Tag maps send a relation family to its tag prefix; the Cartan-conditioned
# pair and adjoint families take a (commute, braid) pair of prefixes.
_STAR_TAGS = {"involution": "W0", "pair": ("W1.0", "W1.1")}
_BOUND_TAGS = {"hub-bound": "W2", "arm-bound": "W3"}


def _relations(lat: RootLattice, tags: dict, g, t=None):
    """Yield the relation families named in ``tags``, in this fixed order.

    With I = ``lat.cartan``, g/t the reflection/translation letter maps,
    s the ``sigma_word``s on vertex letters, h_i = g((i, 1)) and arms i < j:
    involution g_v g_v = 1; pair g_v g_u = g_u g_v if I(v,u) = 0, the braid
    rule if I(v,u) = -1; hub-bound h_i s_1 h_i s_1 = s_1 h_i s_1 h_i;
    arm-bound h_i s_(j,1) = s_(j,1) h_i (a) and h_j s_(i,1) = s_(i,1) h_j (b);
    translations t_v t_u = t_u t_v; inverse and adjoint, the rule-0 and the
    rule-1/2 entries of ``adjoint_rules``.
    """
    verts = lat.vertices
    c = lat.cartan
    s = [vertex_str(v) for v in verts]
    pairs = list(combinations(range(len(verts)), 2))
    if "involution" in tags:
        for a, v in enumerate(verts):
            yield Relation(f"{tags['involution']}/{s[a]}", _word(g(v), g(v)), ())
    if "pair" in tags:
        commute, braid = tags["pair"]
        for a, b in pairs:
            x, y = g(verts[a]), g(verts[b])
            if c[a][b] == 0:
                yield Relation(f"{commute}/{s[a]},{s[b]}", _word(x, y), _word(y, x))
            elif c[a][b] == -1:
                lhs, rhs = _word(x, y, x), _word(y, x, y)
                yield Relation(f"{braid}/{s[a]},{s[b]}", lhs, rhs)
    arms = range(1, lat.weights.r + 1)
    if "hub-bound" in tags:
        s1 = sigma_word(HUB)
        for i in arms:
            x = _word(g((i, 1)))
            lhs, rhs = x + s1 + x + s1, s1 + x + s1 + x
            yield Relation(f"{tags['hub-bound']}/i={i}", lhs, rhs)
    if "arm-bound" in tags:
        prefix = tags["arm-bound"]
        for i, j in combinations(arms, 2):
            xi, xj = _word(g((i, 1))), _word(g((j, 1)))
            si, sj = sigma_word((i, 1)), sigma_word((j, 1))
            yield Relation(f"{prefix}a/i={i},j={j}", xi + sj, sj + xi)
            yield Relation(f"{prefix}b/i={i},j={j}", xj + si, si + xj)
    if "translations" in tags:
        for a, b in pairs:
            x, y = t(verts[a]), t(verts[b])
            tag = f"{tags['translations']}/{s[a]},{s[b]}"
            yield Relation(tag, _word(x, y), _word(y, x))
    if "inverse" in tags:
        for v, _, rule, lhs, rhs in adjoint_rules(lat, g, t):
            if rule == 0:
                yield Relation(f"{tags['inverse']}/{v}", lhs, rhs)
    if "adjoint" in tags:
        for v, u, rule, lhs, rhs in adjoint_rules(lat, g, t):
            if rule:
                yield Relation(f"{tags['adjoint'][rule - 1]}/{v},{u}", lhs, rhs)


def adjoint_rules(lat: RootLattice, g, t):
    """Yield ``(v, u, rule, lhs, rhs)`` over the ordered vertex pairs, row by
    row with the diagonal, with v and u as vertex strings and I = ``lat.cartan``:
    rule 0 g_v t_v g_v = t_v^-1 (v = u); rule 1 g_v t_u = t_u g_v if
    I(v,u) = 0; rule 2 g_v t_u g_v = t_u t_v if I(v,u) = -1."""
    s = [vertex_str(v) for v in lat.vertices]
    gs = [(g(v), 1) for v in lat.vertices]
    ts = [(t(v), 1) for v in lat.vertices]
    for a, row in enumerate(lat.cartan):
        for b, entry in enumerate(row):
            if a == b:
                yield s[a], s[a], 0, (gs[a], ts[a], gs[a]), ((ts[a][0], -1),)
            elif entry == 0:
                yield s[a], s[b], 1, (gs[a], ts[b]), (ts[b], gs[a])
            elif entry == -1:
                yield s[a], s[b], 2, (gs[a], ts[b], gs[a]), (ts[b], ts[a])


def _spec(name: str, lat: RootLattice, tags: dict, g, t=None) -> PresentationSpec:
    """The presentation of ``tags`` on the letters of g (then t) per vertex."""
    gens = tuple(map(g, lat.vertices))
    if t is not None:
        gens += tuple(map(t, lat.vertices))
    rels = tuple(_relations(lat, tags, g, t))
    return PresentationSpec(name, tuple(lat.weights.a), gens, rels)


def star_coxeter_spec(w: Weights) -> PresentationSpec:
    """Coxeter relations of the star diagram on one generator per vertex."""
    return _spec("StarCoxeter", star_lattice(w), _STAR_TAGS, vertex_str)


def semidirect_spec(w: Weights) -> PresentationSpec:
    """Reflections plus a commuting translation family, with adjoint rules."""
    tags = {
        "involution": "4.3a",
        "pair": ("4.3b", "4.3c"),
        "translations": "4.3d",
        "inverse": "4.3e",
        "adjoint": ("4.3f", "4.3g"),
    }
    return _spec("Semidirect", star_lattice(w), tags, *SEMIDIRECT_LETTERS)


def generalized_coxeter_spec_W(w: Weights) -> PresentationSpec:
    """Coxeter relations of the octopus diagram plus the bound-pair rules."""
    lat = octopus_lattice(w, default_lambda(w.r))
    tags = {**_STAR_TAGS, **_BOUND_TAGS}
    return _spec("GeneralizedCoxeterW", lat, tags, vertex_str)


def artin_spec(w: Weights) -> PresentationSpec:
    """The octopus relations without involutions: the Artin-side presentation."""
    lat = octopus_lattice(w, default_lambda(w.r))
    tags = {"pair": ("A1.0", "A1.1"), "hub-bound": "A2", "arm-bound": "A3"}
    return _spec("ArtinA", lat, tags, vertex_str)


def van_der_lek_spec(w: Weights) -> PresentationSpec:
    """Star generators paired with formal translations, no torsion relations."""
    tags = {"pair": ("E1", "E1-2"), "translations": "Ec", "adjoint": ("E3", "Ea")}
    return _spec("VanDerLekE", star_lattice(w), tags, *_VAN_DER_LEK_LETTERS)


def _evaluate(word: GroupWord, assignment: dict, n: int) -> dict:
    """Ordered product of the assigned elements, as ``weyl.product_rows`` gives it."""
    steps = []
    for g, e in word:
        steps += [assignment[g] if e >= 0 else assignment[g].inverse()] * abs(e)
    return product_rows(n, steps)


def _commute_by_pairings(rel: Relation, assignment: dict) -> bool:
    """Whether rel is xy = yx on two generators that the pairings of their
    transvections show to commute; False leaves the relation undecided."""
    lhs = rel.lhs
    if len(lhs) != 2 or rel.rhs != lhs[::-1] or lhs[0][1] != 1 or lhs[1][1] != 1:
        return False
    a, b = assignment[lhs[0][0]].step, assignment[lhs[1][0]].step
    return a is not None and b is not None and transvections_commute(a, b)


def verify(spec: PresentationSpec, assignment: dict) -> VerificationReport:
    """Evaluate every relation under the assignment and compare exactly.

    A commutation of two generators that ``transvections_commute`` finds to
    hold is decided there; every other relation is multiplied out.
    """
    missing = [g for g in spec.generators if g not in assignment]
    if missing:
        raise MissingGenerator(f"unassigned generators: {missing}")
    sizes = {a.rank for a in assignment.values()}
    if len(sizes) > 1:
        raise DimensionMismatch(f"assignment matrices of mixed sizes {sorted(sizes)}")
    n = sizes.pop()
    outcomes = []
    for rel in spec.relations:
        if _commute_by_pairings(rel, assignment):
            outcomes.append(RelationOutcome(rel.tag, True))
            continue
        lhs = _evaluate(rel.lhs, assignment, n)
        rhs = _evaluate(rel.rhs, assignment, n)
        if lhs == rhs:
            outcomes.append(RelationOutcome(rel.tag, True))
        else:
            dense = expand_rows(n, lhs), expand_rows(n, rhs)
            outcomes.append(RelationOutcome(rel.tag, False, *dense))
    return VerificationReport(spec.name, spec.weights, tuple(outcomes))


def reflection_assignment(lat: RootLattice) -> dict:
    return {vertex_str(v): simple_reflection(lat, v) for v in lat.vertices}


def _paired_assignment(lat: RootLattice, g, t) -> dict:
    """Octopus reflections for the g-letters and translations for the t-letters."""
    out = {}
    for v in lat.star_vertices():
        out[g(v)] = simple_reflection(lat, v)
        out[t(v)] = translation_element(lat, v)
    return out


def semidirect_assignment(lat: RootLattice) -> dict:
    return _paired_assignment(lat, *SEMIDIRECT_LETTERS)


def van_der_lek_assignment(lat: RootLattice) -> dict:
    return _paired_assignment(lat, *_VAN_DER_LEK_LETTERS)


def check_coxeter_power_equivalences(w: Weights) -> VerificationReport:
    """Both shapes of the bound-pair relations, checked on the reflections.

    For each arm the four-letter hub word cubes to the identity and the
    sigma-form commutation holds; for each arm pair the two six-letter words
    square to the identity alongside their sigma-forms.
    """
    lat = octopus_lattice(w, default_lambda(w.r))
    hub, ext = vertex_str(HUB), vertex_str(EXT)
    heads = [vertex_str((i, 1)) for i in range(1, w.r + 1)]
    # In the order of the sigma forms: W2 per arm, then W3a, W3b per arm pair.
    powers = [_word(hub, x, ext, x) * 3 for x in heads]
    for x, y in combinations(heads, 2):
        powers.append(_word(x, hub, x, ext, y, ext) * 2)
        powers.append(_word(x, ext, x, hub, y, hub) * 2)
    rels = []
    sigma_forms = _relations(lat, _BOUND_TAGS, vertex_str)
    for rel, power in zip(sigma_forms, powers, strict=True):
        rels.append(Relation(f"{rel.tag} sigma", rel.lhs, rel.rhs))
        rels.append(Relation(f"{rel.tag} power", power, ()))
    gens = tuple(map(vertex_str, lat.vertices))
    spec = PresentationSpec("PowerEquivalences", tuple(w.a), gens, tuple(rels))
    return verify(spec, reflection_assignment(lat))
