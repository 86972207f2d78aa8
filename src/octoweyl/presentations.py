"""Presentations as data: relation lists generated from Cartan matrices.

Every presentation is a list of (lhs, rhs) word pairs over a formal
generator alphabet.  One generator, ``_relations``, reads the Cartan matrix
of a star or octopus lattice and emits the relation families in one fixed
order: involutions, commute/braid pairs, hub and arm bound pairs over the
sigma words, translation commutation, the inverse rule 4.3e and the
ordered-pair adjoint rules.  A presentation names the families it uses (a
tag map) and its reflection and translation letters (letter maps), so new
weight tuples need no new code.  Each letter map is called once per vertex
per spec: every side is a concatenation of the vertices' one-letter words
and the arm heads' sigma words, each built once and shared.  Verification
evaluates both sides of every relation under an assignment of matrices to
generators and compares exactly; it checks that a generator assignment
defines a homomorphism, nothing more.  A commutation xy = yx of two
generators that carry a transvection is decided from their pairings by
``weyl.transvections_commute``; that covers the commute families W1.0,
4.3b, 4.3d, 4.3f, E1, Ec, E3 and A1.0 under the reflection and translation
assignments.  Every other relation, and a commutation that the pairings
find broken, is multiplied out side by side by ``weyl.product_rows`` over
the rows its letters move, and the dense matrices of the two sides are
built only for a relation that fails; ``RelationOutcome.add_sides`` writes
them into the one report entry that a suite builds per relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

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


class Relation(NamedTuple):
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


class RelationOutcome(NamedTuple):
    tag: str
    holds: bool
    lhs_matrix: Mat | None = None
    rhs_matrix: Mat | None = None

    def add_sides(self, entry: dict) -> dict:
        """entry, with the dense matrices of a failing relation's two sides."""
        entry["lhs"] = [list(r) for r in self.lhs_matrix]
        entry["rhs"] = [list(r) for r in self.rhs_matrix]
        return entry

    def to_json(self) -> dict:
        entry = {"tag": self.tag, "holds": self.holds}
        return entry if self.holds else self.add_sides(entry)


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


def letter_words(lat: RootLattice, letters) -> tuple[GroupWord, ...]:
    """The one-letter word ((letters(v), 1),) of each vertex v, in vertex order."""
    return tuple(((letters(v), 1),) for v in lat.vertices)


def sigma_word(v) -> GroupWord:
    """The derived sigma (Weyl side) and rho (Artin side) letter of a star
    vertex, expanded: ``weyl.translation_word`` on the vertex letters."""
    return tuple((vertex_str(x), e) for x, e in translation_word(v))


def _letters(name: str):
    """Letter map sending a vertex v to the letter ``name[v]``."""
    return lambda v: f"{name}[{vertex_str(v)}]"


# Letter maps of the reflection-only presentations, then of the two paired ones.
_VERTEX_LETTERS = (vertex_str,)
SEMIDIRECT_LETTERS = (_letters("w"), _letters("tau"))
_VAN_DER_LEK_LETTERS = (_letters("g"), _letters("rho"))

# Tag maps send a relation family to its tag prefix; the Cartan-conditioned
# pair and adjoint families take a (commute, braid) pair of prefixes.
_STAR_TAGS = {"involution": "W0", "pair": ("W1.0", "W1.1")}
_BOUND_TAGS = {"hub-bound": "W2", "arm-bound": "W3"}


def _relations(lat: RootLattice, tags: dict, g: tuple, t: tuple = ()):
    """Yield the relation families named in ``tags``, in this fixed order.

    With I = ``lat.cartan``, g/t the reflection/translation ``letter_words``,
    s the ``sigma_word``s on vertex letters, h_i = g_(i,1) and arms i < j:
    involution g_v g_v = 1; pair g_v g_u = g_u g_v if I(v,u) = 0, the braid
    rule if I(v,u) = -1; hub-bound h_i s_1 h_i s_1 = s_1 h_i s_1 h_i;
    arm-bound h_i s_(j,1) = s_(j,1) h_i (a) and h_j s_(i,1) = s_(i,1) h_j (b);
    translations t_v t_u = t_u t_v; inverse and adjoint, the rule-0 and the
    rule-1/2 entries of ``adjoint_rules``.
    """
    c = lat.cartan
    s = [vertex_str(v) for v in lat.vertices]
    pairs = list(combinations(range(len(s)), 2))
    if "involution" in tags:
        for a, x in enumerate(g):
            yield Relation(f"{tags['involution']}/{s[a]}", x + x, ())
    if "pair" in tags:
        commute, braid = tags["pair"]
        for a, b in pairs:
            x, y = g[a], g[b]
            if c[a][b] == 0:
                yield Relation(f"{commute}/{s[a]},{s[b]}", x + y, y + x)
            elif c[a][b] == -1:
                yield Relation(f"{braid}/{s[a]},{s[b]}", x + y + x, y + x + y)
    arms = range(1, lat.weights.r + 1)
    if "hub-bound" in tags:
        s1 = sigma_word(HUB)
        for i in arms:
            x = g[lat.index((i, 1))]
            yield Relation(f"{tags['hub-bound']}/i={i}", x + s1 + x + s1, s1 + x + s1 + x)
    if "arm-bound" in tags:
        prefix = tags["arm-bound"]
        heads = [(i, g[lat.index((i, 1))], sigma_word((i, 1))) for i in arms]
        for (i, xi, si), (j, xj, sj) in combinations(heads, 2):
            yield Relation(f"{prefix}a/i={i},j={j}", xi + sj, sj + xi)
            yield Relation(f"{prefix}b/i={i},j={j}", xj + si, si + xj)
    if "translations" in tags:
        for a, b in pairs:
            yield Relation(f"{tags['translations']}/{s[a]},{s[b]}", t[a] + t[b], t[b] + t[a])
    if "inverse" in tags:
        for v, _, rule, lhs, rhs in adjoint_rules(lat, g, t):
            if rule == 0:
                yield Relation(f"{tags['inverse']}/{v}", lhs, rhs)
    if "adjoint" in tags:
        for v, u, rule, lhs, rhs in adjoint_rules(lat, g, t):
            if rule:
                yield Relation(f"{tags['adjoint'][rule - 1]}/{v},{u}", lhs, rhs)


def adjoint_rules(lat: RootLattice, g: tuple, t: tuple):
    """Yield ``(v, u, rule, lhs, rhs)`` over the ordered vertex pairs, row by
    row with the diagonal, with v and u as vertex strings, g/t the reflection/
    translation ``letter_words`` and I = ``lat.cartan``: rule 0
    g_v t_v g_v = t_v^-1 (v = u); rule 1 g_v t_u = t_u g_v if I(v,u) = 0;
    rule 2 g_v t_u g_v = t_u t_v if I(v,u) = -1."""
    s = [vertex_str(v) for v in lat.vertices]
    for a, row in enumerate(lat.cartan):
        for b, entry in enumerate(row):
            if a == b:
                yield s[a], s[a], 0, g[a] + t[a] + g[a], ((t[a][0][0], -1),)
            elif entry == 0:
                yield s[a], s[b], 1, g[a] + t[b], t[b] + g[a]
            elif entry == -1:
                yield s[a], s[b], 2, g[a] + t[b] + g[a], t[b] + t[a]


def _spec(name: str, lat: RootLattice, tags: dict, *maps) -> PresentationSpec:
    """The presentation of ``tags`` on the letters of each map (g, then t) per vertex."""
    words = [letter_words(lat, m) for m in maps]
    gens = tuple(x for w in words for (x, _), in w)
    return PresentationSpec(name, tuple(lat.weights.a), gens, tuple(_relations(lat, tags, *words)))


def star_coxeter_spec(w: Weights) -> PresentationSpec:
    """Coxeter relations of the star diagram on one generator per vertex."""
    return _spec("StarCoxeter", star_lattice(w), _STAR_TAGS, *_VERTEX_LETTERS)


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
    return _spec("GeneralizedCoxeterW", lat, tags, *_VERTEX_LETTERS)


def artin_spec(w: Weights) -> PresentationSpec:
    """The octopus relations without involutions: the Artin-side presentation."""
    lat = octopus_lattice(w, default_lambda(w.r))
    tags = {"pair": ("A1.0", "A1.1"), "hub-bound": "A2", "arm-bound": "A3"}
    return _spec("ArtinA", lat, tags, *_VERTEX_LETTERS)


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
    g = letter_words(lat, *_VERTEX_LETTERS)
    hub, ext = g[lat.index(HUB)], g[lat.index(EXT)]
    heads = [g[lat.index((i, 1))] for i in range(1, w.r + 1)]
    # In the order of the sigma forms: W2 per arm, then W3a, W3b per arm pair.
    powers = [(hub + x + ext + x) * 3 for x in heads]
    for x, y in combinations(heads, 2):
        powers.append((x + hub + x + ext + y + ext) * 2)
        powers.append((x + ext + x + hub + y + hub) * 2)
    rels = []
    for rel, power in zip(_relations(lat, _BOUND_TAGS, g), powers, strict=True):
        rels.append(Relation(f"{rel.tag} sigma", rel.lhs, rel.rhs))
        rels.append(Relation(f"{rel.tag} power", power, ()))
    gens = tuple(x for (x, _), in g)
    spec = PresentationSpec("PowerEquivalences", tuple(w.a), gens, tuple(rels))
    return verify(spec, reflection_assignment(lat))
