"""Presentations as data: relation lists generated from Cartan matrices.

Every presentation is a list of (lhs, rhs) word pairs over a formal
generator alphabet, held as data: a tuple of ``Family`` runs, each of one
kind.  One generator, ``_families``, reads the Cartan matrix of a star or
octopus lattice and emits the relation families in one fixed order:
involutions, commute/braid pairs, hub and arm bound pairs over the sigma
words, translation commutation, the inverse rule 4.3e, read off the
diagonal, and the ordered-pair adjoint rules of ``adjoint_pairs``.  A
presentation names the families it uses (a tag map) and its reflection and
translation letters (letter maps), so new weight tuples need no new code.
An involution x x = 1, a commutation x y = y x or a braid x y x = y x y is
held as its tag and its two letters; every other relation is a
``Relation`` whose sides are concatenations of the vertices' one-letter
words and the arm heads' sigma words, each built once per spec and shared.
``PresentationSpec.relations`` writes every side out on request.

Verification evaluates every relation under an assignment of matrices to
generators and compares exactly; it checks that a generator assignment
defines a homomorphism, nothing more.  The involutions (W0, 4.3a), the
commutations (W1.0, 4.3b, 4.3d, 4.3f, E1, Ec, E3, A1.0 and the
``adjoint-commute`` rules of the translations suite) and the braids
(W1.1, 4.3c, E1-2, A1.1) go through ``pairing_index``, the one place where
a relation is decided from its generators' transvections: a commutation
whose two pairings are zero holds with no kernel call, and the others go
to ``weyl.holds_by_pairings``, which states the involution and braid rules
and proves them.  Every relation that the pairings leave undecided, and
every other family (the bound pairs, 4.3e, 4.3g, Ea, the adjoint products
and the power forms), is multiplied out side by side by
``weyl.product_rows`` over the rows its letters move, and the dense
matrices of the two sides are built only for a relation that fails.
``suites.SuiteRun.add_spec`` writes each outcome as one report entry,
with those two matrices for a relation that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, groupby
from operator import itemgetter
from typing import NamedTuple

from .errors import DimensionMismatch, MissingGenerator
from .exact import Mat
from .lattice import RootLattice, octopus_lattice, star_lattice
from .quiver import EXT, HUB, Weights, default_lambda, vertex_str
from .weyl import (
    BRAID,
    COMMUTE,
    INVOLUTION,
    PairingIndex,
    expand_rows,
    product_rows,
    simple_reflection,
    translation_element,
    translation_word,
)

GroupWord = tuple[tuple[str, int], ...]

# The kind of a family whose relations are multiplied out, whatever their shape.
WORDS = "words"


class Relation(NamedTuple):
    tag: str
    lhs: GroupWord
    rhs: GroupWord


def _pair_sides(kind: str, x: tuple, y: tuple) -> tuple[tuple, tuple]:
    """The two sides of the relation of ``kind`` on x and y, each a
    one-item tuple: a one-letter word, or an assigned element."""
    if kind == INVOLUTION:
        return x + x, ()
    if kind == COMMUTE:
        return x + y, y + x
    return x + y + x, y + x + y


class Family(NamedTuple):
    """A run of relations of one kind, in the order of the presentation.

    For an involution (x = y), a commutation or a braid, each entry is
    (tag, x, y) with x and y the generators' letters; for kind ``WORDS``
    each entry is a ``Relation``.
    """

    kind: str
    entries: tuple

    def relations(self) -> tuple[Relation, ...]:
        if self.kind == WORDS:
            return self.entries
        kind = self.kind
        return tuple(
            Relation(tag, *_pair_sides(kind, ((x, 1),), ((y, 1),))) for tag, x, y in self.entries
        )


def _runs(items) -> list[Family]:
    """The families of consecutive (kind, entry) items of one kind."""
    runs = groupby(items, itemgetter(0))
    return [Family(kind, tuple(map(itemgetter(1), run))) for kind, run in runs]


@dataclass(frozen=True)
class PresentationSpec:
    name: str
    weights: tuple[int, ...]
    generators: tuple[str, ...]
    families: tuple[Family, ...]

    def __post_init__(self):
        used = set()
        for kind, entries in self.families:
            if kind == WORDS:
                used.update(g for rel in entries for g, _ in rel.lhs + rel.rhs)
            else:
                used.update(map(itemgetter(1), entries), map(itemgetter(2), entries))
        stray = sorted(used.difference(self.generators))
        if stray:
            raise MissingGenerator(f"relations use non-generator letters: {stray}")

    @property
    def relations(self) -> tuple[Relation, ...]:
        """Every relation, sides written out, in order: built on each read."""
        return tuple(rel for family in self.families for rel in family.relations())


class RelationOutcome(NamedTuple):
    tag: str
    holds: bool
    lhs_matrix: Mat | None = None
    rhs_matrix: Mat | None = None


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
# pair and adjoint families take a pair of prefixes, for I(v,u) = 0 and -1.
_STAR_TAGS = {"involution": "W0", "pair": ("W1.0", "W1.1")}
_BOUND_TAGS = {"hub-bound": "W2", "arm-bound": "W3"}


def _families(lat: RootLattice, tags: dict, g: tuple, t: tuple = ()):
    """Yield the relation families named in ``tags``, in this fixed order.

    With I = ``lat.cartan``, g/t the reflection/translation ``letter_words``,
    s the ``sigma_word``s on vertex letters, h_i = g_(i,1) and arms i < j:
    involution g_v g_v = 1; pair g_v g_u = g_u g_v if I(v,u) = 0, the braid
    rule if I(v,u) = -1; hub-bound h_i s_1 h_i s_1 = s_1 h_i s_1 h_i;
    arm-bound h_i s_(j,1) = s_(j,1) h_i (a) and h_j s_(i,1) = s_(i,1) h_j (b);
    translations t_v t_u = t_u t_v; inverse g_v t_v g_v = t_v^-1, read off
    the diagonal; adjoint, the rule-1/2 entries of ``adjoint_pairs``.  The
    involutions, commutations and braids are held as their letters, the
    rest as ``Relation``s.
    """
    c = lat.cartan
    s = [vertex_str(v) for v in lat.vertices]
    gx, tx = [x for (x, _), in g], [x for (x, _), in t]
    pairs = list(combinations(range(len(s)), 2))
    if "involution" in tags:
        prefix = tags["involution"]
        yield Family(INVOLUTION, tuple((f"{prefix}/{s[a]}", x, x) for a, x in enumerate(gx)))
    if "pair" in tags:
        commute, braid = tags["pair"]
        items = []
        for a, b in pairs:
            if c[a][b] == 0:
                items.append((COMMUTE, (f"{commute}/{s[a]},{s[b]}", gx[a], gx[b])))
            elif c[a][b] == -1:
                items.append((BRAID, (f"{braid}/{s[a]},{s[b]}", gx[a], gx[b])))
        yield from _runs(items)
    arms = range(1, lat.weights.r + 1)
    words = []
    if "hub-bound" in tags:
        s1 = sigma_word(HUB)
        for i in arms:
            x = g[lat.index((i, 1))]
            words.append(Relation(f"{tags['hub-bound']}/i={i}", x + s1 + x + s1, s1 + x + s1 + x))
    if "arm-bound" in tags:
        prefix = tags["arm-bound"]
        heads = [(i, g[lat.index((i, 1))], sigma_word((i, 1))) for i in arms]
        for (i, xi, si), (j, xj, sj) in combinations(heads, 2):
            words.append(Relation(f"{prefix}a/i={i},j={j}", xi + sj, sj + xi))
            words.append(Relation(f"{prefix}b/i={i},j={j}", xj + si, si + xj))
    if words:
        yield Family(WORDS, tuple(words))
    if "translations" in tags:
        prefix = tags["translations"]
        yield Family(COMMUTE, tuple((f"{prefix}/{s[a]},{s[b]}", tx[a], tx[b]) for a, b in pairs))
    if "inverse" in tags:
        prefix = tags["inverse"]
        yield Family(
            WORDS,
            tuple(
                Relation(f"{prefix}/{s[a]}", *_adjoint_sides(0, x, t[a], t[a]))
                for a, x in enumerate(g)
            ),
        )
    if "adjoint" in tags:
        yield from adjoint_families(lat, (None, *tags["adjoint"]), g, t)


def adjoint_pairs(lat: RootLattice):
    """Yield ``(a, b, rule)`` over the ordered vertex index pairs, row by row
    with the diagonal, for I = ``lat.cartan``: rule 0 if a = b, rule 1 if
    I(a,b) = 0, rule 2 if I(a,b) = -1; other pairs have no rule."""
    for a, row in enumerate(lat.cartan):
        for b, entry in enumerate(row):
            if a == b:
                yield a, b, 0
            elif entry == 0:
                yield a, b, 1
            elif entry == -1:
                yield a, b, 2


def _adjoint_sides(rule: int, x: GroupWord, t_a: GroupWord, t_b: GroupWord):
    """The sides of the adjoint rule on the one-letter words x = g_a, t_a and t_b."""
    if rule == 0:
        return x + t_a + x, ((t_a[0][0], -1),)
    if rule == 1:
        return x + t_b, t_b + x
    return x + t_b + x, t_b + t_a


def adjoint_families(
    lat: RootLattice, prefixes: tuple, g: tuple, t: tuple, labelled: bool = True
) -> list[Family]:
    """The families of the adjoint rules of ``adjoint_pairs`` whose tag
    prefix, ``prefixes[rule]``, is not None, in their order, with g/t the
    reflection/translation ``letter_words``: rule 0 g_v t_v g_v = t_v^-1;
    rule 1 g_v t_u = t_u g_v, held as its letters; rule 2
    g_v t_u g_v = t_u t_v.  Rules 0 and 2 are ``Relation``s.  A labelled
    tag names the vertices after its prefix; an unlabelled tag is the
    prefix alone."""
    s = [vertex_str(v) for v in lat.vertices]
    items = []
    for a, b, rule in adjoint_pairs(lat):
        prefix = prefixes[rule]
        if prefix is None:
            continue
        if not labelled:
            tag = prefix
        elif rule:
            tag = f"{prefix}/{s[a]},{s[b]}"
        else:
            tag = f"{prefix}/{s[a]}"
        if rule == 1:
            items.append((COMMUTE, (tag, g[a][0][0], t[b][0][0])))
        else:
            items.append((WORDS, Relation(tag, *_adjoint_sides(rule, g[a], t[a], t[b]))))
    return _runs(items)


def _spec(name: str, lat: RootLattice, tags: dict, *maps) -> PresentationSpec:
    """The presentation of ``tags`` on the letters of each map (g, then t) per vertex."""
    words = [letter_words(lat, m) for m in maps]
    gens = tuple(x for w in words for (x, _), in w)
    return PresentationSpec(name, tuple(lat.weights.a), gens, tuple(_families(lat, tags, *words)))


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


def _steps(word: GroupWord, assignment: dict) -> list:
    """The assigned elements of a word's letters, inverted for a negative
    exponent, each repeated |e| times."""
    steps = []
    for g, e in word:
        steps += [assignment[g] if e >= 0 else assignment[g].inverse()] * abs(e)
    return steps


def _outcome(tag: str, n: int, lhs, rhs) -> RelationOutcome:
    """The outcome of lhs = rhs, both sides multiplied out by ``product_rows``;
    the dense matrices of the sides are built only when they differ."""
    lhs, rhs = product_rows(n, lhs), product_rows(n, rhs)
    if lhs == rhs:
        return RelationOutcome(tag, True)
    return RelationOutcome(tag, False, expand_rows(n, lhs), expand_rows(n, rhs))


def pairing_index(assignment: dict) -> PairingIndex:
    """The index through which ``verify`` decides relations from pairings:
    every assigned element that carries a transvection, by its letter."""
    return PairingIndex({g: a.step for g, a in assignment.items() if a.step is not None})


def verify(spec: PresentationSpec, assignment: dict) -> VerificationReport:
    """Evaluate every relation under the assignment and compare exactly.

    The involutions, commutations and braids go to ``pairing_index``, which
    decides a commutation with both pairings zero without a kernel call and
    the others by ``weyl.holds_by_pairings``; every relation that it leaves
    undecided, and every ``WORDS`` relation, is multiplied out.
    """
    missing = [g for g in spec.generators if g not in assignment]
    if missing:
        raise MissingGenerator(f"unassigned generators: {missing}")
    sizes = {a.rank for a in assignment.values()}
    if len(sizes) > 1:
        raise DimensionMismatch(f"assignment matrices of mixed sizes {sorted(sizes)}")
    n = sizes.pop()
    holds = None  # the index is built for the first family that it decides
    outcomes = []
    for kind, entries in spec.families:
        if kind == WORDS:
            for tag, lhs, rhs in entries:
                outcomes.append(_outcome(tag, n, _steps(lhs, assignment), _steps(rhs, assignment)))
            continue
        if holds is None:
            holds = pairing_index(assignment).holds
        for tag, x, y in entries:
            if holds(kind, x, y):
                outcomes.append(RelationOutcome(tag, True))
            else:
                sides = _pair_sides(kind, (assignment[x],), (assignment[y],))
                outcomes.append(_outcome(tag, n, *sides))
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
    (bound,) = _families(lat, _BOUND_TAGS, g)
    for rel, power in zip(bound.entries, powers, strict=True):
        rels.append(Relation(f"{rel.tag} sigma", rel.lhs, rel.rhs))
        rels.append(Relation(f"{rel.tag} power", power, ()))
    gens = tuple(x for (x, _), in g)
    spec = PresentationSpec("PowerEquivalences", tuple(w.a), gens, (Family(WORDS, tuple(rels)),))
    return verify(spec, reflection_assignment(lat))
