"""Presentations as data: relation lists generated from Cartan matrices.

Every presentation is a list of (lhs, rhs) word pairs over a formal
generator alphabet, instantiated from the Cartan matrix of a star or
octopus lattice so new weight tuples need no new code.  Derived letters
(the sigma and rho products) are expanded eagerly into primitive letters.
Verification evaluates both sides of every relation under an assignment of
matrices to generators and compares exactly; it checks that a generator
assignment defines a homomorphism, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionMismatch, MissingGenerator
from .exact import Mat, identity
from .lattice import RootLattice, octopus_lattice, star_lattice
from .quiver import EXT, HUB, Weights, default_lambda, vertex_str
from .weyl import right_product, simple_reflection, translation_element

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


def _inv(word: GroupWord) -> GroupWord:
    return tuple((g, -e) for g, e in reversed(word))


def sigma_word(v) -> GroupWord:
    """Expansion of the derived hub/arm products into primitive letters.

    sigma_1 is the product of the two hub-side generators; each arm letter
    conjugates its predecessor and divides by it.  The same inductive shape
    serves the Weyl-side sigma and the Artin-side rho letters.
    """
    if v == HUB:
        return _word(vertex_str(HUB), vertex_str(EXT))
    if isinstance(v, tuple):
        i, j = v
        prev = sigma_word(HUB) if j == 1 else sigma_word((i, j - 1))
        me = _word(vertex_str(v))
        return me + prev + me + _inv(prev)
    raise ValueError(f"no derived letter for {v!r}")


def _pairs(vertices):
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            yield vertices[a], vertices[b]


def _ordered_pairs(vertices):
    for a in vertices:
        for b in vertices:
            if a != b:
                yield a, b


def star_coxeter_spec(w: Weights) -> PresentationSpec:
    """Coxeter relations of the star diagram on one generator per vertex."""
    lat = star_lattice(w)
    rels = []
    for v in lat.vertices:
        s = vertex_str(v)
        rels.append(Relation(f"W0/{s}", _word(s, s), ()))
    for v, u in _pairs(lat.vertices):
        entry = lat.form(lat.basis_vector(v), lat.basis_vector(u))
        sv, su = vertex_str(v), vertex_str(u)
        if entry == 0:
            rels.append(Relation(f"W1.0/{sv},{su}", _word(sv, su), _word(su, sv)))
        elif entry == -1:
            rels.append(
                Relation(f"W1.1/{sv},{su}", _word(sv, su, sv), _word(su, sv, su))
            )
    return PresentationSpec(
        "StarCoxeter", tuple(w.a), tuple(vertex_str(v) for v in lat.vertices), tuple(rels)
    )


def semidirect_spec(w: Weights) -> PresentationSpec:
    """Reflections plus a commuting translation family, with adjoint rules."""
    lat = star_lattice(w)
    verts = lat.vertices

    def wl(v):
        return f"w[{vertex_str(v)}]"

    def tl(v):
        return f"tau[{vertex_str(v)}]"

    rels = []
    for v in verts:
        rels.append(Relation(f"4.3a/{vertex_str(v)}", _word(wl(v), wl(v)), ()))
    for v, u in _pairs(verts):
        entry = lat.form(lat.basis_vector(v), lat.basis_vector(u))
        sv, su = vertex_str(v), vertex_str(u)
        if entry == 0:
            rels.append(
                Relation(f"4.3b/{sv},{su}", _word(wl(v), wl(u)), _word(wl(u), wl(v)))
            )
        elif entry == -1:
            rels.append(
                Relation(
                    f"4.3c/{sv},{su}",
                    _word(wl(v), wl(u), wl(v)),
                    _word(wl(u), wl(v), wl(u)),
                )
            )
    for v, u in _pairs(verts):
        rels.append(
            Relation(
                f"4.3d/{vertex_str(v)},{vertex_str(u)}",
                _word(tl(v), tl(u)),
                _word(tl(u), tl(v)),
            )
        )
    for v in verts:
        rels.append(
            Relation(
                f"4.3e/{vertex_str(v)}",
                _word(wl(v), tl(v), wl(v)),
                ((tl(v), -1),),
            )
        )
    for v, u in _ordered_pairs(verts):
        entry = lat.form(lat.basis_vector(v), lat.basis_vector(u))
        sv, su = vertex_str(v), vertex_str(u)
        if entry == 0:
            rels.append(
                Relation(f"4.3f/{sv},{su}", _word(wl(v), tl(u)), _word(tl(u), wl(v)))
            )
        elif entry == -1:
            rels.append(
                Relation(
                    f"4.3g/{sv},{su}",
                    _word(wl(v), tl(u), wl(v)),
                    _word(tl(u), tl(v)),
                )
            )
    gens = tuple(wl(v) for v in verts) + tuple(tl(v) for v in verts)
    return PresentationSpec("Semidirect", tuple(w.a), gens, tuple(rels))


def _octopus_lattice_for(w: Weights) -> RootLattice:
    return octopus_lattice(w, default_lambda(w.r))


def generalized_coxeter_spec_W(w: Weights) -> PresentationSpec:
    """Coxeter relations of the octopus diagram plus the bound-pair rules."""
    lat = _octopus_lattice_for(w)
    rels = []
    for v in lat.vertices:
        s = vertex_str(v)
        rels.append(Relation(f"W0/{s}", _word(s, s), ()))
    for v, u in _pairs(lat.vertices):
        entry = lat.form(lat.basis_vector(v), lat.basis_vector(u))
        sv, su = vertex_str(v), vertex_str(u)
        if entry == 0:
            rels.append(Relation(f"W1.0/{sv},{su}", _word(sv, su), _word(su, sv)))
        elif entry == -1:
            rels.append(
                Relation(f"W1.1/{sv},{su}", _word(sv, su, sv), _word(su, sv, su))
            )
    sigma1 = sigma_word(HUB)
    for i in range(1, w.r + 1):
        g = _word(vertex_str((i, 1)))
        rels.append(
            Relation(f"W2/i={i}", g + sigma1 + g + sigma1, sigma1 + g + sigma1 + g)
        )
    for i in range(1, w.r + 1):
        for j in range(i + 1, w.r + 1):
            gi, gj = _word(vertex_str((i, 1))), _word(vertex_str((j, 1)))
            si, sj = sigma_word((i, 1)), sigma_word((j, 1))
            rels.append(Relation(f"W3a/i={i},j={j}", gi + sj, sj + gi))
            rels.append(Relation(f"W3b/i={i},j={j}", gj + si, si + gj))
    return PresentationSpec(
        "GeneralizedCoxeterW", tuple(w.a), tuple(vertex_str(v) for v in lat.vertices),
        tuple(rels)
    )


def artin_spec(w: Weights) -> PresentationSpec:
    """The octopus relations without involutions: the Artin-side presentation."""
    lat = _octopus_lattice_for(w)
    rels = []
    for v, u in _pairs(lat.vertices):
        entry = lat.form(lat.basis_vector(v), lat.basis_vector(u))
        sv, su = vertex_str(v), vertex_str(u)
        if entry == 0:
            rels.append(Relation(f"A1.0/{sv},{su}", _word(sv, su), _word(su, sv)))
        elif entry == -1:
            rels.append(
                Relation(f"A1.1/{sv},{su}", _word(sv, su, sv), _word(su, sv, su))
            )
    rho1 = sigma_word(HUB)
    for i in range(1, w.r + 1):
        g = _word(vertex_str((i, 1)))
        rels.append(
            Relation(f"A2/i={i}", g + rho1 + g + rho1, rho1 + g + rho1 + g)
        )
    for i in range(1, w.r + 1):
        for j in range(i + 1, w.r + 1):
            gi, gj = _word(vertex_str((i, 1))), _word(vertex_str((j, 1)))
            ri, rj = sigma_word((i, 1)), sigma_word((j, 1))
            rels.append(Relation(f"A3a/i={i},j={j}", gi + rj, rj + gi))
            rels.append(Relation(f"A3b/i={i},j={j}", gj + ri, ri + gj))
    return PresentationSpec(
        "ArtinA", tuple(w.a), tuple(vertex_str(v) for v in lat.vertices), tuple(rels)
    )


def van_der_lek_spec(w: Weights) -> PresentationSpec:
    """Star generators paired with formal translations, no torsion relations."""
    lat = star_lattice(w)
    verts = lat.vertices

    def gl(v):
        return f"g[{vertex_str(v)}]"

    def rl(v):
        return f"rho[{vertex_str(v)}]"

    rels = []
    for v, u in _pairs(verts):
        entry = lat.form(lat.basis_vector(v), lat.basis_vector(u))
        sv, su = vertex_str(v), vertex_str(u)
        if entry == 0:
            rels.append(
                Relation(f"E1/{sv},{su}", _word(gl(v), gl(u)), _word(gl(u), gl(v)))
            )
        elif entry == -1:
            rels.append(
                Relation(
                    f"E1-2/{sv},{su}",
                    _word(gl(v), gl(u), gl(v)),
                    _word(gl(u), gl(v), gl(u)),
                )
            )
    for v, u in _pairs(verts):
        rels.append(
            Relation(
                f"Ec/{vertex_str(v)},{vertex_str(u)}",
                _word(rl(v), rl(u)),
                _word(rl(u), rl(v)),
            )
        )
    for v, u in _ordered_pairs(verts):
        entry = lat.form(lat.basis_vector(v), lat.basis_vector(u))
        sv, su = vertex_str(v), vertex_str(u)
        if entry == 0:
            rels.append(
                Relation(f"E3/{sv},{su}", _word(gl(v), rl(u)), _word(rl(u), gl(v)))
            )
        elif entry == -1:
            rels.append(
                Relation(
                    f"Ea/{sv},{su}",
                    _word(gl(v), rl(u), gl(v)),
                    _word(rl(u), rl(v)),
                )
            )
    gens = tuple(gl(v) for v in verts) + tuple(rl(v) for v in verts)
    return PresentationSpec("VanDerLekE", tuple(w.a), gens, tuple(rels))


def _evaluate(word: GroupWord, assignment: dict, inverses: dict, n: int) -> Mat:
    """Ordered product of the assigned elements; inverses are filled in on first use."""
    steps = []
    for g, e in word:
        if g not in assignment:
            raise MissingGenerator(f"no matrix assigned to generator {g!r}")
        if e < 0 and g not in inverses:
            inverses[g] = assignment[g].inverse()
        steps += [assignment[g] if e >= 0 else inverses[g]] * abs(e)
    return right_product(identity(n), steps)


def verify(spec: PresentationSpec, assignment: dict) -> VerificationReport:
    """Evaluate every relation under the assignment and compare exactly."""
    missing = [g for g in spec.generators if g not in assignment]
    if missing:
        raise MissingGenerator(f"unassigned generators: {missing}")
    sizes = {a.rank for a in assignment.values()}
    if len(sizes) > 1:
        raise DimensionMismatch(f"assignment matrices of mixed sizes {sorted(sizes)}")
    n = sizes.pop()
    inverses: dict = {}
    outcomes = []
    for rel in spec.relations:
        lhs = _evaluate(rel.lhs, assignment, inverses, n)
        rhs = _evaluate(rel.rhs, assignment, inverses, n)
        if lhs == rhs:
            outcomes.append(RelationOutcome(rel.tag, True))
        else:
            outcomes.append(RelationOutcome(rel.tag, False, lhs, rhs))
    return VerificationReport(spec.name, spec.weights, tuple(outcomes))


def reflection_assignment(lat: RootLattice) -> dict:
    return {vertex_str(v): simple_reflection(lat, v) for v in lat.vertices}


def semidirect_assignment(lat: RootLattice) -> dict:
    """Octopus reflections for w-letters and translations for tau-letters."""
    out = {}
    for v in lat.star_vertices():
        out[f"w[{vertex_str(v)}]"] = simple_reflection(lat, v)
        out[f"tau[{vertex_str(v)}]"] = translation_element(lat, v)
    return out


def van_der_lek_assignment(lat: RootLattice) -> dict:
    out = {}
    for v in lat.star_vertices():
        out[f"g[{vertex_str(v)}]"] = simple_reflection(lat, v)
        out[f"rho[{vertex_str(v)}]"] = translation_element(lat, v)
    return out


def check_coxeter_power_equivalences(w: Weights) -> VerificationReport:
    """Both shapes of the bound-pair relations, checked on the reflections.

    For each arm the four-letter hub word cubes to the identity and the
    sigma-form commutation holds; for each arm pair the two six-letter words
    square to the identity alongside their sigma-forms.
    """
    lat = _octopus_lattice_for(w)
    assign = reflection_assignment(lat)
    inverses: dict = {}
    n = lat.rank
    ident = identity(n)

    def ev(word):
        return _evaluate(word, assign, inverses, n)

    outcomes = []

    def record(tag, lhs, rhs):
        holds = lhs == rhs
        outcomes.append(
            RelationOutcome(tag, holds, None if holds else lhs, None if holds else rhs)
        )

    s_hub = vertex_str(HUB)
    s_ext = vertex_str(EXT)
    sigma1 = sigma_word(HUB)
    for i in range(1, w.r + 1):
        si = vertex_str((i, 1))
        g = _word(si)
        record(f"W2/i={i} sigma", ev(g + sigma1 + g + sigma1), ev(sigma1 + g + sigma1 + g))
        record(
            f"W2/i={i} power",
            ev(_word(s_hub, si, s_ext, si) * 3),
            ident,
        )
    for i in range(1, w.r + 1):
        for j in range(i + 1, w.r + 1):
            si, sj = vertex_str((i, 1)), vertex_str((j, 1))
            gi, gj = _word(si), _word(sj)
            sig_i, sig_j = sigma_word((i, 1)), sigma_word((j, 1))
            record(f"W3a/i={i},j={j} sigma", ev(gi + sig_j), ev(sig_j + gi))
            record(
                f"W3a/i={i},j={j} power",
                ev(_word(si, s_hub, si, s_ext, sj, s_ext) * 2),
                ident,
            )
            record(f"W3b/i={i},j={j} sigma", ev(gj + sig_i), ev(sig_i + gj))
            record(
                f"W3b/i={i},j={j} power",
                ev(_word(si, s_ext, si, s_hub, sj, s_hub) * 2),
                ident,
            )
    return VerificationReport("PowerEquivalences", tuple(w.a), tuple(outcomes))
