"""Lattice shadow of exceptional collections: braid mutations and twists.

A collection is an ordered tuple of lattice vectors; it is numerically
exceptional when its Euler Gram matrix is unit upper triangular in
collection order, and full when the class matrix is unimodular.  Braid
moves mutate neighbouring pairs through reflections with a sign, the shift
move negates one class, and both preserve numerical exceptionality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import IndexOutOfRange, NotNormOne, NotNormTwo, RankMismatch
from .exact import Mat, Vec, determinant, vec_neg
from .lattice import RootLattice
from .weyl import WeylElement, reflection_transvection


@dataclass(frozen=True)
class KCollection:
    """Ordered classes spanning (part of) a root lattice."""

    classes: tuple[Vec, ...]
    lattice: RootLattice

    def __post_init__(self):
        if len(self.classes) != self.lattice.rank:
            raise RankMismatch(
                f"{len(self.classes)} classes on a rank {self.lattice.rank} lattice"
            )

    def __len__(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "weights": list(self.lattice.weights.a),
            "kind": self.lattice.kind,
            "classes": [list(c) for c in self.classes],
        }


def simples_collection(lattice: RootLattice) -> KCollection:
    return KCollection(
        tuple(lattice.basis_vector(v) for v in lattice.vertices), lattice
    )


@dataclass(frozen=True)
class ExceptionalityCheck:
    ok: bool
    witness: tuple | None = None  # (i, j, value, expected) on first failure


def euler_gram(k: KCollection) -> Mat:
    ef = k.lattice.euler_form
    return tuple(
        tuple(ef(x, y) for y in k.classes) for x in k.classes
    )


def numerically_exceptional(k: KCollection) -> ExceptionalityCheck:
    """Unit upper triangularity of the Euler Gram matrix, with first failure."""
    gram = euler_gram(k)
    n = len(gram)
    for i in range(n):
        if gram[i][i] != 1:
            return ExceptionalityCheck(False, (i, i, gram[i][i], 1))
        for j in range(i):
            if gram[i][j] != 0:
                return ExceptionalityCheck(False, (i, j, gram[i][j], 0))
    return ExceptionalityCheck(True)


def is_full(k: KCollection) -> bool:
    return determinant(k.classes) in (1, -1)


Move = tuple  # ("b", i, +1) | ("b", i, -1) | ("e", i)

_MOVE_RE = re.compile(r"^([bBe])(\d+)$")


def parse_move(token: str) -> Move:
    """b3 is the braid move at slot 3, B3 its inverse, e3 the shift at 3."""
    m = _MOVE_RE.match(token.strip())
    if not m:
        raise ValueError(f"cannot parse mutation token {token!r}")
    sym, i = m.group(1), int(m.group(2))
    if sym == "b":
        return ("b", i, 1)
    if sym == "B":
        return ("b", i, -1)
    return ("e", i)


def parse_braid_word(text: str) -> tuple[Move, ...]:
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    return tuple(parse_move(t) for t in tokens)


def braid_act(k: KCollection, move: Move) -> KCollection:
    """Apply one mutation or shift; returns a new collection.

    The braid move at slot i swaps the pair and replaces the moved class by
    the negated reflection through its new neighbour; the pivot class must
    have unit self-pairing or the reflection does not exist.
    """
    mu = len(k)
    classes = list(k.classes)
    lat = k.lattice
    if move[0] == "e":
        i = move[1]
        if not 1 <= i <= mu:
            raise IndexOutOfRange(f"shift index {i} outside 1..{mu}")
        classes[i - 1] = vec_neg(classes[i - 1])
        return KCollection(tuple(classes), lat)
    _, i, sign = move
    if not 1 <= i <= mu - 1:
        raise IndexOutOfRange(f"braid index {i} outside 1..{mu - 1}")
    x, y = classes[i - 1], classes[i]
    pivot = y if sign > 0 else x
    if lat.euler_form(pivot, pivot) != 1:
        raise NotNormOne(f"pivot class {pivot} has self-pairing != 1")
    refl = reflection_transvection(lat, pivot)
    if sign > 0:
        classes[i - 1], classes[i] = y, vec_neg(refl.apply(x))
    else:
        classes[i - 1], classes[i] = vec_neg(refl.apply(y)), x
    return KCollection(tuple(classes), lat)


def braid_word_act(k: KCollection, moves) -> KCollection:
    for move in moves:
        k = braid_act(k, move)
    return k


def coxeter_from_collection(k: KCollection) -> WeylElement:
    """Ordered product of the reflections at the classes of the collection."""
    return WeylElement.from_factors(
        k.lattice.rank, (reflection_transvection(k.lattice, x) for x in k.classes)
    )


def spherical_twist_K(lattice: RootLattice, s: Vec, x: Vec) -> Vec:
    """Twist action on a class: x - I(s, x) s at a norm-two class s."""
    norm = lattice.form(s, s)
    if norm != 2:
        raise NotNormTwo(f"I(s, s) = {norm} != 2, not a spherical class")
    coeff = lattice.form(s, x)
    return tuple(a - coeff * b for a, b in zip(x, s))


def twist_matrix(lattice: RootLattice, s: Vec) -> Mat:
    """Matrix of the twist at s, assembled column by column from its action."""
    n = lattice.rank
    cols = [
        spherical_twist_K(lattice, s, tuple(int(i == j) for i in range(n)))
        for j in range(n)
    ]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
