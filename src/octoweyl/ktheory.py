"""Lattice shadow of exceptional collections: braid mutations and twists.

A collection is an ordered tuple of lattice vectors; it is numerically
exceptional when its Euler Gram matrix is unit upper triangular in
collection order, and full when the class matrix is unimodular.  Braid
moves mutate neighbouring pairs through reflections with a sign, the shift
move negates one class, and both preserve numerical exceptionality.

A class in these collections has one to three nonzero entries, so every
pairing is a sum over the supports of the classes and no dense n x n matrix
is formed.  Exceptionality pairs each Gram row x^T E only with the earlier
classes nonzero where it is, and names the failure a dense scan would name
first.  Fullness is decided by the sparse fraction-free elimination of
``exact.sparse_determinant``.  The reflection at a class, which a braid move
and the Coxeter element of a collection use, is memoised per lattice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    IndexOutOfRange,
    NotNormOne,
    NotNormTwo,
    RankMismatch,
    ValidationError,
)
from .exact import (
    Sparse,
    Vec,
    identity,
    sparse,
    sparse_determinant,
    sparse_mat_vec,
    vec_neg,
)
from .lattice import RootLattice
from .weyl import WeylElement, multiply, reflection_transvection


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

    @cached_property
    def supports(self) -> tuple[Sparse, ...]:
        """The nonzero entries of each class."""
        return tuple(map(sparse, self.classes))


def simples_collection(lattice: RootLattice) -> KCollection:
    return KCollection(
        tuple(lattice.basis_vector(v) for v in lattice.vertices), lattice
    )


@dataclass(frozen=True)
class ExceptionalityCheck:
    ok: bool
    witness: tuple | None = None  # (i, j, value, expected) on first failure


def numerically_exceptional(k: KCollection) -> ExceptionalityCheck:
    """Unit upper triangularity of the Euler Gram matrix, with first failure.

    The Gram row x_i^T E is the sum of the Euler rows in the support of x_i,
    and each of its entries is paired only with the classes j <= i nonzero
    at that coordinate, found through an index of the classes by coordinate;
    the other entries of row i are zero.  Row by row, the diagonal is
    checked first, then the lowest j < i.
    """
    euler = k.lattice.euler_rows
    holders: dict[int, list[tuple[int, int]]] = {}  # coordinate -> (j, x_j there)
    for i, xs in enumerate(k.supports):
        for c, a in xs:
            holders.setdefault(c, []).append((i, a))
        row: dict[int, int] = {}
        for c, a in xs:
            for d, e in euler[c]:
                for j, b in holders.get(d, ()):
                    row[j] = row.get(j, 0) + a * e * b
        diagonal = row.pop(i, 0)
        if diagonal != 1:
            return ExceptionalityCheck(False, (i, i, diagonal, 1))
        below = [j for j, value in row.items() if value]
        if below:
            j = min(below)
            return ExceptionalityCheck(False, (i, j, row[j], 0))
    return ExceptionalityCheck(True)


def is_full(k: KCollection) -> bool:
    """Whether the class matrix is unimodular, by sparse elimination."""
    return sparse_determinant(k.supports) in (1, -1)


Move = tuple  # ("b", i, +1) | ("b", i, -1) | ("e", i)

_MOVE_RE = re.compile(r"^([bBe])(\d+)$")


def parse_move(token: str) -> Move:
    """b3 is the braid move at slot 3, B3 its inverse, e3 the shift at 3."""
    m = _MOVE_RE.match(token.strip())
    if not m:
        raise ValidationError(f"cannot parse mutation token {token!r}")
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
    return multiply(
        k.lattice.rank, (reflection_transvection(k.lattice, x) for x in k.classes)
    )


def spherical_twist_K(lattice: RootLattice, s: Vec, x: Vec) -> Vec:
    """Twist action on a class: x - I(s, x) s at a norm-two class s."""
    _require_spherical(lattice, s)
    coeff = lattice.form(s, x)
    return tuple(a - coeff * b for a, b in zip(x, s))


def _require_spherical(lattice: RootLattice, s: Vec) -> None:
    norm = lattice.form(s, s)
    if norm != 2:
        raise NotNormTwo(f"I(s, s) = {norm} != 2, not a spherical class")


def twist_rows(lattice: RootLattice, s: Vec) -> tuple[tuple[int, Vec], ...]:
    """The moved rows of the twist at s, read off its action on unit vectors.

    The twist fixes e_k unless I(s, e_k) != 0, that is unless k is in the
    support of C s, so only those images are read; the rows that differ
    from the identity are those in the support of s.
    """
    _require_spherical(lattice, s)
    unit = identity(lattice.rank)
    rows = {i: list(unit[i]) for i, _a in sparse(s)}
    for k, _c in sparse(sparse_mat_vec(lattice.cartan_rows, s)):
        image = spherical_twist_K(lattice, s, unit[k])
        for i, row in rows.items():
            row[k] = image[i]
    return tuple((i, tuple(row)) for i, row in rows.items())
