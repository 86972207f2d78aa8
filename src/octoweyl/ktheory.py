"""Lattice shadow of exceptional collections: braid mutations and twists.

A collection is an ordered tuple of lattice classes, each kept as its
support: the (index, value) pairs of its nonzero entries, in index order.
It is numerically exceptional when its Euler Gram matrix is unit upper
triangular in collection order, and full when the class matrix is
unimodular.  Braid moves mutate neighbouring pairs through reflections with
a sign, the shift move negates one class, and both preserve numerical
exceptionality and the Coxeter element, the ordered product of the
reflections at the classes (W. Crawley-Boevey, "Exceptional sequences of
representations of quivers", 1993; C. M. Ringel, "The braid group action on
the set of exceptional sequences of a hereditary Artin algebra", 1994).

A class in these collections has one to three nonzero entries, so every
pairing is a sum over the supports of the classes and no dense n x n matrix
is formed.  A braid move reads and writes the supports of the two classes
it touches; dense classes are built only on request, for output.
Exceptionality pairs each Gram row x^T E only with the earlier classes
nonzero where it is, and names the failure a dense scan would name first.
Fullness is decided by the sparse fraction-free elimination of
``exact.sparse_determinant``.  The reflection at a class, which a braid
move and the Coxeter element of a collection use, is memoised per lattice
and support.

A single move changes a collection only in a window of adjacent positions,
which ``changed_window`` finds by comparing the classes, so no changed
class lies outside it.  Against the simples, whose class matrix is the
identity, the invariants of the image are decided over that window alone:
the Coxeter element by cancellation (``coxeter_agrees_on_window``), and
exceptionality with fullness by the Gram rows and columns and the minor of
the class matrix in the window (``preserved_on_window``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import ne

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
    dense_rows,
    identity,
    sparse,
    sparse_determinant,
    sparse_dot,
    sparse_mat_vec,
    sparse_vec_mat,
)
from .lattice import RootLattice
from .weyl import WeylElement, multiply, product_rows, support_reflection


@dataclass(frozen=True)
class KCollection:
    """Ordered classes spanning (part of) a root lattice, each kept as its
    support: the (index, value) pairs of its nonzero entries in index order.
    Two collections on one lattice are equal exactly when their classes are.
    """

    supports: tuple[Sparse, ...]
    lattice: RootLattice

    def __post_init__(self):
        if len(self.supports) != self.lattice.rank:
            raise RankMismatch(
                f"{len(self.supports)} classes on a rank {self.lattice.rank} lattice"
            )

    @classmethod
    def from_classes(cls, classes, lattice: RootLattice) -> "KCollection":
        """The collection of the given dense classes."""
        return cls(tuple(map(sparse, classes)), lattice)

    def __len__(self) -> int:
        return len(self.supports)

    @cached_property
    def classes(self) -> tuple[Vec, ...]:
        """The dense classes, built on request."""
        return dense_rows(self.supports, self.lattice.rank)

    @cached_property
    def _unit_failures(self) -> tuple[tuple[int, int], ...]:
        """For classes that are the unit vectors in order, whose Gram matrix
        is the Euler matrix E: the entries (i, j) of E that break unit upper
        triangularity.  Raises ValueError for any other classes."""
        if self.supports != _unit_supports(len(self)):
            raise ValueError("the classes are not the unit vectors in order")
        failures = []
        for i, row in enumerate(self.lattice.euler_rows):
            if dict(row).get(i) != 1:
                failures.append((i, i))
            failures += [(i, j) for j, _e in row if j < i]
        return tuple(failures)


def _unit_supports(n: int) -> tuple[Sparse, ...]:
    return tuple(((i, 1),) for i in range(n))


def simples_collection(lattice: RootLattice) -> KCollection:
    """The simple classes e_v in vertex order: the unit vectors."""
    return KCollection(_unit_supports(lattice.rank), lattice)


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

    The braid move at slot i swaps the pair and replaces the moved class z
    by the negated reflection through its new neighbour, the pivot p:
    -s_p(z) = I(z, p) p - z.  The pivot must have unit self-pairing, that
    is I(p, p) = 2 since I = E + E^T, or the reflection does not exist.
    Only the supports of the pair are read.
    """
    mu = len(k)
    supports = list(k.supports)
    lat = k.lattice
    if move[0] == "e":
        i = move[1]
        if not 1 <= i <= mu:
            raise IndexOutOfRange(f"shift index {i} outside 1..{mu}")
        supports[i - 1] = tuple((j, -a) for j, a in supports[i - 1])
        return KCollection(tuple(supports), lat)
    _, i, sign = move
    if not 1 <= i <= mu - 1:
        raise IndexOutOfRange(f"braid index {i} outside 1..{mu - 1}")
    x, y = supports[i - 1], supports[i]
    pivot, z = (y, x) if sign > 0 else (x, y)
    try:
        p = support_reflection(lat, pivot).p
    except NotNormTwo:
        dense = dense_rows((pivot,), lat.rank)[0]
        raise NotNormOne(f"pivot class {dense} has self-pairing != 1") from None
    c = sparse_dot(dict(z), p)
    moved = {j: -a for j, a in z}
    if c:
        for j, a in pivot:
            moved[j] = moved.get(j, 0) + c * a
    moved = tuple(sorted((j, a) for j, a in moved.items() if a))
    if sign > 0:
        supports[i - 1], supports[i] = y, moved
    else:
        supports[i - 1], supports[i] = moved, x
    return KCollection(tuple(supports), lat)


def braid_word_act(k: KCollection, moves) -> KCollection:
    for move in moves:
        k = braid_act(k, move)
    return k


def coxeter_from_collection(k: KCollection) -> WeylElement:
    """Ordered product of the reflections at the classes of the collection."""
    lat = k.lattice
    return multiply(lat.rank, (support_reflection(lat, x) for x in k.supports))


def changed_window(k: KCollection, image: KCollection) -> range:
    """The positions from the first to the last at which the classes of
    image differ from those of k, found by comparing every class; empty
    when none differs."""
    changed = list(compress(count(), map(ne, k.supports, image.supports)))
    return range(changed[0], changed[-1] + 1) if changed else range(0)


def coxeter_agrees_on_window(k: KCollection, image: KCollection, window: range) -> bool:
    """Whether image, which has the classes of k outside ``window``, has the
    Coxeter element of k.

    With A and B the products of the reflections before and after the
    window, the Coxeter elements are c = A X B and c' = A Y B, X and Y the
    products over the window.  By cancellation in the group, c = c' exactly
    when X = Y, so only the reflections in the window are multiplied.
    """
    lat = k.lattice

    def product(c: KCollection) -> dict[int, Vec]:
        return product_rows(lat.rank, [support_reflection(lat, c.supports[i]) for i in window])

    return product(k) == product(image)


def preserved_on_window(k: KCollection, image: KCollection, window: range) -> bool:
    """``numerically_exceptional(image).ok and is_full(image)``, for an
    image that has the classes of k outside ``window``, where the classes
    of k are the unit vectors in order; raises ValueError when they are not.

    The Gram matrix of k is then the Euler matrix E, and the image's Gram
    entries with both indices outside the window are those of E, so the
    failing entries of E there are carried over.  For a class x_i in the
    window, row i of the Gram matrix is x_i^T E: it must be 1 at x_i and 0
    at the unit classes before the window and at the window's classes
    before i.  Its column is E x_i = C x_i - (x_i^T E)^T, with C = E + E^T
    symmetric, and must be 0 at the unit classes after the window.  Every
    other entry lies above the diagonal.  The class matrix is the identity
    outside the rows in the window, so its determinant is the minor on the
    window's rows and columns.
    """
    failures = k._unit_failures
    lat = k.lattice
    a, b = window.start, window.stop
    if any(not (a <= i < b or a <= j < b) for i, j in failures):
        return False
    classes = image.supports[a:b]
    for m, x in enumerate(classes):
        row = sparse_vec_mat(x, lat.euler_rows)
        if sparse_dot(row, x) != 1 or any(c < a and e for c, e in row.items()):
            return False
        if any(sparse_dot(row, y) for y in classes[:m]):
            return False
        column = sparse_vec_mat(x, lat.cartan_rows)
        for c, e in row.items():
            column[c] = column.get(c, 0) - e
        if any(c >= b and e for c, e in column.items()):
            return False
    minor = tuple(tuple((j - a, e) for j, e in x if a <= j < b) for x in classes)
    return sparse_determinant(minor) in (1, -1)


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
