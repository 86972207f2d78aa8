"""Weyl groups of star and octopus lattices as exact integer matrix groups.

Elements act on column coordinate vectors; the Cartan pairing I(x, y) is
evaluated as x^T I y.

Every generator is a transvection x -> x - (p . x) u, the matrix I - u p^T,
with sparse u and p: the simple reflection s_v is (e_v, C e_v), the
reflection at a norm-two vector alpha is (alpha, C alpha), and the
translation tau_v is (delta, C e_v).  One kernel applies them: x - (p . x) u
on vectors, M - (M u) p^T on matrices from the right and h - (h . u) p on
dual points, so a letter touches only the coordinates in the support of u
or p, and its inverse has a closed form.  Words are evaluated as row
updates, never as products of dense matrices.

Every WeylElement this module builds preserves the Cartan form.  The checks
behind that are made once, not on every product:

- a cached generator (simple reflection or translation) is checked with
  ``preserves_form`` when it is first built for its lattice;
- a reflection at any other vector is checked for I(alpha, alpha) = 2,
  which holds exactly when s_alpha is an isometry;
- products and inverses of isometries are isometries, so words, products
  and inverses are not re-checked;
- ``project_p`` checks that the star form is the form that the octopus form
  induces on the quotient by delta, so the image of an isometry that keeps
  the delta line is again an isometry.

A WeylElement constructed directly from a matrix is taken as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    BudgetExceeded,
    DeltaNotPreserved,
    NotNormTwo,
    NotStarVertex,
    UnknownGenerator,
    ValidationError,
)
from .exact import Mat, Vec, identity, mat_inv, mat_mul, mat_vec, transpose
from .lattice import RootLattice
from .quiver import EXT, vertex_str

Word = tuple[tuple[object, int], ...]
Sparse = tuple[tuple[int, int], ...]  # (index, value) of each nonzero entry

DEFAULT_ROOT_CAP = 200_000
GENERATOR_CACHE = 4096  # entries per generator cache, over all lattices


def _sparse(x: Vec) -> Sparse:
    return tuple((i, a) for i, a in enumerate(x) if a)


@dataclass(frozen=True)
class Transvection:
    """The map x -> x - (p . x) u, whose matrix is I - u p^T."""

    u: Sparse
    p: Sparse

    def apply(self, x: Vec) -> Vec:
        """x - (p . x) u on a column vector: only the support of u changes."""
        c = 0
        for j, b in self.p:
            c += b * x[j]
        if not c:
            return x
        y = list(x)
        for i, a in self.u:
            y[i] -= c * a
        return tuple(y)

    def act_right(self, rows: list[list]) -> None:
        """Replace each row r by r - (r . u) p, in place.

        On the rows of a matrix M this is the product M (I - u p^T); on one
        row of dual values h it is the dual action h -> h (I - u p^T).  Only
        the columns in the support of p change.
        """
        u, p = self.u, self.p
        for r in rows:
            c = 0
            for i, a in u:
                c += r[i] * a
            if c:
                for j, b in p:
                    r[j] -= c * b

    def inverse(self) -> "Transvection":
        """Closed form: I - u p^T is an involution when p . u = 2 (a
        reflection) and has inverse I + u p^T when p . u = 0 (a translation);
        for any other p . u its determinant 1 - p . u is not a unit."""
        p = dict(self.p)
        k = sum(a * p.get(i, 0) for i, a in self.u)
        if k == 2:
            return self
        if k == 0:
            return Transvection(tuple((i, -a) for i, a in self.u), self.p)
        raise ValueError(f"I - u p^T with p . u = {k} has no integral inverse")


def right_product(m: Mat, steps) -> Mat:
    """m times the ordered product of the steps (transvections or elements)."""
    rows = [list(r) for r in m]
    for step in steps:
        step.act_right(rows)
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class WeylElement:
    """An integer matrix with an optional word witness and factorisation.

    Every element this module builds preserves the Cartan form.  The checks
    that stay are ``preserves_form`` once per cached generator,
    I(alpha, alpha) = 2 for any other reflection, and the induced-form check
    in ``project_p``; they imply the dropped per-element check M^T I M = I,
    because products and inverses of isometries are isometries.

    ``factors``, when known, writes the matrix as the ordered product of
    transvections: it gives the inverse in closed form and lets products act
    by row updates.  An element built from a bare matrix has no factors; it
    is taken as given and falls back to dense products and ``mat_inv``.
    """

    matrix: Mat
    word: Word | None = None
    factors: tuple[Transvection, ...] | None = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def from_factors(cls, n: int, factors, word: Word | None = None) -> "WeylElement":
        factors = tuple(factors)
        return cls(right_product(identity(n), factors), word, factors)

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def apply(self, x: Vec) -> Vec:
        """A generator acts through its transvection, a product through its matrix."""
        if self.factors is not None and len(self.factors) == 1:
            return self.factors[0].apply(x)
        return mat_vec(self.matrix, x)

    def act_right(self, rows: list[list]) -> None:
        """rows <- rows M in place: by row updates when the factors are known."""
        if self.factors is None:
            rows[:] = [list(r) for r in mat_mul(rows, self.matrix)]
        else:
            for f in self.factors:
                f.act_right(rows)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        factors = None
        if self.factors is not None and other.factors is not None:
            factors = self.factors + other.factors
        return WeylElement(right_product(self.matrix, (other,)), word, factors)

    def inverse(self) -> "WeylElement":
        word = None if self.word is None else inverse_word(self.word)
        if self.factors is None:
            return WeylElement(mat_inv(self.matrix), word)
        factors = (f.inverse() for f in reversed(self.factors))
        return WeylElement.from_factors(self.rank, factors, word)

    def is_identity(self) -> bool:
        return self.matrix == identity(self.rank)

    def to_json(self) -> dict:
        word = None
        if self.word is not None:
            word = [[vertex_str(g), e] for g, e in self.word]
        return {"matrix": [list(row) for row in self.matrix], "word": word}


def preserves_form(lattice: RootLattice, m: Mat) -> bool:
    """M^T I M == I, entrywise."""
    return mat_mul(mat_mul(transpose(m), lattice.cartan), m) == lattice.cartan


def _checked(lattice: RootLattice, g: WeylElement) -> WeylElement:
    if not preserves_form(lattice, g.matrix):
        raise ValueError("matrix does not preserve the Cartan form")
    return g


def identity_element(lattice: RootLattice) -> WeylElement:
    return WeylElement.from_factors(lattice.rank, (), ())


def reflection_transvection(lattice: RootLattice, alpha: Vec) -> Transvection:
    """(alpha, C alpha): the reflection x -> x - I(x, alpha) alpha as a transvection.

    I(alpha, alpha) = 2 is the only check; it holds exactly when the map is
    an isometry of the Cartan form.
    """
    norm = lattice.form(alpha, alpha)
    if norm != 2:
        raise NotNormTwo(f"I(a, a) = {norm} != 2 for a = {alpha}")
    return Transvection(_sparse(alpha), _sparse(mat_vec(lattice.cartan, alpha)))


def reflection(lattice: RootLattice, alpha: Vec, word: Word | None = None) -> WeylElement:
    """Reflection x -> x - I(x, alpha) alpha at a norm-two vector."""
    return WeylElement.from_factors(
        lattice.rank, (reflection_transvection(lattice, alpha),), word
    )


@lru_cache(maxsize=GENERATOR_CACHE)
def simple_reflection(lattice: RootLattice, v) -> WeylElement:
    """The reflection at the simple root of v; built and form-checked once."""
    if v not in lattice.vertices:
        raise UnknownGenerator(f"no vertex {v!r} in this lattice")
    return _checked(lattice, reflection(lattice, lattice.basis_vector(v), word=((v, 1),)))


def evaluate_word(lattice: RootLattice, word) -> WeylElement:
    """Ordered product of simple reflections named by the word's letters.

    Each letter is one row update of the running product.  Exponent signs
    are retained in the witness but do not change the matrix of a single
    letter, reflections being involutions.
    """
    word = tuple((v, e) for v, e in word)
    steps = {
        v: simple_reflection(lattice, v).factors[0]
        for v in dict.fromkeys(v for v, _e in word)
    }
    return WeylElement.from_factors(lattice.rank, (steps[v] for v, _e in word), word)


def inverse_word(word: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(word))


def translation_word(v) -> Word:
    """Inductive word for the translation at a star vertex.

    The hub translation is the product of the two hub-side reflections; each
    arm vertex conjugates and divides by its predecessor's translation.
    """
    if v == "1":
        return (("1", 1), (EXT, 1))
    if isinstance(v, tuple):
        i, j = v
        prev = translation_word("1") if j == 1 else translation_word((i, j - 1))
        return ((v, 1),) + prev + ((v, 1),) + inverse_word(prev)
    raise NotStarVertex(f"{v!r} has no translation")


@lru_cache(maxsize=GENERATOR_CACHE)
def translation_element(lattice: RootLattice, v) -> WeylElement:
    """Translation x -> x - I(x, e_v) delta on an octopus lattice.

    Built from its closed form and form-checked once; its inverse is
    x -> x + I(x, e_v) delta.
    """
    if v == EXT or v not in lattice.vertices:
        raise NotStarVertex(f"{v!r} is not a star vertex of this lattice")
    step = Transvection(
        _sparse(lattice.delta), _sparse(mat_vec(lattice.cartan, lattice.basis_vector(v)))
    )
    return _checked(
        lattice, WeylElement.from_factors(lattice.rank, (step,), translation_word(v))
    )


def _split_matrix(lattice: RootLattice, m: Mat) -> Mat:
    n = lattice.rank
    cols = []
    for k in range(n):
        unit = tuple(int(i == k) for i in range(n))
        cols.append(lattice.to_split(mat_vec(m, lattice.from_split(unit))))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def project_p(lattice: RootLattice, w: WeylElement) -> WeylElement:
    """Induced action on the quotient by the delta line, in star coordinates."""
    split = _split_matrix(lattice, w.matrix)
    n = lattice.rank
    if any(split[i][n - 1] != 0 for i in range(n - 1)) or split[n - 1][n - 1] not in (1, -1):
        raise DeltaNotPreserved("matrix does not preserve the delta line")
    star = lattice.star_lattice()
    if star.cartan != tuple(row[: n - 1] for row in lattice.cartan[: n - 1]):
        raise ValueError("the star form is not the form induced on the quotient by delta")
    block = tuple(row[: n - 1] for row in split[: n - 1])
    word = None
    if w.word is not None:
        word = tuple(("1" if g == EXT else g, e) for g, e in w.word)
    return WeylElement(block, word)


def lift_i(lattice: RootLattice, v) -> WeylElement:
    """Section of the projection on generators: the octopus reflection at a star vertex."""
    if v == EXT:
        raise NotStarVertex("the extension vertex does not lift")
    if v not in lattice.vertices:
        raise NotStarVertex(f"{v!r} is not a vertex of this lattice")
    return simple_reflection(lattice, v)


def root_orbit(
    lattice: RootLattice,
    basis: tuple[Vec, ...],
    word_depth: int,
    cap: int = DEFAULT_ROOT_CAP,
) -> tuple[tuple[Vec, ...], bool]:
    """Breadth-first closure of a set of norm-two vectors under their reflections.

    Returns the sorted closure after word_depth rounds and whether it had
    already stabilized.  Raises BudgetExceeded when the closure outgrows cap.
    """
    gens = [reflection_transvection(lattice, b) for b in basis]
    seen: set[Vec] = set(basis)
    frontier = list(basis)
    stabilized = False
    for _ in range(word_depth):
        new = []
        for g in gens:
            for x in frontier:
                y = g.apply(x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > cap:
                        raise BudgetExceeded(f"root closure exceeded cap {cap}")
        if not new:
            stabilized = True
            break
        frontier = new
    else:
        # One probe round to detect stabilization exactly at word_depth.
        stabilized = all(
            g.apply(x) in seen for g in gens for x in frontier
        )
    return tuple(sorted(seen)), stabilized


def enumerate_real_roots(
    lattice: RootLattice, word_depth: int, cap: int = DEFAULT_ROOT_CAP
) -> tuple[Vec, ...]:
    """Real roots reachable from the simple roots within word_depth reflections."""
    if word_depth < 0:
        raise ValidationError("word_depth must be >= 0")
    basis = tuple(lattice.basis_vector(v) for v in lattice.vertices)
    roots, _ = root_orbit(lattice, basis, word_depth, cap)
    return roots


def enumerate_until_stable(
    lattice: RootLattice, max_depth: int = 64, cap: int = DEFAULT_ROOT_CAP
) -> tuple[Vec, ...]:
    """Full root enumeration for a finite system; raises if it does not stabilize."""
    basis = tuple(lattice.basis_vector(v) for v in lattice.vertices)
    roots, stabilized = root_orbit(lattice, basis, max_depth, cap)
    if not stabilized:
        raise BudgetExceeded(f"root system did not stabilize within depth {max_depth}")
    return roots


@dataclass(frozen=True)
class Finite:
    order: int


@dataclass(frozen=True)
class Truncated:
    explored: int


def group_enumerate(
    lattice: RootLattice, cap: int, generators: tuple[WeylElement, ...] | None = None
) -> Finite | Truncated:
    """Breadth-first closure of the generator matrices under multiplication."""
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    if generators is None:
        generators = tuple(simple_reflection(lattice, v) for v in lattice.vertices)
    seen = {identity(lattice.rank)}
    frontier = list(seen)
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                prod = right_product(m, (g,))
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    if len(seen) > cap:
                        return Truncated(explored=len(seen))
        frontier = new
    return Finite(order=len(seen))


def coxeter_element(lattice: RootLattice) -> WeylElement:
    """Product of the simple reflections in canonical vertex order."""
    return evaluate_word(lattice, tuple((v, 1) for v in lattice.vertices))


def serre_coxeter_matrix(lattice: RootLattice) -> Mat:
    """-C^{-1} C^T: the lattice shadow of the shifted Serre functor."""
    inv = mat_inv(lattice.euler)
    prod = mat_mul(inv, transpose(lattice.euler))
    return tuple(tuple(-x for x in row) for row in prod)


def order_of(w: WeylElement, cap: int) -> Finite | Truncated:
    """Multiplicative order of an element, probed up to cap."""
    power = w.matrix
    ident = identity(w.rank)
    for k in range(1, cap + 1):
        if power == ident:
            return Finite(order=k)
        power = right_product(power, (w,))
    return Truncated(explored=cap)
