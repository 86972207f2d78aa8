"""Weyl groups of star and octopus lattices as exact integer matrix groups.

Elements act on column coordinate vectors; the Cartan pairing I(x, y) is
evaluated as x^T I y.

Every generator is a transvection x -> x - (p . x) u, the matrix I - u p^T,
with sparse u and p: the simple reflection s_v is (e_v, C e_v), the
reflection at a norm-two vector alpha is (alpha, C alpha), and the
translation tau_v is (delta, C e_v).  Each has a closed-form inverse.

Every element acts by one rule.  A generator keeps its transvection as
``WeylElement.step`` and acts through it, touching only the coordinates in
the support of u or p: x - (p . x) u on vectors, M - (M u) p^T on matrices
from the right and h - (h . u) p on dual points.  Any other element, a
word, a product or a Coxeter element among them, is M = I + D, where D is
nonzero only in the rows in which M differs from the identity, its moved
rows, and acts over those rows alone: x -> x + D x on vectors and
r -> r + sum_k r[k] D_k on rows.  Since every step names the rows it
moves, ``product_rows`` multiplies a word over those rows, starting from
none, and returns the rows that differ from the identity; relation checks
compare these row dicts.  A relation on one or two generators often
needs no product: ``holds_by_pairings`` reads it off the pairings of their
transvections.  An involution x^2 = 1 holds when p . u = 2; a commutation
is decided either way by ``transvections_commute``; a braid xyx = yxy
holds when p_a . u_a = p_b . u_b = 2 and (p_a . u_b)(p_b . u_a) = 1, for
then xy has order 3 (the proof is at the kernel; for simple reflections
it is Kac, Infinite-dimensional Lie algebras, Prop. 3.13).  A
``PairingIndex`` over named generators skips the kernel for a commutation
whose two pairings are zero.  An element is its moved rows, and its dense
matrix is built only on request.  The projection to the star lattice
conjugates by the split basis change T of ``lattice.to_split``, itself a
transvection, in one ``product_rows`` call over T, the element and T^-1.

A translation witness follows the induction tau_v = s_v tau_prev s_v
tau_prev^-1 and has 2^(j+2) - 2 letters at arm depth j, so it is kept as a
straight-line program, a ``WordProgram``: a DAG of named subwords whose
inverse is a flag and whose length is counted, not expanded.
``evaluate_program`` multiplies it out by memoised products of its
subwords, O(arm length) products where the flat word had 2^(j+2) letters
(M. Lohrey and S. Schleimer, "Efficient computation in groups via
compression", CSR 2007).  Iterating a program yields its letters in order.

A witness is a label, set where a word is built and read where it is
evaluated: ``evaluate_word``, the generators, ``translation_element`` and
``evaluate_program`` keep theirs, while products, inverses and projections
carry none.  Two elements are equal when their ranks and rows are.  A word
that only has to act on a few rows need not become an element:
``act_word`` applies its letters' simple transvections to the rows in turn,
which gives the rows times the matrix of ``evaluate_word``.

Every WeylElement this module builds preserves the Cartan form.  The checks
behind that are made once, not on every product:

- a cached generator (simple reflection or translation) I - u p^T is
  checked when it is first built for its lattice, with q = I u, by
  q p^T + p q^T = I(u, u) p p^T over the supports of p and q
  (``transvection_preserves_form``); the dense M^T I M = I of
  ``preserves_form`` is the tests' oracle for it;
- a reflection at any other vector is checked for I(alpha, alpha) = 2,
  which holds exactly when s_alpha is an isometry;
- products and inverses of isometries are isometries, so words, products
  and inverses are not re-checked;
- the star lattice of an octopus is checked once, on its first lookup, to
  carry the form that the octopus form induces on the quotient by delta, so
  the image of an isometry that keeps the delta line is an isometry.

A WeylElement built by ``WeylElement.from_matrix`` is taken as given.

A root closure grows breadth-first layers, one round of reflections at a
time, and keeps them per (lattice, basis).  The shell ``_ClosureLayers``
holds the depth, the cap contract of a round, the probe and the sorted
windows; a kernel supplies its round, how it stores a round and how it
lists the roots of a depth.  On a star, ``_RootLayers`` works root by
root.  An octopus root is, in split coordinates, a star part beta plus a
delta level m, and a basis root b splits as (b', l).  Since delta
spans a line in the radical of the Cartan form, I(b, x) depends on the star
part of x alone, so the reflection at b sends (beta, m) to
(beta - c b', m - c l) with c = I(b, x) for any x over beta.  The octopus
layers ``_OctopusLayers`` group each layer by star class and work out each
class's pairings and target classes once, for all of its delta levels; they
check C delta = 0 once, when they are built.  A star closure meets each
class once, so a class table would only add work there, and stars keep the
per-root kernel.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import (
    BudgetExceeded,
    DeltaNotPreserved,
    DimensionMismatch,
    NotNormTwo,
    NotOctopus,
    NotStarVertex,
    UnknownGenerator,
    ValidationError,
)
from .exact import (
    Mat,
    Sparse,
    Vec,
    dense_rows,
    identity,
    mat_inv,
    mat_mul,
    sparse,
    sparse_dot,
    sparse_mat_vec,
    sparse_vec_mat,
    transpose,
)
from .lattice import RootLattice
from .quiver import EXT

Word = tuple[tuple[object, int], ...]

DEFAULT_ROOT_CAP = 500_000
GENERATOR_CACHE = 4096  # entries per generator cache, over all lattices
ROOT_WINDOW_CACHE = 2  # (lattice, basis) pairs whose root layers are kept


@dataclass(frozen=True)
class Transvection:
    """The map x -> x - (p . x) u, whose matrix is I - u p^T.

    ``moved`` is the support of u, the rows in which I - u p^T differs from
    the identity, and ``p_row`` is p as {index: value}, both stored once.
    """

    u: Sparse
    p: Sparse
    moved: tuple[int, ...] = field(init=False, compare=False, repr=False)
    p_row: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "moved", tuple(i for i, _a in self.u))
        object.__setattr__(self, "p_row", dict(self.p))

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

    def act_right(self, rows) -> None:
        """Replace each row r (a list) by r - (r . u) p, in place.

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
        k = sparse_dot(self.p_row, self.u)
        if k == 2:
            return self
        if k == 0:
            return Transvection(tuple((i, -a) for i, a in self.u), self.p)
        raise ValueError(f"I - u p^T with p . u = {k} has no integral inverse")


def _rank_one(c: int, u: Sparse, p: Sparse) -> dict[tuple[int, int], int]:
    """c u p^T as {(i, j): entry} over its nonzero entries."""
    return {(i, j): c * a * b for i, a in u for j, b in p if c * a * b}


def transvections_commute(a: Transvection, b: Transvection) -> bool:
    """Whether I - u_a p_a^T and I - u_b p_b^T commute, from their pairings.

    The two products are I - u_a p_a^T - u_b p_b^T plus (p_a . u_b) u_a p_b^T
    and (p_b . u_a) u_b p_a^T respectively, so they are equal exactly when
    these rank-one matrices are.  When both pairings vanish, so do both
    matrices and no entry is compared.  No row of length n is built.
    """
    ab, ba = sparse_dot(a.p_row, b.u), sparse_dot(b.p_row, a.u)
    if not (ab or ba):
        return True
    return _rank_one(ab, a.u, b.p) == _rank_one(ba, b.u, a.p)


# The relation kinds on one or two generators: x x = 1, x y = y x, x y x = y x y.
INVOLUTION, COMMUTE, BRAID = "involution", "commute", "braid"


def holds_by_pairings(kind: str, a: Transvection, b: Transvection) -> bool:
    """Whether the pairings of a and b show the relation of ``kind`` on
    A = I - u_a p_a^T and B = I - u_b p_b^T to hold; False leaves it undecided.

    - involution (b = a): A^2 = I - (2 - p_a . u_a) u_a p_a^T, so A^2 = I
      when p_a . u_a = 2;
    - commute: ``transvections_commute``, which decides either way;
    - braid ABA = BAB: holds when p_a . u_a = p_b . u_b = 2 and
      (p_a . u_b)(p_b . u_a) = 1.  The Gram matrix of the pairings then has
      determinant 3, so u_a, u_b are independent and V is the direct sum of
      span(u_a, u_b) and ker p_a n ker p_b.  Both parts are invariant, A and
      B fix the second, and on the first AB has trace -1 and determinant 1,
      so (AB)^3 = I, which with A^2 = B^2 = I is ABA = BAB.  For two simple
      reflections with a_ab a_ba = 1 this is the order 3 of s_a s_b (Kac,
      Infinite-dimensional Lie algebras, Prop. 3.13).
    """
    if kind == COMMUTE:
        return transvections_commute(a, b)
    if sparse_dot(a.p_row, a.u) != 2:
        return False
    if kind == INVOLUTION:
        return True
    cross = sparse_dot(a.p_row, b.u) * sparse_dot(b.p_row, a.u)
    return sparse_dot(b.p_row, b.u) == 2 and cross == 1


class PairingIndex:
    """Relations on named generators, decided from their transvections.

    ``steps`` maps each generator of the index to its transvection.  An
    index from each coordinate to the generators whose u touches it gives,
    for each generator x, ``near[x]``: the generators y whose u meets the
    support of p_x, so that p_x . u_y = 0 for every other y.  A commutation
    of x and y with y not near x and x not near y has both pairings zero and
    holds with no kernel call; every other relation on generators of the
    index goes to ``holds_by_pairings``.  A relation on a generator outside
    the index is undecided, so the index of no generators decides nothing.
    """

    def __init__(self, steps: dict):
        self.steps = steps
        touching: dict[int, list] = {}
        for name, t in steps.items():
            for i in t.moved:
                touching.setdefault(i, []).append(name)
        self.near = {
            name: {y for j, _b in t.p for y in touching.get(j, ())} for name, t in steps.items()
        }

    def holds(self, kind: str, x, y) -> bool:
        """Whether the relation of ``kind`` on x and y holds by the pairings;
        False leaves it undecided."""
        near_x, near_y = self.near.get(x), self.near.get(y)
        if near_x is None or near_y is None:
            return False
        if kind == COMMUTE and y not in near_x and x not in near_y:
            return True
        return holds_by_pairings(kind, self.steps[x], self.steps[y])


def product_rows(n: int, steps, start: dict[int, Vec] | None = None) -> dict[int, Vec]:
    """The ordered product of the steps, as the rows that differ from I_n.

    A step (a transvection or an element) names in ``moved`` the rows in
    which it can differ from the identity; every other unit row e_i passes
    through it unchanged.  So the product starts from no rows (or from the
    moved rows ``start`` of a left factor), takes unit row i in when a step
    first moves row i, and multiplies only the rows it holds.  A row that
    has gone back to its unit row is left out, so two products are equal
    exactly when their dicts are equal, and the identity is the empty dict.
    """
    rows = {} if start is None else {i: list(row) for i, row in start.items()}
    for step in steps:
        for i in step.moved:
            if i not in rows:
                row = rows[i] = [0] * n
                row[i] = 1
        step.act_right(rows.values())
    ident = identity(n)
    out = {}
    for i, row in rows.items():
        row = tuple(row)
        if row != ident[i]:
            out[i] = row
    return out


def expand_rows(n: int, rows: dict[int, Vec]) -> Mat:
    """The n x n matrix with the given rows and unit rows elsewhere."""
    return tuple(map(rows.get, range(n), identity(n)))


def multiply(n: int, steps, word: Witness | None = None) -> WeylElement:
    """The element of the ordered product of the steps, by ``product_rows``,
    with the given witness."""
    rows = product_rows(n, steps)
    return WeylElement(n, tuple(sorted(rows.items())), word)


class WordProgram:
    """A straight-line word: its parts in order, each a letter (g, e) or a
    WordProgram, or with ``inverted`` set the inverse of that word.

    Subprograms are shared, not copied, so nodes are immutable and the
    expanded length ``length`` can be exponential in the number of nodes;
    it is counted when a node is built, and ``len`` returns it while it
    fits in an index (below 2^63).  Iteration expands the letters, an
    inverted node yielding its parts in reverse order with negated
    exponents; ``repr`` never expands a program.  Programs compare and hash
    by identity: a program is evaluated, never compared.
    """

    # A plain slotted class: building a dataclass costs milliseconds at import.
    __slots__ = ("parts", "inverted", "length")

    def __init__(self, parts, inverted: bool = False):
        parts = tuple(parts)
        length = sum(p.length if isinstance(p, WordProgram) else 1 for p in parts)
        for name, value in zip(self.__slots__, (parts, inverted, length)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"WordProgram is immutable; cannot set {name!r}")

    def inverse(self) -> "WordProgram":
        return WordProgram(self.parts, not self.inverted)

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        stack = [(self, False)]
        while stack:
            item, flip = stack.pop()
            if isinstance(item, WordProgram):
                flip ^= item.inverted
                # The stack pops last first, so push the parts reversed
                # unless they are to come out reversed.
                stack.extend((p, flip) for p in (item.parts if flip else reversed(item.parts)))
            else:
                g, e = item
                yield (g, -e) if flip else item

    def __repr__(self) -> str:
        flag = ", inverted" if self.inverted else ""
        return f"WordProgram({len(self.parts)} parts, {self.length} letters{flag})"


Witness = Word | WordProgram


@dataclass(frozen=True)
class WeylElement:
    """An element of rank n as its moved rows, with an optional word witness
    and, for a generator, its transvection.

    ``rows`` holds (k, M_k) for each row k in which the matrix M differs
    from e_k, sorted by k; ``matrix`` is built from them on request.  An
    element is its rows: equality and hash read ``rank`` and ``rows`` only.
    The witness ``word`` is a label, a tuple of letters (g, e) or, for a
    translation, a ``WordProgram``, set by the functions that build an
    element from a word; products, inverses and projections carry none.

    An element acts by one rule.  A generator, an element built by
    ``from_step``, keeps its transvection in ``step``, acts through it, and
    its moved rows are the support of u.  Every other element, with ``step``
    None, is M = I + D: its moved rows are the rows in which D is nonzero,
    and it acts over them alone: x -> x + D x on vectors and
    r -> r + sum_k r[k] D_k on rows.  A translation word's matrix
    I - delta (C e_v)^T has about n + 6 nonzero entries in D, so it acts in
    O(n) steps, not O(n^2).

    A generator's inverse is the generator of the transvection's closed-form
    inverse.  Any other element is its own inverse when its square is the
    identity, and is inverted with ``mat_inv`` otherwise; no library path
    inverts such an element.
    """

    rank: int
    rows: tuple[tuple[int, Vec], ...]
    word: Witness | None = field(default=None, compare=False)
    step: Transvection | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_step(cls, n: int, step: Transvection, word: Witness | None = None) -> "WeylElement":
        """The generator of rank n whose transvection is ``step``."""
        rows = product_rows(n, (step,))
        return cls(n, tuple(sorted(rows.items())), word, step)

    @classmethod
    def from_matrix(cls, m: Mat) -> "WeylElement":
        """The element of a square matrix, taken as given."""
        ident = identity(len(m))
        rows = tuple((k, row) for k, row in enumerate(map(tuple, m)) if row != ident[k])
        return cls(len(m), rows)

    @cached_property
    def matrix(self) -> Mat:
        """The dense n x n matrix, the moved rows with unit rows elsewhere."""
        return expand_rows(self.rank, dict(self.rows))

    @cached_property
    def _delta(self) -> tuple[tuple[int, Sparse], ...]:
        """(k, D_k) for each moved row k, D_k = M_k - e_k."""
        delta = []
        for k, row in self.rows:
            d = list(row)
            d[k] -= 1
            delta.append((k, sparse(d)))
        return tuple(delta)

    @cached_property
    def moved(self) -> tuple[int, ...]:
        """The rows in which the matrix can differ from the identity's."""
        if self.step is not None:
            return self.step.moved
        return tuple(k for k, _row in self.rows)

    def apply(self, x: Vec) -> Vec:
        """M x, as x + D x over the moved rows unless M is a generator."""
        if self.step is not None:
            return self.step.apply(x)
        y = list(x)
        for k, d in self._delta:
            for j, b in d:
                y[k] += b * x[j]
        return tuple(y)

    def act_right(self, rows) -> None:
        """rows <- rows M in place, as r <- r + sum_k r[k] D_k over the moved
        rows k of M = I + D unless M is a generator."""
        if self.step is not None:
            self.step.act_right(rows)
            return
        delta = self._delta
        for r in rows:
            # Every coefficient r[k] is read before r changes.
            for c, d in [(r[k], d) for k, d in delta if r[k]]:
                for j, b in d:
                    r[j] += c * b

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rank != other.rank:
            raise DimensionMismatch(f"cannot multiply ranks {self.rank} and {other.rank}")
        return multiply(self.rank, (self, other))

    def inverse(self) -> "WeylElement":
        """The inverse, built on the first call and kept on the element."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "WeylElement":
        if self.step is not None:
            return WeylElement.from_step(self.rank, self.step.inverse())
        if not product_rows(self.rank, (self, self)):
            return WeylElement(self.rank, self.rows)
        return WeylElement.from_matrix(mat_inv(self.matrix))

    def is_identity(self) -> bool:
        return not self.rows


def preserves_form(lattice: RootLattice, m: Mat) -> bool:
    """M^T I M == I, entrywise, by two dense products.

    Nothing in the library calls it: it is the oracle that the tests hold
    ``transvection_preserves_form`` to.
    """
    return mat_mul(mat_mul(transpose(m), lattice.cartan), m) == lattice.cartan


def _cartan_image(lattice: RootLattice, u: Sparse) -> tuple[dict[int, int], int]:
    """q = I u as {index: value}, the sum of the Cartan rows (equally, the
    columns: the form is symmetric) in the support of u, and I(u, u)."""
    q = sparse_vec_mat(u, lattice.cartan_rows)
    return q, sparse_dot(q, u)


def transvection_preserves_form(lattice: RootLattice, t: Transvection) -> bool:
    """Whether I - u p^T preserves the Cartan form, in the supports of p and q.

    With q = I u (the form is symmetric), M^T I M - I is
    I(u, u) p p^T - q p^T - p q^T, so M is an isometry exactly when
    q p^T + p q^T = I(u, u) p p^T, an identity that both sides satisfy
    trivially outside the supports of p and q.  For a reflection p = q and
    I(u, u) = 2; for a translation u = delta spans the radical and q = 0.
    """
    q, norm = _cartan_image(lattice, t.u)
    p = dict(t.p)
    support = set(p).union(j for j, c in q.items() if c)
    pq = [(p.get(i, 0), q.get(i, 0)) for i in support]
    return all(qi * pj + pi * qj == norm * pi * pj for pi, qi in pq for pj, qj in pq)


def _checked(lattice: RootLattice, g: WeylElement) -> WeylElement:
    """g, a single generator, once its transvection is found to be an isometry."""
    if not transvection_preserves_form(lattice, g.step):
        raise ValueError("matrix does not preserve the Cartan form")
    return g


@lru_cache(maxsize=GENERATOR_CACHE)
def support_reflection(lattice: RootLattice, u: Sparse) -> Transvection:
    """(u, C u): the reflection x -> x - I(x, alpha) alpha at the vector
    alpha whose nonzero entries are u, as a transvection.

    C alpha and I(alpha, alpha) are sums over u.  I(alpha, alpha) = 2 is the
    only check; it holds exactly when the map is an isometry of the Cartan
    form.  Memoised per (lattice, support), so the collections of a braid
    orbit, which share most of their classes, share those classes'
    reflections.
    """
    q, norm = _cartan_image(lattice, u)
    if norm != 2:
        alpha = dense_rows((u,), lattice.rank)[0]
        raise NotNormTwo(f"I(a, a) = {norm} != 2 for a = {alpha}")
    return Transvection(u, tuple(sorted((j, c) for j, c in q.items() if c)))


def reflection_transvection(lattice: RootLattice, alpha: Vec) -> Transvection:
    """The reflection at a norm-two vector, by ``support_reflection`` of its
    nonzero entries."""
    return support_reflection(lattice, sparse(alpha))


def reflection(lattice: RootLattice, alpha: Vec, word: Word | None = None) -> WeylElement:
    """Reflection x -> x - I(x, alpha) alpha at a norm-two vector."""
    return WeylElement.from_step(lattice.rank, reflection_transvection(lattice, alpha), word)


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
        v: simple_reflection(lattice, v).step
        for v in dict.fromkeys(v for v, _e in word)
    }
    return multiply(lattice.rank, (steps[v] for v, _e in word), word)


def act_word(lattice: RootLattice, word, rows) -> None:
    """rows <- rows M in place, M the matrix of ``evaluate_word``.

    Each letter's simple transvection acts on the given rows in turn, so a
    word of L letters costs L updates of those rows, not a product over
    every row the word moves.  Every distinct letter is resolved first: an
    unknown vertex raises UnknownGenerator before any row changes.
    Exponent signs are ignored, as in ``evaluate_word``.
    """
    vertices = tuple(v for v, _e in word)
    steps = {v: simple_reflection(lattice, v).step for v in dict.fromkeys(vertices)}
    for v in vertices:
        steps[v].act_right(rows)


def evaluate_program(lattice: RootLattice, word: WordProgram, memo: dict) -> WeylElement:
    """The product of the simple reflections that a program's letters name,
    by memoised products of its subwords.

    ``memo`` maps each part tuple met so far to the elements of its word and
    of the inverse word, each the product of simple reflections and of the
    memoised elements of its subprograms, multiplied by ``product_rows``
    over the rows they move; a memoised element is kept bare, as its moved
    rows without a step, and acts as I + D over them.  Pass one dict per
    run of a check, so that each run multiplies its reflections itself.  The
    result is such a bare element too, and its word is ``word``.
    """
    forward, backward = _evaluate_parts(lattice, word, memo)
    return WeylElement(lattice.rank, (backward if word.inverted else forward).rows, word)


def _evaluate_parts(
    lattice: RootLattice, node: WordProgram, memo: dict
) -> tuple[WeylElement, WeylElement]:
    found = memo.get(node.parts)
    if found is None:
        forward, backward = [], []
        for p in node.parts:
            if isinstance(p, WordProgram):
                m, m_inv = _evaluate_parts(lattice, p, memo)
                forward.append(m_inv if p.inverted else m)
                backward.append(m if p.inverted else m_inv)
            else:
                # A reflection is its own inverse, whatever the exponent.
                step = simple_reflection(lattice, p[0]).step
                forward.append(step)
                backward.append(step)
        n = lattice.rank
        found = memo[node.parts] = (multiply(n, forward), multiply(n, reversed(backward)))
    return found


@lru_cache(maxsize=GENERATOR_CACHE)
def translation_word(v) -> WordProgram:
    """Inductive word for the translation at a star vertex, as a program.

    The hub translation is the product of the two hub-side reflections; each
    arm vertex conjugates and divides by its predecessor's translation, whose
    program it shares: 2^(j+2) - 2 letters at arm depth j in 2j + 1 nodes.
    """
    if v == "1":
        return WordProgram((("1", 1), (EXT, 1)))
    if isinstance(v, tuple):
        i, j = v
        prev = translation_word("1") if j == 1 else translation_word((i, j - 1))
        return WordProgram(((v, 1), prev, (v, 1), prev.inverse()))
    raise NotStarVertex(f"{v!r} has no translation")


@lru_cache(maxsize=GENERATOR_CACHE)
def translation_element(lattice: RootLattice, v) -> WeylElement:
    """Translation x -> x - I(x, e_v) delta on an octopus lattice.

    Built from its closed form and form-checked once; its inverse is
    x -> x + I(x, e_v) delta.
    """
    if v == EXT or v not in lattice.vertices:
        raise NotStarVertex(f"{v!r} is not a star vertex of this lattice")
    step = Transvection(sparse(lattice.delta), lattice.cartan_rows[lattice.index(v)])
    return _checked(lattice, WeylElement.from_step(lattice.rank, step, translation_word(v)))


def project_p(lattice: RootLattice, w: WeylElement) -> WeylElement:
    """Induced action on the quotient by the delta line, in star coordinates.

    T M T^-1, for the transvection T of ``lattice.to_split``, is one
    ``product_rows`` call over row i of T and the moved rows of M.  M keeps
    the delta line exactly when column j is 0 above the corner and the
    corner is +-1; the held rows above the corner, cut there, are the image.
    """
    i, j = lattice.split_indices
    lattice.star_lattice  # checks the quotient form once per lattice
    t = Transvection(((i, 1),), ((j, -1),))
    rows = product_rows(lattice.rank, (t, w, t.inverse()))
    corner = rows.pop(j)[j] if j in rows else 1
    if corner not in (1, -1) or any(row[j] for row in rows.values()):
        raise DeltaNotPreserved("matrix does not preserve the delta line")
    block = tuple(sorted((k, row[:j]) for k, row in rows.items()))
    return WeylElement(j, block)


def lift_i(lattice: RootLattice, v) -> WeylElement:
    """Section of the projection on generators: the octopus reflection at a star vertex."""
    if v == EXT:
        raise NotStarVertex("the extension vertex does not lift")
    if v not in lattice.vertices:
        raise NotStarVertex(f"{v!r} is not a vertex of this lattice")
    return simple_reflection(lattice, v)


def _over_cap(cap: int, reached: int) -> BudgetExceeded:
    """The closure outgrew cap in the round after depth ``reached``."""
    return BudgetExceeded(f"root closure exceeded cap {cap} at depth {reached}")


class _ClosureLayers:
    """The shell of a closure's breadth-first layers, grown a round at a time.

    A kernel sets ``front``, the frontier that the next round starts from,
    and the size of the basis layer, and supplies ``_round``, which returns
    the roots that the next round adds and their number, or None as soon as
    more than its ``room`` are found, storing nothing; ``_store``, which
    keeps a round; and ``_roots``, which lists the roots of a built depth.
    ``sizes[k]`` is the closure's size after k rounds.  Every stored round
    added a root; ``closed`` records that the round after the last one
    added none.  ``front`` is replaced when a round is stored, left as it is
    when a round raises past cap, and emptied once the closure is closed.

    ``windows`` maps a built depth k to the sorted window of depth k, kept
    from its first request, so each depth is sorted once.  Stored rounds
    only append, so a kept window stays the one it was sorted from.
    """

    def __init__(self, front: dict, size: int):
        self.front = front
        self.sizes = [size]
        self.closed = False
        self.windows: dict[int, tuple[Vec, ...]] = {}

    @property
    def depth(self) -> int:
        return len(self.sizes) - 1

    def grow(self, cap: int) -> None:
        """Add one round; past cap, raise and leave the layers as they were."""
        found = self._round(cap - self.sizes[-1])
        if found is None:
            raise _over_cap(cap, self.depth)
        new, count = found
        if not count:
            self.closed = True
            self.front = {}
            return
        self._store(new)
        self.sizes.append(self.sizes[-1] + count)
        self.front = new

    def probe(self) -> bool:
        """Whether the next round would add nothing; nothing is stored."""
        return self._round(0) is not None

    def window(self, depth: int) -> tuple[Vec, ...]:
        """The sorted window of a built depth, sorted on its first request."""
        window = self.windows.get(depth)
        if window is None:
            window = self.windows[depth] = tuple(sorted(self._roots(depth)))
        return window


class _RootLayers(_ClosureLayers):
    """The closure layers of a star, kept root by root.

    ``roots`` lists the closure layer by layer, each layer sorted, so the
    window of depth k is the prefix ``roots[:sizes[k]]``, whose sorted runs
    make sorting it cheap, and the last layer is the frontier of the next
    round.

    A round does not apply every reflection to every frontier root.  Each
    frontier root x carries its pairings c_k = p_k . x with the generators
    s_k = I - u_k p_k^T and a bitmask of the generators that reached it.
    The round skips s_k at x when c_k = 0, since s_k then fixes x, and when
    s_k reached x, since s_k is an involution and sends x back to the root
    of the previous layer that it came from.  A new root y = s_k x gets its
    pairings from those of x by one sparse column of G[k][m] = p_m . u_k,
    as c(y)[m] = c(x)[m] - c_k G[k][m], not by n fresh dot products.

    No reflection that a round applies lands in an earlier layer, so a new
    root is looked up in the frontier and the round's own finds alone, and
    no set of all roots is kept.  Were s_k x = z in a layer j below x's
    layer L, then s_k z = x.  The round after layer j skipped s_k at z, when
    x = z or x lies in layer j - 1, or applied it and met x, so that x lies
    in layer j + 1 or below; then j = L - 1, and that round set bit k of x.
    Each case contradicts that s_k is applied at x.

    ``front`` maps each frontier root to a list of its n pairings followed
    by its bitmask.
    """

    def __init__(self, lattice: RootLattice, basis: tuple[Vec, ...]):
        gens = [reflection_transvection(lattice, b) for b in basis]
        self.steps = [g.u for g in gens]
        # The basis roots' pairings; u_k is b_k, so those of b_k are column k of G.
        pairings = [[sum(b[j] * v for j, v in g.p) for g in gens] for b in basis]
        self.columns = [sparse(c) for c in pairings]
        front = {b: c + [0] for b, c in zip(basis, pairings)}
        self.roots = sorted(front)
        super().__init__(front, len(self.roots))

    def _round(self, room: int) -> tuple[dict[Vec, list[int]], int] | None:
        """The roots that the next round adds, each mapped to its pairings
        and bitmask as in ``front``, and their number."""
        front, steps, columns = self.front, self.steps, self.columns
        n = len(steps)
        new: dict[Vec, list[int]] = {}
        for x, c in front.items():
            reached = c[n]
            for k in range(n):
                ck = c[k]
                if not ck or reached >> k & 1:
                    continue
                y = list(x)
                for i, a in steps[k]:
                    y[i] -= ck * a
                y = tuple(y)
                entry = new.get(y)
                if entry is not None:
                    entry[n] |= 1 << k
                elif y not in front:
                    if len(new) >= room:
                        return None
                    d = c[:]
                    for m, v in columns[k]:
                        d[m] -= ck * v
                    d[n] = 1 << k
                    new[y] = d
        return new, len(new)

    def _store(self, new: dict[Vec, list[int]]) -> None:
        self.roots += sorted(new)

    def _roots(self, depth: int) -> list[Vec]:
        return self.roots[: self.sizes[depth]]


class _OctopusLayers(_ClosureLayers):
    """The closure layers of an octopus, kept by star class.

    In split coordinates a root is (beta, m), beta its star part and m its
    delta level, and the basis root b_k splits as (b'_k, l_k).  The
    reflection s_k sends (beta, m) to (beta - c b'_k, m - c l_k), with
    c = I(b_k, x) for x = from_split(beta, 0).  This is exact because delta
    lies in the radical, which the constructor checks once over the Cartan
    rows: x differs from from_split(beta, m) by m delta, so both pair alike
    with b_k.  So the pairings, the target class and the level shift of each
    reflection depend on the class alone; ``moves`` holds them per class,
    worked out once and applied to every level of the class in every layer.

    Each layer maps a class to {level: bitmask}, the bitmask of the
    generators that reached the root, and a round skips s_k at a root when
    c = 0 or s_k reached it, as ``_RootLayers`` does; its argument that no
    applied reflection lands in an earlier layer holds as it stands, so a
    new root is looked up in the frontier and the round's own finds alone.
    Every answer is that of ``_RootLayers`` on the same lattice and basis,
    cap and message included; ``window`` builds its sorted octopus tuples
    only when asked, and ``split`` reads the roots as (beta, m) pairs
    without building them.
    """

    def __init__(self, lattice: RootLattice, basis: tuple[Vec, ...]):
        if any(sparse_mat_vec(lattice.cartan_rows, lattice.delta)):
            raise ValueError("delta is not in the radical of the Cartan form")
        self.hub, j = lattice.split_indices
        self.pairings = [reflection_transvection(lattice, b).p for b in basis]
        self.parts = []
        layer: dict[Vec, dict[int, int]] = {}
        for b in basis:
            y = lattice.to_split(b)
            self.parts.append((sparse(y[:j]), y[j]))
            layer.setdefault(y[:j], {})[y[j]] = 0
        self.moves: dict[Vec, tuple[tuple[int, Vec, int], ...]] = {}
        self.layers = [layer]
        super().__init__(layer, sum(map(len, layer.values())))

    def _moves(self, beta: Vec) -> tuple[tuple[int, Vec, int], ...]:
        """(bit k, target class, level shift) for each s_k that moves the
        class beta, worked out on its first request."""
        moves = self.moves.get(beta)
        if moves is None:
            x = beta + (0,)  # from_split(beta, 0): the level comes last
            out = []
            for k, (p, (u, level)) in enumerate(zip(self.pairings, self.parts)):
                c = 0
                for i, a in p:
                    c += a * x[i]
                if c:
                    target = list(beta)
                    for i, a in u:
                        target[i] -= c * a
                    out.append((1 << k, tuple(target), -c * level))
            moves = self.moves[beta] = tuple(out)
        return moves

    def _round(self, room: int) -> tuple[dict, int] | None:
        """The roots that the next round adds, by class and level with their
        bitmasks, and their number."""
        front = self.front
        new: dict[Vec, dict[int, int]] = {}
        count = 0
        for beta, levels in front.items():
            for bit, target, shift in self._moves(beta):
                old = front.get(target, ())
                found = new.get(target)
                for m, reached in levels.items():
                    if reached & bit:
                        continue
                    y = m + shift
                    if found is not None and y in found:
                        found[y] |= bit
                    elif y not in old:
                        if count >= room:
                            return None
                        if found is None:
                            found = new[target] = {}
                        found[y] = bit
                        count += 1
        return new, count

    def _store(self, new: dict[Vec, dict[int, int]]) -> None:
        self.layers.append(new)

    def split(self, depth: int):
        """The (star part, delta level) pairs of the window of a built depth,
        layer by layer."""
        for layer in self.layers[: depth + 1]:
            for beta, levels in layer.items():
                for m in levels:
                    yield beta, m

    def _roots(self, depth: int) -> list[Vec]:
        """The roots of a built depth in octopus coordinates."""
        i = self.hub
        return [beta[:i] + (beta[i] - m,) + beta[i + 1 :] + (m,) for beta, m in self.split(depth)]


@lru_cache(maxsize=ROOT_WINDOW_CACHE)
def _root_layers(lattice: RootLattice, basis: tuple[Vec, ...]) -> _ClosureLayers:
    return (_OctopusLayers if lattice.is_octopus else _RootLayers)(lattice, basis)


def _grown_layers(
    lattice: RootLattice, basis: tuple[Vec, ...], rounds: int, cap: int
) -> _ClosureLayers:
    """The kept layers of (lattice, basis), grown to ``rounds`` unless they
    close first; raises BudgetExceeded as a fresh closure would."""
    layers = _root_layers(lattice, tuple(basis))
    if layers.sizes[0] > cap:
        raise BudgetExceeded(f"root closure basis of {layers.sizes[0]} roots exceeds cap {cap}")
    # A fresh closure raises in the first round whose size is past cap.
    built = min(rounds, layers.depth)
    first_over = bisect_right(layers.sizes, cap, 1, built + 1)
    if first_over <= built:
        raise _over_cap(cap, first_over - 1)
    while layers.depth < rounds and not layers.closed:
        layers.grow(cap)
    return layers


def root_orbit(
    lattice: RootLattice,
    basis: tuple[Vec, ...],
    word_depth: int,
    cap: int = DEFAULT_ROOT_CAP,
) -> tuple[tuple[Vec, ...], bool]:
    """Breadth-first closure of a set of norm-two vectors under their reflections.

    Returns the sorted closure after word_depth rounds and whether it had
    already stabilized.  Raises BudgetExceeded when the closure outgrows cap;
    the message names the last depth that fitted, or a basis past cap.

    The layers of the last ``ROOT_WINDOW_CACHE`` (lattice, basis) pairs are
    kept, so a request for depth d + 2 after depth d grows the closure by
    two rounds, and a request at or below a depth already built reads the
    cumulative layer sizes.  A round that outgrows cap is not stored.  The
    stabilization probe at word_depth applies the reflections to the last
    layer once more; it is not stored and never raises.  The window is
    keyed by the depth built, min(word_depth, depth of the closed closure),
    so every request past a closed closure's depth gets one sorted window.
    Every answer, and whether it raises, is that of a fresh closure with the
    same arguments.
    """
    rounds = max(word_depth, 0)
    layers = _grown_layers(lattice, basis, rounds, cap)
    if rounds < layers.depth:
        stabilized = False
    else:
        stabilized = layers.closed or layers.probe()
    return layers.window(min(rounds, layers.depth)), stabilized


def _check_request(word_depth: int, cap: int) -> None:
    """Reject a closure request of negative depth or a cap below one root."""
    if word_depth < 0:
        raise ValidationError("word_depth must be >= 0")
    if cap < 1:
        raise ValidationError("cap must be >= 1")


def enumerate_real_roots(
    lattice: RootLattice, word_depth: int, cap: int = DEFAULT_ROOT_CAP
) -> tuple[Vec, ...]:
    """Real roots reachable from the simple roots within word_depth reflections."""
    _check_request(word_depth, cap)
    roots, _ = root_orbit(lattice, identity(lattice.rank), word_depth, cap)
    return roots


def split_roots(lattice: RootLattice, word_depth: int, cap: int = DEFAULT_ROOT_CAP):
    """The roots of ``enumerate_real_roots`` on an octopus lattice, unsorted,
    as (star part, delta level) pairs in split coordinates, read off the
    octopus layers without building an octopus tuple.  It raises as
    ``enumerate_real_roots`` does."""
    if not lattice.is_octopus:
        raise NotOctopus("only an octopus root has split coordinates")
    _check_request(word_depth, cap)
    layers = _grown_layers(lattice, identity(lattice.rank), word_depth, cap)
    return layers.split(min(word_depth, layers.depth))


def enumerate_until_stable(
    lattice: RootLattice, max_depth: int = 64, cap: int = DEFAULT_ROOT_CAP
) -> tuple[Vec, ...]:
    """Full root enumeration for a finite system; raises if it does not stabilize."""
    roots, stabilized = root_orbit(lattice, identity(lattice.rank), max_depth, cap)
    if not stabilized:
        raise BudgetExceeded(f"root system did not stabilize within depth {max_depth}")
    return roots


@dataclass(frozen=True)
class Finite:
    order: int


@dataclass(frozen=True)
class Truncated:
    explored: int


def group_enumerate(lattice: RootLattice, cap: int) -> Finite | Truncated:
    """Breadth-first closure of the simple reflections under multiplication."""
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    generators = [simple_reflection(lattice, v) for v in lattice.vertices]
    # Elements are moved rows: dicts to multiply, sorted tuples in ``seen``.
    seen = {()}
    frontier = [{}]
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                prod = product_rows(lattice.rank, (g,), m)
                key = tuple(sorted(prod.items()))
                if key not in seen:
                    seen.add(key)
                    new.append(prod)
                    if len(seen) > cap:
                        return Truncated(explored=len(seen))
        frontier = new
    return Finite(order=len(seen))


def coxeter_element(lattice: RootLattice) -> WeylElement:
    """Product of the simple reflections in canonical vertex order."""
    return evaluate_word(lattice, tuple((v, 1) for v in lattice.vertices))


def serre_coxeter_matrix(lattice: RootLattice) -> Mat:
    """-E^{-1} E^T: the lattice shadow of the shifted Serre functor.

    The Euler matrix E is unit upper triangular, so X = E^{-1} E^T solves
    E X = E^T in integers, row by row from the bottom.
    """
    # Row i of a unit upper triangular E starts with the entry (i, 1).
    if any(row[:1] != ((i, 1),) for i, row in enumerate(lattice.euler_rows)):
        raise ValueError("the Euler matrix is not unit upper triangular")
    x = {}
    for i, row in reversed(list(enumerate(transpose(lattice.euler)))):
        for j, a in lattice.euler_rows[i]:
            if j > i:
                row = [r - a * y for r, y in zip(row, x[j])]
        x[i] = row
    return tuple(tuple(-v for v in x[i]) for i in sorted(x))


def order_of(w: WeylElement, cap: int) -> Finite | Truncated:
    """Multiplicative order of an element, probed up to cap.

    Each power is held as its moved rows and multiplied by w through w's
    own action: its transvection for a generator, I + D otherwise.
    """
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    power = dict(w.rows)
    for k in range(1, cap + 1):
        if not power:
            return Finite(order=k)
        power = product_rows(w.rank, (w,), power)
    return Truncated(explored=cap)
