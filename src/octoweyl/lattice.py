"""Grothendieck lattice data of a bound quiver: Euler and Cartan forms.

The Euler form of a star or octopus quiver, taken on the simple classes in
canonical vertex order, is unit upper triangular; the Cartan form is its
symmetrization.  A lattice stores the Euler form as its sparse rows, built
straight from the quiver's arrows and relations, and merges E + E^T over
them for the Cartan rows; the dense matrices are built only on request.

The octopus Cartan form is degenerate: it kills the vector
``delta = e_{1*} - e_1``, which splits the octopus lattice as the star
lattice plus an integer multiple of delta.  The radical has a closed form.
The star form is nondegenerate unless chi = 0, the four tubular types, where
it kills the null root h (V. Kac, "Infinite dimensional Lie algebras",
ch. 4; W. Geigle and H. Lenzing, "A class of weighted projective curves
arising in representation theory of finite dimensional algebras", 1987);
the octopus radical is spanned by delta and, when chi = 0, by h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .errors import NotOctopus
from .exact import Mat, Sparse, Vec, dense_rows, identity, sparse_form, vec_neg
from .quiver import (
    BoundQuiver,
    LambdaTuple,
    Weights,
    as_weights,
    build_octopus,
    build_star,
)


def euler_characteristic(w: Weights) -> Fraction:
    """Orbifold Euler characteristic 2 + sum(1/a_i - 1), exactly."""
    return Fraction(2) + sum(Fraction(1, ai) - 1 for ai in w.a)


def weyl_class(w: Weights) -> str:
    """Trichotomy of the extended Weyl group by the sign of the characteristic."""
    chi = euler_characteristic(w)
    if chi > 0:
        return "affine"
    if chi == 0:
        return "elliptic"
    return "cuspidal"


def null_root(w: Weights) -> Vec:
    """h on the star simples: m = lcm(a_i) at the hub and m(a_i - j)/a_i at
    arm slot (i, j).  It pairs to 0 with every arm slot, and to m chi with
    the hub, so it spans the star radical when chi = 0."""
    m = lcm(*w.a)
    return (m,) + tuple(m // ai * (ai - j) for ai in w.a for j in range(1, ai))


@dataclass(frozen=True)
class RootLattice:
    """Based integer lattice with the Euler and Cartan forms of a bound quiver.

    The sparse Euler rows are the stored form; the Cartan rows are merged
    from them on first use, and the dense ``euler`` and ``cartan`` matrices
    are built only when something reads them.  The radical is in closed
    form (see the module docstring).
    """

    kind: str
    weights: Weights
    vertices: tuple
    euler_rows: tuple[Sparse, ...]

    # The caches keyed by a lattice hash it on every lookup, and its fields
    # hold a row per vertex: hash them once.  Equality stays field-wise.
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self.weights, self.vertices, self.euler_rows))

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def index(self, v) -> int:
        return self._index[v]

    def basis_vector(self, v) -> Vec:
        """e_v, the row of v in the cached identity matrix of this rank."""
        return identity(self.rank)[self.index(v)]

    # A pairing costs a term per nonzero entry of the sparse rows, not a
    # dense n x n product.
    @cached_property
    def cartan_rows(self) -> tuple[Sparse, ...]:
        """E + E^T, merged over the Euler rows."""
        rows = [dict(row) for row in self.euler_rows]
        for i, row in enumerate(self.euler_rows):
            for j, a in row:
                rows[j][i] = rows[j].get(i, 0) + a
        return tuple(tuple(sorted((j, a) for j, a in row.items() if a)) for row in rows)

    @cached_property
    def euler(self) -> Mat:
        """The dense Euler matrix."""
        return dense_rows(self.euler_rows, self.rank)

    @cached_property
    def cartan(self) -> Mat:
        """The dense Cartan matrix."""
        return dense_rows(self.cartan_rows, self.rank)

    def form(self, x: Vec, y: Vec) -> int:
        """Cartan form I(x, y) = x^T I y."""
        return sparse_form(self.cartan_rows, x, y)

    def euler_form(self, x: Vec, y: Vec) -> int:
        """Euler form <x, y> = x^T E y."""
        return sparse_form(self.euler_rows, x, y)

    @property
    def is_octopus(self) -> bool:
        return self.kind == "octopus"

    @cached_property
    def radical(self) -> tuple[Vec, ...]:
        """A primitive basis of {x : I x = 0}, sorted: (h,) for a star when
        chi = 0, else (); for an octopus -delta, then (h, 0) when chi = 0."""
        star = () if euler_characteristic(self.weights) else (null_root(self.weights),)
        if not self.is_octopus:
            return star
        return (vec_neg(self.delta),) + tuple(h + (0,) for h in star)

    @cached_property
    def delta(self) -> Vec:
        return delta_vector(self)

    def star_vertices(self) -> tuple:
        return self.vertices[:-1] if self.is_octopus else self.vertices

    @cached_property
    def star_lattice(self) -> "RootLattice":
        """The star lattice of an octopus, checked once to carry the quotient form."""
        if not self.is_octopus:
            raise NotOctopus("only an octopus lattice has a star quotient")
        star, n = star_lattice(self.weights), self.rank - 1
        induced = tuple(tuple((j, a) for j, a in row if j < n) for row in self.cartan_rows[:n])
        if star.cartan_rows != induced:
            raise ValueError("the star form is not the form induced on the quotient by delta")
        return star

    # Split basis for an octopus: (star simples in canonical order, delta), by
    # e_{1*} = e_1 + delta.  ``to_split`` is x -> x + x_j e_i for (i, j) = (hub,
    # 1*), ``from_split`` its inverse; 1* is last, so star coordinates come first.
    @cached_property
    def split_indices(self) -> tuple[int, int]:
        if not self.is_octopus:
            raise NotOctopus("split basis only exists for an octopus lattice")
        return 0, self.rank - 1

    def to_split(self, x: Vec) -> Vec:
        i, j = self.split_indices
        return x[:i] + (x[i] + x[j],) + x[i + 1 :]

    def from_split(self, y: Vec) -> Vec:
        i, j = self.split_indices
        return y[:i] + (y[i] - y[j],) + y[i + 1 :]

    def delta_coordinate(self, x: Vec) -> int:
        return x[self.split_indices[1]]


def delta_vector(lattice: RootLattice) -> Vec:
    """The radical vector e_{1*} - e_1 of an octopus lattice."""
    i, j = lattice.split_indices
    return tuple(int(k == j) - int(k == i) for k in range(lattice.rank))


def root_lattice(q: BoundQuiver) -> RootLattice:
    """The lattice of q, built from its sparse Euler rows."""
    return RootLattice(q.kind, q.weights, q.vertices, q.euler_rows())


@lru_cache(maxsize=256)
def _cached_lattice(kind: str, w: Weights, lam: LambdaTuple | None) -> RootLattice:
    """One shared instance per quiver: lattices are immutable, and the
    generators that weyl caches per lattice are then built once."""
    return root_lattice(build_star(w) if kind == "star" else build_octopus(w, lam))


def star_lattice(w: Weights | tuple) -> RootLattice:
    return _cached_lattice("star", as_weights(w), None)


def octopus_lattice(w: Weights | tuple, lam: LambdaTuple | None = None) -> RootLattice:
    return _cached_lattice("octopus", as_weights(w), lam)
