"""Grothendieck lattice data of a bound quiver: Euler and Cartan forms.

The Euler matrix of a star or octopus quiver, taken on the simple classes in
canonical vertex order, is unit upper triangular; the Cartan matrix is its
symmetrization.  The octopus Cartan form is degenerate: it kills the vector
``delta = e_{1*} - e_1``, which splits the octopus lattice as the star
lattice plus an integer multiple of delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add

from .errors import NotOctopus
from .exact import Mat, Sparse, Vec, identity, integer_kernel, sparse_form, sparse_rows, transpose
from .quiver import (
    BoundQuiver,
    LambdaTuple,
    Weights,
    as_weights,
    build_octopus,
    build_star,
)


def euler_matrix(q: BoundQuiver) -> Mat:
    """Euler form Gram matrix on simples: delta_vw - arrows(v,w) + relations(v,w)."""
    q.validate()
    n = q.rank
    idx = {v: i for i, v in enumerate(q.vertices)}
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for src, dst in q.arrows:
        m[idx[src]][idx[dst]] -= 1
    for (src, dst), mult in q.relations:
        m[idx[src]][idx[dst]] += mult
    return tuple(tuple(row) for row in m)


def cartan_matrix(q: BoundQuiver) -> Mat:
    return root_lattice(q).cartan


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


def radical_basis(cartan: Mat) -> tuple[Vec, ...]:
    """Primitive basis of the radical {x : cartan @ x = 0} of a symmetric form."""
    if cartan != transpose(cartan):
        raise ValueError("radical_basis expects a symmetric matrix")
    return integer_kernel(cartan)


@dataclass(frozen=True)
class RootLattice:
    """Based integer lattice with the Euler and Cartan forms of a bound quiver."""

    kind: str
    weights: Weights
    vertices: tuple
    euler: Mat
    cartan: Mat

    # The caches keyed by a lattice hash it on every lookup, and its fields
    # hold two n x n matrices: hash them once.  Equality stays field-wise.
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self.weights, self.vertices, self.euler, self.cartan))

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

    # Sparse rows of the two Gram matrices, built on first use: a pairing
    # then costs a term per nonzero entry, not a dense n x n product.
    @cached_property
    def cartan_rows(self) -> tuple[Sparse, ...]:
        return sparse_rows(self.cartan)

    @cached_property
    def euler_rows(self) -> tuple[Sparse, ...]:
        return sparse_rows(self.euler)

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
        return radical_basis(self.cartan)

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
        star = star_lattice(self.weights)
        if star.cartan != tuple(row[:-1] for row in self.cartan[:-1]):
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

    def star_part(self, x: Vec) -> Vec:
        """Image of x under the projection that kills delta, in star coordinates."""
        return self.to_split(x)[: self.split_indices[1]]

    def delta_coordinate(self, x: Vec) -> int:
        return x[self.split_indices[1]]


def delta_vector(lattice: RootLattice) -> Vec:
    """The radical vector e_{1*} - e_1 of an octopus lattice."""
    i, j = lattice.split_indices
    return tuple(int(k == j) - int(k == i) for k in range(lattice.rank))


def root_lattice(q: BoundQuiver) -> RootLattice:
    """The lattice of q, whose Cartan matrix is E + E^T for its one Euler
    matrix E."""
    e = euler_matrix(q)
    return RootLattice(
        kind=q.kind,
        weights=q.weights,
        vertices=q.vertices,
        euler=e,
        cartan=tuple(tuple(map(add, row, col)) for row, col in zip(e, transpose(e))),
    )


@lru_cache(maxsize=256)
def _cached_lattice(kind: str, w: Weights, lam: LambdaTuple | None) -> RootLattice:
    """One shared instance per quiver: lattices are immutable, and the
    generators that weyl caches per lattice are then built once."""
    return root_lattice(build_star(w) if kind == "star" else build_octopus(w, lam))


def star_lattice(w: Weights | tuple) -> RootLattice:
    return _cached_lattice("star", as_weights(w), None)


def octopus_lattice(w: Weights | tuple, lam: LambdaTuple | None = None) -> RootLattice:
    return _cached_lattice("octopus", as_weights(w), lam)
