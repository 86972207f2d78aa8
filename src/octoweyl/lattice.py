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

from .errors import NotOctopus
from .exact import Mat, Vec, dot, integer_kernel, mat_vec, transpose
from .quiver import (
    EXT,
    BoundQuiver,
    LambdaTuple,
    Weights,
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
    c = euler_matrix(q)
    ct = transpose(c)
    return tuple(
        tuple(a + b for a, b in zip(row, col)) for row, col in zip(c, ct)
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

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def index(self, v) -> int:
        return self._index[v]

    def basis_vector(self, v) -> Vec:
        i = self.index(v)
        return tuple(int(j == i) for j in range(self.rank))

    def form(self, x: Vec, y: Vec) -> int:
        """Cartan form I(x, y) = x^T I y."""
        return dot(x, mat_vec(self.cartan, y))

    def euler_form(self, x: Vec, y: Vec) -> int:
        return dot(x, mat_vec(self.euler, y))

    @property
    def is_octopus(self) -> bool:
        return self.kind == "octopus"

    @cached_property
    def radical(self) -> tuple[Vec, ...]:
        return radical_basis(self.cartan)

    @property
    def delta(self) -> Vec:
        return delta_vector(self)

    def star_vertices(self) -> tuple:
        return self.vertices[:-1] if self.is_octopus else self.vertices

    def star_lattice(self) -> "RootLattice":
        if not self.is_octopus:
            return self
        return star_lattice(self.weights)

    # Split basis for an octopus: (star simples in canonical order, delta),
    # realized by substituting e_{1*} = e_1 + delta.
    def to_split(self, x: Vec) -> Vec:
        if not self.is_octopus:
            raise NotOctopus("split basis only exists for an octopus lattice")
        return (x[0] + x[-1],) + x[1:-1] + (x[-1],)

    def from_split(self, y: Vec) -> Vec:
        if not self.is_octopus:
            raise NotOctopus("split basis only exists for an octopus lattice")
        return (y[0] - y[-1],) + y[1:-1] + (y[-1],)

    def star_part(self, x: Vec) -> Vec:
        """Image of x under the projection that kills delta, in star coordinates."""
        return self.to_split(x)[:-1]

    def delta_coordinate(self, x: Vec) -> int:
        if not self.is_octopus:
            raise NotOctopus("no delta coordinate on a star lattice")
        return x[-1]


def delta_vector(lattice: RootLattice) -> Vec:
    """The radical vector e_{1*} - e_1 of an octopus lattice."""
    if EXT not in lattice.vertices:
        raise NotOctopus("lattice has no extension vertex")
    e_hub = lattice.basis_vector("1")
    e_ext = lattice.basis_vector(EXT)
    return tuple(a - b for a, b in zip(e_ext, e_hub))


def root_lattice(q: BoundQuiver) -> RootLattice:
    return RootLattice(
        kind=q.kind,
        weights=q.weights,
        vertices=q.vertices,
        euler=euler_matrix(q),
        cartan=cartan_matrix(q),
    )


@lru_cache(maxsize=256)
def _cached_lattice(kind: str, w: Weights, lam: LambdaTuple | None) -> RootLattice:
    """One shared instance per quiver: lattices are immutable, and the
    generators that weyl caches per lattice are then built once."""
    return root_lattice(build_star(w) if kind == "star" else build_octopus(w, lam))


def star_lattice(w: Weights | tuple) -> RootLattice:
    if not isinstance(w, Weights):
        w = Weights(tuple(w))
    return _cached_lattice("star", w, None)


def octopus_lattice(w: Weights | tuple, lam: LambdaTuple | None = None) -> RootLattice:
    if not isinstance(w, Weights):
        w = Weights(tuple(w))
    return _cached_lattice("octopus", w, lam)
