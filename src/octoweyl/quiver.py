"""Star quivers and their octopus extensions as bound quivers.

A star quiver has a hub vertex ``1`` and ``r`` arms; arm ``i`` carries
vertices ``(i, 1) .. (i, a_i - 1)`` with arrows pointing away from the hub.
The octopus adds one extra vertex ``1*`` receiving an arrow from the first
vertex of every arm, bound by an ideal with exactly two generators supported
on paths from ``1`` to ``1*``.  Vertices are the string labels ``"1"`` and
``"1*"`` plus ``(i, j)`` integer pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidLambda, InvalidQuiver, InvalidWeights
from .exact import Sparse, format_rational, parse_rational

Vertex = str | tuple[int, int]

HUB: Vertex = "1"
EXT: Vertex = "1*"


def vertex_str(v: Vertex) -> str:
    if isinstance(v, tuple):
        return f"({v[0]},{v[1]})"
    return v


@dataclass(frozen=True)
class Weights:
    """Arm multiplicities (a_1, ..., a_r): at least three arms, each a_i >= 2."""

    a: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) < 3:
            raise InvalidWeights(f"need at least 3 arms, got {len(self.a)}")
        if any(x < 2 for x in self.a):
            raise InvalidWeights(f"every multiplicity must be >= 2, got {self.a}")

    @property
    def r(self) -> int:
        return len(self.a)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.a)


def as_weights(w) -> Weights:
    return w if isinstance(w, Weights) else Weights(tuple(w))


def parse_weights(text: str) -> Weights:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise InvalidWeights(f"cannot parse weights {text!r}") from exc
    return Weights(parts)


@dataclass(frozen=True)
class ProjPoint:
    """A point of the projective line as a normalized homogeneous pair.

    Infinity is (1, 0); any finite point x is (x, 1).  Normalizing in the
    constructor makes dataclass equality agree with cross-multiplication.
    """

    p: Fraction
    q: Fraction

    def __post_init__(self):
        p, q = Fraction(self.p), Fraction(self.q)
        if p == 0 and q == 0:
            raise InvalidLambda("(0, 0) is not a projective point")
        if q == 0:
            p, q = Fraction(1), Fraction(0)
        else:
            p, q = p / q, Fraction(1)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"
        return format_rational(self.p)


INFINITY = ProjPoint(Fraction(1), Fraction(0))
ZERO = ProjPoint(Fraction(0), Fraction(1))
ONE = ProjPoint(Fraction(1), Fraction(1))


def parse_point(text: str) -> ProjPoint:
    s = text.strip()
    if s.lower() in ("inf", "infinity", "oo"):
        return INFINITY
    try:
        x = parse_rational(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidLambda(f"cannot parse marked point {s!r}") from exc
    return ProjPoint(x, Fraction(1))


@dataclass(frozen=True)
class LambdaTuple:
    """Pairwise-distinct marked points, normalized to start (inf, 0, 1)."""

    entries: tuple[ProjPoint, ...]

    def __post_init__(self):
        e = self.entries
        if len(e) < 3:
            raise InvalidLambda("need at least three marked points")
        if e[0] != INFINITY or e[1] != ZERO or e[2] != ONE:
            raise InvalidLambda("points must be normalized to (inf, 0, 1, ...)")
        if len(set(e)) != len(e):
            raise InvalidLambda("marked points must be pairwise distinct")

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.entries)


def parse_lambda(text: str) -> LambdaTuple:
    return LambdaTuple(tuple(parse_point(p) for p in text.split(",")))


def default_lambda(r: int) -> LambdaTuple:
    """Canonical lambda tuple (inf, 0, 1, 2, 3, ...) for r arms."""
    pts = [INFINITY, ZERO, ONE]
    pts += [ProjPoint(Fraction(k), Fraction(1)) for k in range(2, r - 1)]
    return LambdaTuple(tuple(pts))


@dataclass(frozen=True)
class BoundQuiver:
    """A star or octopus quiver with relation multiplicities.

    The canonical vertex order (hub, arms in lexicographic order, then the
    extension vertex) is a topological order of both arrows and relations.
    """

    kind: str  # "star" | "octopus"
    weights: Weights
    vertices: tuple[Vertex, ...]
    arrows: tuple[tuple[Vertex, Vertex], ...]
    relations: tuple[tuple[tuple[Vertex, Vertex], int], ...]
    lam: LambdaTuple | None = field(default=None, compare=False)

    @property
    def rank(self) -> int:
        return len(self.vertices)

    def validate(self) -> None:
        """Reject anything whose shape differs from the star/octopus pattern."""
        expected = build_star(self.weights) if self.kind == "star" else \
            build_octopus(self.weights, self.lam)
        if (self.vertices, self.arrows, self.relations) != (
            expected.vertices, expected.arrows, expected.relations
        ):
            raise InvalidQuiver(f"not a valid {self.kind} quiver for weights {self.weights}")

    def euler_rows(self) -> tuple[Sparse, ...]:
        """Sparse rows of the Euler form on simples, validated first:
        delta_vw - arrows(v, w) + relations(v, w)."""
        self.validate()
        idx = {v: i for i, v in enumerate(self.vertices)}
        rows = [{i: 1} for i in range(self.rank)]
        terms = [(arrow, -1) for arrow in self.arrows] + list(self.relations)
        for (src, dst), mult in terms:
            row, j = rows[idx[src]], idx[dst]
            row[j] = row.get(j, 0) + mult
        return tuple(tuple(sorted((j, a) for j, a in row.items() if a)) for row in rows)


def star_vertices(w: Weights) -> tuple[Vertex, ...]:
    verts: list[Vertex] = [HUB]
    for i, ai in enumerate(w.a, start=1):
        verts.extend((i, j) for j in range(1, ai))
    return tuple(verts)


def build_star(w: Weights) -> BoundQuiver:
    """Star quiver: hub arrow to each arm, then a chain along each arm."""
    w = as_weights(w)
    arrows: list[tuple[Vertex, Vertex]] = []
    for i, ai in enumerate(w.a, start=1):
        arrows.append((HUB, (i, 1)))
        arrows.extend(((i, j - 1), (i, j)) for j in range(2, ai))
    return BoundQuiver(
        kind="star",
        weights=w,
        vertices=star_vertices(w),
        arrows=tuple(arrows),
        relations=(),
    )


def build_octopus(w: Weights, lam: LambdaTuple | None = None) -> BoundQuiver:
    """Octopus: the star plus a vertex 1* hit by every arm, bound by two relations.

    The binding ideal always has two generators supported on the paths from
    the hub to 1*, for every valid lambda tuple, so the relation multiplicity
    on (1, 1*) is the constant 2; lambda is carried symbolically and never
    enters the lattice data.
    """
    w = as_weights(w)
    if lam is None:
        if w.r > 3:
            raise InvalidLambda(f"{w.r} arms need an explicit lambda tuple")
        lam = default_lambda(3)
    if len(lam.entries) != w.r:
        raise InvalidLambda(f"expected {w.r} marked points, got {len(lam.entries)}")
    star = build_star(w)
    arrows = star.arrows + tuple(((i, 1), EXT) for i in range(1, w.r + 1))
    return BoundQuiver(
        kind="octopus",
        weights=w,
        vertices=star.vertices + (EXT,),
        arrows=arrows,
        relations=(((HUB, EXT), 2),),
        lam=lam,
    )
