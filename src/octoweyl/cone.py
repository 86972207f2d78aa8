"""Finite, exact probes of the Tits cone in the complexified dual space.

A dual point stores the exact rational values of a linear functional h on
the simple roots, split into real and imaginary parts.  Dominance chasing
reflects the point at the lowest negative imaginary coordinate until all of
them are nonnegative; regularity is a bounded semi-decision against the
countable family of affine reflection hyperplanes {h(root) = n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, NotInConeWithinBudget, ValidationError
from .exact import Vec, dot, format_rational, parse_rational
from .lattice import RootLattice
from .weyl import Word, enumerate_real_roots, simple_reflection

RationalVec = tuple[Fraction, ...]


@dataclass(frozen=True)
class DualPoint:
    """Values of h on the simple roots: re[v] + i*im[v], all exact rationals."""

    re: RationalVec
    im: RationalVec

    def __post_init__(self):
        if len(self.re) != len(self.im):
            raise ValueError("re and im must have equal length")
        object.__setattr__(self, "re", tuple(Fraction(x) for x in self.re))
        object.__setattr__(self, "im", tuple(Fraction(x) for x in self.im))

    @property
    def rank(self) -> int:
        return len(self.re)

    def value(self, root: Vec) -> tuple[Fraction, Fraction]:
        """h(root) as an exact (real, imaginary) pair."""
        return dot(self.re, root), dot(self.im, root)

    def to_json(self) -> dict:
        return {
            "re": [format_rational(x) for x in self.re],
            "im": [format_rational(x) for x in self.im],
        }


def parse_dual_point(data: dict) -> DualPoint:
    return DualPoint(
        tuple(parse_rational(x) for x in data["re"]),
        tuple(parse_rational(x) for x in data["im"]),
    )


def _dual_reflect(
    lattice: RootLattice, rows: tuple[RationalVec, ...], v: int
) -> tuple[RationalVec, ...]:
    """h -> h s_v on each row of values: only vertex v and its neighbours change."""
    work = [list(r) for r in rows]
    simple_reflection(lattice, lattice.vertices[v]).act_right(work)
    return tuple(map(tuple, work))


@dataclass(frozen=True)
class DominanceResult:
    point: DualPoint
    word: Word
    steps: int
    strictly_dominant: bool  # False means: on the chamber closure, interiority undetermined


def make_dominant(
    lattice: RootLattice, p: DualPoint, max_steps: int
) -> DominanceResult:
    """Chase the imaginary part into the dominant chamber, lowest index first.

    The returned word, evaluated as a matrix M, reproduces the transformation
    exactly: transposing M and applying it to the input values gives the
    output values.  Raises NotInConeWithinBudget when the budget runs out,
    which cannot distinguish a point outside the cone from a short budget.
    """
    if max_steps < 1:
        raise ValidationError("max_steps must be >= 1")
    re, im = p.re, p.im
    word: list = []
    for step in range(max_steps + 1):
        neg = next((i for i, x in enumerate(im) if x < 0), None)
        if neg is None:
            return DominanceResult(
                DualPoint(re, im),
                tuple(word),
                step,
                strictly_dominant=all(x > 0 for x in im),
            )
        if step == max_steps:
            break
        re, im = _dual_reflect(lattice, (re, im), neg)
        word.append((lattice.vertices[neg], 1))
    raise NotInConeWithinBudget(max_steps)


@dataclass(frozen=True)
class RegularityResult:
    status: str  # "regular" | "on_wall" | "undetermined"
    root_depth: int
    n_bound: int
    roots_checked: int = 0
    wall_root: Vec | None = None
    wall_level: int | None = None

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "root_depth": self.root_depth,
            "n_bound": self.n_bound,
            "roots_checked": self.roots_checked,
        }
        if self.status == "on_wall":
            out["wall_root"] = list(self.wall_root)
            out["wall_level"] = self.wall_level
        return out


def is_regular(
    lattice: RootLattice,
    p: DualPoint,
    root_depth: int,
    n_bound: int,
    cap: int | None = None,
) -> RegularityResult:
    """Scan the hyperplanes h(root) = n over a bounded window of roots and levels.

    A hit needs the imaginary value to vanish and the real value to be an
    integer within the level bound; "regular" is always relative to the
    bounds used, and a capped enumeration yields "undetermined".
    """
    kwargs = {} if cap is None else {"cap": cap}
    try:
        roots = enumerate_real_roots(lattice, root_depth, **kwargs)
    except BudgetExceeded:
        return RegularityResult("undetermined", root_depth, n_bound)
    for root in roots:
        re_val, im_val = p.value(root)
        if im_val == 0 and re_val.denominator == 1 and abs(re_val) <= n_bound:
            # The same wall is cut out by (root, n) and (-root, -n); report
            # the representative whose leading nonzero entry is positive.
            level = int(re_val)
            lead = next(x for x in root if x != 0)
            if lead < 0:
                root = tuple(-x for x in root)
                level = -level
            return RegularityResult(
                "on_wall",
                root_depth,
                n_bound,
                roots_checked=len(roots),
                wall_root=root,
                wall_level=level,
            )
    return RegularityResult("regular", root_depth, n_bound, roots_checked=len(roots))
