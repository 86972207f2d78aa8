"""Finite, exact probes of the Tits cone in the complexified dual space.

A dual point stores the exact rational values of a linear functional h on
the simple roots, split into real and imaginary parts.  Dominance chasing
reflects the point at the lowest negative imaginary coordinate until all of
them are nonnegative; regularity is a bounded semi-decision against the
countable family of affine reflection hyperplanes {h(root) = n}.

Both probes work on integers.  A dual point is held as two integer rows
over one denominator d >= 1: its values are (re[v] + i*im[v]) / d.  The
rows stay integral under the dual action h -> h s_v, because every simple
reflection is an integral transvection, and d > 0 keeps every sign; so
dominance chasing never leaves the integers and keeps d, and a wall test is
integer dot products with the hit condition scaled by d.

The chase reads the pairings p_v = C e_v of the simple transvections
s_v = I - e_v p_v^T once, by vertex position, and a step is
h -> h - h[v] p_v on both rows, over the support of p_v.  Only that support
changes, so the search for the next negative imaginary entry starts at its
lowest index.

A dominance result is checked against its word, not against the chase:
the word's letters, each a simple transvection, applied in turn to the rows
of the input point (``weyl.act_word``) must give the rows of the returned
point, over the same denominator.  By associativity that is the input's
rows times the word's matrix M, without building M.  The wall scan reads
its roots from the layered root window of ``weyl.root_orbit``, so probes of
one lattice at two depths share one closure, and probes at one built depth
share one sorted window.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import BudgetExceeded, NotInConeWithinBudget, ValidationError
from .exact import Vec
from .lattice import RootLattice
from .weyl import DEFAULT_ROOT_CAP, Word, enumerate_real_roots, simple_reflection


@dataclass(frozen=True)
class DualPoint:
    """Values of h on the simple roots: (re[v] + i*im[v]) / d, with integer
    rows re and im and one denominator d >= 1."""

    d: int
    re: Vec
    im: Vec

    def __post_init__(self):
        if len(self.re) != len(self.im):
            raise ValueError("re and im must have equal length")
        if self.d < 1:
            raise ValueError("the denominator d must be >= 1")


@dataclass(frozen=True)
class DominanceResult:
    """A dominant point and the word that reaches it.

    The word reproduces the chase exactly: the input's rows times its
    matrix M are the returned point's rows, over the same denominator.  A
    check of the word therefore applies the word itself, for example its
    letters in turn through ``act_word(lattice, word, rows)`` on
    ``rows = [list(p.re), list(p.im)]``; it does not replay the chase.
    """

    point: DualPoint
    word: Word
    steps: int
    strictly_dominant: bool  # False means: on the chamber closure, interiority undetermined


def make_dominant(
    lattice: RootLattice, p: DualPoint, max_steps: int
) -> DominanceResult:
    """Chase the imaginary part into the dominant chamber, lowest index first.

    The returned word reproduces the transformation exactly: the input rows
    times its matrix M, or its letters applied to them in turn, are the
    output rows, over the same denominator.  Raises NotInConeWithinBudget
    when the budget runs out, which cannot distinguish a point outside the
    cone from a short budget.
    """
    if max_steps < 1:
        raise ValidationError("max_steps must be >= 1")
    # p_v of s_v = I - e_v p_v^T, by vertex position: h s_v = h - h[v] p_v.
    pairings = [simple_reflection(lattice, v).step.p for v in lattice.vertices]
    re, im = list(p.re), list(p.im)  # updated in place, over p.d
    n = len(im)
    word: list = []
    start = 0  # im[:start] is nonnegative
    for step in range(max_steps + 1):
        for neg in range(start, n):
            if im[neg] < 0:
                break
        else:
            return DominanceResult(
                DualPoint(p.d, tuple(re), tuple(im)),
                tuple(word),
                step,
                strictly_dominant=all(x > 0 for x in im),
            )
        if step == max_steps:
            break
        c_re, c_im = re[neg], im[neg]
        p_v = pairings[neg]
        for j, b in p_v:
            re[j] -= c_re * b
            im[j] -= c_im * b
        # Below neg only the support of p_v, sorted by index, can have
        # turned negative.
        start = p_v[0][0]
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
    cap: int = DEFAULT_ROOT_CAP,
) -> RegularityResult:
    """Scan the hyperplanes h(root) = n over a bounded window of roots and levels.

    A hit needs the imaginary value to vanish and the real value to be an
    integer within the level bound; "regular" is always relative to the
    bounds used, and a capped enumeration yields "undetermined".  On the
    rows of the point that is im . root == 0, re . root divisible by d and
    |re . root| <= n_bound * d.
    """
    if n_bound < 0:
        raise ValidationError("n_bound must be >= 0")
    try:
        roots = enumerate_real_roots(lattice, root_depth, cap)
    except BudgetExceeded:
        return RegularityResult("undetermined", root_depth, n_bound)
    d, re, im = p.d, p.re, p.im
    for root in roots:
        if sum(map(mul, im, root)):
            continue
        re_val = sum(map(mul, re, root))
        if re_val % d == 0 and abs(re_val) <= n_bound * d:
            # The same wall is cut out by (root, n) and (-root, -n); report
            # the representative whose leading nonzero entry is positive.
            level = re_val // d
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
