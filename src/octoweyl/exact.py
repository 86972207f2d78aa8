"""Exact arithmetic helpers: rational text forms and small integer matrices.

Matrices are tuples of tuples of Python ints, vectors are tuples of ints;
both are immutable and hashable so they can be used as set elements during
orbit and group enumeration. No floating point is used anywhere.

A sparse vector lists the (index, value) pairs of its nonzero entries; a
matrix given by its sparse rows multiplies a vector in time proportional to
its nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import compress, count
from operator import neg

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]
Sparse = tuple[tuple[int, int], ...]  # (index, value) of each nonzero entry


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(x: Fraction) -> str:
    """Render a rational as "p" or "p/q" with positive denominator."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@lru_cache(maxsize=64)
def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Mat, x: Vec) -> Vec:
    return tuple(sum(r * v for r, v in zip(row, x)) for row in a)


def sparse(x: Vec) -> Sparse:
    # The indices and the values of the nonzero entries, paired in C.
    return tuple(zip(compress(count(), x), filter(None, x)))


def dense_rows(rows: tuple[Sparse, ...], n: int) -> Mat:
    """The matrix of n columns with the given sparse rows."""
    out = []
    for row in rows:
        x = [0] * n
        for j, a in row:
            x[j] = a
        out.append(tuple(x))
    return tuple(out)


def sparse_mat_vec(rows: tuple[Sparse, ...], x) -> tuple:
    """a x for the matrix a given by its sparse rows."""
    out = []
    for row in rows:
        c = 0
        for j, b in row:
            c += b * x[j]
        out.append(c)
    return tuple(out)


def sparse_vec_mat(x: Sparse, rows: tuple[Sparse, ...]) -> dict[int, int]:
    """x^T a as {index: value}, for the matrix a given by its sparse rows:
    the sum of the rows in the support of x."""
    out: dict[int, int] = {}
    for i, a in x:
        for j, b in rows[i]:
            out[j] = out.get(j, 0) + a * b
    return out


def sparse_dot(row: dict[int, int], x: Sparse) -> int:
    """row . x for a row given as {index: value} and a sparse x."""
    # A plain loop: on the one- to three-entry vectors of the generators a
    # generator expression costs about three times as much.
    total = 0
    for j, a in x:
        total += a * row.get(j, 0)
    return total


def sparse_form(rows: tuple[Sparse, ...], x: Vec, y: Vec) -> int:
    """x^T a y for the matrix a given by its sparse rows, summed over the
    rows in the support of x: a term per entry of those rows."""
    total = 0
    for i, a in sparse(x):
        c = 0
        for j, b in rows[i]:
            c += b * y[j]
        total += a * c
    return total


def vec_neg(x: Vec) -> Vec:
    return tuple(map(neg, x))


def mat_inv(a: Mat) -> Mat:
    """Exact inverse of an integer matrix whose inverse is again integral.

    Gaussian elimination over the rationals; raises ValueError if the matrix
    is singular or the inverse has a non-integer entry (determinant not ±1).
    Its one library caller is ``WeylElement.inverse``, for an element that is
    neither a generator nor an involution.  No library path reaches that, but
    the public API does: the inverse of any product, such as a Coxeter
    element.
    """
    n = len(a)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = 1 / work[col][col]
        work[col] = [v * inv_p for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    out = []
    for row in work:
        ints = []
        for v in row[n:]:
            if v.denominator != 1:
                raise ValueError("inverse is not integral")
            ints.append(v.numerator)
        out.append(tuple(ints))
    return tuple(out)


def sparse_determinant(rows: tuple[Sparse, ...]) -> int:
    """Exact determinant of the square matrix with the given sparse rows.

    Fraction-free elimination over dict rows: a pivot p at (r, c) after the
    pivot prev turns each other row i into (p m_i - m_ic m_r) / prev, an exact
    division for any order of pivots (E. H. Bareiss, Math. Comp. 22, 1968).
    The pivot row is a live row with the fewest entries, and the pivot
    column the one of its entries shared with the fewest live rows, a
    Markowitz-style order that keeps fill-in low (H. M. Markowitz,
    Management Science 3, 1957).  A row without an entry in the pivot
    column would only be scaled by p / prev; it keeps the pivot it was last
    updated at and is scaled up to date when it is next used.  The
    determinant is the last pivot, signed by the permutation that takes each
    pivot row to its pivot column.
    """
    live = {i: dict(row) for i, row in enumerate(rows)}
    holders: dict[int, set[int]] = {}  # column -> live rows nonzero there
    for i, row in live.items():
        for j in row:
            holders.setdefault(j, set()).add(i)
    level = dict.fromkeys(live, 1)  # the pivot each row was last updated at
    queue = [(len(row), i) for i, row in live.items()]
    heapify(queue)
    column_of = {}
    prev = 1
    while live:
        size, r = heappop(queue)
        if r not in live or size != len(live[r]):
            continue  # a stale entry: the row has gone or changed
        if not size:
            return 0
        pivot_row = _scaled(live.pop(r), prev, level[r])
        c = min(pivot_row, key=lambda j: (len(holders[j]), abs(pivot_row[j]), j))
        p = pivot_row[c]
        for j in pivot_row:
            holders[j].discard(r)
        for i in holders.pop(c):
            row = _scaled(live[i], prev, level[i])
            f = row.pop(c)
            new = {j: a * p for j, a in row.items()}
            for j, b in pivot_row.items():
                if j != c:
                    new[j] = new.get(j, 0) - f * b
            new = {j: v // prev for j, v in new.items() if v}
            for j in row.keys() - new.keys():
                holders[j].discard(i)
            for j in new.keys() - row.keys():
                holders.setdefault(j, set()).add(i)
            live[i], level[i] = new, p
            heappush(queue, (len(new), i))
        column_of[r] = c
        prev = p
    return _permutation_sign(column_of) * prev


def _scaled(row: dict[int, int], prev: int, level: int) -> dict[int, int]:
    """A row last updated at pivot ``level``, scaled up to date at ``prev``."""
    if level == prev:
        return row
    return {j: a * prev // level for j, a in row.items()}


def _permutation_sign(perm: dict[int, int]) -> int:
    """The sign of a permutation given as a dict, by counting its cycles."""
    sign = 1
    seen = set()
    for start in perm:
        j = perm[start]
        seen.add(start)
        while j not in seen:
            seen.add(j)
            j = perm[j]
            sign = -sign
    return sign
