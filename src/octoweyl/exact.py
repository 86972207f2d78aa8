"""Exact arithmetic helpers: rational text forms and small integer matrices.

Matrices are tuples of tuples of Python ints, vectors are tuples of ints;
both are immutable and hashable so they can be used as set elements during
orbit and group enumeration. No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


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


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def vec_neg(x: Vec) -> Vec:
    return tuple(-a for a in x)


def is_unit_upper_triangular(a: Mat) -> bool:
    n = len(a)
    return all(
        a[i][j] == (1 if i == j else 0) for i in range(n) for j in range(i + 1)
    )


def mat_inv(a: Mat) -> Mat:
    """Exact inverse of an integer matrix whose inverse is again integral.

    Gaussian elimination over the rationals; raises ValueError if the matrix
    is singular or the inverse has a non-integer entry (determinant not ±1).
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


def _sign_normalize(v: Vec) -> Vec:
    for a in v:
        if a != 0:
            return v if a > 0 else tuple(-x for x in v)
    return v


def integer_kernel(a: Mat) -> tuple[Vec, ...]:
    """Basis of the saturated integer kernel {x : a @ x = 0}.

    Unimodular row reduction is applied to the transpose while tracking the
    transform; transform rows matched to zero rows form a basis of the full
    kernel lattice, so every integer solution is an integer combination of
    the returned vectors and each vector is primitive.
    """
    rows = len(a)
    n = len(a[0]) if rows else 0
    b = [list(col) for col in zip(*a)]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivot_row = 0
    for c in range(rows):
        while True:
            live = [r for r in range(pivot_row, n) if b[r][c] != 0]
            if not live:
                break
            best = min(live, key=lambda r: abs(b[r][c]))
            b[pivot_row], b[best] = b[best], b[pivot_row]
            u[pivot_row], u[best] = u[best], u[pivot_row]
            done = True
            for r in range(pivot_row + 1, n):
                if b[r][c] != 0:
                    q = b[r][c] // b[pivot_row][c]
                    b[r] = [x - q * y for x, y in zip(b[r], b[pivot_row])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
                    if b[r][c] != 0:
                        done = False
            if done:
                pivot_row += 1
                break
    # Rows at and below pivot_row are the zero rows of the reduced transpose.
    kernel = [_sign_normalize(tuple(u[r])) for r in range(pivot_row, n)]
    return tuple(sorted(kernel))


def determinant(a: Mat) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def primitive(v: Vec) -> Vec:
    """Divide out the gcd and normalize the leading sign."""
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    if g > 1:
        v = tuple(a // g for a in v)
    return _sign_normalize(v)
