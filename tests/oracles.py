"""Dense matrix predicates and kernels that the tests hold the library's
sparse kernels to, and the helpers that only the tests need."""

from octoweyl.weyl import WeylElement


def is_unit_upper_triangular(a) -> bool:
    """Ones on the diagonal and zeros below it."""
    n = len(a)
    return all(
        a[i][j] == (1 if i == j else 0) for i in range(n) for j in range(i + 1)
    )


def identity_element(lattice) -> WeylElement:
    """The identity of the lattice's Weyl group: no moved rows."""
    return WeylElement(lattice.rank, ())


def determinant(a) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination on the
    dense matrix, pivoting down the diagonal."""
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
