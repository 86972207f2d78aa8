"""Dense matrix predicates that the tests hold the library's matrices to."""


def is_unit_upper_triangular(a) -> bool:
    """Ones on the diagonal and zeros below it."""
    n = len(a)
    return all(
        a[i][j] == (1 if i == j else 0) for i in range(n) for j in range(i + 1)
    )
