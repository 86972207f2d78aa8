"""Dense matrix predicates that the tests hold the library's matrices to,
and the helpers that only the tests need."""

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
