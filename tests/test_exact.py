"""Exact linear algebra helpers, checked against independent oracles."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoweyl.exact import (
    format_rational,
    identity,
    mat_inv,
    mat_mul,
    mat_vec,
    parse_rational,
    transpose,
)

from oracles import determinant, integer_kernel, is_unit_upper_triangular

small_matrices = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: tuple(tuple(r) for r in rows))
)


def rational_rank(a):
    m = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def permanent_free_det(a):
    """Leibniz expansion; independent oracle for small determinants."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= a[i][perm[i]]
        total += sign * term
    return total


def test_parse_format_rational_roundtrip():
    for text in ["1/2", "-1/42", "0", "7", "-3"]:
        assert format_rational(parse_rational(text)) == text
    assert parse_rational(" 3/6 ") == Fraction(1, 2)


def test_unit_upper_triangular():
    assert is_unit_upper_triangular(((1, 5), (0, 1)))
    assert not is_unit_upper_triangular(((1, 0), (1, 1)))
    assert not is_unit_upper_triangular(((2, 0), (0, 1)))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_determinant_matches_leibniz(a):
    assert determinant(a) == permanent_free_det(a)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_integer_kernel_is_saturated_basis(a):
    kernel = integer_kernel(a)
    n = len(a[0])
    # every basis vector solves the system
    for v in kernel:
        assert mat_vec(a, v) == tuple(0 for _ in a)
    # dimension matches the rational rank
    assert len(kernel) == n - rational_rank(a)
    # saturation: the gcd of the maximal minors of the basis matrix is 1
    if kernel:
        k = len(kernel)
        g = 0
        for cols in combinations(range(n), k):
            sub = tuple(tuple(v[c] for c in cols) for v in kernel)
            g = _gcd(g, abs(determinant(sub)))
        assert g == 1


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_integer_kernel_saturation_example():
    # Naive rational elimination could return (1, -1, 0), (1, 1, -2); the
    # saturated kernel of x+y+z=0 twice over must have unimodular minors.
    a = ((1, 1, 1), (2, 2, 2))
    kernel = integer_kernel(a)
    assert len(kernel) == 2
    minors = [
        determinant(tuple(tuple(v[c] for c in cols) for v in kernel))
        for cols in combinations(range(3), 2)
    ]
    assert _gcd(_gcd(abs(minors[0]), abs(minors[1])), abs(minors[2])) == 1


def test_integer_kernel_trivial_cases():
    assert integer_kernel(((1, 0), (0, 1))) == ()
    assert integer_kernel(((0,),)) == ((1,),)


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_mat_inv_of_unimodular(a):
    d = determinant(a)
    if d not in (1, -1):
        with pytest.raises(ValueError):
            mat_inv(a)
        return
    inv = mat_inv(a)
    assert mat_mul(a, inv) == identity(len(a))
    assert mat_mul(inv, a) == identity(len(a))


def test_transpose():
    assert transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))
