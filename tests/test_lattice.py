"""Euler/Cartan forms, characteristic, radical: frozen values and laws.

The frozen radical vectors for the vanishing-characteristic tuples are the
null-root coefficient vectors, recomputed by hand from I @ x = 0 before
being pinned here.  The sparse rows and the closed-form radical are held to
the dense Euler matrix and ``integer_kernel`` of ``oracles``.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octoweyl import lattice
from octoweyl.errors import InvalidQuiver, NotOctopus
from octoweyl.exact import identity, mat_vec, transpose
from octoweyl.lattice import (
    RootLattice,
    delta_vector,
    euler_characteristic,
    octopus_lattice,
    root_lattice,
    star_lattice,
    weyl_class,
)
from octoweyl.quiver import BoundQuiver, Weights, build_octopus, build_star, default_lambda
from octoweyl.suites import DEFAULT_CATALOG

from oracles import euler_matrix, is_unit_upper_triangular, radical_basis, sparse_rows

weight_tuples = st.lists(st.integers(2, 5), min_size=3, max_size=4).map(tuple)
wide_weight_tuples = st.lists(st.integers(2, 7), min_size=3, max_size=5).map(tuple)


def _quiver(a, kind):
    w = Weights(a)
    return build_star(w) if kind == "star" else build_octopus(w, default_lambda(w.r))


def _dense_cartan(q):
    """E + E^T of the dense Euler oracle."""
    e = euler_matrix(q)
    return tuple(tuple(x + y for x, y in zip(row, col)) for row, col in zip(e, transpose(e)))


def test_octopus_euler_222_frozen():
    # Hand count: three hub arrows, three arrows into 1*, two relations 1 -> 1*.
    q = build_octopus(Weights((2, 2, 2)))
    assert root_lattice(q).euler == (
        (1, -1, -1, -1, 2),
        (0, 1, 0, 0, -1),
        (0, 0, 1, 0, -1),
        (0, 0, 0, 1, -1),
        (0, 0, 0, 0, 1),
    )


def test_star_euler_and_cartan_222():
    lat = root_lattice(build_star(Weights((2, 2, 2))))
    assert lat.euler == (
        (1, -1, -1, -1),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    assert lat.cartan == (
        (2, -1, -1, -1),
        (-1, 2, 0, 0),
        (-1, 0, 2, 0),
        (-1, 0, 0, 2),
    )


def test_octopus_cartan_matches_diagram():
    lat = octopus_lattice((2, 2, 3))
    hub = lat.index("1")
    ext = lat.index("1*")
    cart = lat.cartan
    assert cart[hub][ext] == 2
    for v in lat.vertices:
        i = lat.index(v)
        assert cart[i][i] == 2
        if isinstance(v, tuple) and v[1] == 1:
            assert cart[i][ext] == -1
            assert cart[hub][i] == -1
        if isinstance(v, tuple) and v[1] > 1:
            assert cart[i][ext] == 0


def test_characteristic_values():
    assert euler_characteristic(Weights((2, 2, 2))) == Fraction(1, 2)
    assert euler_characteristic(Weights((3, 3, 3))) == 0
    assert euler_characteristic(Weights((2, 3, 7))) == Fraction(-1, 42)
    assert weyl_class(Weights((2, 2, 2))) == "affine"
    assert weyl_class(Weights((3, 3, 3))) == "elliptic"
    assert weyl_class(Weights((2, 3, 7))) == "cuspidal"


# Null-root coefficients of the four vanishing-characteristic catalog tuples.
ELLIPTIC_RADICALS = {
    (3, 3, 3): (3, 2, 1, 2, 1, 2, 1),
    (2, 4, 4): (4, 2, 3, 2, 1, 3, 2, 1),
    (2, 3, 6): (6, 3, 4, 2, 5, 4, 3, 2, 1),
    (2, 2, 2, 2): (2, 1, 1, 1, 1),
}


@pytest.mark.parametrize("a", DEFAULT_CATALOG)
def test_radical_rank_dichotomy(a):
    w = Weights(a)
    rad = star_lattice(w).radical
    if euler_characteristic(w) == 0:
        assert len(rad) == 1
        assert rad[0] == ELLIPTIC_RADICALS[a]
    else:
        assert rad == ()


@pytest.mark.parametrize("a", DEFAULT_CATALOG)
def test_octopus_radical_contains_delta(a):
    w = Weights(a)
    octo = octopus_lattice(w, default_lambda(w.r))
    star = star_lattice(w)
    delta = delta_vector(octo)
    assert mat_vec(octo.cartan, delta) == tuple(0 for _ in range(octo.rank))
    assert len(octo.radical) == len(star.radical) + 1


def test_delta_examples():
    octo = octopus_lattice((2, 2, 2))
    assert delta_vector(octo) == (-1, 0, 0, 0, 1)
    # the whole radical is the delta line here (sign-normalized basis)
    assert octo.radical == ((1, 0, 0, 0, -1),)
    for v in octo.vertices:
        assert octo.form(delta_vector(octo), octo.basis_vector(v)) == 0
    with pytest.raises(NotOctopus):
        delta_vector(star_lattice((2, 2, 2)))


def test_delta_is_built_once_per_lattice():
    w = Weights((2, 3, 4))
    octo = root_lattice(build_octopus(w, default_lambda(3)))
    first = octo.delta
    assert first == delta_vector(octo)
    assert octo.delta is first
    with pytest.raises(NotOctopus):
        star_lattice(w).delta


def test_radical_basis_rejects_asymmetric():
    with pytest.raises(ValueError):
        radical_basis(((1, 2), (3, 4)))


@settings(max_examples=40, deadline=None)
@given(wide_weight_tuples, st.sampled_from(("star", "octopus")))
@example((2, 2, 2, 2), "star")
@example((2, 2, 2, 2), "octopus")
@example((3, 3, 3), "star")
@example((3, 3, 3), "octopus")
@example((2, 4, 4), "star")
@example((2, 4, 4), "octopus")
@example((2, 3, 6), "star")
@example((2, 3, 6), "octopus")
def test_closed_form_radical_matches_integer_kernel(a, kind):
    # In order and sign: -delta first, then the null root, each with a
    # positive leading entry.
    q = _quiver(a, kind)
    assert root_lattice(q).radical == radical_basis(_dense_cartan(q))


@settings(max_examples=40, deadline=None)
@given(wide_weight_tuples, st.sampled_from(("star", "octopus")))
def test_rows_match_the_dense_euler_oracle(a, kind):
    q = _quiver(a, kind)
    lat = root_lattice(q)
    assert lat.euler_rows == sparse_rows(euler_matrix(q))
    assert lat.cartan_rows == sparse_rows(_dense_cartan(q))
    assert lat.euler == euler_matrix(q) and lat.cartan == _dense_cartan(q)


@settings(max_examples=40, deadline=None)
@given(weight_tuples)
def test_matrix_laws(a):
    w = Weights(a)
    for lat in (star_lattice(w), octopus_lattice(w, default_lambda(w.r))):
        assert is_unit_upper_triangular(lat.euler)
        assert lat.cartan == transpose(lat.cartan)
        assert all(lat.cartan[i][i] == 2 for i in range(lat.rank))
        for v in lat.vertices:
            e = lat.basis_vector(v)
            assert lat.form(e, e) == 2


@settings(max_examples=40, deadline=None)
@given(weight_tuples, st.data())
def test_split_basis_roundtrip(a, data):
    lat = octopus_lattice(Weights(a), default_lambda(len(a)))
    x = tuple(
        data.draw(st.integers(-9, 9), label=f"x{i}") for i in range(lat.rank)
    )
    assert lat.from_split(lat.to_split(x)) == x
    assert lat.to_split(lat.from_split(x)) == x
    # the split of the extension simple root is hub + delta
    ext = lat.basis_vector("1*")
    split = lat.to_split(ext)
    assert split == (1,) + (0,) * (lat.rank - 2) + (1,)


def test_star_part_and_delta_coordinate():
    lat = octopus_lattice((2, 2, 2))
    x = (5, 1, -2, 0, 3)  # = (5 + 3) alpha_1 + ... + 3 delta in split form
    assert lat.star_part(x) == (8, 1, -2, 0)
    assert lat.delta_coordinate(x) == 3


def test_basis_vector_is_the_shared_identity_row():
    for a in DEFAULT_CATALOG:
        w = Weights(a)
        for lat in (star_lattice(w), octopus_lattice(w, default_lambda(w.r))):
            for i, v in enumerate(lat.vertices):
                e = lat.basis_vector(v)
                assert e == tuple(int(k == i) for k in range(lat.rank))
                assert e is identity(lat.rank)[i]


def test_lattice_matrices_independent_of_marked_points():
    from octoweyl.quiver import parse_lambda

    w = Weights((2, 2, 2, 2))
    a = octopus_lattice(w, parse_lambda("inf,0,1,2"))
    b = octopus_lattice(w, parse_lambda("inf,0,1,-7/3"))
    assert a.euler == b.euler and a.cartan == b.cartan


def test_tampered_quiver_rejected_at_validation():
    good = build_star(Weights((2, 2, 2)))
    missing_arrow = BoundQuiver(
        kind="star",
        weights=good.weights,
        vertices=good.vertices,
        arrows=good.arrows[:-1],
        relations=(),
    )
    with pytest.raises(InvalidQuiver):
        root_lattice(missing_arrow)
    extra_relation = BoundQuiver(
        kind="star",
        weights=good.weights,
        vertices=good.vertices,
        arrows=good.arrows,
        relations=((("1", (1, 1)), 1),),
    )
    with pytest.raises(InvalidQuiver):
        root_lattice(extra_relation)


class CountedVertices(tuple):
    """A vertex tuple that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_lattice_hash_is_computed_once_and_follows_equality():
    w = Weights((2, 3, 4))
    a = root_lattice(build_octopus(w, default_lambda(3)))
    b = root_lattice(build_octopus(w, default_lambda(3)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != star_lattice(w)
    counted = RootLattice(a.kind, a.weights, CountedVertices(a.vertices), a.euler_rows)
    for _ in range(3):
        assert hash(counted) == hash(a)
    assert counted == a
    assert CountedVertices.hashes == 1


def test_lattice_build_makes_one_euler_matrix(monkeypatch):
    # The one Euler matrix is its sparse rows; no dense matrix is built.
    calls = {"euler_rows": 0, "validate": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(BoundQuiver, "euler_rows", counted("euler_rows", BoundQuiver.euler_rows))
    monkeypatch.setattr(BoundQuiver, "validate", counted("validate", BoundQuiver.validate))
    w = Weights((2, 3, 150))
    # Past the lattice cache, so the lattice is really built.
    lat = lattice._cached_lattice.__wrapped__("octopus", w, default_lambda(3))
    assert calls == {"euler_rows": 1, "validate": 1}
    assert "euler" not in lat.__dict__ and "cartan" not in lat.__dict__
    monkeypatch.undo()
    assert lat.euler_rows == sparse_rows(euler_matrix(build_octopus(w, default_lambda(3))))
