"""Braid mutations and twists on lattice classes of exceptional collections."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoweyl.errors import IndexOutOfRange, NotNormOne, NotNormTwo, RankMismatch
from octoweyl.exact import sparse
from octoweyl.ktheory import (
    KCollection,
    braid_act,
    braid_word_act,
    changed_window,
    coxeter_agrees_on_window,
    coxeter_from_collection,
    is_full,
    numerically_exceptional,
    parse_braid_word,
    parse_move,
    preserved_on_window,
    simples_collection,
    spherical_twist_K,
    twist_rows,
)
from octoweyl.lattice import octopus_lattice, star_lattice
from octoweyl.quiver import Weights, default_lambda
from octoweyl.suites import DEFAULT_CATALOG
from octoweyl.weyl import WeylElement, coxeter_element, evaluate_word, simple_reflection

from oracles import collection_of, dense_braid_act, euler_gram, twist_matrix

weight_tuples = st.lists(st.integers(2, 4), min_size=3, max_size=4).map(tuple)


def test_simples_are_numerically_exceptional():
    for lat in (star_lattice((2, 2, 2)), octopus_lattice((2, 2, 2))):
        k = simples_collection(lat)
        assert numerically_exceptional(k).ok
        assert is_full(k)


def test_swapped_simples_fail_with_witness():
    lat = octopus_lattice((2, 2, 2))
    k = simples_collection(lat)
    swapped = collection_of((k.classes[1], k.classes[0]) + k.classes[2:], lat)
    check = numerically_exceptional(swapped)
    assert not check.ok
    i, j, value, expected = check.witness
    assert (i, j) == (1, 0) and value == -1 and expected == 0


def test_rank_mismatch():
    lat = octopus_lattice((2, 2, 2))
    with pytest.raises(RankMismatch):
        collection_of((lat.basis_vector("1"),), lat)


def test_single_right_mutation_worked_example():
    # First pair of the octopus simples: pairing -1, so the moved class
    # becomes minus the sum of the two.
    lat = octopus_lattice((2, 2, 2))
    k = braid_act(simples_collection(lat), ("b", 1, 1))
    assert k.classes[0] == (0, 1, 0, 0, 0)
    assert k.classes[1] == (-1, -1, 0, 0, 0)
    assert numerically_exceptional(k).ok


def test_moves_invert_and_repeat():
    lat = octopus_lattice((2, 2, 3))
    k = simples_collection(lat)
    for i in range(1, len(k)):
        assert braid_word_act(k, [("b", i, 1), ("b", i, -1)]).classes == k.classes
        assert braid_word_act(k, [("b", i, -1), ("b", i, 1)]).classes == k.classes
    for i in range(1, len(k) + 1):
        assert braid_word_act(k, [("e", i), ("e", i)]).classes == k.classes


@settings(max_examples=20, deadline=None)
@given(weight_tuples)
def test_braid_relations_pointwise(a):
    lat = octopus_lattice(Weights(a), default_lambda(len(a)))
    k = simples_collection(lat)
    mu = len(k)
    for i in range(1, mu):
        for j in range(i + 2, mu):
            assert (
                braid_word_act(k, [("b", i, 1), ("b", j, 1)]).classes
                == braid_word_act(k, [("b", j, 1), ("b", i, 1)]).classes
            )
    for i in range(1, mu - 1):
        assert (
            braid_word_act(k, [("b", i, 1), ("b", i + 1, 1), ("b", i, 1)]).classes
            == braid_word_act(k, [("b", i + 1, 1), ("b", i, 1), ("b", i + 1, 1)]).classes
        )
    for i in range(1, mu):
        assert (
            braid_word_act(k, [("b", i, 1), ("e", i)]).classes
            == braid_word_act(k, [("e", i + 1), ("b", i, 1)]).classes
        )


@settings(max_examples=20, deadline=None)
@given(weight_tuples, st.data())
def test_mutations_preserve_exceptionality_and_fullness(a, data):
    lat = octopus_lattice(Weights(a), default_lambda(len(a)))
    k = simples_collection(lat)
    mu = len(k)
    moves = [("b", i, s) for i in range(1, mu) for s in (1, -1)]
    moves += [("e", i) for i in range(1, mu + 1)]
    word = data.draw(st.lists(st.sampled_from(moves), max_size=6), label="word")
    image = braid_word_act(k, word)
    assert numerically_exceptional(image).ok
    assert is_full(image)
    assert euler_gram(image)[0][0] == 1


def _k_lattice(a, kind):
    w = Weights(a)
    return star_lattice(w) if kind == "star" else octopus_lattice(w, default_lambda(w.r))


# Catalog weights and (2,3,20), star and octopus.
k_lattices = st.builds(
    _k_lattice,
    st.sampled_from(DEFAULT_CATALOG + ((2, 3, 20),)),
    st.sampled_from(("star", "octopus")),
)


def all_moves(mu, slots=None):
    """The braid moves and shifts of mu classes whose slots, 1-based, lie in
    ``slots`` (all of them by default)."""
    slots = range(1, mu + 1) if slots is None else slots
    moves = [("b", i, s) for i in slots if i + 1 in slots for s in (1, -1)]
    return moves + [("e", i) for i in slots]


@settings(max_examples=40, deadline=None)
@given(k_lattices, st.data())
def test_braid_act_matches_the_dense_classes(lat, data):
    k = simples_collection(lat)
    word = data.draw(st.lists(st.sampled_from(all_moves(len(k))), max_size=10), label="word")
    for move in word:
        expected = dense_braid_act(k, move)
        k = braid_act(k, move)
        assert k.classes == expected
        assert k.supports == tuple(map(sparse, expected))


def window_image(lat, data, roots_only):
    """The simples, a drawn window of positions and a collection that has the
    simples' classes outside it.  In the window it holds the classes of the
    image of a word of moves on the slots in the window, or in and next to
    it, some then replaced: by a class of the image of a word on the whole
    collection (a real root) with ``roots_only``, or else by any vector of
    small integers on a few coordinates.  A word inside the window gives a
    braid image, one across its edges a class that pairs with the simples
    just outside it."""
    simples = simples_collection(lat)
    n = lat.rank
    a = data.draw(st.integers(0, n - 1), label="start")
    b = data.draw(st.integers(a + 1, min(n, a + 4)), label="stop")
    inside = all_moves(n, range(a + 1, b + 1))
    near = all_moves(n, range(max(a, 1), min(b + 1, n) + 1))
    moves = data.draw(st.sampled_from((inside, near)), label="moves")
    word = data.draw(st.lists(st.sampled_from(moves), max_size=6), label="word")
    classes = list(simples.classes)
    classes[a:b] = braid_word_act(simples, word).classes[a:b]
    if roots_only:
        far = data.draw(st.lists(st.sampled_from(all_moves(n)), max_size=4), label="far")
        new = st.sampled_from(braid_word_act(simples, far).classes)
    else:
        entries = st.dictionaries(st.integers(0, n - 1), st.integers(-2, 2), max_size=4)
        new = entries.map(lambda d: tuple(d.get(j, 0) for j in range(n)))
    for i in range(a, b):
        if data.draw(st.integers(0, 4), label="replace") == 0:
            classes[i] = data.draw(new, label="class")
    return simples, collection_of(classes, lat), range(a, b)


@settings(max_examples=150, deadline=None)
@given(k_lattices, st.data())
def test_preservation_on_the_window_matches_the_full_scans(lat, data):
    simples, image, window = window_image(lat, data, roots_only=False)
    full = numerically_exceptional(image).ok and is_full(image)
    assert preserved_on_window(simples, image, changed_window(simples, image)) == full
    assert preserved_on_window(simples, image, window) == full


@settings(max_examples=100, deadline=None)
@given(k_lattices, st.data())
def test_coxeter_on_the_window_matches_the_full_products(lat, data):
    simples, image, window = window_image(lat, data, roots_only=True)
    full = coxeter_from_collection(image).rows == coxeter_from_collection(simples).rows
    assert coxeter_agrees_on_window(simples, image, changed_window(simples, image)) == full
    assert coxeter_agrees_on_window(simples, image, window) == full


def test_window_checks_decide_both_ways():
    # The equivalence tests above draw both verdicts; here each is pinned.
    lat = octopus_lattice(Weights((2, 3, 4)), default_lambda(3))
    simples = simples_collection(lat)
    moved = braid_act(simples, ("b", 3, 1))
    assert changed_window(simples, moved) == range(2, 4)
    assert changed_window(simples, simples) == range(0)
    assert preserved_on_window(simples, moved, range(2, 4))
    assert coxeter_agrees_on_window(simples, moved, range(2, 4))
    assert preserved_on_window(simples, simples, range(0))
    swapped = list(simples.supports)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    swapped = KCollection(tuple(swapped), lat)
    assert not preserved_on_window(simples, swapped, range(2, 4))
    assert not coxeter_agrees_on_window(simples, swapped, range(2, 4))


def test_preservation_on_the_window_carries_the_simples_failures():
    # An Euler form with the entry E[3][1] below the diagonal: the simples
    # fail there, and so does an image whose window leaves out 1 and 3.  A
    # window with 3 in it recomputes the entry: e_3 - e_1 in place of e_3
    # pairs to 0 with e_1 and mends the collection.
    lat = octopus_lattice(Weights((2, 2, 2)), default_lambda(3))
    rows = list(lat.euler_rows)
    rows[3] = ((1, 1),) + rows[3]
    lat = replace(lat, euler_rows=tuple(rows))
    simples = simples_collection(lat)
    assert numerically_exceptional(simples).witness == (3, 1, 1, 0)
    assert not preserved_on_window(simples, simples, range(0))
    mended = list(simples.supports)
    mended[3] = ((1, -1), (3, 1))
    mended = KCollection(tuple(mended), lat)
    assert numerically_exceptional(mended).ok and is_full(mended)
    assert preserved_on_window(simples, mended, range(3, 4))
    for move in all_moves(len(simples)):
        image = braid_act(simples, move)
        full = numerically_exceptional(image).ok and is_full(image)
        assert preserved_on_window(simples, image, changed_window(simples, image)) == full


def test_preservation_on_the_window_asserts_unit_simples():
    lat = octopus_lattice(Weights((2, 2, 2)), default_lambda(3))
    simples = simples_collection(lat)
    moved = braid_act(simples, ("b", 1, 1))
    with pytest.raises(ValueError):
        preserved_on_window(moved, braid_act(moved, ("b", 3, 1)), range(2, 4))


def test_mutation_class_formula_convention():
    # Moved class equals pairing * pivot - moved, exactly when the reverse
    # pairing vanishes; this pins the sign convention.
    lat = octopus_lattice((2, 3, 3))
    k = simples_collection(lat)
    for i in range(1, len(k)):
        x, y = k.classes[i - 1], k.classes[i]
        if lat.euler_form(y, x) != 0:
            continue
        coeff = lat.euler_form(x, y)
        expected = tuple(coeff * b - a for a, b in zip(x, y))
        assert braid_act(k, ("b", i, 1)).classes[i] == expected


def test_pivot_norm_guard():
    lat = octopus_lattice((2, 2, 2))
    bad = (1, 0, 0, 0, 1)  # self-pairing 4
    classes = (bad,) + simples_collection(lat).classes[1:]
    k = collection_of(classes, lat)
    with pytest.raises(NotNormOne):
        braid_act(k, ("b", 1, -1))  # pivot is the bad first entry
    with pytest.raises(IndexOutOfRange):
        braid_act(k, ("b", 9, 1))
    with pytest.raises(IndexOutOfRange):
        braid_act(k, ("e", 0))


def test_coxeter_from_collection_invariance():
    lat = octopus_lattice((2, 2, 3))
    k = simples_collection(lat)
    c0 = coxeter_from_collection(k).matrix
    assert c0 == coxeter_element(lat).matrix
    mu = len(k)
    for i in range(1, mu):
        assert coxeter_from_collection(braid_act(k, ("b", i, 1))).matrix == c0
    for i in range(1, mu + 1):
        assert coxeter_from_collection(braid_act(k, ("e", i))).matrix == c0


def test_spherical_twist_examples():
    lat = octopus_lattice((2, 2, 2))
    a1 = lat.basis_vector("1")
    ext = lat.basis_vector("1*")
    arm = lat.basis_vector((2, 1))
    # twisting a class by itself lands on its negative
    assert spherical_twist_K(lat, a1, a1) == (-1, 0, 0, 0, 0)
    # orthogonal classes are untouched
    arm_b = lat.basis_vector((3, 1))
    assert spherical_twist_K(lat, arm, arm_b) == arm_b
    # the hub/extension pairing is +2
    assert spherical_twist_K(lat, ext, a1) == (1, 0, 0, 0, -2)
    with pytest.raises(NotNormTwo):
        spherical_twist_K(lat, lat.delta, a1)
    # delta pairs to 0 with every unit vector, so no image is read for it.
    for s in (lat.delta, (2, 0, 0, 0, 0)):
        with pytest.raises(NotNormTwo):
            twist_rows(lat, s)


def test_twist_matrix_equals_reflection():
    for a in [(2, 2, 2), (2, 3, 4)]:
        lat = octopus_lattice(Weights(a))
        for v in lat.vertices:
            assert (
                twist_matrix(lat, lat.basis_vector(v))
                == simple_reflection(lat, v).matrix
            )


def dense_twist_rows(lat, s):
    """The moved rows of the dense twist matrix."""
    return WeylElement.from_matrix(twist_matrix(lat, s)).rows


def test_twist_rows_match_the_dense_twist_at_every_catalog_simple():
    for a in DEFAULT_CATALOG:
        w = Weights(a)
        for lat in (star_lattice(w), octopus_lattice(w, default_lambda(w.r))):
            for v in lat.vertices:
                s = lat.basis_vector(v)
                assert twist_rows(lat, s) == dense_twist_rows(lat, s)


@settings(max_examples=40, deadline=None)
@given(weight_tuples, st.sampled_from(("star", "octopus")), st.data())
def test_twist_rows_match_the_dense_twist_at_norm_two_classes(a, kind, data):
    # A real root, the image of a simple under a drawn word, shifted by a
    # multiple of delta on an octopus.
    w = Weights(a)
    lat = star_lattice(w) if kind == "star" else octopus_lattice(w, default_lambda(w.r))
    word = data.draw(st.lists(st.sampled_from(lat.vertices), max_size=8), label="word")
    v = data.draw(st.sampled_from(lat.vertices), label="v")
    s = evaluate_word(lat, [(u, 1) for u in word]).apply(lat.basis_vector(v))
    if lat.is_octopus:
        n = data.draw(st.integers(-3, 3), label="n")
        s = tuple(x + n * d for x, d in zip(s, lat.delta))
    assert lat.form(s, s) == 2
    assert twist_rows(lat, s) == dense_twist_rows(lat, s)


def test_move_parsing():
    assert parse_move("b3") == ("b", 3, 1)
    assert parse_move("B3") == ("b", 3, -1)
    assert parse_move("e2") == ("e", 2)
    assert parse_braid_word("b1, b2 e3,B1") == (
        ("b", 1, 1),
        ("b", 2, 1),
        ("e", 3),
        ("b", 1, -1),
    )
    with pytest.raises(ValueError):
        parse_move("q7")
