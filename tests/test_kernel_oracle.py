"""The sparse transvection kernel against a dense oracle built here.

Reflections, translations and their products are rebuilt in this file as
dense integer matrices and multiplied with ``mat_mul``/``mat_vec``; the
library's row-update kernel must agree with them exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoweyl.cone import _dual_reflect
from octoweyl.exact import identity, mat_inv, mat_mul, mat_vec, transpose
from octoweyl.lattice import octopus_lattice, star_lattice
from octoweyl.quiver import Weights, default_lambda
from octoweyl.weyl import (
    Transvection,
    enumerate_real_roots,
    evaluate_word,
    preserves_form,
    reflection,
    root_orbit,
    simple_reflection,
    translation_element,
)

weight_tuples = st.lists(st.integers(2, 5), min_size=3, max_size=4).map(tuple)


def _lattice(a, kind):
    w = Weights(a)
    return star_lattice(w) if kind == "star" else octopus_lattice(w, default_lambda(w.r))


lattices = st.builds(_lattice, weight_tuples, st.sampled_from(("star", "octopus")))
octopus_lattices = st.builds(_lattice, weight_tuples, st.just("octopus"))


def dense_transvection(n, u, p):
    """I - u p^T, entry by entry."""
    return tuple(tuple(int(i == j) - u[i] * p[j] for j in range(n)) for i in range(n))


def dense_reflection(lat, alpha):
    return dense_transvection(lat.rank, alpha, mat_vec(lat.cartan, alpha))


def dense_translation(lat, v):
    return dense_transvection(
        lat.rank, lat.delta, mat_vec(lat.cartan, lat.basis_vector(v))
    )


def dense_closure(lat, basis, depth):
    gens = [dense_reflection(lat, b) for b in basis]
    seen = set(basis)
    frontier = list(basis)
    stabilized = False
    for _ in range(depth):
        new = []
        for m in gens:
            for x in frontier:
                y = mat_vec(m, x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        if not new:
            stabilized = True
            break
        frontier = new
    else:
        stabilized = all(mat_vec(m, x) in seen for m in gens for x in frontier)
    return tuple(sorted(seen)), stabilized


@settings(max_examples=40, deadline=None)
@given(lattices, st.data())
def test_evaluate_word_matches_dense_product(lat, data):
    letter = st.tuples(st.sampled_from(lat.vertices), st.sampled_from((1, -1)))
    word = tuple(data.draw(st.lists(letter, max_size=12), label="word"))
    element = evaluate_word(lat, word)
    dense = identity(lat.rank)
    for v, _e in word:
        dense = mat_mul(dense, dense_reflection(lat, lat.basis_vector(v)))
    assert element.matrix == dense
    assert element.word == word
    assert preserves_form(lat, element.matrix)


@settings(max_examples=10, deadline=None)
@given(lattices)
def test_reflections_at_depth_three_roots_preserve_form(lat):
    for alpha in enumerate_real_roots(lat, 3):
        r = reflection(lat, alpha)
        assert r.matrix == dense_reflection(lat, alpha)
        assert preserves_form(lat, r.matrix)


@settings(max_examples=30, deadline=None)
@given(octopus_lattices, st.data())
def test_inverses_match_mat_inv(lat, data):
    star_verts = lat.star_vertices()
    gens = [simple_reflection(lat, v) for v in lat.vertices]
    gens += [translation_element(lat, v) for v in star_verts]
    gens += [translation_element(lat, v).inverse() for v in star_verts]
    alpha = data.draw(st.sampled_from(enumerate_real_roots(lat, 2)), label="root")
    gens.append(reflection(lat, alpha))
    for g in gens:
        assert g.inverse().matrix == mat_inv(g.matrix)
    picks = data.draw(
        st.lists(st.sampled_from(gens), min_size=1, max_size=5), label="product"
    )
    product = picks[0]
    dense = picks[0].matrix
    for g in picks[1:]:
        product = product * g
        dense = mat_mul(dense, g.matrix)
    assert product.matrix == dense
    assert product.inverse().matrix == mat_inv(dense)
    assert (product * product.inverse()).is_identity()


def test_translation_closed_forms():
    lat = octopus_lattice((2, 3, 4))
    for v in lat.star_vertices():
        tau = translation_element(lat, v)
        assert tau.matrix == dense_translation(lat, v)
        inverse = dense_transvection(
            lat.rank,
            tuple(-d for d in lat.delta),
            mat_vec(lat.cartan, lat.basis_vector(v)),
        )
        assert tau.inverse().matrix == inverse


def test_transvection_without_integral_inverse_is_rejected():
    # p . u = 1: the determinant 1 - p . u vanishes
    with pytest.raises(ValueError):
        Transvection(((0, 1),), ((0, 1),)).inverse()


@settings(max_examples=20, deadline=None)
@given(lattices, st.integers(0, 4))
def test_root_orbit_matches_dense_closure(lat, depth):
    basis = tuple(lat.basis_vector(v) for v in lat.vertices)
    assert root_orbit(lat, basis, depth) == dense_closure(lat, basis, depth)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(lattices, st.data())
def test_dual_reflect_matches_dense_transposed_action(lat, data):
    vals = tuple(
        data.draw(st.lists(rationals, min_size=lat.rank, max_size=lat.rank), label="h")
    )
    v = data.draw(st.integers(0, lat.rank - 1), label="v")
    dense = transpose(dense_reflection(lat, lat.basis_vector(lat.vertices[v])))
    (got,) = _dual_reflect(lat, (vals,), v)
    assert got == mat_vec(dense, vals)
    assert all(isinstance(x, Fraction) for x in got)
