"""Star and octopus construction: counts, validation, canonical order."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octoweyl.errors import InvalidLambda, InvalidWeights
from octoweyl.exact import format_rational
from octoweyl.quiver import (
    EXT,
    HUB,
    INFINITY,
    ONE,
    ZERO,
    LambdaTuple,
    ProjPoint,
    Weights,
    build_octopus,
    build_star,
    default_lambda,
    parse_lambda,
    parse_point,
    parse_weights,
    vertex_str,
)

from oracles import parse_vertex

weight_tuples = st.lists(st.integers(2, 5), min_size=3, max_size=4).map(tuple)


def test_star_counts_forced():
    q = build_star(Weights((2, 2, 2)))
    assert len(q.vertices) == 4 and len(q.arrows) == 3
    q = build_star(Weights((2, 3, 7)))
    assert len(q.vertices) == 10 and len(q.arrows) == 9
    assert q.relations == ()


def test_invalid_weights():
    with pytest.raises(InvalidWeights):
        Weights((2, 2))
    with pytest.raises(InvalidWeights):
        Weights((2, 2, 1))
    with pytest.raises(InvalidWeights):
        parse_weights("2,x")


def test_octopus_counts_forced():
    q = build_octopus(Weights((2, 2, 2)))
    assert len(q.vertices) == 5 and len(q.arrows) == 6
    q = build_octopus(Weights((2, 2, 3)))
    assert len(q.vertices) == 6 and len(q.arrows) == 7


def test_octopus_lambda_validation():
    with pytest.raises(InvalidLambda):
        parse_lambda("inf,0,1,1")  # duplicate point
    with pytest.raises(InvalidLambda):
        parse_lambda("0,1,inf")  # wrong normalization
    with pytest.raises(InvalidLambda):
        build_octopus(Weights((2, 2, 2, 2)))  # four arms need explicit lambda
    with pytest.raises(InvalidLambda):
        build_octopus(Weights((2, 2, 2)), parse_lambda("inf,0,1,2"))  # wrong length
    ok = build_octopus(Weights((2, 2, 2, 2)), parse_lambda("inf,0,1,5/3"))
    assert len(ok.vertices) == 6


def test_projective_point_equality_is_cross_multiplication():
    assert parse_point("2/4") == parse_point("1/2")
    assert parse_point("inf") == ProjPoint(7, 0)
    assert parse_point("3") != parse_point("1/3")
    with pytest.raises(InvalidLambda):
        ProjPoint(0, 0)


@given(st.fractions(), st.integers(-50, 50).filter(bool))
@example(Fraction(-3, 4), 1)
@example(Fraction(-5), 1)
@example(Fraction(6, 8), -2)
def test_point_text_is_the_rational_text(x, scale):
    # Negative, integral and reduced values, given by any nonzero multiple.
    assert str(ProjPoint(x * scale, scale)) == format_rational(x)


@given(st.lists(st.fractions().filter(lambda x: x not in (0, 1)), unique=True, max_size=6))
def test_lambda_text_round_trips(values):
    lam = LambdaTuple((INFINITY, ZERO, ONE) + tuple(ProjPoint(x, 1) for x in values))
    assert parse_lambda(str(lam)) == lam


def test_lambda_does_not_change_quiver():
    w = Weights((2, 2, 2, 2))
    a = build_octopus(w, parse_lambda("inf,0,1,2"))
    b = build_octopus(w, parse_lambda("inf,0,1,-7/3"))
    assert a.vertices == b.vertices
    assert a.arrows == b.arrows
    assert a.relations == b.relations


@settings(max_examples=40, deadline=None)
@given(weight_tuples)
def test_canonical_order_is_topological(a):
    w = Weights(a)
    lam = default_lambda(w.r)
    for q in (build_star(w), build_octopus(w, lam)):
        pos = {v: i for i, v in enumerate(q.vertices)}
        assert all(pos[s] < pos[t] for s, t in q.arrows)
        assert all(pos[s] < pos[t] for (s, t), _ in q.relations)


@settings(max_examples=40, deadline=None)
@given(weight_tuples)
def test_octopus_extends_star_counts(a):
    w = Weights(a)
    star = build_star(w)
    octo = build_octopus(w, default_lambda(w.r))
    assert len(octo.vertices) == len(star.vertices) + 1
    assert len(octo.arrows) == len(star.arrows) + w.r
    octo.validate()
    star.validate()


def test_vertex_text_forms():
    for v in (HUB, EXT, (2, 5)):
        assert parse_vertex(vertex_str(v)) == v


def test_default_lambda_shape():
    lam = default_lambda(5)
    assert str(lam) == "inf,0,1,2,3"
    assert LambdaTuple(lam.entries) == lam
