"""Dominance chasing and bounded regularity in the dual space."""

import random
from fractions import Fraction as Q
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octoweyl.cone import DualPoint, is_regular, make_dominant
from octoweyl.errors import NotInConeWithinBudget, ValidationError
from octoweyl.exact import mat_vec, transpose
from octoweyl.lattice import star_lattice
from octoweyl.suites import DEFAULT_CATALOG
from octoweyl.weyl import DEFAULT_ROOT_CAP, enumerate_real_roots, evaluate_word

from oracles import point_value, rational_point, rational_values


def test_already_dominant_empty_word():
    lat = star_lattice((2, 2, 2))
    res = make_dominant(lat, rational_point((0, 0, 0, 0), (1, 1, 1, 1)), 10)
    assert res.word == () and res.steps == 0
    assert res.strictly_dominant


def test_single_step_worked_example():
    lat = star_lattice((2, 2, 2))
    res = make_dominant(lat, rational_point((1, 1, 1, 1), (-1, 1, 1, 1)), 10)
    assert res.word == (("1", 1),)
    assert res.point == DualPoint(1, (-1, 2, 2, 2), (1, 0, 0, 0))
    assert not res.strictly_dominant  # wall values: interiority undetermined


def test_finite_group_always_terminates():
    lat = star_lattice((2, 2, 2))
    rng = random.Random(7)
    for _ in range(50):
        p = rational_point(
            [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)],
            [Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)],
        )
        res = make_dominant(lat, p, 1000)
        assert all(x >= 0 for x in res.point.im)
        m = transpose(evaluate_word(lat, res.word).matrix)
        re, im = rational_values(p)
        assert (mat_vec(m, re), mat_vec(m, im)) == rational_values(res.point)


def test_outside_cone_exhausts_budget():
    lat = star_lattice((3, 3, 3))
    p = rational_point([0] * 7, [-1] * 7)
    with pytest.raises(NotInConeWithinBudget):
        make_dominant(lat, p, 500)


def test_budget_validation():
    lat = star_lattice((2, 2, 2))
    with pytest.raises(ValueError):
        make_dominant(lat, rational_point((0,) * 4, (1,) * 4), 0)


def test_regular_half_integer_point():
    lat = star_lattice((2, 2, 2))
    p = rational_point((Q(1, 2), Q(1, 2), Q(1, 2), Q(1, 2)), (1, 2, 3, 4))
    res = is_regular(lat, p, 10, 10)
    assert res.status == "regular"
    assert res.roots_checked == 24


def test_nonvanishing_imaginary_part_is_regular():
    # strictly dominant imaginary part: no root evaluates to a real number
    lat = star_lattice((2, 2, 2))
    p = rational_point((3, 5, 7, 11), (1, 1, 1, 1))
    assert is_regular(lat, p, 10, 100).status == "regular"


def test_planted_wall_detected():
    lat = star_lattice((2, 2, 2))
    p = rational_point((1, 0, 0, 0), (0, 1, 1, 1))
    res = is_regular(lat, p, 10, 10)
    assert res.status == "on_wall"
    assert res.wall_root == (1, 0, 0, 0) and res.wall_level == 1


def test_planted_composite_wall():
    lat = star_lattice((2, 2, 2))
    beta = (1, 1, 0, 0)  # hub + first arm, a root
    p = rational_point((1, 1, 0, 0), (1, -1, 2, 2))  # im(beta) = 0, re(beta) = 2
    res = is_regular(lat, p, 10, 10)
    assert res.status == "on_wall"
    re_val, im_val = point_value(p, res.wall_root)
    assert im_val == 0 and re_val == res.wall_level


@st.composite
def wall_probes(draw):
    """A catalog star, scan bounds (d, N), a cap that the depth-d window
    fits, and a point: random rationals, or rationals moved onto the wall
    h(root) = n of a root of the depth-d window, with |n| <= N."""
    lattice = star_lattice(draw(st.sampled_from(DEFAULT_CATALOG)))
    depth, n_bound = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    sizes = [len(enumerate_real_roots(lattice, d)) for d in (depth, depth + 2)]
    cap = draw(st.one_of(st.just(DEFAULT_ROOT_CAP), st.integers(*sizes)))
    values = st.lists(
        st.fractions(-8, 8, max_denominator=6), min_size=lattice.rank, max_size=lattice.rank
    )
    re, im = draw(values), draw(values)
    if draw(st.booleans()):
        root = draw(st.sampled_from(enumerate_real_roots(lattice, depth)))
        level = draw(st.integers(-n_bound, n_bound))
        k = next(i for i, x in enumerate(root) if x)
        im[k] -= sum(map(mul, im, root)) / root[k]
        re[k] += (level - sum(map(mul, re, root))) / root[k]
    return lattice, depth, n_bound, cap, rational_point(re, im)


def d4_probe(re, im):
    """A point of the (2,2,2) star at the bounds (6, 3) and the default cap."""
    return star_lattice((2, 2, 2)), 6, 3, DEFAULT_ROOT_CAP, rational_point(re, im)


@settings(max_examples=80, deadline=None)
@given(wall_probes())
@example(d4_probe((1, 0, 0, 0), (0, 1, 1, 1)))
@example(d4_probe((Q(1, 2),) * 4, (1, 1, 1, 1)))
@example(d4_probe((2, 3, 4, 5), (0, 0, 1, 1)))
def test_regularity_monotone_in_bounds(probe):
    # A wall hit at (d, N) is still one at (d + 2, N + 2), unless the larger
    # window exceeds the cap: its root lies in the larger window, at a level
    # within the larger bound.  Only a defect of is_regular can therefore
    # fail the cone suite's regularity-monotone check.
    lattice, depth, n_bound, cap, p = probe
    small = is_regular(lattice, p, depth, n_bound, cap)
    if small.status != "on_wall":
        return
    re_val, im_val = point_value(p, small.wall_root)
    assert im_val == 0 and re_val == small.wall_level and abs(re_val) <= n_bound
    larger_window = enumerate_real_roots(lattice, depth + 2)
    assert small.wall_root in larger_window
    large = is_regular(lattice, p, depth + 2, n_bound + 2, cap)
    assert large.status in ("on_wall", "undetermined")
    if cap >= len(larger_window):
        assert large.status == "on_wall"


def test_undetermined_when_enumeration_capped():
    lat = star_lattice((2, 3, 7))
    p = rational_point((0,) * 10, (1,) * 10)
    res = is_regular(lat, p, 30, 3, cap=50)
    assert res.status == "undetermined"


def test_point_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        DualPoint(1, (1,), (1, 2))


@pytest.mark.parametrize("d", [0, -1])
def test_point_rejects_denominator_below_one(d):
    # A negative denominator would flip every sign the chase reads.
    with pytest.raises(ValueError, match="denominator"):
        DualPoint(d, (1, 0), (0, 1))


def test_negative_n_bound_rejected():
    lat = star_lattice((2, 2, 2))
    p = rational_point((1, 0, 0, 0), (0, 1, 1, 1))  # on the wall of the hub root
    with pytest.raises(ValidationError, match="n_bound"):
        is_regular(lat, p, 10, -1)
