"""Reflections, translations, projections, orbits, Coxeter elements."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octoweyl.errors import (
    BudgetExceeded,
    DeltaNotPreserved,
    DimensionMismatch,
    NotOctopus,
    NotNormTwo,
    NotStarVertex,
    UnknownGenerator,
)
from octoweyl.exact import identity, mat_mul, sparse
from octoweyl import lattice
from octoweyl.ktheory import braid_act, coxeter_from_collection, simples_collection
from octoweyl.lattice import octopus_lattice, star_lattice
from octoweyl.quiver import Weights, default_lambda
from octoweyl.suites import DEFAULT_CATALOG
from octoweyl.weyl import (
    Finite,
    Transvection,
    Truncated,
    WeylElement,
    coxeter_element,
    enumerate_real_roots,
    enumerate_until_stable,
    evaluate_program,
    evaluate_word,
    group_enumerate,
    lift_i,
    order_of,
    preserves_form,
    project_p,
    reflection,
    reflection_transvection,
    root_orbit,
    serre_coxeter_matrix,
    simple_reflection,
    split_roots,
    translation_element,
    translation_word,
)

from oracles import identity_element, twist_matrix

weight_tuples = st.lists(st.integers(2, 5), min_size=3, max_size=4).map(tuple)


def test_simple_reflection_matrix_shape():
    lat = star_lattice((2, 2, 2))
    r1 = simple_reflection(lat, "1")
    # row at the reflecting vertex is e_v - (row v of the Cartan matrix)
    assert r1.matrix[0] == (-1, 1, 1, 1)
    assert r1.matrix[1] == (0, 1, 0, 0)
    assert mat_mul(r1.matrix, r1.matrix) == identity(4)
    # hub reflection adds the hub root to each arm root
    assert r1.apply(lat.basis_vector((1, 1))) == (1, 1, 0, 0)


def test_reflection_requires_norm_two():
    lat = octopus_lattice((2, 2, 2))
    with pytest.raises(NotNormTwo):
        reflection(lat, lat.delta)


def test_evaluate_word_basics():
    lat = octopus_lattice((2, 2, 2))
    assert evaluate_word(lat, ()).is_identity()
    assert evaluate_word(lat, (("1", 1), ("1", 1))).is_identity()
    with pytest.raises(UnknownGenerator):
        evaluate_word(lat, ((("9", 9), 1),))


def test_hub_translation_frozen_matrix():
    # Product of the two hub-side reflections, multiplied out by hand.
    lat = octopus_lattice((2, 2, 2))
    expected = (
        (3, -1, -1, -1, 2),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (-2, 1, 1, 1, -1),
    )
    assert evaluate_word(lat, (("1", 1), ("1*", 1))).matrix == expected
    assert translation_element(lat, "1").matrix == expected


def test_translation_moves_arm_roots_and_fixes_delta():
    lat = octopus_lattice((2, 2, 2))
    tau = translation_element(lat, "1")
    arm = lat.basis_vector((1, 1))
    assert tau.apply(arm) == tuple(a + d for a, d in zip(arm, lat.delta))
    assert tau.apply(lat.delta) == lat.delta


def test_translation_word_matches_closed_form_deep_arm():
    lat = octopus_lattice((2, 2, 3))
    tau = translation_element(lat, (3, 2))
    word = translation_word((3, 2))
    assert evaluate_word(lat, word).matrix == tau.matrix
    # the inductive word conjugates by the predecessor translation
    inner = tuple(translation_word((3, 1)))
    assert tuple(word)[: 1 + len(inner) + 1] == (((3, 2), 1),) + inner + (((3, 2), 1),)


def flat_translation_word(v):
    """The witness as a flat tuple, built by the paper's induction letter by
    letter: the oracle that the straight-line programs expand to."""
    if v == "1":
        return (("1", 1), ("1*", 1))
    i, j = v
    prev = flat_translation_word("1") if j == 1 else flat_translation_word((i, j - 1))
    return ((v, 1),) + prev + ((v, 1),) + tuple((g, -e) for g, e in reversed(prev))


def arm_depth(v):
    return 0 if v == "1" else v[1]


@pytest.mark.parametrize("a", DEFAULT_CATALOG + ((2, 3, 10), (2, 5, 9)))
def test_witness_programs_expand_to_the_flat_words(a):
    octo = octopus_lattice(Weights(a), default_lambda(len(a)))
    for v in octo.star_vertices():
        flat = flat_translation_word(v)
        tau = translation_element(octo, v)
        assert tuple(translation_word(v)) == tuple(tau.word) == flat
        assert len(tau.word) == len(flat) == 2 ** (arm_depth(v) + 2) - 2


def test_witness_length_is_counted_not_expanded():
    assert len(translation_word((3, 59))) == 2**61 - 2
    octo = octopus_lattice(Weights((2, 3, 20)), default_lambda(3))
    assert len(translation_element(octo, (3, 19)).word) == 2**21 - 2


def test_witness_hash_eq_repr_do_not_expand():
    # 2^202 - 2 letters: any expansion would never return.
    word = translation_word((3, 200))
    # A program compares and hashes by identity.
    assert word == word and hash(word) == hash(word)
    assert word.inverse() != word
    assert word.length == word.inverse().length == 2**202 - 2
    # len answers only while the length fits in an index.
    with pytest.raises(OverflowError):
        len(word)
    assert str(2**202 - 2) in repr(word)


def test_elements_are_their_rows_and_only_built_words_keep_witnesses():
    # Equality and hash read the rows: a word for the identity is the identity.
    lat = star_lattice((2, 2, 2))
    twice = evaluate_word(lat, (("1", 1), ("1", 1)))
    assert twice == identity_element(lat) and hash(twice) == hash(identity_element(lat))
    octo = octopus_lattice((2, 3, 5))
    s = simple_reflection(octo, "1")
    for v in octo.star_vertices():
        tau = translation_element(octo, v)
        assert tau == evaluate_program(octo, translation_word(v), {})
        # Products, inverses and projections carry no witness.
        assert project_p(octo, tau).word is None
        assert tau.inverse().word is None
        assert (tau * s).word is None


def test_translation_rejects_extension_vertex():
    lat = octopus_lattice((2, 2, 2))
    with pytest.raises(NotStarVertex):
        translation_element(lat, "1*")
    with pytest.raises(NotStarVertex):
        lift_i(lat, "1*")


def test_projection_on_generators():
    octo = octopus_lattice((2, 2, 3))
    star = star_lattice((2, 2, 3))
    for v in star.vertices:
        assert project_p(octo, lift_i(octo, v)).matrix == simple_reflection(star, v).matrix
        assert project_p(octo, translation_element(octo, v)).is_identity()
    assert (
        project_p(octo, simple_reflection(octo, "1*")).matrix
        == simple_reflection(star, "1").matrix
    )


def test_projection_rejects_delta_breaking_matrix():
    octo = octopus_lattice((2, 2, 2))
    n = octo.rank
    # swap the hub and first-arm coordinates: moves delta off its line
    perm = [[0] * n for _ in range(n)]
    order = [1, 0, 2, 3, 4]
    for i, j in enumerate(order):
        perm[i][j] = 1
    with pytest.raises(DeltaNotPreserved):
        project_p(octo, WeylElement.from_matrix(tuple(tuple(r) for r in perm)))


def test_projection_rejects_star_lattice():
    star = star_lattice((2, 2, 2))
    with pytest.raises(NotOctopus):
        project_p(star, simple_reflection(star, "1"))


def test_projection_checks_quotient_form_once_per_lattice(monkeypatch):
    octo = octopus_lattice((2, 3, 5))
    looked_up = []
    real = lattice.star_lattice
    monkeypatch.setattr(lattice, "star_lattice", lambda w: looked_up.append(w) or real(w))
    fresh = dataclasses.replace(octo)
    for v in fresh.vertices:
        project_p(fresh, simple_reflection(fresh, v))
    assert looked_up == [octo.weights]
    # A lattice whose star block differs from the star form is refused.
    # An Euler entry -1 at (1, 2) makes the Cartan entries (1, 2) and (2, 1)
    # -1 where the star form has 0.
    rows = list(octo.euler_rows)
    rows[1] = tuple(sorted(rows[1] + ((2, -1),)))
    bad = dataclasses.replace(octo, euler_rows=tuple(rows))
    assert bad.cartan[1][2] == bad.cartan[2][1] == -1 and octo.cartan[1][2] == 0
    with pytest.raises(ValueError, match="induced on the quotient"):
        project_p(bad, translation_element(octo, "1"))


def test_root_enumeration_counts():
    assert len(enumerate_until_stable(star_lattice((2, 2, 2)))) == 24
    assert len(enumerate_until_stable(star_lattice((2, 3, 3)))) == 72
    assert len(enumerate_real_roots(star_lattice((2, 2, 2)), 0)) == 4


def test_root_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_real_roots(octopus_lattice((2, 2, 2)), 50, cap=40)


def test_octopus_layers_check_that_delta_is_radical():
    # Euler row (1,1) loses its arrow to 1*, so the Cartan rows of 1 and 1*
    # differ and C delta = C e_1* - C e_1 is no longer 0.  The octopus
    # layers check this once, when they are built, before any round.
    good = octopus_lattice((2, 2, 2))
    rows = list(good.euler_rows)
    assert rows[1] == ((1, 1), (4, -1))
    rows[1] = ((1, 1),)
    bad = lattice.RootLattice(good.kind, good.weights, good.vertices, tuple(rows))
    assert bad.form(bad.delta, bad.basis_vector((1, 1))) == 1
    basis = tuple(bad.basis_vector(v) for v in bad.vertices)
    with pytest.raises(ValueError, match="delta is not in the radical"):
        root_orbit(bad, basis, 2)
    with pytest.raises(ValueError, match="delta is not in the radical"):
        split_roots(bad, 0)


def test_split_roots_needs_an_octopus():
    with pytest.raises(NotOctopus):
        split_roots(star_lattice((2, 2, 2)), 2)


def test_group_enumeration():
    assert group_enumerate(star_lattice((2, 2, 2)), 1000) == Finite(order=192)
    assert group_enumerate(star_lattice((2, 2, 3)), 5000) == Finite(order=1920)
    probe = group_enumerate(octopus_lattice((2, 2, 2)), 300)
    assert isinstance(probe, Truncated)


def test_coxeter_element_and_order():
    lat = star_lattice((2, 2, 2))
    c = coxeter_element(lat)
    assert order_of(c, 100) == Finite(order=6)
    assert order_of(identity_element(lat), 10) == Finite(order=1)
    octo = octopus_lattice((2, 2, 2))
    tau = translation_element(octo, "1")
    assert isinstance(order_of(tau, 50), Truncated)


@pytest.mark.parametrize(
    "a,order",
    [((2, 2, 3), 8), ((2, 3, 3), 12), ((2, 3, 4), 18), ((2, 3, 5), 30)],
)
def test_coxeter_orders_of_finite_types(a, order):
    assert order_of(coxeter_element(star_lattice(a)), 100) == Finite(order=order)


def test_affine_coxeter_element_has_unbounded_order():
    c = coxeter_element(octopus_lattice((2, 2, 2)))
    assert isinstance(order_of(c, 200), Truncated)


@pytest.mark.parametrize("a", DEFAULT_CATALOG)
def test_coxeter_equals_serre_shadow(a):
    w = Weights(a)
    for lat in (star_lattice(w), octopus_lattice(w, default_lambda(w.r))):
        c = coxeter_element(lat)
        assert c.matrix == serre_coxeter_matrix(lat)
        if lat.is_octopus:
            assert c.apply(lat.delta) == lat.delta


def test_serre_coxeter_matrix_refuses_a_non_triangular_euler_form():
    lat = star_lattice((2, 2, 2))
    rows = lat.euler_rows
    tampered = [
        rows[:1] + (((0, -1), (1, 1)),) + rows[2:],  # an entry below the diagonal
        rows[:1] + (((1, 2),),) + rows[2:],  # a diagonal entry 2
        rows[:3] + ((),),  # a zero diagonal entry
    ]
    for bad in tampered:
        with pytest.raises(ValueError, match="unit upper triangular"):
            serre_coxeter_matrix(dataclasses.replace(lat, euler_rows=bad))


def test_reflection_conjugation_law():
    lat = star_lattice((2, 3, 3))
    roots = enumerate_real_roots(lat, 3)
    for v in lat.vertices:
        rv = simple_reflection(lat, v)
        for alpha in roots:
            lhs = mat_mul(mat_mul(rv.matrix, reflection(lat, alpha).matrix), rv.matrix)
            assert lhs == reflection(lat, rv.apply(alpha)).matrix


def test_orbit_contains_mutated_basis_orbit():
    # Root sets do not depend on the exceptional basis: a mutated basis
    # generates into the original orbit, with a little extra depth.
    for lat in (star_lattice((2, 2, 2)), star_lattice((2, 3, 3)), octopus_lattice((2, 2, 2))):
        base = tuple(lat.basis_vector(v) for v in lat.vertices)
        big = set(root_orbit(lat, base, 6)[0])
        coll = simples_collection(lat)
        for i in range(1, lat.rank):
            for sign in (1, -1):
                mutated = braid_act(coll, ("b", i, sign)).classes
                small = root_orbit(lat, mutated, 2)[0]
                assert set(small) <= big


@settings(max_examples=30, deadline=None)
@given(weight_tuples, st.data())
def test_reflections_preserve_form_and_involute(a, data):
    lat = octopus_lattice(Weights(a), default_lambda(len(a)))
    v = data.draw(st.sampled_from(lat.vertices), label="vertex")
    r = simple_reflection(lat, v)
    assert preserves_form(lat, r.matrix)
    assert mat_mul(r.matrix, r.matrix) == identity(lat.rank)


@settings(max_examples=20, deadline=None)
@given(weight_tuples, st.data())
def test_projection_is_a_homomorphism_on_words(a, data):
    lat = octopus_lattice(Weights(a), default_lambda(len(a)))
    star = star_lattice(Weights(a))
    word = data.draw(
        st.lists(st.sampled_from(lat.vertices), max_size=6), label="word"
    )
    u = evaluate_word(lat, tuple((v, 1) for v in word))
    projected = project_p(lat, u)
    star_word = tuple(("1" if v == "1*" else v, 1) for v in word)
    assert projected.matrix == evaluate_word(star, star_word).matrix


@settings(max_examples=20, deadline=None)
@given(weight_tuples, st.data())
def test_translations_commute(a, data):
    lat = octopus_lattice(Weights(a), default_lambda(len(a)))
    verts = lat.star_vertices()
    v = data.draw(st.sampled_from(verts), label="v")
    u = data.draw(st.sampled_from(verts), label="u")
    tv, tu = translation_element(lat, v), translation_element(lat, u)
    assert (tv * tu).matrix == (tu * tv).matrix


def test_inverse_is_built_once_per_element():
    lat = octopus_lattice((2, 3, 4))
    s, tau = simple_reflection(lat, "1"), translation_element(lat, (2, 1))
    twist = WeylElement.from_matrix(twist_matrix(lat, lat.basis_vector((3, 2))))
    bare_translation = WeylElement.from_matrix(tau.matrix)
    for x in (s, tau, s * tau, twist, bare_translation):
        assert x.inverse() is x.inverse()
        assert (x * x.inverse()).is_identity()


def test_only_generators_keep_their_transvection():
    octo = octopus_lattice((2, 3, 4))
    n = octo.rank
    s = simple_reflection(octo, "1")
    alpha = tuple(map(sum, zip(octo.basis_vector("1"), octo.basis_vector((1, 1)))))
    tau = translation_element(octo, (2, 1))
    tau_step = Transvection(sparse(octo.delta), octo.cartan_rows[octo.index((2, 1))])
    steps = {
        s: reflection_transvection(octo, octo.basis_vector("1")),
        reflection(octo, alpha): reflection_transvection(octo, alpha),
        tau: tau_step,
        tau.inverse(): tau_step.inverse(),
        s.inverse(): s.step,
    }
    for g, step in steps.items():
        assert g.step == step
        assert g == WeylElement.from_step(n, step)
    bare = [
        evaluate_word(octo, (("1", 1), ((1, 1), 1))),
        evaluate_word(octo, (("1", 1), ("1", -1))),
        s * tau,
        s * s,
        coxeter_element(octo),
        coxeter_from_collection(simples_collection(octo)),
        WeylElement.from_matrix(s.matrix),
        WeylElement.from_matrix(tau.matrix),
    ]
    assert all(x.step is None for x in bare)


def test_product_of_mixed_ranks_raises():
    octo_s = simple_reflection(octopus_lattice((2, 2, 2)), "1")
    star_s = simple_reflection(star_lattice((2, 2, 2)), "1")
    for a, b in ((octo_s, star_s), (star_s, octo_s)):
        with pytest.raises(DimensionMismatch):
            a * b
