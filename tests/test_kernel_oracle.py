"""The sparse and integer kernels against dense and rational oracles built here.

Reflections, translations and their products are rebuilt in this file as
dense integer matrices and multiplied with ``mat_mul``/``mat_vec``; the
library's row-update kernel must agree with them exactly.  The Tits cone
probes, which run on integer rows over a common denominator, are checked
against scans and chases in ``Fraction`` arithmetic and for verdicts that
do not change when that denominator is scaled, and the sparse
bilinear forms against the dense x^T M y.  The one action rule of an
element (a generator acts through its transvection, any other element as
I + D over the rows it moves) is checked against ``mat_vec`` and
``mat_mul`` on generators, words, products, program nodes and bare
matrices, and ``order_of`` against a dense power loop.  The projection,
one product over the split transvection, the element and its inverse, is
checked against a dense conjugation, also on bare elements that move the
delta line, and the translation suite runs once with the dense kernels and
``transpose`` disabled altogether.  The memoised evaluation of translation witnesses is
checked against the flat letters and the dense product, and the
column-wise closed-form sample check against the sample-by-sample loop it
replaces.  The layered root window that ``root_orbit`` keeps per lattice
and basis answers every sequence of requests as a fresh dense closure
would, and keeps one sorted window per built depth.  Its rounds, which skip the reflections that fix a root or send it
back a layer, match the reference closure of ``oracles.py``, which applies
every reflection, round by round at the depths the roots suite uses, on a
braid-moved basis and past a cap, and the octopus layers, kept by star
class, match the per-root layers on the same octopus lattice, window by
window, on simple and braid-moved bases and past a cap; a basis past cap
raises at every depth on both kernels, as the reference does.  The cone suite,
too, runs with the dense kernels disabled, and ``act_word``, which its word checks apply to two
rows letter by letter, is checked against the word's element and its
dense matrix.
``product_rows``, which multiplies a word over the rows it moves, is
checked against the dense product, ``transvections_commute`` against both
orders of ``product_rows`` on reflections, translations, random sparse
transvections and planted nonzero pairings, and the sparse form criterion
of a transvection against ``preserves_form``; a transvection's stored
pairing row is its pairing as a dict, and a suite's relation entries are
the outcomes' JSON.  The pairing kernel ``holds_by_pairings`` says that an
involution or a braid holds only where ``product_rows`` agrees, on the
same pairs and on planted ones with parallel u and every small pairing,
and it decides every involution and braid of the five specs; the pairing
index agrees with ``transvections_commute`` on every ordered pair of the
catalog assignments.  The presentation suites and the
twists run with the dense kernels and ``mat_inv`` disabled, and the
translation and semidirect suites also with cold generator caches, so that
the generators' form checks run too.  An element is its moved rows: the
translation and twist suites, ``order_of`` and ``group_enumerate`` run with
``expand_rows`` disabled too, so none of them builds a dense matrix.  The
integer back-substitution of ``serre_coxeter_matrix`` is checked against
the dense ``mat_inv`` product.  The K-theory pairings run over the supports
of the classes: the sparse fraction-free elimination is checked against the
dense Bareiss ``determinant`` of ``oracles.py`` on singular, permuted and
repeated-row matrices, ``numerically_exceptional`` against a scan of the
dense Gram matrix on braid images with planted failures, and the reflection
at a class against ``C alpha`` over all Cartan rows; the mutations suite
runs with the dense kernels disabled.  The whole-word draws of the cone
suite give the values and the generator state of ``randrange`` calls.
"""

import copy
import random
import sys
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octoweyl import exact, weyl
from octoweyl.cone import DualPoint, is_regular, make_dominant
from octoweyl.errors import (
    BudgetExceeded,
    DeltaNotPreserved,
    NotInConeWithinBudget,
    NotNormTwo,
    UnknownGenerator,
)
from octoweyl.exact import (
    identity,
    mat_inv,
    mat_mul,
    mat_vec,
    sparse,
    sparse_determinant,
    sparse_mat_vec,
    transpose,
)
from octoweyl.ktheory import (
    braid_act,
    braid_word_act,
    is_full,
    numerically_exceptional,
    simples_collection,
)
from octoweyl.lattice import euler_characteristic, octopus_lattice, star_lattice
from octoweyl import presentations
from octoweyl.presentations import (
    artin_spec,
    generalized_coxeter_spec_W,
    reflection_assignment,
    semidirect_assignment,
    semidirect_spec,
    star_coxeter_spec,
    van_der_lek_assignment,
    van_der_lek_spec,
    verify,
)
from octoweyl.quiver import Weights, default_lambda
from octoweyl.suites import (
    DEFAULT_CATALOG,
    SuiteConfig,
    SuiteRun,
    _auto_depth,
    closed_form_samples,
    bulk_draws_below_19,
    suite_artin,
    suite_cone,
    suite_mutations,
    suite_presentations,
    suite_prop44,
    suite_semidirect,
    suite_translations,
    suite_twists,
    suite_vanderlek,
)
from octoweyl.weyl import (
    DEFAULT_ROOT_CAP,
    Finite,
    Transvection,
    Truncated,
    WeylElement,
    WordProgram,
    coxeter_element,
    enumerate_real_roots,
    enumerate_until_stable,
    evaluate_program,
    evaluate_word,
    expand_rows,
    group_enumerate,
    order_of,
    preserves_form,
    product_rows,
    project_p,
    reflection,
    reflection_transvection,
    root_orbit,
    serre_coxeter_matrix,
    simple_reflection,
    transvection_preserves_form,
    translation_element,
    translation_word,
)

from oracles import (
    ReferenceLayers,
    collection_of,
    determinant,
    dot,
    draws_below_19,
    euler_gram,
    generic_window,
    identity_element,
    point_value,
    rational_point,
    rational_values,
    sparse_rows,
    twist_matrix,
)

weight_tuples = st.lists(st.integers(2, 5), min_size=3, max_size=4).map(tuple)


def _lattice(a, kind):
    w = Weights(a)
    return star_lattice(w) if kind == "star" else octopus_lattice(w, default_lambda(w.r))


lattices = st.builds(_lattice, weight_tuples, st.sampled_from(("star", "octopus")))
octopus_lattices = st.builds(_lattice, weight_tuples, st.just("octopus"))
# Witnesses of at most 30 letters, so the dense oracle multiplies each one.
short_arm_octopus_lattices = st.builds(
    _lattice, st.lists(st.integers(2, 4), min_size=3, max_size=4).map(tuple), st.just("octopus")
)


def dense_transvection(n, u, p):
    """I - u p^T, entry by entry."""
    return tuple(tuple(int(i == j) - u[i] * p[j] for j in range(n)) for i in range(n))


def dense_reflection(lat, alpha):
    return dense_transvection(lat.rank, alpha, mat_vec(lat.cartan, alpha))


def dense_translation(lat, v):
    return dense_transvection(
        lat.rank, lat.delta, mat_vec(lat.cartan, lat.basis_vector(v))
    )


def unit_rows_dropped(m):
    """The rows of m that differ from the identity's, by index."""
    ident = identity(len(m))
    return {i: row for i, row in enumerate(m) if row != ident[i]}


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


catalog_lattices = st.builds(
    _lattice, st.sampled_from(DEFAULT_CATALOG), st.sampled_from(("star", "octopus"))
)


@settings(max_examples=60, deadline=None)
@given(catalog_lattices, st.data())
def test_act_word_matches_the_word_matrix(lat, data):
    # The letters applied to the rows in turn give rows M, M the matrix of
    # evaluate_word, both through its moved rows and as a dense product.
    letter = st.tuples(st.sampled_from(lat.vertices), st.sampled_from((1, -1)))
    word = data.draw(st.lists(letter, max_size=40), label="word")
    rows = data.draw(st.lists(int_vecs(lat.rank), min_size=1, max_size=3), label="rows")
    acted = [list(r) for r in rows]
    weyl.act_word(lat, word, acted)
    element = evaluate_word(lat, word)
    by_rows = [list(r) for r in rows]
    element.act_right(by_rows)
    assert acted == by_rows == [list(r) for r in mat_mul(rows, element.matrix)]
    # An unknown vertex anywhere in the word raises before any letter acts.
    before = [list(r) for r in acted]
    with pytest.raises(UnknownGenerator):
        weyl.act_word(lat, word + [(("no", "vertex"), 1)] + word, acted)
    assert acted == before


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
@given(lattices, st.data())
def test_stored_pairing_row_is_the_pairing(lat, data):
    # Reflections, translations, their inverses and the reflection at a
    # real root that is not simple: p_row is p as a dict, and it takes no
    # part in equality, hashing or repr.
    steps = [simple_reflection(lat, v).step for v in lat.vertices]
    if lat.is_octopus:
        steps += [translation_element(lat, v).step for v in lat.star_vertices()]
        steps += [translation_element(lat, v).inverse().step for v in lat.star_vertices()]
    steps += [t.inverse() for t in steps]
    alpha = data.draw(st.sampled_from(enumerate_real_roots(lat, 2)), label="root")
    steps.append(weyl.support_reflection(lat, sparse(alpha)))
    for t in steps:
        assert t.p_row == dict(t.p)
        twin = Transvection(t.u, t.p)
        assert twin == t and hash(twin) == hash(t) and "p_row" not in repr(t)


@settings(max_examples=20, deadline=None)
@given(lattices, st.integers(0, 4))
def test_root_orbit_matches_dense_closure(lat, depth):
    basis = tuple(lat.basis_vector(v) for v in lat.vertices)
    assert root_orbit(lat, basis, depth) == dense_closure(lat, basis, depth)


def check_requests(lat, requests):
    """Each (basis, depth, cap) answer of root_orbit against a fresh dense closure.

    A closure past cap raises: in the round that outgrew cap, or at any
    depth when the basis alone is past cap.
    """
    oracle = {}
    for basis, depth, cap in requests:
        if (basis, depth) not in oracle:
            oracle[basis, depth] = dense_closure(lat, basis, depth)
        roots, stabilized = oracle[basis, depth]
        if len(roots) > cap:
            with pytest.raises(BudgetExceeded):
                root_orbit(lat, basis, depth, cap)
        else:
            assert root_orbit(lat, basis, depth, cap) == (roots, stabilized)


@settings(max_examples=25, deadline=None)
@given(lattices, st.data())
def test_layered_root_window_matches_fresh_closures(lat, data):
    # Two bases of one lattice share the cache: the simple roots, and the
    # simples after one braid move (real roots, but not the simple basis).
    i = data.draw(st.integers(1, lat.rank - 1), label="braid index")
    bases = (
        tuple(lat.basis_vector(v) for v in lat.vertices),
        braid_act(simples_collection(lat), ("b", i, 1)).classes,
    )
    weyl._root_layers.cache_clear()
    caps = st.integers(1, 300) | st.just(DEFAULT_ROOT_CAP)
    requests = data.draw(
        st.lists(st.tuples(st.sampled_from(bases), st.integers(0, 4), caps), max_size=10),
        label="requests",
    )
    check_requests(lat, requests)
    # Then, per basis, deeper before shallower and the same depth again,
    # before and after a request that outgrows its cap in a new round.
    for basis in bases:
        weyl._root_layers.cache_clear()
        big, size = DEFAULT_ROOT_CAP, len(dense_closure(lat, basis, 2)[0])
        depths = ((2, big), (0, big), (2, big), (4, size), (3, big), (1, big), (3, big), (2, big))
        check_requests(lat, [(basis, d, cap) for d, cap in depths])
        check_kept_windows(lat, basis)


def check_kept_windows(lat, basis):
    """Every sorted window kept for basis is a fresh closure's window at its
    key, and only built depths are keys."""
    layers = weyl._root_layers(lat, basis)
    assert set(layers.windows) <= set(range(layers.depth + 1))
    for depth, window in layers.windows.items():
        assert window == dense_closure(lat, basis, depth)[0]
        assert root_orbit(lat, basis, depth)[0] is window


def test_sorted_window_is_kept_by_built_depth():
    # E6 closes after 11 rounds, so the cone suite's wall scans at depths 12
    # and 14, and every request deeper than 11, get the one window of the
    # closed depth, sorted once.
    lat = star_lattice((2, 3, 3))
    basis = tuple(lat.basis_vector(v) for v in lat.vertices)
    weyl._root_layers.cache_clear()
    full, _ = root_orbit(lat, basis, 64)
    layers = weyl._root_layers(lat, basis)
    assert layers.closed and layers.depth == 11 and len(full) == 72
    for depth in (14, 12, 11, 64):
        assert root_orbit(lat, basis, depth)[0] is full
    shallow, _ = root_orbit(lat, basis, 2)
    assert root_orbit(lat, basis, 2)[0] is shallow
    assert sorted(layers.windows) == [2, layers.depth]
    check_kept_windows(lat, basis)


def test_layered_root_window_request_sequence():
    # Closure sizes after 0..6 rounds: 13, 38, 64, 98, 153, 245, 406.
    lat = star_lattice((4, 4, 4, 4))
    basis = tuple(lat.basis_vector(v) for v in lat.vertices)
    weyl._root_layers.cache_clear()
    check_requests(
        lat, [(basis, d, cap) for d, cap in ((3, 13), (3, 98), (5, 153), (2, 64), (5, 245))]
    )
    layers = weyl._root_layers(lat, basis)
    assert layers.sizes == [13, 38, 64, 98, 153, 245]
    before = kept_state(layers)
    # Round 6 outgrows the cap: it raises and is not stored.
    with pytest.raises(BudgetExceeded, match="exceeded cap 300 at depth 5$"):
        root_orbit(lat, basis, 6, 300)
    assert kept_state(layers) == before
    assert len(layers.roots) == 245 and len(layers.front) == 245 - 153
    # Below the built depth the cap is checked against the stored sizes.
    with pytest.raises(BudgetExceeded, match="exceeded cap 100 at depth 3$"):
        root_orbit(lat, basis, 4, 100)
    assert kept_state(layers) == before
    requests = ((6, 300), (6, 406), (4, 100), (3, 100), (0, 13), (7, DEFAULT_ROOT_CAP))
    check_requests(lat, [(basis, d, cap) for d, cap in requests])


def kept_state(layers):
    """A copy of what kept layers store: sizes, roots or layers, frontier
    and sorted windows, less the move cache of octopus layers, which a
    round may fill whether it is stored or not."""
    state = copy.deepcopy(vars(layers))
    state.pop("moves", None)
    return state


def test_layered_octopus_window_request_sequence(monkeypatch):
    # Octopus (2,2,2) closure sizes after 0..4 rounds: 5, 18, 46, 88, 135.
    lat = octopus_lattice((2, 2, 2))
    basis = tuple(lat.basis_vector(v) for v in lat.vertices)
    weyl._root_layers.cache_clear()
    check_requests(lat, [(basis, d, cap) for d, cap in ((2, 46), (3, 88), (1, 18))])
    layers = weyl._root_layers(lat, basis)
    assert type(layers) is weyl._OctopusLayers and layers.sizes == [5, 18, 46, 88]
    before = kept_state(layers)
    # Round 4 outgrows the cap: it raises and is not stored.
    with pytest.raises(BudgetExceeded, match="exceeded cap 100 at depth 3$"):
        root_orbit(lat, basis, 4, 100)
    assert kept_state(layers) == before
    # Below the built depth the cap is checked against the stored sizes,
    # without running a round.
    with monkeypatch.context() as m:
        m.setattr(weyl._OctopusLayers, "_round", lambda self, room: pytest.fail("a round ran"))
        with pytest.raises(BudgetExceeded, match="exceeded cap 40 at depth 1$"):
            root_orbit(lat, basis, 2, 40)
    assert kept_state(layers) == before
    requests = ((4, 100), (4, 135), (2, 40), (1, 18), (0, 5), (5, DEFAULT_ROOT_CAP))
    check_requests(lat, [(basis, d, cap) for d, cap in requests])


def test_until_stable_after_a_shallow_window():
    lat = star_lattice((2, 3, 4))
    basis = tuple(lat.basis_vector(v) for v in lat.vertices)
    weyl._root_layers.cache_clear()
    assert enumerate_real_roots(lat, 3) == dense_closure(lat, basis, 3)[0]
    roots, stabilized = dense_closure(lat, basis, 64)
    assert stabilized and len(roots) == 126
    assert enumerate_until_stable(lat) == roots
    # The closed window answers every shallower request, probe included.
    full = next(d for d in range(65) if dense_closure(lat, basis, d)[1])
    check_requests(lat, [(basis, d, DEFAULT_ROOT_CAP) for d in range(full + 1, -1, -1)])
    with pytest.raises(BudgetExceeded, match="did not stabilize"):
        enumerate_until_stable(lat, max_depth=full - 1)
    assert enumerate_until_stable(lat, max_depth=full) == roots


def assert_rounds_agree(lat, basis, depth):
    """Grow ``_RootLayers`` and the reference closure side by side to depth,
    comparing the layers, ``closed`` and the probe after every round."""
    fast, ref = weyl._RootLayers(lat, basis), ReferenceLayers(lat, basis)
    while True:
        assert (fast.sizes, fast.roots, fast.closed) == (ref.sizes, ref.roots, ref.closed)
        if fast.closed:
            return
        assert set(fast.front) == set(ref.frontier())
        assert fast.probe() == ref.probe()
        if fast.depth == depth:
            return
        fast.grow(DEFAULT_ROOT_CAP)
        ref.grow(DEFAULT_ROOT_CAP)


def suite_roots_depths(a):
    """The closure depths of ``suite_roots`` at default settings, for the
    star and the octopus lattice of weights a."""
    w, cfg = Weights(a), SuiteConfig()
    depth = _auto_depth(w, cfg)
    if euler_characteristic(w) <= 0:
        return depth, depth
    height = max(map(sum, enumerate_until_stable(star_lattice(w))))
    # The star system is closed until stable, within enumerate_until_stable's 64 rounds.
    return 64, max(depth, height + cfg.n_bound)


@pytest.mark.parametrize("a", DEFAULT_CATALOG + ((4, 4, 4, 4),), ids=str)
def test_root_rounds_match_reference_at_suite_depths(a):
    star_depth, octopus_depth = suite_roots_depths(a)
    for lat, depth in ((star_lattice(a), star_depth), (_lattice(a, "octopus"), octopus_depth)):
        assert_rounds_agree(lat, tuple(lat.basis_vector(v) for v in lat.vertices), depth)


@settings(max_examples=10, deadline=None)
@given(lattices, st.data())
def test_root_rounds_match_reference_on_braid_moved_basis(lat, data):
    i = data.draw(st.integers(1, lat.rank - 1), label="braid index")
    assert_rounds_agree(lat, braid_act(simples_collection(lat), ("b", i, 1)).classes, 6)


def test_root_rounds_past_cap_match_reference():
    # Closure sizes after 0..6 rounds: 13, 38, 64, 98, 153, 245, 406.
    lat = star_lattice((4, 4, 4, 4))
    basis = tuple(lat.basis_vector(v) for v in lat.vertices)
    fast, ref = weyl._RootLayers(lat, basis), ReferenceLayers(lat, basis)
    # A cap below the basis size, round 6 one root past cap and round 6 at
    # cap: each side raises alike and keeps its layers, or grows alike.
    for cap in (1, 400, 400, 400, 400, 400, 300, 405, 406, DEFAULT_ROOT_CAP):
        messages = []
        for layers in (fast, ref):
            try:
                layers.grow(cap)
            except BudgetExceeded as e:
                messages.append(str(e))
        assert len(messages) in (0, 2) and len(set(messages)) <= 1
        assert (fast.sizes, fast.roots, fast.closed) == (ref.sizes, ref.roots, ref.closed)
        assert set(fast.front) == set(ref.frontier())
        assert fast.probe() == ref.probe()
    assert fast.sizes[:7] == [13, 38, 64, 98, 153, 245, 406] and fast.depth == 7


@pytest.mark.parametrize("kind", ("star", "octopus"))
def test_basis_past_cap_raises_at_every_depth(kind):
    # Both kernels, cold and over layers already built past the basis; a
    # cap of the basis size still fits at depth 0.
    lat = _lattice((2, 2, 2), kind)
    basis = identity(lat.rank)
    weyl._root_layers.cache_clear()
    for cap in (1, lat.rank - 1):
        message = f"root closure basis of {lat.rank} roots exceeds cap {cap}"
        for depth in (0, 1, 3, 0):
            with pytest.raises(BudgetExceeded) as raised:
                root_orbit(lat, basis, depth, cap)
            assert str(raised.value) == message
            with pytest.raises(BudgetExceeded, match=f"^{message}$"):
                enumerate_real_roots(lat, depth, cap)
            with pytest.raises(BudgetExceeded, match=f"^{message}$"):
                generic_window(lat, depth, cap)
            if kind == "octopus":
                with pytest.raises(BudgetExceeded, match=f"^{message}$"):
                    weyl.split_roots(lat, depth, cap)
        assert len(root_orbit(lat, basis, 2, DEFAULT_ROOT_CAP)[0]) > lat.rank
    assert root_orbit(lat, basis, 0, lat.rank) == (tuple(sorted(basis)), False)


def assert_octopus_layers_agree(lat, basis, depth, cap=DEFAULT_ROOT_CAP):
    """Grow ``_OctopusLayers`` and the per-root ``_RootLayers`` side by side
    on one octopus lattice and basis, to depth, until they close or until a
    round outgrows cap: the sizes, ``closed``, the probe (with ``closed``
    the ``stabilized`` of ``root_orbit``), the sorted window and the split
    pairs of every depth, and the round and message of BudgetExceeded."""
    fast, ref = weyl._OctopusLayers(lat, basis), weyl._RootLayers(lat, basis)
    while True:
        assert (fast.sizes, fast.closed) == (ref.sizes, ref.closed)
        window = ref.window(ref.depth)
        assert fast.window(fast.depth) == window
        pairs = list(fast.split(fast.depth))
        assert sorted(lat.from_split(beta + (m,)) for beta, m in pairs) == list(window)
        assert fast.probe() == ref.probe()
        if fast.closed or fast.depth == depth:
            return
        if not grow_alike(fast, ref, cap):
            assert (fast.sizes, fast.closed) == (ref.sizes, ref.closed)
            return


def grow_alike(fast, ref, cap) -> bool:
    """Grow both layers by a round; whether they grew, after checking that
    both raised BudgetExceeded with one message or neither did."""
    messages = []
    for layers in (fast, ref):
        try:
            layers.grow(cap)
        except BudgetExceeded as e:
            messages.append(str(e))
    assert len(messages) in (0, 2) and len(set(messages)) <= 1
    return not messages


def braid_moved_basis(lat, i):
    """The simple classes after the braid move b_i: real roots, not simple."""
    return braid_act(simples_collection(lat), ("b", i, 1)).classes


@pytest.mark.parametrize("a", DEFAULT_CATALOG, ids=str)
def test_octopus_layers_match_per_root_kernel_at_suite_depths(a):
    # The roots suite closes the catalog's octopus lattices to 24, 12 or 4 rounds.
    lat, depth = _lattice(a, "octopus"), suite_roots_depths(a)[1]
    simple = tuple(lat.basis_vector(v) for v in lat.vertices)
    for basis in (simple, braid_moved_basis(lat, 1)):
        assert_octopus_layers_agree(lat, basis, depth)
    # The kept layers of an octopus are kept by class, those of a star by root.
    star = star_lattice(a)
    assert type(weyl._root_layers(lat, simple)) is weyl._OctopusLayers
    assert type(weyl._root_layers(star, simple[:-1])) is weyl._RootLayers


@settings(max_examples=25, deadline=None)
@given(octopus_lattices, st.data())
def test_octopus_layers_match_per_root_kernel(lat, data):
    i = data.draw(st.integers(0, lat.rank - 1), label="braid index (0: simple basis)")
    basis = braid_moved_basis(lat, i) if i else tuple(lat.basis_vector(v) for v in lat.vertices)
    depth = data.draw(st.integers(0, 6), label="depth")
    cap = data.draw(st.integers(lat.rank, 300) | st.just(DEFAULT_ROOT_CAP), label="cap")
    assert_octopus_layers_agree(lat, basis, depth, cap)


def test_octopus_layers_past_cap_match_per_root_kernel():
    # Octopus (2,2,2) sizes after 0..4 rounds: 5, 18, 46, 88, 135.  A cap
    # below the basis size, then each round once one root past cap and once
    # at cap: each side raises alike and keeps its layers, or grows alike.
    lat = octopus_lattice((2, 2, 2))
    basis = tuple(lat.basis_vector(v) for v in lat.vertices)
    fast, ref = weyl._OctopusLayers(lat, basis), weyl._RootLayers(lat, basis)
    for cap in (1, 17, 18, 45, 46, 87, 87, 88, 134, 135):
        grow_alike(fast, ref, cap)
        assert (fast.sizes, fast.closed) == (ref.sizes, ref.closed)
        assert fast.window(fast.depth) == ref.window(ref.depth)
    assert fast.sizes == [5, 18, 46, 88, 135]


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def rational_vecs(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


def int_vecs(n):
    return st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(tuple)


@settings(max_examples=40, deadline=None)
@given(lattices, st.data())
def test_dual_reflect_matches_dense_transposed_action(lat, data):
    # The dual step of make_dominant: the simple reflection's transvection
    # acting on the integer row d*h, which must stay integral.
    vals = data.draw(rational_vecs(lat.rank), label="h")
    v = data.draw(st.integers(0, lat.rank - 1), label="v")
    dense = transpose(dense_reflection(lat, lat.basis_vector(lat.vertices[v])))
    p = rational_point(vals, vals)
    rows = [list(p.re)]
    simple_reflection(lat, lat.vertices[v]).step.act_right(rows)
    assert all(isinstance(x, int) for x in rows[0])
    assert tuple(Fraction(x, p.d) for x in rows[0]) == mat_vec(dense, vals)


def fraction_scan(lat, p, depth, n_bound):
    """is_regular's verdict, recomputed with the rational value h(root) of
    every root."""
    for root in enumerate_real_roots(lat, depth):
        re_val, im_val = point_value(p, root)
        if im_val == 0 and re_val.denominator == 1 and abs(re_val) <= n_bound:
            level = int(re_val)
            if next(x for x in root if x != 0) < 0:
                root, level = tuple(-x for x in root), -level
            return "on_wall", root, level
    return "regular", None, None


def plant_on_wall(p, root, level):
    """Move one coordinate of p so that h(root) = level exactly."""
    k = next(i for i, x in enumerate(root) if x != 0)

    def solve(vals, target):
        rest = sum(v * x for i, (v, x) in enumerate(zip(vals, root)) if i != k)
        return vals[:k] + (Fraction(target - rest, root[k]),) + vals[k + 1 :]

    re, im = rational_values(p)
    return rational_point(solve(re, level), solve(im, 0))


@settings(max_examples=40, deadline=None)
@given(lattices, st.data())
def test_integer_is_regular_matches_fraction_scan(lat, data):
    depth = data.draw(st.integers(0, 3), label="depth")
    n_bound = data.draw(st.integers(0, 4), label="n_bound")
    p = rational_point(
        data.draw(rational_vecs(lat.rank), label="re"),
        data.draw(rational_vecs(lat.rank), label="im"),
    )
    if data.draw(st.booleans(), label="plant"):
        root = data.draw(st.sampled_from(enumerate_real_roots(lat, depth)), label="root")
        # Off-integer and out-of-bound levels too: neither is a hit.
        level = data.draw(
            st.fractions(-n_bound - 1, n_bound + 1, max_denominator=3), label="level"
        )
        p = plant_on_wall(p, root, level)
        assert point_value(p, root) == (level, 0)
    res = is_regular(lat, p, depth, n_bound)
    expected = fraction_scan(lat, p, depth, n_bound)
    assert (res.status, res.wall_root, res.wall_level) == expected
    assert res.roots_checked == len(enumerate_real_roots(lat, depth))


def fraction_chase(lat, p, max_steps):
    """make_dominant in Fraction arithmetic through dense transposed reflections."""
    re, im = rational_values(p)
    word = []
    for step in range(max_steps + 1):
        neg = next((i for i, x in enumerate(im) if x < 0), None)
        if neg is None:
            return (re, im), tuple(word), step, all(x > 0 for x in im)
        if step == max_steps:
            return None
        v = lat.vertices[neg]
        mt = transpose(dense_reflection(lat, lat.basis_vector(v)))
        re, im = mat_vec(mt, re), mat_vec(mt, im)
        word.append((v, 1))


def draw_chase_point(lat, data):
    """A drawn rational point; when ``pushed``, a dominant point moved by a
    word, so that the chase terminates."""
    re = data.draw(rational_vecs(lat.rank), label="re")
    if data.draw(st.booleans(), label="pushed"):
        im = data.draw(
            st.lists(st.integers(0, 5), min_size=lat.rank, max_size=lat.rank), label="im"
        )
        letters = data.draw(st.lists(st.sampled_from(lat.vertices), max_size=6), label="w")
        mt = transpose(evaluate_word(lat, [(v, 1) for v in letters]).matrix)
        return rational_point(mat_vec(mt, re), mat_vec(mt, im))
    return rational_point(re, data.draw(rational_vecs(lat.rank), label="im"))


@settings(max_examples=40, deadline=None)
@given(lattices, st.data())
def test_make_dominant_matches_fraction_chase(lat, data):
    p = draw_chase_point(lat, data)
    expected = fraction_chase(lat, p, 40)
    if expected is None:
        with pytest.raises(NotInConeWithinBudget):
            make_dominant(lat, p, 40)
        return
    res = make_dominant(lat, p, 40)
    assert res.point.d == p.d
    assert (rational_values(res.point), res.word, res.steps, res.strictly_dominant) == (
        expected
    )


def scale_point(p, k):
    """The same values as p over the denominator k * p.d."""
    return DualPoint(k * p.d, tuple(k * x for x in p.re), tuple(k * x for x in p.im))


@settings(max_examples=40, deadline=None)
@given(lattices, st.data())
def test_probes_do_not_see_the_denominator_scale(lat, data):
    # The cone suite does not reduce its denominators: every verdict must
    # be the same for (d, re, im) and (k d, k re, k im).  The chase reads
    # the signs of im, the word is linear, and a wall hit is im . root = 0,
    # re . root divisible by d and |re . root| <= n_bound d.
    p = draw_chase_point(lat, data)
    depth = data.draw(st.integers(0, 3), label="depth")
    n_bound = data.draw(st.integers(0, 4), label="n_bound")
    if data.draw(st.booleans(), label="plant"):
        root = data.draw(st.sampled_from(enumerate_real_roots(lat, depth)), label="root")
        p = plant_on_wall(p, root, data.draw(st.integers(-n_bound, n_bound), label="level"))
    k = data.draw(st.integers(2, 7), label="k")
    q = scale_point(p, k)
    try:
        res = make_dominant(lat, p, 40)
    except NotInConeWithinBudget:
        with pytest.raises(NotInConeWithinBudget):
            make_dominant(lat, q, 40)
    else:
        scaled = make_dominant(lat, q, 40)
        assert scaled.point == scale_point(res.point, k)
        assert (scaled.word, scaled.steps, scaled.strictly_dominant) == (
            res.word,
            res.steps,
            res.strictly_dominant,
        )
    assert is_regular(lat, q, depth, n_bound) == is_regular(lat, p, depth, n_bound)


@settings(max_examples=40, deadline=None)
@given(lattices, st.data())
def test_sparse_forms_match_dense(lat, data):
    x, y = (data.draw(int_vecs(lat.rank)) for _ in range(2))
    assert lat.form(x, y) == dot(x, mat_vec(lat.cartan, y))
    assert lat.euler_form(x, y) == dot(x, mat_vec(lat.euler, y))


@settings(max_examples=30, deadline=None)
@given(lattices, st.data())
def test_euler_gram_matches_pairing_table(lat, data):
    classes = tuple(data.draw(int_vecs(lat.rank)) for _ in range(lat.rank))
    k = collection_of(classes, lat)
    assert euler_gram(k) == tuple(
        tuple(lat.euler_form(x, y) for y in classes) for x in classes
    )


def near_identity_matrices(n):
    """Integer matrices equal to the identity outside a few drawn rows."""
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    changes = st.dictionaries(st.integers(0, n - 1), row, max_size=3)
    return changes.map(lambda rows: expand_rows(n, rows))


def acting_elements(lat, data):
    """One element of each kind the action rule covers: a simple reflection,
    a word of several letters, a product by ``*`` and a program node, and on
    an octopus lattice a translation, its inverse, a product with it and its
    witness evaluated as a program."""
    letters = data.draw(
        st.lists(st.sampled_from(lat.vertices), min_size=2, max_size=6), label="w"
    )
    word = [(v, 1) for v in letters]
    s_v = simple_reflection(lat, data.draw(st.sampled_from(lat.vertices), label="v"))
    word_el = evaluate_word(lat, word)
    product = word_el * s_v
    assert product.matrix == mat_mul(word_el.matrix, s_v.matrix)
    elements = [s_v, word_el, product, evaluate_program(lat, WordProgram(word), {})]
    if lat.is_octopus:
        u = data.draw(st.sampled_from(lat.star_vertices()), label="u")
        tau = translation_element(lat, u)
        elements += [tau, tau.inverse(), tau * s_v, evaluate_program(lat, tau.word, {})]
    return elements


@settings(max_examples=30, deadline=None)
@given(lattices, st.data())
def test_factorless_action_matches_mat_mul(lat, data):
    # A bare matrix M = I + D acts as r -> r + sum_k r[k] D_k over its moved
    # rows, and so does every element but a generator, which acts through
    # its transvection.
    letters = data.draw(st.lists(st.sampled_from(lat.vertices), max_size=6), label="w")
    word_matrix = evaluate_word(lat, [(v, 1) for v in letters]).matrix
    v = data.draw(st.sampled_from(lat.vertices), label="v")
    twist = twist_matrix(lat, lat.basis_vector(v))
    near = data.draw(near_identity_matrices(lat.rank), label="near identity")
    bare = [WeylElement.from_matrix(m) for m in (word_matrix, twist, near)]
    for element in bare + acting_elements(lat, data):
        m = element.matrix
        assert set(element.moved) == set(unit_rows_dropped(m))
        assert product_rows(lat.rank, (element,)) == unit_rows_dropped(m)
        rows = [list(data.draw(int_vecs(lat.rank))) for _ in range(3)]
        expected = mat_mul(rows, m)
        element.act_right(rows)
        assert tuple(map(tuple, rows)) == expected
    bare_word, bare_twist = WeylElement.from_matrix(word_matrix), WeylElement.from_matrix(twist)
    assert (bare_word * bare_twist).matrix == mat_mul(word_matrix, twist)
    assert bare_twist.inverse().matrix == mat_inv(twist)
    assert (bare_twist * bare_twist).matrix == identity(lat.rank)
    # A bare element that is not an involution is still inverted by mat_inv.
    cox = WeylElement.from_matrix(coxeter_element(lat).matrix)
    assert product_rows(lat.rank, (cox, cox))
    assert cox.inverse().matrix == mat_inv(cox.matrix)


@settings(max_examples=40, deadline=None)
@given(lattices, st.data())
def test_apply_matches_mat_vec(lat, data):
    letters = data.draw(
        st.lists(st.sampled_from(lat.vertices), min_size=2, max_size=10), label="w"
    )
    bare = WeylElement.from_matrix(evaluate_word(lat, [(v, 1) for v in letters]).matrix)
    v = data.draw(st.sampled_from(lat.vertices), label="v")
    twist = WeylElement.from_matrix(twist_matrix(lat, lat.basis_vector(v)))
    for element in [bare, twist, identity_element(lat)] + acting_elements(lat, data):
        for _ in range(3):
            x = data.draw(int_vecs(lat.rank), label="x")
            assert element.apply(x) == mat_vec(element.matrix, x)


def dense_order(m, cap):
    """What order_of answers for the matrix m, by dense powers."""
    ident = identity(len(m))
    power = m
    for k in range(1, cap + 1):
        if power == ident:
            return Finite(order=k)
        power = mat_mul(power, m)
    return Truncated(explored=cap)


def test_order_of_coxeter_elements_matches_dense_powers():
    answers = []
    for a in DEFAULT_CATALOG:
        for kind in ("star", "octopus"):
            c = coxeter_element(_lattice(a, kind))
            answers.append(dense_order(c.matrix, 50))
            assert order_of(c, 50) == answers[-1]
    # Both kinds of answer occur, and finite orders above 2.
    assert any(isinstance(x, Truncated) for x in answers)
    assert any(isinstance(x, Finite) and x.order > 2 for x in answers)


@settings(max_examples=30, deadline=None)
@given(lattices, st.data())
def test_order_of_matches_dense_powers_on_every_kind_of_element(lat, data):
    # order_of multiplies every element by itself alone: a generator
    # through its transvection, any other element as I + D.  Cap 32 is above
    # 30, the order of the Coxeter element of E8, the star (2,3,5).
    cox = WeylElement.from_matrix(coxeter_element(lat).matrix)
    for element in acting_elements(lat, data) + [cox, identity_element(lat)]:
        assert order_of(element, 32) == dense_order(element.matrix, 32)


def dense_split_matrix(lat, m):
    """T M T^-1 with one dense mat_vec per column, T from to_split/from_split."""
    n = lat.rank
    cols = []
    for k in range(n):
        unit = tuple(int(i == k) for i in range(n))
        cols.append(lat.to_split(mat_vec(m, lat.from_split(unit))))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def bare_elements(n, i, j, c):
    """As bare elements: the elementary matrix I + c e_i e_j^T and the
    transposition of i and j, which can move the delta line, and the matrix
    that scales coordinates i and j by 1 + c, which at the hub and 1* keeps
    the line but scales delta."""
    elementary = [list(row) for row in identity(n)]
    elementary[i][j] = c
    swap = [list(row) for row in identity(n)]
    swap[i], swap[j] = swap[j], swap[i]
    scale = [list(row) for row in identity(n)]
    scale[i][i] = scale[j][j] = 1 + c
    return [WeylElement.from_matrix(tuple(map(tuple, m))) for m in (elementary, swap, scale)]


def check_projection(lat, w) -> bool:
    """Whether the dense conjugation moves the delta line; project_p must
    raise exactly then, and otherwise return the dense block."""
    n = lat.rank
    split = dense_split_matrix(lat, w.matrix)
    moved = any(split[k][n - 1] for k in range(n - 1)) or split[n - 1][n - 1] not in (1, -1)
    if moved:
        with pytest.raises(DeltaNotPreserved):
            project_p(lat, w)
    else:
        assert project_p(lat, w).matrix == tuple(row[: n - 1] for row in split[: n - 1])
    return moved


@settings(max_examples=100, deadline=None)
@given(octopus_lattices, st.data())
def test_project_p_matches_dense_conjugation(lat, data):
    # Reflections and translations of an octopus lattice all fix delta; the
    # bare elements, drawn into about half of the words, need not.
    n = lat.rank
    gens = [simple_reflection(lat, v) for v in lat.vertices]
    gens += [translation_element(lat, v) for v in lat.star_vertices()]
    gens += [translation_element(lat, v).inverse() for v in lat.star_vertices()]
    picks = data.draw(st.lists(st.sampled_from(gens), max_size=6), label="word")
    bare = data.draw(st.booleans(), label="bare")
    if bare:
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = data.draw(st.sampled_from((-2, -1, 1, 2)), label="c")
        b = data.draw(st.sampled_from(bare_elements(n, i, j, c)), label="bare element")
        picks.insert(data.draw(st.integers(0, len(picks)), label="at"), b)
    w = identity_element(lat)
    for g in picks:
        w = w * g
    moved = check_projection(lat, w)
    if not bare:
        assert not moved


def test_project_p_on_every_bare_element():
    # Every bare element of one octopus lattice, so that both answers of the
    # delta-line test are met, the corner test among them.
    lat = octopus_lattice((2, 3, 4))
    n = lat.rank
    moved = {
        check_projection(lat, w)
        for i in range(n)
        for j in range(n)
        if i != j
        for w in bare_elements(n, i, j, -1 if i < j else 2)
    }
    assert moved == {False, True}
    with pytest.raises(DeltaNotPreserved):
        project_p(lat, bare_elements(n, 0, n - 1, 1)[2])


@pytest.mark.parametrize("seed", [0, 1, 7, 1729, 4242, 2**40 + 3])
def test_randrange_draws_as_randint(seed):
    # The translations suite's samples, and so the golden digests, rely on
    # randint(-9, 9), randrange(19) - 9, the getrandbits(5) stream of
    # draws_below_19 and bulk_draws_below_19 drawing alike and leaving the
    # same state.
    a, b, c, d = (random.Random(seed) for _ in range(4))
    expected = [a.randint(-9, 9) for _ in range(500)]
    assert [b.randrange(19) - 9 for _ in range(500)] == expected
    assert [x - 9 for x in draws_below_19(c, 500)] == expected
    assert [x - 9 for x in bulk_draws_below_19(d, 500)] == expected
    assert a.getstate() == b.getstate() == c.getstate() == d.getstate()


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.sampled_from([0, 1729, 2**32, 2**64 + 7]), st.integers(0, 2**80)),
    st.one_of(st.sampled_from([0, 1, 2, 19, 1000, 10**4]), st.integers(0, 3000)),
)
@example(0, 0)
@example(1729, 1)
@example(2**32, 2)
@example(0, 19)
@example(1729, 1000)
@example(2**64 + 7, 10**4)
def test_bulk_draws_match_randrange(seed, count):
    # bulk_draws_below_19 reads CPython's getrandbits word order, so this
    # runs on every supported Python: same values, same state afterwards.
    a, b = random.Random(seed), random.Random(seed)
    assert list(bulk_draws_below_19(b, count)) == [a.randrange(19) for _ in range(count)]
    assert a.getstate() == b.getstate()


@settings(max_examples=30, deadline=None)
@given(short_arm_octopus_lattices, st.data())
def test_evaluate_program_matches_expansion_and_dense_product(lat, data):
    verts = lat.star_vertices()
    piece = st.one_of(
        st.sampled_from(verts).map(translation_word),
        st.sampled_from(verts).map(lambda v: translation_word(v).inverse()),
        st.sampled_from(lat.vertices).map(lambda v: ((v, 1),)),
    )
    pieces = data.draw(st.lists(piece, min_size=1, max_size=3), label="pieces")
    # A letter tuple contributes its letters, a program itself as one part.
    parts = [q for p in pieces for q in ((p,) if isinstance(p, WordProgram) else p)]
    if not any(isinstance(p, WordProgram) for p in pieces):
        parts.insert(0, translation_word("1"))
    program = WordProgram(parts)
    memo = {}
    for word in (program, program.inverse()):
        letters = tuple(word)
        dense = identity(lat.rank)
        for v, _e in letters:
            dense = mat_mul(dense, dense_reflection(lat, lat.basis_vector(v)))
        element = evaluate_program(lat, word, memo)
        assert element.matrix == evaluate_word(lat, letters).matrix == dense
        assert element.word is word
        # A fresh memo gives the same product as one shared with other words.
        assert evaluate_program(lat, word, {}).matrix == dense


def reference_samples(rng, element, c_v, delta, samples):
    """The sample-by-sample loop that closed_form_samples replaces: whether
    every sample holds, and the index of the first that fails."""
    n = len(delta)
    for k in range(samples):
        vec = tuple(rng.randrange(19) - 9 for _ in range(n))
        coeff = sum(c * vec[j] for j, c in c_v)
        if mat_vec(element.matrix, vec) != tuple(x - coeff * d for x, d in zip(vec, delta)):
            return False, k
    return True, None


def wrong_entries(m, *entries, amount=1):
    rows = [list(r) for r in m]
    for i, j in entries:
        rows[i][j] += amount
    return tuple(map(tuple, rows))


def test_closed_form_samples_match_the_sample_loop():
    octo = octopus_lattice(Weights((2, 3, 4)), default_lambda(3))
    n = octo.rank
    failing_at = set()
    for seed in range(12):
        # A wrong entry in column j fails the first sample whose coordinate
        # j is nonzero: after sample 0 when its coordinate j is zero.
        first = [x - 9 for x in draws_below_19(random.Random(seed), n)]
        j = first.index(0) if 0 in first else seed % n
        for v in octo.star_vertices():
            tau = translation_element(octo, v)
            c_v = octo.cartan_rows[octo.index(v)]
            wrong = WeylElement.from_matrix(wrong_entries(tau.matrix, (seed % n, j)))
            # Two rows that fail at different samples: the earlier counts.
            two_wrong = WeylElement.from_matrix(
                wrong_entries(tau.matrix, (0, (j + 1) % n), (n - 1, j))
            )
            cases = ((tau, 30), (wrong, 30), (wrong, 1), (two_wrong, 30))
            for element, samples in cases:
                a, b = random.Random(seed), random.Random(seed)
                holds, k = reference_samples(a, element, c_v, octo.delta, samples)
                assert closed_form_samples(b, element, c_v, octo.delta, samples) == holds
                assert a.getstate() == b.getstate()
                # One sample whose coordinate j is zero misses the wrong entry.
                assert holds == (element is tau or (samples == 1 and first[j] == 0))
                if k is not None:
                    failing_at.add(k)
    assert failing_at - {0}


@pytest.mark.parametrize("a", [(2, 2, 2, 2), (2, 3, 4), (3, 4, 5), (4, 4, 4, 4)])
def test_packed_check_matches_the_sample_loop_on_any_entry(a):
    # Wrong entries of either sign and any size, on lattices up to rank 14:
    # the slots must be wide enough for the rows' values to pack uniquely,
    # and the first failing sample, read from the lowest set bit, must leave
    # the generator where the sample loop leaves it.
    octo = octopus_lattice(Weights(a), default_lambda(len(a)))
    n = octo.rank
    verts = octo.star_vertices()
    failing_at = set()
    for seed in (0, 1729, 2**40 + 3):
        x = [v - 9 for v in draws_below_19(random.Random(seed), 100 * n)]
        # The column whose coordinate stays zero over the most samples.
        zeros = [next((k for k in range(100) if x[k * n + c]), 100) for c in range(n)]
        j = zeros.index(max(zeros))
        for v in (verts[0], verts[-1]):
            tau = translation_element(octo, v)
            c_v = octo.cartan_rows[octo.index(v)]
            for amount in (1, -1, 2**40, -(2**70)):
                wrong = wrong_entries(tau.matrix, (seed % n, j), amount=amount)
                # A second wrong row: the earlier failing sample counts.
                j2 = (j + 1) % n
                two_wrong = wrong_entries(wrong, ((seed + 1) % n, j2), amount=-amount)
                cases = (
                    (tau, 100),
                    (WeylElement.from_matrix(wrong), zeros[j]),
                    (WeylElement.from_matrix(two_wrong), min(zeros[j], zeros[j2])),
                )
                for element, passing in cases:
                    for samples in (1, 2, 30, 100):
                        a_rng, b_rng = random.Random(seed), random.Random(seed)
                        holds, k = reference_samples(a_rng, element, c_v, octo.delta, samples)
                        got = closed_form_samples(b_rng, element, c_v, octo.delta, samples)
                        assert got == holds == (samples <= passing)
                        assert a_rng.getstate() == b_rng.getstate()
                        failing_at.add(k)
    assert failing_at - {0, None}


def refuse_dense_kernels(monkeypatch, *more):
    """Make every binding of mat_vec, mat_mul and the kernels in ``more``
    in the package raise."""

    def refuse(*_args):
        raise AssertionError("dense kernel called")

    dense = (exact.mat_vec, exact.mat_mul, *more)
    for name, module in list(sys.modules.items()):
        if name == "octoweyl" or name.startswith("octoweyl."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in dense):
                    monkeypatch.setattr(module, attr, refuse)


def test_translations_suite_runs_without_dense_kernels(monkeypatch):
    # The projection is one product over the rows it moves: no dense
    # conjugation, so no transpose either.
    weights = ((2, 3, 7), (2, 3, 12))
    warm = {w: suite_translations(w) for w in weights}
    assert all(report["pass"] for report in warm.values())
    refuse_dense_kernels(monkeypatch, exact.transpose)
    for w in weights:
        assert suite_translations(w) == warm[w]


def test_cone_suite_runs_without_dense_kernels(monkeypatch):
    # Pushed points and the word consistency check act through the word's
    # element, as I + D over its moved rows; the wall scan reads the root
    # window.
    weights = ((2, 3, 4), (4, 4, 4, 4))
    warm = {w: suite_cone(w) for w in weights}
    assert all(report["pass"] for report in warm.values())
    refuse_dense_kernels(monkeypatch)
    for w in weights:
        assert suite_cone(w) == warm[w]


def test_presentation_and_twist_suites_run_without_dense_kernels(monkeypatch):
    # A commutation of two generators is decided from their pairings and
    # both sides of every other relation are multiplied over the rows they
    # move.  Each twist is found equal to its reflection by comparing the
    # rows in which it differs from I, and is then assigned that reflection.
    suites = (
        suite_presentations,
        suite_semidirect,
        suite_artin,
        suite_vanderlek,
        suite_prop44,
        suite_twists,
    )
    w = (4, 4, 4, 4)
    warm = {suite: suite(w) for suite in suites}
    assert all(report["pass"] for report in warm.values())
    refuse_dense_kernels(monkeypatch, exact.mat_inv)
    for suite in suites:
        assert suite(w) == warm[suite]


def test_cold_generators_are_form_checked_without_dense_kernels(monkeypatch):
    # A cold generator cache builds and form-checks every generator again,
    # through the sparse criterion and never through preserves_form.
    w = (2, 3, 8)
    warm = {suite: suite(w) for suite in (suite_translations, suite_semidirect)}
    assert all(report["pass"] for report in warm.values())
    refuse_dense_kernels(monkeypatch)

    def refuse(*_args):
        raise AssertionError("dense form check called")

    monkeypatch.setattr(weyl, "preserves_form", refuse)
    for suite, report in warm.items():
        simple_reflection.cache_clear()
        translation_element.cache_clear()
        assert suite(w) == report


def test_hot_paths_build_no_dense_matrix(monkeypatch):
    # Products keep their moved rows, so no element on these paths calls
    # expand_rows; cold generator caches rebuild the generators too.
    w = (2, 3, 7)
    octo, star = _lattice(w, "octopus"), _lattice((2, 2, 2), "star")
    warm = {suite: suite(w) for suite in (suite_translations, suite_twists)}
    assert all(report["pass"] for report in warm.values())
    order = order_of(coxeter_element(octo), 50)
    group = group_enumerate(star, 1000)
    assert group == Finite(order=192)
    refuse_dense_kernels(monkeypatch, weyl.expand_rows)
    simple_reflection.cache_clear()
    translation_element.cache_clear()
    for suite, report in warm.items():
        assert suite(w) == report
    assert order_of(coxeter_element(octo), 50) == order
    assert group_enumerate(star, 1000) == group


def test_serre_coxeter_matrix_matches_the_dense_inverse(monkeypatch):
    # -E^-1 E^T by Gauss-Jordan over the rationals, against the integer
    # back-substitution, which must not call mat_inv.
    lattices = [
        _lattice(a, kind)
        for a in DEFAULT_CATALOG + ((2, 3, 20),)
        for kind in ("star", "octopus")
    ]
    dense = [mat_mul(mat_inv(lat.euler), transpose(lat.euler)) for lat in lattices]
    refuse_dense_kernels(monkeypatch, exact.mat_inv)
    for lat, prod in zip(lattices, dense):
        assert serre_coxeter_matrix(lat) == tuple(tuple(-x for x in row) for row in prod)


def step_matrix(lat, step):
    """The dense matrix of a transvection or an element."""
    if isinstance(step, Transvection):
        n = lat.rank
        u, p = ([0] * n for _ in range(2))
        for i, a in step.u:
            u[i] = a
        for j, b in step.p:
            p[j] = b
        return dense_transvection(n, u, p)
    return step.matrix


def word_steps(lat, data):
    """A drawn word of reflections (elements and bare transvections),
    translations, their inverses and bare-matrix elements, with a drawn
    step and its inverse inserted, or the word followed by its inverse."""
    n = lat.rank
    star_verts = lat.star_vertices()
    gens = [simple_reflection(lat, v) for v in lat.vertices]
    gens += [g.step for g in gens]
    gens += [translation_element(lat, v) for v in star_verts]
    gens += [translation_element(lat, v).inverse() for v in star_verts]
    v = data.draw(st.sampled_from(lat.vertices), label="twist vertex")
    letters = data.draw(st.lists(st.sampled_from(lat.vertices), max_size=4), label="bare")
    gens.append(WeylElement.from_matrix(twist_matrix(lat, lat.basis_vector(v))))
    word_matrix = evaluate_word(lat, [(x, 1) for x in letters]).matrix
    gens.append(WeylElement.from_matrix(word_matrix))
    gens.append(WeylElement.from_matrix(identity(n)))
    word = data.draw(st.lists(st.sampled_from(gens), max_size=8), label="word")
    shape = data.draw(st.sampled_from(("plain", "pair", "cancel")), label="shape")
    if shape == "pair" and word:
        # g g^-1 in the middle: the rows g moves go back to unit rows there.
        k = data.draw(st.integers(0, len(word)), label="at")
        g = data.draw(st.sampled_from(gens), label="g")
        word[k:k] = [g, g.inverse()]
    elif shape == "cancel":
        word += [g.inverse() for g in reversed(word)]
    return word, shape


@settings(max_examples=60, deadline=None)
@given(short_arm_octopus_lattices, st.data())
def test_product_rows_matches_dense_products(lat, data):
    n = lat.rank
    steps, shape = word_steps(lat, data)
    dense = identity(n)
    for step in steps:
        dense = mat_mul(dense, step_matrix(lat, step))
    rows = product_rows(n, steps)
    assert rows == unit_rows_dropped(dense)
    assert expand_rows(n, rows) == dense
    if shape == "cancel":
        assert rows == {}


def test_product_rows_drops_rows_that_go_back_to_unit_rows():
    lat = octopus_lattice((2, 3, 4))
    n = lat.rank
    s = {v: simple_reflection(lat, v) for v in lat.vertices}
    hub, arm = "1", (2, 2)
    # s_hub s_hub s_arm: the hub's row is moved, then back to e_hub.
    rows = product_rows(n, (s[hub], s[hub], s[arm]))
    assert rows == product_rows(n, (s[arm],)) == unit_rows_dropped(s[arm].matrix)
    assert list(rows) == [lat.index(arm)]
    # I(e_arm, e_hub) = 0, so s_arm commutes with the hub translation.
    tau = translation_element(lat, hub)
    assert product_rows(n, (tau, s[arm], tau.inverse(), s[arm])) == {}
    assert product_rows(n, ()) == {}


def pairing(p, u):
    return sum(a * dict(p).get(i, 0) for i, a in u)


def sparse_vecs(n):
    """Integer vectors of length n with at most three nonzero entries, sparse."""
    entry = st.integers(-3, 3).filter(bool)
    return st.dictionaries(st.integers(0, n - 1), entry, max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    )


def commutation_cases(lat, data):
    """Pairs of transvections: the lattice's reflections at roots of depth
    at most two, its translations and their inverses, random sparse ones,
    and two planted kinds with nonzero pairings.  A reflection (u, p) and
    (k u, m p) pair to 2k and 2m and commute; (e_v, C e_v) and (e_v, e_j)
    with j != v pair to 2 one way and 0 the other and do not.  Returns the
    pairs and the planted pairs with whether they commute."""
    n = lat.rank
    reflections = [reflection_transvection(lat, x) for x in enumerate_real_roots(lat, 2)]
    gens = list(reflections)
    if lat.is_octopus:
        taus = [translation_element(lat, v).step for v in lat.star_vertices()]
        gens += taus + [t.inverse() for t in taus]
    a, b = (data.draw(st.sampled_from(gens), label=x) for x in "ab")
    vec = sparse_vecs(n)
    random_a, random_b = (
        Transvection(data.draw(vec, label=f"u_{x}"), data.draw(vec, label=f"p_{x}"))
        for x in "ab"
    )
    r = data.draw(st.sampled_from(reflections), label="r")
    k, m = (data.draw(st.integers(-3, 3).filter(bool), label=x) for x in "km")
    scaled = Transvection(tuple((i, k * x) for i, x in r.u), tuple((j, m * y) for j, y in r.p))
    v = data.draw(st.integers(0, n - 1), label="v")
    j = data.draw(st.integers(0, n - 1).filter(lambda j: j != v), label="j")
    simple = simple_reflection(lat, lat.vertices[v]).step
    one_sided = Transvection(((v, 1),), ((j, 1),))
    assert pairing(r.p, scaled.u) == 2 * k and pairing(scaled.p, r.u) == 2 * m
    assert pairing(simple.p, one_sided.u) == 2 and pairing(one_sided.p, simple.u) == 0
    planted = [(r, scaled, True), (simple, one_sided, False), (one_sided, simple, False)]
    cases = [(a, b), (a, a), (a, random_a), (random_a, random_b)]
    return cases + [(x, y) for x, y, _ in planted], planted


@settings(max_examples=80, deadline=None)
@given(catalog_lattices, st.data())
def test_transvections_commute_matches_both_products(lat, data):
    n = lat.rank
    cases, planted = commutation_cases(lat, data)
    for a, b in cases:
        assert weyl.transvections_commute(a, b) == (
            product_rows(n, (a, b)) == product_rows(n, (b, a))
        )
    for a, b, commute in planted:
        assert weyl.transvections_commute(a, b) is commute


def planted_pair(n, data):
    """Two transvections with drawn pairings on coordinates i != j: u_a = e_i
    and u_b = e_j, or u_b = m e_i, parallel to u_a; p_a . u_a and p_b . u_b
    in {0, 1, 2, 3} (times m when parallel), cross pairings whose product
    runs over {0, ..., 4} among others, and an entry of each p off the
    supports of u."""
    i, j, k = data.draw(st.permutations(range(n)), label="coordinates")[:3]
    parallel = data.draw(st.booleans(), label="parallel")
    m = data.draw(st.sampled_from((1, -1, 2)), label="m") if parallel else 1
    self_a, self_b = (data.draw(st.integers(0, 3), label=f"p.u_{x}") for x in "ab")
    cross = st.sampled_from((0, 1, -1, 2, -2, 3, 4))
    ab, ba = data.draw(cross, label="p_a.u_b"), data.draw(cross, label="p_b.u_a")
    noise = st.integers(-2, 2)
    if parallel:
        # p_b . u_b = m self_b and a cross product of m self_a self_b.
        u_b, p_a, p_b = {i: m}, {i: self_a}, {i: self_b}
    else:
        u_b, p_a, p_b = {j: 1}, {i: self_a, j: ab}, {i: ba, j: self_b}
    p_a[k] = data.draw(noise, label="p_a[k]")
    p_b[k] = data.draw(noise, label="p_b[k]")
    a = Transvection(((i, 1),), tuple(sorted((x, c) for x, c in p_a.items() if c)))
    b = Transvection(tuple(u_b.items()), tuple(sorted((x, c) for x, c in p_b.items() if c)))
    return a, b


@settings(max_examples=200, deadline=None)
@given(catalog_lattices, st.data())
def test_pairing_kernel_holds_only_where_the_products_agree(lat, data):
    # The kernel may leave a relation undecided, but a relation that it
    # finds to hold must hold in product_rows: an involution squares to the
    # identity, a braid's two sides agree, and a commutation is decided
    # exactly either way.
    n = lat.rank
    cases, _planted = commutation_cases(lat, data)
    cases.append(planted_pair(n, data))
    for a, b in cases:
        for x in (a, b):
            if weyl.holds_by_pairings(weyl.INVOLUTION, x, x):
                assert product_rows(n, (x, x)) == {}
        braid = product_rows(n, (a, b, a)) == product_rows(n, (b, a, b))
        assert braid or not weyl.holds_by_pairings(weyl.BRAID, a, b)
        commute = product_rows(n, (a, b)) == product_rows(n, (b, a))
        assert weyl.holds_by_pairings(weyl.COMMUTE, a, b) == commute


def test_pairing_kernel_decides_exactly_the_braid_rule_on_planted_pairs():
    # u_a = e_0, u_b = e_1, with every self pairing in {0, ..., 3} and
    # cross pairings whose product takes every value in {-4, ..., 4}: a
    # braid is decided exactly when both self pairings are 2 and the
    # product is 1, an involution exactly when its self pairing is 2, and
    # each decided relation holds in product_rows.
    n, crosses = 3, (0, 1, -1, 2, -2, 3, 4)
    decided = set()
    for self_a, self_b, ab, ba in product(range(4), range(4), crosses, crosses):
        a = Transvection(((0, 1),), tuple((j, c) for j, c in ((0, self_a), (1, ab), (2, 1)) if c))
        b = Transvection(((1, 1),), tuple((j, c) for j, c in ((0, ba), (1, self_b), (2, -1)) if c))
        assert weyl.holds_by_pairings(weyl.INVOLUTION, a, a) == (self_a == 2)
        assert (product_rows(n, (a, a)) == {}) == (self_a == 2)
        if weyl.holds_by_pairings(weyl.BRAID, a, b):
            decided.add((self_a, self_b, ab * ba))
            assert product_rows(n, (a, b, a)) == product_rows(n, (b, a, b))
    assert decided == {(2, 2, 1)}


def catalog_assignments(a):
    """The generator assignments of the suites at weights a, by spec builder."""
    w = Weights(a)
    star, octo = star_lattice(w), octopus_lattice(w, default_lambda(w.r))
    return {
        star_coxeter_spec: reflection_assignment(star),
        generalized_coxeter_spec_W: reflection_assignment(octo),
        artin_spec: reflection_assignment(octo),
        semidirect_spec: semidirect_assignment(octo),
        van_der_lek_spec: van_der_lek_assignment(octo),
    }


def test_pairings_decide_every_involution_and_braid_of_the_specs():
    decided = 0
    for a in DEFAULT_CATALOG + ((4, 4, 4), (4, 4, 4, 4)):
        for build, assignment in catalog_assignments(a).items():
            index = presentations.pairing_index(assignment)
            for kind, entries in build(Weights(a)).families:
                if kind in (weyl.INVOLUTION, weyl.BRAID):
                    for tag, x, y in entries:
                        assert index.holds(kind, x, y), (a, tag)
                        decided += 1
    assert decided == 838


@pytest.mark.parametrize("a", DEFAULT_CATALOG, ids=str)
def test_pairing_index_agrees_with_transvections_commute(a):
    # Every ordered pair of generators of every assignment, a generator
    # with itself included: the index decides each commutation exactly, and
    # a generator that it does not list as near pairs to zero with it.
    for assignment in catalog_assignments(a).values():
        index = presentations.pairing_index(assignment)
        steps = {g: e.step for g, e in assignment.items()}
        assert index.steps == steps
        for x, y in product(steps, repeat=2):
            commute = weyl.transvections_commute(steps[x], steps[y])
            assert index.holds(weyl.COMMUTE, x, y) == commute, (x, y)
            if y not in index.near[x]:
                assert pairing(steps[x].p, steps[y].u) == 0


def transvection(u, p):
    return Transvection(exact.sparse(tuple(u)), exact.sparse(tuple(p)))


def form_cases(lat, data):
    """Transvections at random and near-isometries: reflections, and
    radical u with any p, unchanged or with one entry moved."""
    n = lat.rank
    vec = int_vecs(n)
    u, p = data.draw(vec, label="u"), data.draw(vec, label="p")
    alpha = data.draw(st.sampled_from(enumerate_real_roots(lat, 2)), label="root")
    c_alpha = mat_vec(lat.cartan, alpha)
    cases = [(u, p), (alpha, c_alpha), (alpha, tuple(2 * x for x in c_alpha))]
    for radical in lat.radical:
        cases.append((radical, p))
    k = data.draw(st.integers(0, n - 1), label="k")
    bump = tuple(int(i == k) for i in range(n))
    cases.append((alpha, tuple(map(add, c_alpha, bump))))
    cases.append((tuple(map(add, alpha, bump)), c_alpha))
    return [transvection(u, p) for u, p in cases]


@settings(max_examples=60, deadline=None)
@given(lattices, st.data())
def test_sparse_form_criterion_matches_preserves_form(lat, data):
    for t in form_cases(lat, data):
        assert transvection_preserves_form(lat, t) == preserves_form(lat, step_matrix(lat, t))


def test_sparse_form_criterion_holds_and_fails():
    lat = octopus_lattice((2, 3, 4))
    n = lat.rank
    gens = [simple_reflection(lat, v).step for v in lat.vertices]
    gens += [translation_element(lat, v).step for v in lat.star_vertices()]
    for t in gens:
        assert transvection_preserves_form(lat, t)
        assert preserves_form(lat, step_matrix(lat, t))
    alpha = lat.basis_vector("1")
    c_alpha = mat_vec(lat.cartan, alpha)
    # A radical vector added to u changes neither q nor I(u, u).
    assert transvection_preserves_form(lat, transvection(map(add, alpha, lat.delta), c_alpha))
    bad = (
        (alpha, tuple(2 * x for x in c_alpha)),  # I - 2 alpha (C alpha)^T
        (alpha, tuple(x + (i == n - 1) for i, x in enumerate(c_alpha))),
        (alpha, mat_vec(lat.cartan, lat.basis_vector((1, 1)))),
    )
    for u, p in bad:
        t = transvection(u, p)
        assert not transvection_preserves_form(lat, t)
        assert not preserves_form(lat, step_matrix(lat, t))
    with pytest.raises(ValueError, match="does not preserve"):
        weyl._checked(lat, WeylElement.from_step(n, transvection(*bad[0])))


def dense_side(word, matrices):
    """The dense product of a relation side, inverses by mat_inv."""
    out = identity(len(next(iter(matrices.values()))))
    for g, e in word:
        m = matrices[g] if e >= 0 else mat_inv(matrices[g])
        for _ in range(abs(e)):
            out = mat_mul(out, m)
    return out


def planted_semidirect():
    """The semidirect spec of (2, 3, 4) and an assignment under which many
    of its relations fail and some still hold: two translations swapped, and
    one reflection replaced by a bare matrix of another reflection."""
    w = Weights((2, 3, 4))
    lat = octopus_lattice(w, default_lambda(w.r))
    assignment = semidirect_assignment(lat)
    assignment["tau[1]"], assignment["tau[(1,1)]"] = (
        assignment["tau[(1,1)]"],
        assignment["tau[1]"],
    )
    assignment["w[(2,1)]"] = WeylElement.from_matrix(simple_reflection(lat, (3, 1)).matrix)
    return semidirect_spec(w), assignment


def test_failing_outcomes_carry_the_dense_products():
    spec, assignment = planted_semidirect()
    matrices = {g: a.matrix for g, a in assignment.items()}
    report = verify(spec, assignment)
    assert report.failures() and len(report.failures()) < len(report.outcomes)
    for rel, outcome in zip(spec.relations, report.outcomes, strict=True):
        lhs, rhs = dense_side(rel.lhs, matrices), dense_side(rel.rhs, matrices)
        assert outcome.holds == (lhs == rhs)
        if outcome.holds:
            assert outcome.lhs_matrix is outcome.rhs_matrix is None
        else:
            assert (outcome.lhs_matrix, outcome.rhs_matrix) == (lhs, rhs)


def test_suite_entries_are_the_outcomes_json():
    # Each entry that add_spec writes is its outcome, key for key in the
    # order spec, tag, holds, and for a failing relation lhs, rhs: the
    # outcome's dense sides as lists.
    spec, assignment = planted_semidirect()
    report = verify(spec, assignment)
    run = SuiteRun(Weights(spec.weights), None, SuiteConfig())
    run.add_spec(report)
    expected = []
    for o in report.outcomes:
        entry = [("spec", spec.name), ("tag", o.tag), ("holds", o.holds)]
        if not o.holds:
            entry += [("lhs", [list(r) for r in o.lhs_matrix])]
            entry += [("rhs", [list(r) for r in o.rhs_matrix])]
        expected.append(entry)
    assert [list(e.items()) for e in run.details] == expected
    assert {e["holds"] for e in run.details} == {True, False}
    assert all(("lhs" in e) == (not e["holds"]) for e in run.details)


@st.composite
def planted_matrices(draw):
    """A square integer matrix of size 0-10: generic, mostly zero, with a
    repeated or dependent row (singular), or a permuted triangular one,
    which the dense elimination can only finish with row swaps."""
    n = draw(st.integers(0, 10), label="n")
    shape = draw(st.sampled_from(("generic", "sparse", "repeated", "permuted")), label="shape")
    entries = st.integers(-9, 9) if shape == "generic" else st.sampled_from((0, 0, 0, 1, -1, 2))
    rows = [draw(st.lists(entries, min_size=n, max_size=n), label="row") for _ in range(n)]
    if shape == "repeated" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2), label="multiple")
        rows[j] = [c * a for a in rows[i]]
    elif shape == "permuted":
        for i in range(n):
            rows[i][:i] = [0] * i
            rows[i][i] = draw(st.sampled_from((1, -1, 2)), label="diagonal")
        rows = [rows[i] for i in draw(st.permutations(range(n)), label="order")]
    return tuple(map(tuple, rows))


@settings(max_examples=200, deadline=None)
@given(planted_matrices())
def test_sparse_determinant_matches_dense_bareiss(a):
    assert sparse_determinant(sparse_rows(a)) == determinant(a)


def test_sparse_determinant_examples():
    assert sparse_determinant(()) == 1
    assert sparse_determinant(sparse_rows(((0, 1), (1, 0)))) == -1
    assert sparse_determinant(sparse_rows(((2, 1), (4, 2)))) == 0
    assert sparse_determinant(sparse_rows(((0, 0), (1, 1)))) == 0
    # Pivots 3, 8, 8, -55: the last row waits two pivots before it is scaled
    # up to date, and the last two pivots sit in swapped columns.
    a = ((3, 1, 0, 0), (1, 3, 1, 0), (0, 1, 3, 1), (0, 0, 1, 3))
    assert sparse_determinant(sparse_rows(a)) == determinant(a) == 55


def dense_exceptionality(k):
    """The scan over the dense Gram matrix: each row's diagonal entry, then
    its entries below the diagonal from the left."""
    gram = [[dot(x, mat_vec(k.lattice.euler, y)) for y in k.classes] for x in k.classes]
    for i, row in enumerate(gram):
        if row[i] != 1:
            return False, (i, i, row[i], 1)
        for j in range(i):
            if row[j] != 0:
                return False, (i, j, row[j], 0)
    return True, None


def planted_collection(lat, data):
    """The image of the simples under a drawn word of braid moves and
    shifts, with a drawn defect: two classes swapped, one class scaled (to
    zero, too), or a multiple of one class added to another."""
    simples = simples_collection(lat)
    mu = len(simples)
    moves = [("b", i, s) for i in range(1, mu) for s in (1, -1)]
    moves += [("e", i) for i in range(1, mu + 1)]
    word = data.draw(st.lists(st.sampled_from(moves), max_size=8), label="word")
    classes = list(braid_word_act(simples, word).classes)
    plant = data.draw(st.sampled_from(("none", "swap", "scale", "add")), label="plant")
    i, j = data.draw(st.lists(st.integers(0, mu - 1), min_size=2, max_size=2, unique=True))
    c = data.draw(st.sampled_from((-2, -1, 0, 1, 2)), label="c")
    if plant == "swap":
        classes[i], classes[j] = classes[j], classes[i]
    elif plant == "scale":
        classes[i] = tuple(c * a for a in classes[i])
    elif plant == "add":
        classes[i] = tuple(a + c * b for a, b in zip(classes[i], classes[j]))
    return collection_of(classes, lat)


k_lattices = st.builds(
    _lattice, st.sampled_from(DEFAULT_CATALOG + ((2, 3, 20),)), st.sampled_from(("star", "octopus"))
)


@settings(max_examples=80, deadline=None)
@given(k_lattices, st.data())
def test_numerically_exceptional_matches_the_dense_scan(lat, data):
    k = planted_collection(lat, data)
    check = numerically_exceptional(k)
    assert (check.ok, check.witness) == dense_exceptionality(k)
    assert is_full(k) == (determinant(k.classes) in (1, -1))


def test_numerically_exceptional_planted_failures():
    lat = _lattice((2, 3, 20), "octopus")
    classes = simples_collection(lat).classes
    e = list(classes)

    def witness(cs):
        k = collection_of(cs, lat)
        check = numerically_exceptional(k)
        assert (check.ok, check.witness) == dense_exceptionality(k)
        return check.witness

    # The hub class 0 pairs with -1 against each first arm vertex, which
    # comes after it in the canonical order.
    arms = [j for j in range(1, lat.rank) if lat.euler[0][j]]
    a, b = arms[0], arms[1]
    e[5] = tuple(2 * x for x in classes[5])
    assert witness(e) == (5, 5, 4, 1)
    # A zero class has an empty Gram row, so its diagonal entry is 0.
    e[3] = (0,) * lat.rank
    assert witness(e) == (3, 3, 0, 1)
    # A class moved below two classes it pairs with: the lowest j is named.
    e = list(classes)
    e.insert(b, e.pop(0))
    assert witness(e) == (b, a - 1, lat.euler[0][a], 0)
    # A bad diagonal in the same row as a bad entry below it: the diagonal
    # comes first; a later bad row does not matter.
    e[b] = tuple(2 * x for x in e[b])
    e[-1] = tuple(3 * x for x in e[-1])
    assert witness(e) == (b, b, 4, 1)


def cartan_image_cases(lat, data):
    """Candidate classes: simples, sums and differences of two simples,
    doubled simples, classes of a braid word, delta, and random vectors."""
    n = lat.rank
    simples = simples_collection(lat)
    basis = simples.classes
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    word = data.draw(st.lists(st.sampled_from([("b", k, 1) for k in range(1, n)]), max_size=5))
    candidates = [
        basis[i],
        tuple(map(add, basis[i], basis[j])),
        tuple(a - b for a, b in zip(basis[i], basis[j])),
        tuple(2 * a for a in basis[i]),
        *braid_word_act(simples, word).classes,
        data.draw(int_vecs(n), label="random"),
    ]
    if lat.is_octopus:
        candidates.append(lat.delta)
    return candidates


@settings(max_examples=40, deadline=None)
@given(lattices, st.data())
def test_support_cartan_image_matches_sparse_mat_vec(lat, data):
    weyl.support_reflection.cache_clear()
    for alpha in cartan_image_cases(lat, data):
        q = sparse_mat_vec(lat.cartan_rows, alpha)
        if dot(alpha, q) == 2:
            t = reflection_transvection(lat, alpha)
            assert (t.u, t.p) == (sparse(alpha), sparse(q))
        else:
            with pytest.raises(NotNormTwo):
                reflection_transvection(lat, alpha)


def test_mutations_suite_runs_without_dense_kernels(monkeypatch):
    # Gram rows, pairings and fullness go over the classes' supports: no
    # dense Gram matrix, no dense determinant, no dense product.
    weights = DEFAULT_CATALOG + ((4, 4, 4, 4),)
    warm = {w: suite_mutations(w) for w in weights}
    assert all(report["pass"] for report in warm.values())
    refuse_dense_kernels(monkeypatch, determinant, euler_gram)
    for w in weights:
        assert suite_mutations(w) == warm[w]
