"""The named suites: registry, determinism, and spot checks of their content."""

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

import octoweyl.presentations as presentations
import octoweyl.suites as suites
from octoweyl.cone import RegularityResult
from octoweyl.errors import NotStarVertex, ValidationError
from octoweyl.exact import mat_inv, mat_mul, sparse
from octoweyl.ktheory import (
    KCollection,
    braid_act,
    changed_window,
    coxeter_agrees_on_window,
    coxeter_from_collection,
    simples_collection,
)
from octoweyl.lattice import euler_characteristic, octopus_lattice, star_lattice
from octoweyl.quiver import Weights, default_lambda, parse_lambda, vertex_str
from octoweyl.suites import (
    DEFAULT_CATALOG,
    SUITE_NAMES,
    SuiteConfig,
    run_suite,
    suite_artin,
    suite_cone,
    suite_mutations,
    suite_presentations,
    suite_prop44,
    suite_roots,
    suite_semidirect,
    suite_translations,
    suite_twists,
    suite_vanderlek,
    witness_root,
    witness_shifts,
)
from octoweyl.weyl import PairingIndex, Transvection, WeylElement, simple_reflection

from oracles import (
    generic_window,
    reference_regularity_monotone,
    reference_window_entries,
    reference_witness_root,
)

DIRECT_SUITES = (
    suite_presentations,
    suite_semidirect,
    suite_artin,
    suite_vanderlek,
    suite_prop44,
    suite_translations,
    suite_roots,
    suite_mutations,
    suite_twists,
    suite_cone,
)

REQUIRED_SUITES = {
    "presentations",
    "semidirect",
    "artin",
    "vanderlek",
    "prop44",
    "translations",
    "roots-decomposition",
    "mutations",
    "twists",
    "cone",
}


def test_registry_covers_required_names():
    assert REQUIRED_SUITES == set(SUITE_NAMES)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_on_affine_and_elliptic(name):
    for a in [(2, 2, 2), (3, 3, 3)]:
        rep = run_suite(name, a)
        assert rep["pass"], [d for d in rep["details"] if not d["holds"]]
        assert rep["details"]
        assert rep["weights"] == list(a)


def test_suite_reports_are_deterministic():
    cfg = SuiteConfig(seed=42, samples=20)
    a = run_suite("translations", (2, 2, 3), cfg=cfg)
    b = run_suite("translations", (2, 2, 3), cfg=cfg)
    assert a == b
    c = run_suite("cone", (2, 2, 3), cfg=cfg)
    d = run_suite("cone", (2, 2, 3), cfg=cfg)
    assert c == d


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError):
        run_suite("nope", (2, 2, 2))


def test_witness_root_all_five_cases():
    # the hub, a first arm slot and a deeper arm slot, at shifts of both signs
    octo = octopus_lattice(Weights((2, 2, 3)))
    delta = octo.delta
    for v in octo.star_vertices():
        for n in range(-4, 5):
            built = witness_root(octo, v, n)
            expected = tuple(
                b + n * d for b, d in zip(octo.basis_vector(v), delta)
            )
            assert built == expected, (v, n)


def test_witness_root_rejects_a_vertex_without_recipe():
    octo = octopus_lattice(Weights((2, 2, 3)))
    for v in ("1*", "x"):
        with pytest.raises(NotStarVertex):
            witness_root(octo, v, 1)


@pytest.mark.parametrize("a", DEFAULT_CATALOG)
def test_witness_root_matches_the_parity_recipe(a):
    octo = octopus_lattice(Weights(a), default_lambda(len(a)))
    for v in octo.star_vertices():
        for n in range(-6, 7):
            assert witness_root(octo, v, n) == reference_witness_root(octo, v, n), (v, n)


@pytest.mark.parametrize("a", DEFAULT_CATALOG + ((4, 4, 4, 4),))
def test_witness_shifts_walk_once_each_way(monkeypatch, a):
    # The shifts of a vertex are e_v + n delta for |n| <= n_bound, from one
    # walk in each direction: 2 n_bound translation applications, not the
    # n_bound (n_bound + 1) of a walk from e_v per shift.
    octo = octopus_lattice(Weights(a), default_lambda(len(a)))
    real, applied = WeylElement.apply, []

    def counted(self, x):
        applied.append(x)
        return real(self, x)

    monkeypatch.setattr(WeylElement, "apply", counted)
    for v in octo.star_vertices():
        for n_bound in (0, 1, 3):
            applied.clear()
            shifts = list(witness_shifts(octo, v, n_bound))
            assert [n for n, _root in shifts] == list(range(n_bound + 1)) + list(
                range(-1, -n_bound - 1, -1)
            )
            assert len(applied) == 2 * n_bound
            for n, root in shifts:
                assert root == reference_witness_root(octo, v, n), (v, n)


def test_witness_shifts_stop_at_the_first_failing_shift(monkeypatch):
    # A planted shift that misses its level fails the vertex's witness check,
    # and no translation is applied past it.
    octo = octopus_lattice(Weights((2, 2, 2)), default_lambda(3))
    real, applied = WeylElement.apply, []

    def wrong_second_step(self, x):
        applied.append(x)
        y = real(self, x)
        return y if len(applied) != 2 else x

    assert all(d["holds"] for d in run_suite("roots-decomposition", (2, 2, 2))["details"])
    monkeypatch.setattr(WeylElement, "apply", wrong_second_step)
    shifts = list(witness_shifts(octo, "1", 3))
    assert [root == reference_witness_root(octo, "1", n) for n, root in shifts] == [
        True, True, False, False, True, True, True
    ]
    applied.clear()
    rep = run_suite("roots-decomposition", (2, 2, 2))
    witness = [d for d in rep["details"] if d.get("check") == "witness"]
    assert not witness[0]["holds"] and witness[0]["vertex"] == "1"
    # The first vertex stops after its second application; the others
    # take their 2 n_bound = 6 each.
    assert len(applied) == 2 + 6 * (len(witness) - 1)


WINDOW_CHECKS = ("star-part-membership", "window-count", "window-set-equality")


def _window_entries(rep) -> list:
    return [d for d in rep["details"] if d.get("check") in WINDOW_CHECKS]


def _reference_entries(a, rep, plant=None) -> list:
    """The reference window entries of a roots-decomposition report, over the
    octopus roots that the per-root kernel ``generic_window`` closes at the
    depth the report names, with the plant's root dropped or added."""
    w = Weights(a)
    octo, star = octopus_lattice(w, default_lambda(w.r)), star_lattice(w)
    depth, cap, n_bound = (rep["bounds"][k] for k in ("depth", "cap", "n_bound"))
    finite = euler_characteristic(w) > 0
    if finite:
        star_roots = set(suites.enumerate_until_stable(star, cap=cap))
    else:
        star_roots = set(suites.enumerate_real_roots(star, depth, cap))
    octo_roots = generic_window(octo, depth, cap)
    if plant is not None:
        x = octo.from_split(_planted_root(plant, octo, depth, cap, n_bound))
        octo_roots = [r for r in octo_roots if r != x] if plant == "drop" else [*octo_roots, x]
    return reference_window_entries(octo, star_roots, octo_roots, n_bound, finite)


@pytest.mark.parametrize(
    "a, depth",
    [(a, None) for a in DEFAULT_CATALOG]
    + [((4, 4, 4, 4), None), ((2, 3, 5), None), ((2, 3, 5), 24)],
)
def test_window_entries_match_the_octopus_coordinate_reference(a, depth):
    rep = run_suite("roots-decomposition", a, cfg=SuiteConfig(depth=depth))
    assert _window_entries(rep) == _reference_entries(a, rep)


def test_short_explicit_depth_keeps_its_window_failure():
    # Below height(highest root) + n_bound = 32 rounds the E8 window is
    # short: a false failure that the report pins as it stands.
    rep = run_suite("roots-decomposition", (2, 3, 5), cfg=SuiteConfig(depth=24))
    count, equal = _window_entries(rep)[1:]
    assert count == dict(check="window-count", count=1601, expected=1680, holds=False)
    assert equal == dict(check="window-set-equality", holds=False)


def _planted_root(plant, octo, depth, cap, n_bound):
    """In split coordinates, the root that a plant drops, the first window
    root of the generic closure in octopus order, or the vector it adds:
    2 e_1 (not a star root) at delta level 1, or at n_bound + 1, outside
    the window."""
    j = octo.split_indices[1]
    if plant == "drop":
        window = (x for x in generic_window(octo, depth, cap) if abs(x[j]) <= n_bound)
        return octo.to_split(next(window))
    return (2,) + (0,) * (j - 1) + (1 if plant == "not-star" else n_bound + 1,)


@pytest.mark.parametrize("a", [(2, 2, 2), (2, 3, 3)])
@pytest.mark.parametrize(
    "plant, holds",
    [
        ("drop", [True, False, False]),
        ("not-star", [False, False, False]),
        ("beyond", [True, True, True]),
    ],
)
def test_planted_window_is_judged_as_the_reference_judges_it(monkeypatch, a, plant, holds):
    # The plant goes into the (star part, delta level) pairs that the suite
    # reads off the octopus layers, before its band filter.
    clean = run_suite("roots-decomposition", a)
    real = suites.split_roots

    def planted(lat, depth, cap):
        y = _planted_root(plant, lat, depth, cap, 3)
        pair = (y[:-1], y[-1])
        pairs = list(real(lat, depth, cap))
        return [p for p in pairs if p != pair] if plant == "drop" else pairs + [pair]

    monkeypatch.setattr(suites, "split_roots", planted)
    rep = run_suite("roots-decomposition", a)
    entries = _window_entries(rep)
    assert entries == _reference_entries(a, rep, plant)
    assert [d["holds"] for d in entries] == holds
    if plant == "beyond":
        assert entries == _window_entries(clean)


def test_roots_window_complete_for_affine_example():
    rep = run_suite("roots-decomposition", (2, 2, 2))
    by_check = {d["check"]: d for d in rep["details"] if "check" in d}
    assert by_check["star-count"]["count"] == 24
    assert by_check["window-count"]["count"] == 168
    assert by_check["window-set-equality"]["holds"]


@pytest.mark.parametrize("a, depth", [((2, 3, 5), 32), ((2, 2, 12), 28)])
def test_finite_star_window_reaches_its_highest_root(a, depth):
    # E8 and D14 have highest roots of height 29 and 25: a depth-24 window
    # missed the top of the window {beta + m delta : |m| <= 3}.
    rep = run_suite("roots-decomposition", a)
    assert rep["pass"], [d for d in rep["details"] if not d["holds"]]
    assert rep["bounds"]["depth"] == depth


def test_star_count_is_a_closed_form(monkeypatch):
    rep = run_suite("roots-decomposition", (2, 2, 6))
    count = next(d for d in rep["details"] if d.get("check") == "star-count")
    assert count["expected"] == count["count"] == 112 and count["holds"]
    real = suites.finite_star_root_count
    monkeypatch.setattr(suites, "finite_star_root_count", lambda w: real(w) + 1)
    rep = run_suite("roots-decomposition", (2, 2, 6))
    count = next(d for d in rep["details"] if d.get("check") == "star-count")
    assert not count["holds"]


def _planted_star_roots():
    """Two vectors of the (2,3,8) star that are not real roots: one of norm
    two with mixed signs, delta of the affine (2,3,6) sub-star minus the tip
    of the long arm, which no vertex of that sub-star meets; and twice the
    hub root, of one sign and norm eight."""
    delta = [abs(c) for c in star_lattice(Weights((2, 3, 6))).radical[0]]
    return {"mixed-sign": tuple(delta + [0, -1]), "norm-eight": (2,) + (0,) * 10}


@pytest.mark.parametrize("plant", ["mixed-sign", "norm-eight"])
def test_star_count_bounded_checks_each_root(monkeypatch, plant):
    star, x = star_lattice(Weights((2, 3, 8))), _planted_star_roots()[plant]
    assert star.form(x, x) == (2 if plant == "mixed-sign" else 8)
    real = suites.enumerate_real_roots

    def planted(lat, depth, cap):
        return list(real(lat, depth, cap)) + [x]

    def bounded(rep):
        return next(d for d in rep["details"] if d.get("check") == "star-count-bounded")

    assert bounded(run_suite("roots-decomposition", (2, 3, 8)))["holds"]
    monkeypatch.setattr(suites, "enumerate_real_roots", planted)
    assert not bounded(run_suite("roots-decomposition", (2, 3, 8)))["holds"]


def test_adjoint_checks_see_the_suites_translations(monkeypatch):
    # Swap the translations at (1,1) and (2,1), in the suite and in the
    # semidirect assignment that its adjoint checks verify.  The adjoint
    # checks that fail must be those where r_v tau_u r_v, multiplied densely,
    # differs from tau_u^-1, tau_u or tau_v tau_u as the Cartan entry of
    # (v, u) selects.
    swap = {(1, 1): (2, 1), (2, 1): (1, 1)}
    real = suites.translation_element
    for module in (suites, presentations):
        monkeypatch.setattr(
            module, "translation_element", lambda lat, v: real(lat, swap.get(v, v))
        )
    rep = run_suite("translations", (2, 2, 3))
    failing = {
        (d["check"], tuple(d["pair"]))
        for d in rep["details"]
        if d["check"].startswith("adjoint-") and not d["holds"]
    }
    octo = octopus_lattice(Weights((2, 2, 3)))
    verts = octo.star_vertices()
    tau = {v: real(octo, swap.get(v, v)).matrix for v in verts}
    expected = set()
    for a, v in enumerate(verts):
        r = simple_reflection(octo, v).matrix
        for b, u in enumerate(verts):
            lhs = mat_mul(mat_mul(r, tau[u]), r)
            check, rhs = {
                2: ("adjoint-inverse", mat_inv(tau[u])),
                0: ("adjoint-commute", tau[u]),
                -1: ("adjoint-product", mat_mul(tau[v], tau[u])),
            }[octo.cartan[a][b]]
            if lhs != rhs:
                expected.add((check, (vertex_str(v), vertex_str(u))))
    assert expected and failing == expected


def _perturb_translation(monkeypatch, target=(3, 2)):
    """Add 2 delta_hub to the hub entry of the p of the translation at
    target, in the suites and in the paired assignments.  The new p pairs
    with delta to 2, so the element stays invertible, as an involution; it
    no longer commutes with the other translations, nor with the hub's
    reflection, which target's does since target is not next to the hub."""
    real = suites.translation_element

    def perturbed(lat, v):
        tau = real(lat, v)
        if v != target:
            return tau
        hub = lat.index("1")
        p = dict(tau.step.p)
        p[hub] = p.get(hub, 0) + 2 * lat.delta[hub]
        step = Transvection(tau.step.u, tuple(sorted(p.items())))
        return WeylElement.from_step(lat.rank, step, tau.word)

    for module in (suites, presentations):
        monkeypatch.setattr(module, "translation_element", perturbed)


def _undecided(monkeypatch):
    """Turn every pairing decision of ``presentations.verify`` off: an index
    of no generators leaves every relation to be multiplied out."""
    monkeypatch.setattr(presentations, "pairing_index", lambda assignment: PairingIndex({}))


def _assert_bytes_without_pairings(monkeypatch, reports):
    """Each report, keyed by (suite, weights), again with every relation
    multiplied out: the same bytes."""
    _undecided(monkeypatch)
    for (name, w), report in reports.items():
        assert json.dumps(run_suite(name, w)) == json.dumps(report), (name, w)


# The suites that verify relations through ``presentations.verify``.
RELATION_SUITES = (
    "presentations",
    "semidirect",
    "artin",
    "vanderlek",
    "prop44",
    "translations",
    "twists",
)


def test_clean_catalog_reports_are_the_same_bytes_without_pairings(monkeypatch):
    reports = {(name, a): run_suite(name, a) for a in DEFAULT_CATALOG for name in RELATION_SUITES}
    assert all(report["pass"] for report in reports.values())
    _assert_bytes_without_pairings(monkeypatch, reports)


def test_presentations_multiplies_out_no_coxeter_relation(monkeypatch):
    # At (2,3,4) the pairings decide every W0, W1.0 and W1.1 relation, so
    # product_rows runs only for the two sides of each W2 and W3 relation;
    # with every pairing decision off it runs for both sides of every one.
    calls = []
    real = presentations.product_rows

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(presentations, "product_rows", counted)
    report = run_suite("presentations", (2, 3, 4))
    families = Counter(d["tag"].split("/")[0] for d in report["details"])
    assert families["W0"] and families["W1.0"] and families["W1.1"]
    bound = sum(count for family, count in families.items() if family[:2] in ("W2", "W3"))
    assert bound and len(calls) == 2 * bound
    calls.clear()
    _undecided(monkeypatch)
    assert run_suite("presentations", (2, 3, 4)) == report
    assert len(calls) == 2 * len(report["details"])


def test_perturbed_translation_fails_the_same_bytes_with_and_without_pairings(monkeypatch):
    w = (2, 3, 4)
    _perturb_translation(monkeypatch)
    reports = {name: run_suite(name, w) for name in ("semidirect", "vanderlek", "translations")}
    failing = [d for r in reports.values() for d in r["details"] if not d["holds"]]
    families = {d.get("tag", d.get("check")).split("/")[0] for d in failing}
    assert {"4.3d", "4.3f", "E3", "Ec", "adjoint-commute"} <= families
    _assert_bytes_without_pairings(monkeypatch, {(name, w): r for name, r in reports.items()})


def test_perturbed_twist_fails_the_same_bytes_with_and_without_pairings(monkeypatch):
    # The twist at (3,3) replaced by the reflection at (3,2), without a step:
    # only entries that involve (3,3) may fail.
    w, target = (2, 3, 4), (3, 3)
    octo = octopus_lattice(Weights(w))
    real = suites.twist_rows
    wrong = simple_reflection(octo, (3, 2)).rows

    def planted(lat, s):
        return wrong if s == lat.basis_vector(target) else real(lat, s)

    monkeypatch.setattr(suites, "twist_rows", planted)
    report = run_suite("twists", w)
    failing = [d for d in report["details"] if not d["holds"]]
    assert any(d.get("spec") == "ArtinA" for d in failing)
    for d in failing:
        assert d.get("vertex") == "(3,3)" or "(3,3)" in d["tag"]
    _assert_bytes_without_pairings(monkeypatch, {("twists", w): report})


def test_adjoint_checks_match_the_semidirect_rules_under_a_defect(monkeypatch):
    # The translations suite and the semidirect suite verify the same rules:
    # adjoint-inverse, -commute and -product are 4.3e, 4.3f and 4.3g.
    w = (2, 3, 4)
    _perturb_translation(monkeypatch)
    semidirect = {d["tag"]: d["holds"] for d in run_suite("semidirect", w)["details"]}
    adjoint = {}
    for d in run_suite("translations", w)["details"]:
        v, u = d.get("pair", (None, None))
        tag = {
            "adjoint-inverse": f"4.3e/{v}",
            "adjoint-commute": f"4.3f/{v},{u}",
            "adjoint-product": f"4.3g/{v},{u}",
        }.get(d["check"])
        if tag is not None:
            adjoint[tag] = d["holds"]
    rules = {tag: holds for tag, holds in semidirect.items() if tag[:4] in ("4.3e", "4.3f", "4.3g")}
    assert not all(rules.values()) and adjoint == rules


def test_catalog_spans_all_signs():
    from octoweyl.lattice import euler_characteristic

    signs = {
        (euler_characteristic(Weights(a)) > 0)
        - (euler_characteristic(Weights(a)) < 0)
        for a in DEFAULT_CATALOG
    }
    assert signs == {-1, 0, 1}


def test_long_arm_translation_suites_pass():
    # Witnesses of 2^21 - 2 letters at (3, 19): the suites must never expand them.
    assert suite_translations((2, 3, 20))["pass"]
    assert suite_semidirect((2, 3, 20))["pass"]


def test_cone_suite_detects_short_budget():
    rep = run_suite("cone", (2, 2, 2), cfg=SuiteConfig(budget=1, samples=10))
    assert not rep["pass"]


def _linked(lattice, u, v) -> bool:
    """Whether u != v are joined by an edge: s_u and s_v do not commute."""
    return u != v and lattice.cartan[lattice.index(u)][lattice.index(v)] != 0


@pytest.mark.parametrize(
    "defect",
    [
        "re-entry-off-by-one",
        "last-letter-dropped",
        "letter-replaced",
        "adjacent-letters-swapped",
    ],
)
def test_cone_word_check_sees_a_wrong_result(monkeypatch, defect):
    # The suite applies the returned word to the input's rows and compares
    # with the returned point's rows: a point or a word that does not match
    # the chase must fail both dominance checks of a finite star.
    real = suites.make_dominant

    def planted(lattice, p, max_steps):
        res = real(lattice, p, max_steps)
        word = list(res.word)
        if defect == "re-entry-off-by-one":
            q = res.point
            return replace(res, point=replace(q, re=q.re[:-1] + (q.re[-1] + 1,)))
        if defect == "last-letter-dropped":
            word = word[:-1]
        elif defect == "letter-replaced" and word:
            v, e = word[-1]
            word[-1] = (next(u for u in lattice.vertices if _linked(lattice, u, v)), e)
        elif defect == "adjacent-letters-swapped":
            k = next(
                (k for k in range(len(word) - 1) if _linked(lattice, word[k][0], word[k + 1][0])),
                None,
            )
            if k is not None:
                word[k], word[k + 1] = word[k + 1], word[k]
        return replace(res, word=tuple(word))

    def holds(rep):
        return {d["check"]: d["holds"] for d in rep["details"]}

    checks = ("dominance-termination-random", "dominance-termination-pushed")
    assert all(holds(run_suite("cone", (2, 2, 2)))[c] for c in checks)
    monkeypatch.setattr(suites, "make_dominant", planted)
    assert not any(holds(run_suite("cone", (2, 2, 2)))[c] for c in checks)


def _recorded_wall_scans(monkeypatch):
    """Record every ``is_regular`` call of the cone suite, in order, as
    (lattice, point, root_depth, n_bound, cap, status)."""
    scan, calls = suites.is_regular, []

    def recorded(lattice, p, root_depth, n_bound, cap):
        res = scan(lattice, p, root_depth, n_bound, cap)
        calls.append((lattice, p, root_depth, n_bound, cap, res.status))
        return res

    monkeypatch.setattr(suites, "is_regular", recorded)
    return calls


def _monotone_scans(report, calls):
    """The smaller and the larger scans of ``regularity-monotone``, told
    apart by their bounds; the planted-wall scan has neither pair."""
    depth, n_bound = report["bounds"]["root_depth"], report["bounds"]["n_bound"]
    small = [c for c in calls if c[2:4] == (depth, n_bound)]
    large = [c for c in calls if c[2:4] == (depth + 2, n_bound + 2)]
    return small, large


CONE_WEIGHTS = DEFAULT_CATALOG + ((4, 4, 4), (4, 4, 4, 4))


@pytest.mark.parametrize("seed", [1729, 4242, 7])
@pytest.mark.parametrize("a", CONE_WEIGHTS)
def test_regularity_monotone_matches_the_eager_reference(monkeypatch, a, seed):
    # The suite scans at the larger bounds only after a wall hit at the
    # smaller ones; the reference scans every point at both.
    calls = _recorded_wall_scans(monkeypatch)
    report = run_suite("cone", a, cfg=SuiteConfig(seed=seed))
    small, large = _monotone_scans(report, calls)
    assert len(small) == 6
    star, cap = small[0][0], small[0][4]
    points = [c[1] for c in small]
    depth, n_bound = report["bounds"]["root_depth"], report["bounds"]["n_bound"]
    expected = reference_regularity_monotone(star, points, depth, n_bound, cap)
    holds = {d["check"]: d["holds"] for d in report["details"]}
    assert holds["regularity-monotone"] is expected
    # One larger scan per wall hit, of the same point, right after it.
    assert [c[1] for c in large] == [c[1] for c in small if c[5] == "on_wall"]
    for before, c in zip(calls, calls[1:]):
        if c in large:
            assert before in small and before[1] is c[1]


@pytest.mark.parametrize("a", CONE_WEIGHTS)
def test_larger_wall_scan_runs_only_after_a_wall_hit(monkeypatch, a):
    # At the default seed one or two of the six points are on a wall at the
    # smaller bounds, the planted point among them: the larger scan runs
    # once or twice per run, not six times.
    calls = _recorded_wall_scans(monkeypatch)
    small, large = _monotone_scans(run_suite("cone", a), calls)
    hits = sum(c[5] == "on_wall" for c in small)
    assert small[0][5] == "on_wall" and hits in (1, 2)
    assert len(large) == hits


@pytest.mark.parametrize("a", [(2, 2, 2), (4, 4, 4, 4)])
def test_regularity_monotone_sees_a_wall_lost_at_larger_bounds(monkeypatch, a):
    # A scan that reports every point regular at the larger bounds loses the
    # planted wall there: only regularity-monotone may fail.
    real, chi = suites.is_regular, euler_characteristic(Weights(a))
    larger_depth = (6 if chi <= 0 else 12) + 2

    def planted(lattice, p, root_depth, n_bound, cap):
        res = real(lattice, p, root_depth, n_bound, cap)
        if root_depth == larger_depth:
            return RegularityResult("regular", root_depth, n_bound, res.roots_checked)
        return res

    monkeypatch.setattr(suites, "is_regular", planted)
    failing = [d["check"] for d in run_suite("cone", a)["details"] if not d["holds"]]
    assert failing == ["regularity-monotone"]


def _planted_braid_act(defect):
    """``braid_act`` with a planted defect: a braid move that swaps its pair
    without mutating it, one that gives the mutated class the wrong sign, a
    shift that leaves its class as it is, or a braid move that also moves
    the class two slots past its pair (two slots before it at the end) by
    delta, keeping its norm."""

    def planted(k, move):
        image = braid_act(k, move)
        if move[0] == "e":
            return k if defect == "shift-not-negating" else image
        supports = list(image.supports)
        _, i, sign = move
        if defect == "swap-without-mutation":
            supports[i - 1 : i + 1] = k.supports[i], k.supports[i - 1]
        elif defect == "mutated-sign":
            j = i if sign > 0 else i - 1
            supports[j] = tuple((c, -a) for c, a in supports[j])
        elif defect == "two-slots-away":
            j = i + 2 if i + 2 < len(k) else i - 3
            x = dict(supports[j])
            for c, a in sparse(k.lattice.delta):
                x[c] = x.get(c, 0) + a
            supports[j] = tuple(sorted((c, a) for c, a in x.items() if a))
        return KCollection(tuple(supports), k.lattice)

    return planted


MUTATION_CHECKS = (
    "simples-exceptional",
    "simples-full",
    "mutation-class-formula",
    "braid-commuting",
    "braid-adjacent",
    "braid-inverse",
    "shift-involution",
    "braid-shift-compatibility",
    "single-move-preservation",
    "random-word-preservation",
    "coxeter-mutation-invariance",
)


@pytest.mark.parametrize("a", [(2, 2, 2), (2, 3, 4)])
@pytest.mark.parametrize(
    "defect, fails",
    [
        ("swap-without-mutation", {"coxeter-mutation-invariance", "single-move-preservation"}),
        ("mutated-sign", {"mutation-class-formula", "braid-inverse"}),
        # The relation words start from the stored image of their first
        # move, so a shift that does not negate is not undone by a second.
        ("shift-not-negating", {"shift-involution", "braid-shift-compatibility"}),
        ("two-slots-away", {"coxeter-mutation-invariance", "single-move-preservation"}),
    ],
)
def test_mutations_checks_see_a_planted_braid_act(monkeypatch, a, defect, fails):
    def holds(rep):
        return {d["check"]: d["holds"] for d in rep["details"]}

    assert tuple(holds(run_suite("mutations", a))) == MUTATION_CHECKS
    assert all(holds(run_suite("mutations", a)).values())
    monkeypatch.setattr(suites, "braid_act", _planted_braid_act(defect))
    seen = holds(run_suite("mutations", a))
    assert not any(seen[c] for c in fails)
    # The simples and the random words do not go through the planted move.
    assert all(seen[c] for c in ("simples-exceptional", "simples-full", "random-word-preservation"))


def test_planted_swap_fails_the_full_coxeter_comparison():
    octo = octopus_lattice(Weights((2, 3, 4)), default_lambda(3))
    simples = simples_collection(octo)
    c0 = coxeter_from_collection(simples).rows
    planted = _planted_braid_act("swap-without-mutation")
    images = [planted(simples, ("b", i, s)) for i in range(1, len(simples)) for s in (1, -1)]
    assert not all(coxeter_from_collection(k).rows == c0 for k in images)


def test_window_is_found_by_comparing_classes():
    # A move that also changes a class two slots past its pair keeps the
    # reflections over the pair: a window read off the move misses the
    # change that the window of changed classes catches.
    octo = octopus_lattice(Weights((2, 3, 4)), default_lambda(3))
    simples = simples_collection(octo)
    c0 = coxeter_from_collection(simples).rows
    image = _planted_braid_act("two-slots-away")(simples, ("b", 2, 1))
    assert coxeter_from_collection(image).rows != c0
    assert coxeter_agrees_on_window(simples, image, range(1, 3))
    assert changed_window(simples, image) == range(1, 5)
    assert not coxeter_agrees_on_window(simples, image, range(1, 5))


# SHA-256 of json.dumps(run_suite("mutations", w), sort_keys=True) at the
# default config, for weights beyond the golden set.
MUTATIONS_DIGESTS = {
    (2, 3, 20): "50386d08329dfc38254fafe482edfae65a63ae5cdc05411a5e64e3457b04933f",
    (2, 3, 40): "236866efb31f5ce1b78f700d8b6dff6a97bbe866ac01b9fccfb4833dd1ed814c",
    (5, 5, 5, 5): "3e6dc37cd59dee3c845992e1cb7376efa5c355a0fc66faef9920a029ecf795d8",
}


@pytest.mark.parametrize("a", sorted(MUTATIONS_DIGESTS))
def test_mutations_reports_are_pinned(a):
    report = json.dumps(run_suite("mutations", a), sort_keys=True).encode()
    assert hashlib.sha256(report).hexdigest() == MUTATIONS_DIGESTS[a]


# SHA-256 over json.dumps(run_suite("cone", w, cfg=SuiteConfig(seed=seed)),
# sort_keys=True) for w in the catalog and then (4, 4, 4, 4): the cone
# suite's random points away from the golden seed.
CONE_DIGESTS = {
    7: "c04355cb3b5fd5436abec7797e9d9799d436a5531ff16cd90728bcfd60180b9a",
    4242: "ad8488670f11c1947b8213258b1ee9c534131e44cbf326cc1944725df479b56d",
}


@pytest.mark.parametrize("seed", sorted(CONE_DIGESTS))
def test_cone_reports_are_pinned(seed):
    h = hashlib.sha256()
    for a in DEFAULT_CATALOG + ((4, 4, 4, 4),):
        report = run_suite("cone", a, cfg=SuiteConfig(seed=seed))
        h.update(json.dumps(report, sort_keys=True).encode())
    assert h.hexdigest() == CONE_DIGESTS[seed]


def test_lambda_is_threaded_through_reports():
    w = Weights((2, 2, 2, 2))
    lam = default_lambda(4)
    rep = run_suite("presentations", w, lam)
    assert rep["lambda"] == "inf,0,1,2"


# One SHA-256 over the reports that perfbench/golden.json does not cover.
REPORTS_DIGEST = "f9d3bc69e680448dc3390d9569f261242ee86e29aeffaab8b2926e3f2609ad47"


def _pinned_reports():
    # Direct calls on raw tuples with lam=None: the reports say "lambda": null.
    for a in [(2, 2, 3), (2, 3, 7)]:
        for suite in DIRECT_SUITES:
            yield suite(a)
    # A custom lambda on a 4-arm weight, directly and through run_suite.
    lam = parse_lambda("inf,0,1,1/2")
    for suite in DIRECT_SUITES:
        yield suite((2, 2, 2, 3), lam)
    for name in SUITE_NAMES:
        yield run_suite(name, Weights((2, 3, 2, 2)), lam)
    # Non-default bounds on weights outside the catalog.
    configs = [
        SuiteConfig(seed=7, samples=5, n_bound=1, depth=3, budget=50),
        SuiteConfig(seed=11, samples=3, n_bound=0, budget=5),
    ]
    for cfg in configs:
        for a in [(2, 2, 5), (2, 3, 8), (4, 4, 4)]:
            for name in SUITE_NAMES:
                yield run_suite(name, a, cfg=cfg)
    # Failing reports, which leave their sample loops early.
    yield suite_cone((2, 2, 2), cfg=SuiteConfig(budget=1))
    yield run_suite("cone", (2, 3, 3), cfg=SuiteConfig(budget=1, samples=10))


def test_reports_are_pinned():
    h = hashlib.sha256()
    failing = 0
    for report in _pinned_reports():
        h.update(json.dumps(report, sort_keys=True).encode())
        failing += not report["pass"]
    assert failing >= 2
    assert h.hexdigest() == REPORTS_DIGEST
