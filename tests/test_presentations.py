"""Relation lists as data, and exact verification under matrix assignments."""

import hashlib
from collections import Counter

import pytest

from octoweyl import presentations
from octoweyl.errors import DimensionMismatch, MissingGenerator, NotStarVertex
from octoweyl.lattice import octopus_lattice, star_lattice
from octoweyl.presentations import (
    SEMIDIRECT_LETTERS,
    WORDS,
    Family,
    PresentationSpec,
    Relation,
    adjoint_rules,
    artin_spec,
    check_coxeter_power_equivalences,
    generalized_coxeter_spec_W,
    letter_words,
    reflection_assignment,
    semidirect_assignment,
    semidirect_spec,
    sigma_word,
    star_coxeter_spec,
    van_der_lek_assignment,
    van_der_lek_spec,
    verify,
)
from octoweyl.quiver import Weights, default_lambda, vertex_str
from octoweyl.suites import DEFAULT_CATALOG
from octoweyl.weyl import (
    INVOLUTION,
    Transvection,
    evaluate_word,
    simple_reflection,
    translation_element,
)

from oracles import identity_element, parse_vertex

SAMPLE = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 2, 2, 2), (2, 3, 7)]


def _tag_counts(spec):
    counts = {}
    for rel in spec.relations:
        fam = rel.tag.split("/")[0]
        counts[fam] = counts.get(fam, 0) + 1
    return counts


def test_star_coxeter_relation_counts():
    assert _tag_counts(star_coxeter_spec(Weights((2, 2, 2)))) == {
        "W0": 4,
        "W1.0": 3,
        "W1.1": 3,
    }
    assert _tag_counts(star_coxeter_spec(Weights((2, 2, 3)))) == {
        "W0": 5,
        "W1.0": 6,
        "W1.1": 4,
    }


def test_generalized_coxeter_relation_counts():
    counts = _tag_counts(generalized_coxeter_spec_W(Weights((2, 2, 2))))
    assert counts["W2"] == 3
    assert counts["W3a"] == 3 and counts["W3b"] == 3
    # the hub/extension pair has Cartan entry +2: no two-letter rule fires
    spec = generalized_coxeter_spec_W(Weights((2, 2, 2)))
    tags = {rel.tag for rel in spec.relations}
    assert "W1.0/1,1*" not in tags and "W1.1/1,1*" not in tags


def test_semidirect_relation_counts():
    counts = _tag_counts(semidirect_spec(Weights((2, 2, 2))))
    assert counts == {
        "4.3a": 4,
        "4.3b": 3,
        "4.3c": 3,
        "4.3d": 6,
        "4.3e": 4,
        "4.3f": 6,
        "4.3g": 6,
    }


def test_artin_spec_has_no_involutions():
    spec = artin_spec(Weights((2, 2, 2)))
    assert not any(rel.rhs == () for rel in spec.relations)
    counts = _tag_counts(spec)
    assert counts["A2"] == 3 and counts["A3a"] == 3


def test_van_der_lek_counts():
    counts = _tag_counts(van_der_lek_spec(Weights((2, 2, 2))))
    assert counts["Ec"] == 6  # unconditional pairwise commutation


def test_bound_pair_relations_only_touch_first_arm_slots():
    # A2/A3 (and W2/W3) are indexed by arms, never by deeper arm slots
    for spec in (artin_spec(Weights((2, 2, 3))), generalized_coxeter_spec_W(Weights((2, 2, 3)))):
        pair_tags = [r.tag for r in spec.relations if r.tag[:2] in ("A2", "A3", "W2", "W3")]
        assert pair_tags
        for tag in pair_tags:
            body = tag.split("/", 1)[1]
            body = body.split(" ")[0]
            assert all(part.startswith(("i=", "j=")) for part in body.split(","))


@pytest.mark.parametrize("a", SAMPLE)
def test_all_assignments_satisfy_all_relations(a):
    w = Weights(a)
    star = star_lattice(w)
    octo = octopus_lattice(w, default_lambda(w.r))
    assert verify(star_coxeter_spec(w), reflection_assignment(star)).passed
    assert verify(generalized_coxeter_spec_W(w), reflection_assignment(octo)).passed
    assert verify(semidirect_spec(w), semidirect_assignment(octo)).passed
    assert verify(artin_spec(w), reflection_assignment(octo)).passed
    assert verify(van_der_lek_spec(w), van_der_lek_assignment(octo)).passed


@pytest.mark.parametrize("a", SAMPLE)
def test_adjoint_rules_follow_the_cartan_matrix(a):
    w = Weights(a)
    star = star_lattice(w)
    labels = [vertex_str(v) for v in star.vertices]
    rules = list(adjoint_rules(star, *(letter_words(star, m) for m in SEMIDIRECT_LETTERS)))
    # Every ordered pair once, row by row, the diagonal included.
    assert [(v, u) for v, u, *_ in rules] == [(v, u) for v in labels for u in labels]
    for v, u, rule, lhs, rhs in rules:
        entry = star.cartan[labels.index(v)][labels.index(u)]
        g_v, t_v, t_u = (f"w[{v}]", 1), (f"tau[{v}]", 1), (f"tau[{u}]", 1)
        expected = {
            2: (0, (g_v, t_v, g_v), ((f"tau[{v}]", -1),)),
            0: (1, (g_v, t_u), (t_u, g_v)),
            -1: (2, (g_v, t_u, g_v), (t_u, t_v)),
        }[entry]
        assert (rule, lhs, rhs) == expected, (v, u)
    # The 4.3e-g relations of the semidirect presentation are its entries.
    families = ("4.3e", "4.3f", "4.3g")
    inverse = [Relation(f"4.3e/{v}", lhs, rhs) for v, _, r, lhs, rhs in rules if r == 0]
    adjoint = [
        Relation(f"{families[r]}/{v},{u}", lhs, rhs) for v, u, r, lhs, rhs in rules if r
    ]
    spec = semidirect_spec(w)
    assert [r for r in spec.relations if r.tag[:4] in families] == inverse + adjoint


@pytest.mark.parametrize("a", [(2, 2, 2), (2, 3, 3), (2, 2, 2, 2)])
def test_power_form_equivalences(a):
    assert check_coxeter_power_equivalences(Weights(a)).passed


def test_failure_carries_witness_matrices():
    w = Weights((2, 2, 2))
    star = star_lattice(w)
    assignment = reflection_assignment(star)
    assignment["1"] = identity_element(star)
    report = verify(star_coxeter_spec(w), assignment)
    assert not report.passed
    failing = {o.tag for o in report.failures()}
    assert "W1.1/1,(1,1)" in failing
    bad = next(o for o in report.failures())
    assert bad.lhs_matrix is not None and bad.rhs_matrix is not None
    blob = report.to_json()
    assert blob["pass"] is False
    assert any("lhs" in entry for entry in blob["relations"])


def test_missing_generator_and_dimension_mismatch():
    w = Weights((2, 2, 2))
    star = star_lattice(w)
    with pytest.raises(MissingGenerator):
        verify(star_coxeter_spec(w), {})
    mixed = reflection_assignment(star)
    mixed["1"] = identity_element(octopus_lattice(w))
    with pytest.raises(DimensionMismatch):
        verify(star_coxeter_spec(w), mixed)


def test_spec_rejects_relation_letter_outside_generators():
    stray = Relation("W0/x", (("x", 1), ("x", 1)), ())
    with pytest.raises(MissingGenerator, match="'x'"):
        PresentationSpec("Stray", (2, 2, 2), ("1", "1*"), (Family(WORDS, (stray,)),))
    with pytest.raises(MissingGenerator, match="'x'"):
        involution = Family(INVOLUTION, (("W0/x", "x", "x"),))
        PresentationSpec("Stray", (2, 2, 2), ("1", "1*"), (involution,))


def test_adjoining_involutions_recovers_coxeter_spec():
    # The Artin-side relation list plus one involution per generator is,
    # relation for relation, the generalized Coxeter relation list.
    for a in [(2, 2, 3), (2, 2, 2, 2)]:
        w = Weights(a)
        wspec = generalized_coxeter_spec_W(w)
        aspec = artin_spec(w)
        rename = {"A1.0": "W1.0", "A1.1": "W1.1", "A2": "W2", "A3a": "W3a", "A3b": "W3b"}
        renamed = {
            (rename[r.tag.split("/")[0]] + "/" + r.tag.split("/", 1)[1], r.lhs, r.rhs)
            for r in aspec.relations
        }
        wrels = {(r.tag, r.lhs, r.rhs) for r in wspec.relations}
        involutions = {r for r in wspec.relations if r.tag.startswith("W0")}
        assert renamed == wrels - {(r.tag, r.lhs, r.rhs) for r in involutions}
        assert len(involutions) == octopus_lattice(w, default_lambda(w.r)).rank


def test_sigma_words_realize_translations():
    # Under the reflection assignment the derived letters evaluate to the
    # translation matrices, for every star vertex including deep arm ones.
    for a in [(2, 2, 3), (2, 3, 4)]:
        octo = octopus_lattice(Weights(a))
        for v in octo.star_vertices():
            word = tuple(sigma_word(v))
            evaluated = evaluate_word(
                octo, tuple((parse_vertex(label), e) for label, e in word)
            )
            assert evaluated.matrix == translation_element(octo, v).matrix


def test_sigma_word_base_case():
    assert sigma_word("1") == (("1", 1), ("1*", 1))
    expanded = sigma_word((2, 1))
    assert expanded == (
        ("(2,1)", 1),
        ("1", 1),
        ("1*", 1),
        ("(2,1)", 1),
        ("1*", -1),
        ("1", -1),
    )
    for v in ("1*", "x"):
        with pytest.raises(NotStarVertex):
            sigma_word(v)


def counting(letter_map, key, calls: Counter):
    """letter_map, counting its calls in calls by (key, vertex)."""

    def wrapped(v):
        calls[key, v] += 1
        return letter_map(v)

    return wrapped


@pytest.mark.parametrize("a", DEFAULT_CATALOG + ((4, 4, 4, 4),), ids=str)
def test_spec_builders_call_each_letter_map_once_per_vertex(monkeypatch, a):
    calls = Counter()
    for name in ("_VERTEX_LETTERS", "SEMIDIRECT_LETTERS", "_VAN_DER_LEK_LETTERS"):
        maps = enumerate(getattr(presentations, name))
        monkeypatch.setattr(presentations, name, tuple(counting(m, (name, k), calls) for k, m in maps))
    w = Weights(a)
    star, octo = star_lattice(w), octopus_lattice(w, default_lambda(w.r))
    builders = (
        (star_coxeter_spec, star, "_VERTEX_LETTERS", 1),
        (generalized_coxeter_spec_W, octo, "_VERTEX_LETTERS", 1),
        (artin_spec, octo, "_VERTEX_LETTERS", 1),
        (semidirect_spec, star, "SEMIDIRECT_LETTERS", 2),
        (van_der_lek_spec, star, "_VAN_DER_LEK_LETTERS", 2),
        (check_coxeter_power_equivalences, octo, "_VERTEX_LETTERS", 1),
    )
    for build, lat, name, maps in builders:
        calls.clear()
        build(w)
        once = Counter({((name, k), v): 1 for k in range(maps) for v in lat.vertices})
        assert calls == once, build.__name__


def test_report_json_schema():
    w = Weights((2, 2, 2))
    report = verify(star_coxeter_spec(w), reflection_assignment(star_lattice(w)))
    blob = report.to_json()
    assert blob["spec"] == "StarCoxeter"
    assert blob["weights"] == [2, 2, 2]
    assert all(set(e) == {"tag", "holds"} for e in blob["relations"])
    assert blob["pass"] is True


# SHA-256 over the relation lists of the five specs and the power-equivalence
# report.  The golden report digests only see each relation's tag and
# verdict, so a rewritten word that still holds would pass them unnoticed.
RELATIONS_DIGEST = "7ad092abb90b2fbb0f3e61b29b6e3d761d99cefbe5b96bd228cfda53d56b6c90"


def test_relation_lists_are_pinned():
    specs = (
        star_coxeter_spec,
        generalized_coxeter_spec_W,
        semidirect_spec,
        artin_spec,
        van_der_lek_spec,
    )
    h = hashlib.sha256()
    for a in DEFAULT_CATALOG + ((2, 2, 5), (2, 5, 9), (4, 4, 4, 4)):
        w = Weights(a)
        for build in specs:
            spec = build(w)
            blob = (spec.name, spec.weights, spec.generators, spec.relations)
            h.update(repr(blob).encode())
        h.update(repr(check_coxeter_power_equivalences(w)).encode())
    assert h.hexdigest() == RELATIONS_DIGEST


def test_verify_builds_each_translation_inverse_once(monkeypatch):
    # Each element keeps its inverse, so two runs of verify over the same
    # cold generators invert each translation's transvection once.
    w = Weights((2, 3, 4))
    octo = octopus_lattice(w, default_lambda(w.r))
    simple_reflection.cache_clear()
    translation_element.cache_clear()
    built = Counter()
    invert = Transvection.inverse

    def counted(t):
        built[t] += 1
        return invert(t)

    monkeypatch.setattr(Transvection, "inverse", counted)
    for _ in range(2):
        assert verify(semidirect_spec(w), semidirect_assignment(octo)).passed
    for v in octo.star_vertices():
        assert built[translation_element(octo, v).step] == 1, v
