"""Acceptance gate: every criterion exact, with its stated time budget.

Each test prints one PASS line (visible with pytest -s); a failure raises
with the offending detail.  All comparisons are exact integer or rational
equality, no tolerances anywhere.
"""

import time

import pytest

from octoweyl.exact import mat_vec, transpose
from octoweyl.ktheory import simples_collection
from octoweyl.lattice import (
    euler_characteristic,
    octopus_lattice,
    star_lattice,
)
from octoweyl.quiver import Weights, default_lambda
from octoweyl.suites import (
    DEFAULT_CATALOG,
    SuiteConfig,
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
)
from octoweyl.weyl import (
    Finite,
    coxeter_element,
    enumerate_real_roots,
    enumerate_until_stable,
    group_enumerate,
    order_of,
    serre_coxeter_matrix,
)

from oracles import is_unit_upper_triangular


def _catalog_lattices():
    for a in DEFAULT_CATALOG:
        w = Weights(a)
        yield w, star_lattice(w), octopus_lattice(w, default_lambda(w.r))


def _timed(label, budget_s, body):
    start = time.perf_counter()
    body()
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{label} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s < {budget_s}s)")


def _assert_suite(report):
    assert report["pass"], [d for d in report["details"] if not d["holds"]]


def test_criterion_1_lattice_suite():
    def body():
        for w, star, octo in _catalog_lattices():
            assert is_unit_upper_triangular(octo.euler)
            assert is_unit_upper_triangular(star.euler)
            cart = octo.cartan
            assert cart == transpose(cart)
            # full diagram pin: hub-arm and chain edges -1, arm-extension -1,
            # hub-extension +2, diagonal 2, everything else 0
            for v in octo.vertices:
                for u in octo.vertices:
                    i, j = octo.index(v), octo.index(u)
                    if v == u:
                        expected = 2
                    elif {v, u} == {"1", "1*"}:
                        expected = 2
                    elif "1" in (v, u) and isinstance(u if v == "1" else v, tuple):
                        arm = u if v == "1" else v
                        expected = -1 if arm[1] == 1 else 0
                    elif "1*" in (v, u) and isinstance(u if v == "1*" else v, tuple):
                        arm = u if v == "1*" else v
                        expected = -1 if arm[1] == 1 else 0
                    elif isinstance(v, tuple) and isinstance(u, tuple):
                        same_arm = v[0] == u[0]
                        adjacent = same_arm and abs(v[1] - u[1]) == 1
                        expected = -1 if adjacent else 0
                    else:
                        expected = 0
                    assert cart[i][j] == expected, (w, v, u)
            zero = tuple(0 for _ in range(octo.rank))
            assert mat_vec(cart, octo.delta) == zero
            chi = euler_characteristic(w)
            assert len(star.radical) == (0 if chi != 0 else 1)
            if chi == 0:
                assert tuple(sorted(w.a)) in {(3, 3, 3), (2, 4, 4), (2, 3, 6), (2, 2, 2, 2)}

    _timed("1 lattice", 1.0, body)


def test_criterion_2_presentation_suites():
    def body():
        for a in DEFAULT_CATALOG:
            _assert_suite(suite_presentations(a))
            _assert_suite(suite_semidirect(a))
            _assert_suite(suite_artin(a))
            _assert_suite(suite_vanderlek(a))

    _timed("2 presentations", 5.0, body)


def test_criterion_3_power_form_equivalences():
    def body():
        for a in DEFAULT_CATALOG:
            _assert_suite(suite_prop44(a))

    _timed("3 power-form equivalences", 2.0, body)


def test_criterion_4_translation_suite():
    def body():
        for a in DEFAULT_CATALOG:
            _assert_suite(suite_translations(a))

    _timed("4 translations", 5.0, body)


def test_criterion_5_root_suites():
    def body():
        for a, count in [((2, 2, 2), 24), ((2, 3, 3), 72), ((2, 3, 4), 126), ((2, 3, 5), 240)]:
            assert len(enumerate_until_stable(star_lattice(a))) == count
        assert group_enumerate(star_lattice((2, 2, 2)), 1_000) == Finite(order=192)
        octo = octopus_lattice((2, 2, 2))
        star_roots = set(enumerate_until_stable(star_lattice((2, 2, 2))))
        roots = enumerate_real_roots(octo, 24)
        window = {x for x in roots if abs(octo.delta_coordinate(x)) <= 3}
        assert len(window) == 168
        expected = {
            octo.from_split(beta + (n,)) for beta in star_roots for n in range(-3, 4)
        }
        assert window == expected
        for v in octo.star_vertices():
            for n in range(-3, 4):
                built = witness_root(octo, v, n)
                assert built in window
                assert built == tuple(
                    b + n * d for b, d in zip(octo.basis_vector(v), octo.delta)
                )

    _timed("5 roots", 60.0, body)


def test_criterion_6_coxeter_suite():
    def body():
        for w, star, octo in _catalog_lattices():
            for lat in (star, octo):
                assert coxeter_element(lat).matrix == serre_coxeter_matrix(lat)
            c = coxeter_element(octo)
            assert c.apply(octo.delta) == octo.delta
        assert order_of(coxeter_element(star_lattice((2, 2, 2))), 100) == Finite(order=6)

    _timed("6 coxeter", 2.0, body)


def test_criterion_7_ktheory_suite():
    def body():
        for a in DEFAULT_CATALOG:
            _assert_suite(suite_mutations(a))
            _assert_suite(suite_twists(a))
            assert simples_collection(
                octopus_lattice(Weights(a), default_lambda(len(a)))
            ).classes

    _timed("7 ktheory", 5.0, body)


def test_criterion_8_cone_suite():
    def body():
        for a in DEFAULT_CATALOG:
            if euler_characteristic(Weights(a)) > 0:
                _assert_suite(suite_cone(a, cfg=SuiteConfig(samples=100)))

    _timed("8 cone", 10.0, body)
