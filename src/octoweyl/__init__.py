"""Exact verification toolkit for star and octopus bound quivers.

Builds the root lattices attached to star quivers and their octopus
extensions, realizes the associated Weyl groups as integer matrix groups,
and turns the presentations, translation formulas, braid mutations and
spherical twists living on these lattices into finite, exact checks.
"""

__version__ = "0.1.0"

from .cone import DualPoint, is_regular, make_dominant
from .ktheory import (
    KCollection,
    braid_act,
    braid_word_act,
    coxeter_from_collection,
    is_full,
    numerically_exceptional,
    simples_collection,
    spherical_twist_K,
)
from .lattice import (
    RootLattice,
    delta_vector,
    euler_characteristic,
    octopus_lattice,
    root_lattice,
    star_lattice,
    weyl_class,
)
from .presentations import (
    PresentationSpec,
    VerificationReport,
    artin_spec,
    check_coxeter_power_equivalences,
    generalized_coxeter_spec_W,
    semidirect_spec,
    star_coxeter_spec,
    van_der_lek_spec,
    verify,
)
from .quiver import (
    BoundQuiver,
    LambdaTuple,
    Weights,
    build_octopus,
    build_star,
    default_lambda,
    parse_lambda,
    parse_weights,
)
from .suites import DEFAULT_CATALOG, DEFAULT_SEED, SUITE_NAMES, SuiteConfig, run_suite
from .weyl import (
    WeylElement,
    coxeter_element,
    enumerate_real_roots,
    enumerate_until_stable,
    evaluate_word,
    group_enumerate,
    lift_i,
    order_of,
    project_p,
    reflection,
    serre_coxeter_matrix,
    simple_reflection,
    translation_element,
)
