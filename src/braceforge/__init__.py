"""Skew braces on small finite groups and the Hopf-Galois structures they encode.

The package enumerates, for a fixed additive group, every compatible
multiplicative operation, computes gamma functions and left ideals, decides
whether a group forces every circ-subgroup to be a left ideal, and renders
the results as JSON and DOT reports.
"""

__version__ = "0.1.0"

from .braces import (BraceRelationError, BraceValidationError, GammaFunction,
                     LeftIdealFlag, SkewBrace, almost_trivial, gamma,
                     left_ideal_flags, left_ideal_status, left_ideals, trivial,
                     validate)
from .census import (CENSUS_MAX_ORDER, CensusCapError, CensusEntry, census,
                     census_label, census_labels, census_lookup, census_match,
                     label_or_unknown)
from .classify import (Verdict, Witness, c_group_check, direct_factor_witness,
                       is_good, theorem_predicate, verify_theorem, verify_witness)
from .constructions import (brace_order4_nontrivial, example_c2cubed,
                            example_cn_even, example_p_odd, example_pq,
                            example_q8, least_kappa)
from .enumeration import (BraceEnumeration, enumerate_circ, reduce_up_to_iso,
                          with_mult_types)
from .groups import (CayleyTableError, FiniteGroup, Subgroup, cyclic_subgroups,
                     direct_product, make_abelian, make_alternating4, make_cyclic,
                     make_dicyclic, make_dihedral, make_quaternion8,
                     semidirect_product, subgroups)
from .morphisms import are_isomorphic, automorphism_group, characteristic_subgroups
from .report import (HGDescriptor, ReportBundle, brace_digest, gamma_orbits,
                     hg_descriptor, render_dot, report_bundle)

__all__ = [
    "__version__",
    "BraceRelationError", "BraceValidationError", "GammaFunction",
    "LeftIdealFlag", "SkewBrace", "almost_trivial", "gamma",
    "left_ideal_flags", "left_ideal_status", "left_ideals", "trivial",
    "validate",
    "CENSUS_MAX_ORDER", "CensusCapError", "CensusEntry", "census",
    "census_label", "census_labels", "census_lookup", "census_match",
    "label_or_unknown",
    "Verdict", "Witness", "c_group_check", "direct_factor_witness", "is_good",
    "theorem_predicate", "verify_theorem", "verify_witness",
    "brace_order4_nontrivial", "example_c2cubed", "example_cn_even",
    "example_p_odd", "example_pq", "example_q8", "least_kappa",
    "BraceEnumeration", "enumerate_circ", "reduce_up_to_iso", "with_mult_types",
    "CayleyTableError", "FiniteGroup", "Subgroup", "cyclic_subgroups", "direct_product",
    "make_abelian", "make_alternating4", "make_cyclic", "make_dicyclic",
    "make_dihedral", "make_quaternion8", "semidirect_product", "subgroups",
    "are_isomorphic", "automorphism_group", "characteristic_subgroups",
    "HGDescriptor", "ReportBundle", "brace_digest",
    "gamma_orbits", "hg_descriptor", "render_dot", "report_bundle",
]
