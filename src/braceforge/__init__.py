"""Skew braces on small finite groups and the Hopf-Galois structures they encode.

The package enumerates, for a fixed additive group, every compatible
multiplicative operation, computes gamma functions and left ideals, decides
whether a group forces every circ-subgroup to be a left ideal, and renders
the results as JSON and DOT reports.

Importing the package loads braces, census, classify, enumeration, groups,
morphisms and report, since nearly every CLI command and library call runs
them: loading them later would move their compile time into the first timed
call (the first `is_good` would load classify, enumeration and braces).  The
seven names of `constructions`, which only `braceforge example` and library
callers use, load on first access through the module `__getattr__`
(PEP 562), so a CLI command that builds no example never compiles that
module.  `census` is imported eagerly by name, so `braceforge.census` is the
function, not the submodule.
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
from .enumeration import (BraceEnumeration, enumerate_circ, reduce_up_to_iso,
                          with_mult_types)
from .groups import (CayleyTableError, FiniteGroup, Subgroup, cyclic_subgroups,
                     direct_product, make_abelian, make_alternating4, make_cyclic,
                     make_dicyclic, make_dihedral, make_quaternion8,
                     semidirect_product, subgroups)
from .morphisms import are_isomorphic, automorphism_group
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
    "are_isomorphic", "automorphism_group",
    "HGDescriptor", "ReportBundle", "brace_digest",
    "gamma_orbits", "hg_descriptor", "render_dot", "report_bundle",
]

_CONSTRUCTIONS = frozenset({"brace_order4_nontrivial", "example_c2cubed", "example_cn_even",
                            "example_p_odd", "example_pq", "example_q8", "least_kappa"})


def __getattr__(name: str):
    if name in _CONSTRUCTIONS:
        from . import constructions
        return getattr(constructions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
