"""Exact characters of diagram modules, with Schubert and key specializations.

The package computes the dual character of the flagged module attached
to an arbitrary box diagram, specializes it to Schubert and key
polynomials through Rothe and skyline diagrams, and sweeps enumerated
families to verify bounds and equality criteria, reporting witnesses
for anything that fails.
"""
from weylchar.diagrams import (
    CapExceeded,
    Diagram,
    PatternGrid,
    contains_pattern,
    count_132,
    count_below,
    diagram,
    diagram_from_text,
    diagram_leq,
    diagram_to_text,
    enumerate_below,
    has_unstable_pair,
    is_northwest,
    parse_pattern,
    pattern_grid,
    rank,
    rank_box,
    rank_chain,
    rinv_weight,
    rothe,
    skyline,
    weight_monomial,
)
from weylchar.polynomials import (
    Polynomial,
    demazure,
    divided_difference,
    invlex_less,
    is_zero_one,
    principal_specialization,
    render,
)
from weylchar.schubert import (
    key,
    macdonald_specialization,
    reduced_words,
    schubert,
)
from weylchar.verify import (
    Finding,
    VerificationReport,
    all_diagrams,
    all_rothe,
    all_skyline,
    explicit_list,
    verify_equality_iff_unstable,
    verify_key_identities,
    verify_lower_bound,
    verify_schubert_identities,
    verify_upper_bound,
    verify_zero_one_characterization,
    verify_zero_one_implication,
)
from weylchar.weyl import (
    character_support,
    coefficient_rank,
    dual_character,
)

__version__ = "0.1.0"
