"""Exact partial coinvariant algebras and their operator calculus.

The package computes, over exact rationals:

- graded quotients of block-invariant polynomial rings cut by
  shape-indexed symmetric-function ideals, with canonical normal forms,
  graded bases, dimensions and Hilbert series (``quotients``);
- the tableau combinatorics matching those dimensions: column-strict
  counts, Kostka numbers, charge and its generating polynomials
  (``tableaux``);
- raising/lowering/diagonal operators on weight-indexed sums of the
  quotients, their defining relations, and ideal invariance
  (``glaction``);
- the bimodule adjunction calculus for one index move: duality maps,
  units/counits, triangle identities, and the trace-map description of
  the operators (``traces``);
- a command-line interface with verification suites (``cli``).
"""

from .shapes import (
    Composition,
    Partition,
    coinvariant_top_degree,
    compositions_of,
    dominates,
    partitions_of,
    quotient_top_degree,
    sort_to_partition,
    transpose,
)
from .polynomials import Poly, Q, e_block, e_sym, h_block, h_sym
from .tableaux import (
    IntPoly,
    Tableau,
    charge,
    count_column_strict,
    enumerate_column_strict,
    enumerate_semistandard,
    kostka,
    kostka_foulkes,
)
from .quotients import (
    QuotientElement,
    QuotientPresentation,
    coinvariant_generators,
    ideals_equal,
    is_nonzero,
    presentation,
    tanisaki_generators_e,
    tanisaki_generators_h,
)
from .glaction import (
    KeySituation,
    WeightFamily,
    apply_operator_family,
    hilbert_identity_check,
    ideal_invariance_check,
    relation_report,
)
from .traces import (
    ModuleHom,
    PowerBasisTensor,
    adjunction_report,
    trace_map_report,
    counit_eps,
    counit_eps_prime,
    delta,
    delta_inv,
    trace_E,
    trace_F,
    unit_iota,
    unit_iota_prime,
)

__version__ = "0.1.0"

__all__ = [
    "Composition",
    "Partition",
    "coinvariant_top_degree",
    "compositions_of",
    "dominates",
    "partitions_of",
    "quotient_top_degree",
    "sort_to_partition",
    "transpose",
    "Poly",
    "Q",
    "e_block",
    "e_sym",
    "h_block",
    "h_sym",
    "IntPoly",
    "Tableau",
    "charge",
    "count_column_strict",
    "enumerate_column_strict",
    "enumerate_semistandard",
    "kostka",
    "kostka_foulkes",
    "QuotientElement",
    "QuotientPresentation",
    "coinvariant_generators",
    "ideals_equal",
    "is_nonzero",
    "presentation",
    "tanisaki_generators_e",
    "tanisaki_generators_h",
    "KeySituation",
    "WeightFamily",
    "apply_operator_family",
    "hilbert_identity_check",
    "ideal_invariance_check",
    "relation_report",
    "ModuleHom",
    "PowerBasisTensor",
    "adjunction_report",
    "trace_map_report",
    "counit_eps",
    "counit_eps_prime",
    "delta",
    "delta_inv",
    "trace_E",
    "trace_F",
    "unit_iota",
    "unit_iota_prime",
    "__version__",
]
