"""dimalg: computer algebra for dimensioned structures.

Partial slice-wise addition, total dimensioned multiplication, and the
constructions that connect them -- groups, rings, fields, power rings of
lines, modules, algebras, Poisson algebras -- with executable axiom
suites over exact rationals, plus a quantity-expression evaluator whose
dimensional analysis falls out of the power-ring construction.
"""

from .errors import (
    CarrierError,
    ConstructionError,
    DimAlgError,
    DimensionMapMismatch,
    DimensionMismatch,
    ExprSyntaxError,
    InputFormatError,
    UnknownSymbolError,
)
from .group import (
    DimAbGroup,
    DimElement,
    DimMap,
    FreeAbelian,
    direct_sum,
    kernel,
    product_group,
    quotient_group,
    tensor_groups,
)
from .monoid import DimMonoid, DimSet
from .ring import (
    DimRing,
    Ideal,
    ProductDimRing,
    RationalScalars,
    RingMorphism,
    UnitSection,
    dimensionless_ring,
    multiplicative_section,
    quotient_ring,
    ring_axiom_report,
    search_unit_section,
    slice_mul,
    unit_section_check,
    units_trivialization,
    zero_ideal,
    whole_ideal,
)
from .endo import EndoRing, endo_distributivity_report
from .lines import Factor, Line, PowerRing, functoriality_check, line_unit_to_section, power_functor
from .modules import (
    FreeDimModule,
    GSet,
    TwistedLinearMap,
    bilinear_factorization,
    direct_sum_mod,
    gset_tensor,
    linear_map_check,
    module_axiom_report,
    pullback_map,
    pullback_module,
    quotient_module,
    rig_distributivity_witness,
    span_contains,
    tensor_mod,
)
from .poly import GradedPolyRing
from .algebra import (
    DimDerivation,
    bilinear_check,
    dimensionless_restriction,
    property_check,
    ring_probe_space,
)
from .poisson import (
    DimPoisson,
    coisotrope_check,
    make_poisson,
    poisson_axiom_report,
    poisson_product_hetero,
    poisson_product_homo,
    poisson_reduce,
)
from .registry import (
    Quantity,
    UnitRegistry,
    convert,
    eval_expr,
    evaluate,
    format_quantity,
    parse_expr,
    registry_load,
)
from .structure import TableDimRing, check_structure, load_poisson, load_structure, parse_poly

__version__ = "0.1.0"
