"""dimalg: computer algebra for dimensioned structures.

Partial slice-wise addition, total dimensioned multiplication, and the
constructions that connect them -- groups, rings, fields, power rings of
lines, modules, algebras, Poisson algebras -- with executable axiom
suites over exact rationals, plus a quantity-expression evaluator whose
dimensional analysis falls out of the power-ring construction.

`import dimalg` loads no submodule: each public name below is imported
from its module on first use (PEP 562), so a program that evaluates
quantities never loads the module, algebra or Poisson layers.
"""

import importlib

_EXPORTS = {
    "errors": (
        "CarrierError",
        "ConstructionError",
        "DimAlgError",
        "DimensionMapMismatch",
        "DimensionMismatch",
        "ExprSyntaxError",
        "InputFormatError",
        "UnknownSymbolError",
    ),
    "group": (
        "DimAbGroup",
        "DimElement",
        "DimMap",
        "FreeAbelian",
        "direct_sum",
        "kernel",
        "product_group",
        "quotient_group",
        "tensor_groups",
    ),
    "monoid": ("DimMonoid",),
    "ring": (
        "DimRing",
        "Ideal",
        "ProductDimRing",
        "RingMorphism",
        "multiplicative_section",
        "quotient_ring",
        "ring_axiom_report",
        "search_unit_section",
        "slice_mul",
        "unit_section_check",
        "units_trivialization",
        "zero_ideal",
        "whole_ideal",
    ),
    "endo": ("EndoRing", "endo_distributivity_report"),
    "lines": (
        "Factor",
        "Line",
        "PowerRing",
        "functoriality_check",
        "line_unit_to_section",
        "power_functor",
    ),
    "modules": (
        "FreeDimModule",
        "GSet",
        "TwistedLinearMap",
        "bilinear_factorization",
        "direct_sum_mod",
        "gset_tensor",
        "linear_map_check",
        "module_axiom_report",
        "pullback_map",
        "pullback_module",
        "quotient_module",
        "rig_distributivity_witness",
        "span_contains",
        "tensor_mod",
    ),
    "poly": ("GradedPolyRing",),
    "algebra": (
        "DimDerivation",
        "bilinear_check",
        "dimensionless_restriction",
        "property_check",
        "ring_probe_space",
    ),
    "poisson": (
        "DimPoisson",
        "coisotrope_check",
        "make_poisson",
        "poisson_axiom_report",
        "poisson_product_hetero",
        "poisson_product_homo",
        "poisson_reduce",
    ),
    "registry": (
        "Quantity",
        "convert",
        "eval_expr",
        "evaluate",
        "format_quantity",
        "registry_load",
    ),
    "structure": ("check_structure", "load_poisson", "load_structure", "parse_poly"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
