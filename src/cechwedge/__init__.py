"""Limit homotopy of shrinking wedges of spheres.

The pieces, bottom to top:

  hall      Hall words, canonical coherent ordering, gradings, censuses
  groups    finitely generated abelian groups, elements, group shapes
  spheres   homotopy-group lookup tables with built-in rules
  whitehead bracket monomials (Hall words with letter degrees), one
            Hall rewriting loop, twisted tensor oracle, level projection
  hilton    wedge decompositions, bonding tower, closed limit formulas
  elements  coherent coordinate families and their verifications
  cli       the cechwedge command

The names below are re-exported lazily (PEP 562): the first use of one
imports its home module, so `import cechwedge` alone loads none of
them, and a formula command never compiles `whitehead` or `elements`.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {name: module for module, names in (
    ("groups", ("FGAbelianGroup", "GroupElement", "Z", "CYCLIC_2", "ZERO",
                "DirectSum", "Pow", "ProdN", "SphereSymbol", "SumN",
                "integer_element", "normalize", "render_text")),
    ("hall", ("COUNTABLY_INFINITE", "GradingSequence", "HallWord", "bracket",
              "dimension_truncation", "generate", "height",
              "height_class_census", "is_hall", "letter", "necklace_count")),
    ("spheres", ("SphereGroupTable", "load_table", "parse_group",
                 "parse_table", "seed_table")),
    ("whitehead", ("FormalSum", "SparseEpsilon", "expand", "hall_normalize",
                   "parse_bracket_expr", "parse_word", "project_level",
                   "project_levels", "tensor_expansion")),
    ("hilton", ("BondingMap", "WedgeDecomposition", "apply_bonding",
                "bonding", "cech_decompose", "decompose_wedge",
                "earring_formula", "stabilization_report",
                "weight_summand")),
    ("elements", ("CoherentElement", "ElementFormatError", "SubgroupForms",
                  "VerificationReport", "check_coherence",
                  "finite_support_element", "min_letter_element",
                  "min_letter_subgroup_expr", "parse_element_file",
                  "random_sparse_epsilon", "render_element_file",
                  "verify_composition_additivity",
                  "verify_weight2_realization", "weight_one_coordinates",
                  "weight_one_element", "weight_one_part_vanishes",
                  "weight_two_element")),
) for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name)) from None
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
