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
"""

from .groups import (FGAbelianGroup, GroupElement, Z, CYCLIC_2, ZERO,
                     DirectSum, Finite, Pow, ProdN, SphereSymbol, SumN, Zero,
                     integer_element, normalize, parse_machine, render_machine,
                     render_text)
from .hall import (COUNTABLY_INFINITE, GradingSequence, HallWord, bracket,
                   dimension_truncation, generate, height,
                   height_class_census, is_hall, letter, necklace_count)
from .spheres import (SphereGroupTable, load_table, parse_group, parse_table,
                      seed_table)
from .whitehead import (FormalSum, SparseEpsilon, expand, hall_normalize,
                        parse_bracket_expr, parse_word, project_level,
                        project_levels, tensor_expansion)
from .hilton import (BondingMap, WedgeDecomposition, apply_bonding, bonding,
                     cech_decompose, decompose_wedge, earring_formula,
                     stabilization_report, weight_summand)
from .elements import (CoherentElement, ElementFormatError, RawLevelStream,
                       SubgroupForms, VerificationReport, check_coherence,
                       finite_support_element, materialize_levels,
                       min_letter_element, min_letter_subgroup_expr,
                       parse_element_file, random_sparse_epsilon,
                       render_element_file, verify_composition_additivity,
                       verify_weight2_realization, weight_one_coordinates,
                       weight_one_element, weight_one_part_vanishes,
                       weight_two_element)

__version__ = "0.1.0"
