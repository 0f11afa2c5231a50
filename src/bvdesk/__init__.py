"""bvdesk: an exact-arithmetic workbench for finite Boolean-valued models.

Subpackages by theme:

- :mod:`bvdesk.boolalg` -- finite complete Boolean algebras, partitions,
  covers, refinement, distributivity criteria
- :mod:`bvdesk.bvu` -- bounded-rank B-valued sets, truth values, standard
  names, mixing, ascent/descent, restricted transfer
- :mod:`bvdesk.formula` -- the bounded-quantifier formula DSL
- :mod:`bvdesk.lattice` -- the finite atomic vector lattice over exact
  rationals, its f-algebra, projection/truth-value identities,
  complexification, local Hamel machinery
- :mod:`bvdesk.operators` -- band preserving operator classification,
  derivations, endomorphisms, automorphisms, bilinear operators
- :mod:`bvdesk.refinement` -- dyadic partition towers and the refined
  function over a finite carrier
- :mod:`bvdesk.contfrac` -- exact continued fractions of rationals and
  quadratic surds, with atomwise mixed expansions
- :mod:`bvdesk.pnfin` -- pseudo-intersections of decreasing chains of
  infinite subsets of the naturals, given as closed-form levels
  (arithmetic progressions, the primes from the n-th on)
- :mod:`bvdesk.acceptance` -- the seeded acceptance battery
- :mod:`bvdesk.cli` -- the batch command-line front end
"""

from .boolalg import (BoolElem, Cover, FiniteBooleanAlgebra, Partition,
                      common_refinement, is_cover, is_partition,
                      is_refined_from, sigma_criteria_check)
from .bvu import (BSet, ascent, bset, bounded_transfer_check, canonicalize,
                  descent, equivalent, escher_check, eval_formula, mix,
                  standard_name, truth_eq, truth_mem)
from .contfrac import PartialQuotients, QuadraticSurd, convergent, expand, integer_part
from .formula import parse as parse_formula
from .lattice import (AtomicLattice, ComplexVector, LatticeVector,
                      gordon_check, is_local_hamel_basis,
                      is_locally_constant, is_locally_linearly_independent,
                      local_hamel_expand, truth_vec)
from .operators import (automorphism_check, bilinear_report,
                        classify_endomorphism, derivation_space,
                        is_band_preserving, is_separately_band_preserving,
                        multiplier_of)
from .pnfin import DecreasingChain, pseudo_intersection, verify_decreasing
from .refinement import build_tower, level_partitions, refine_report, refined_function

__version__ = "0.1.0"
