"""Exact-arithmetic lab for cubic birational maps of P^3.

The pipeline: build a degree-3 rational self-map of P^3 (or load one),
split the preimage of a generic line into the base-supported part and its
liaison residual, read off bidegree / genus / ruledness, certify
birationality two independent ways, classify the special points of the
linear system, and match the result against the classical classification
table.
"""

from .fields import GF, GF2, QQ
from .poly import GREVLEX, LEX, ElimBlock, WeightedGrevlex, Polynomial, parse_poly, print_poly, ring
from .groebner import Budget, BudgetError, groebner_basis, limits, normal_form
from .ideals import (HilbertData, IdealHandle, eliminate, graded_piece_dim,
                     intersect, isolated_points, local_length, multiplicity_at,
                     quotient, sat_irrelevant, saturate, split_unmixed)
from .cremona import (MapAnalysis, RationalMap, analyze_map, birationality_certificate,
                      genus_of_map, inverse, is_birational, is_ruled,
                      line_preimage_split, new_map)
from .hudson import (HudsonVector, PointType, classify_component,
                     classify_point, curve_singular_points, hudson_vector,
                     load_table, match_table, tangent_profile)
from .families import build, deform, special_examples
from .univar import irreducible_quadratics, roots_gf
from .rng import Rng

__version__ = "0.1.0"
