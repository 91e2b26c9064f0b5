"""Twisted Gabidulin codes over small finite fields.

Construction of the one-, two- and many-twist families, every MRD / MDS /
AMDS / NMDS criterion with independent brute-force verification, and covering
radii with deep-hole certification.
"""

import types as _types

from .budget import Budgets
from .codes import (
    CodeSpec,
    DistanceReport,
    encode,
    generator_matrix,
    min_rank_distance,
    nmds_conditions,
)
from .covering import (
    CoveringReport,
    covering_bounds,
    covering_radius_exhaustive,
    deep_hole_family,
    deep_hole_via_extension,
    distance_to_code,
    is_deep_hole,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    FieldConstructionError,
    SpecInvariantError,
    TwistgabError,
)
from .fieldtower import (
    Element,
    FieldTower,
    TowerParams,
    default_tower,
    tower_from_json,
    tower_to_json,
)
from .gcoeff import AnnihilatorCoeffs, g_coefficient, triangular_inverse
from .linpoly import LinearizedPoly, annihilator, annihilator_product
from .moore import det_fqm, modified_moore_matrix, moore_matrix, rank_fqm
from .mrdcheck import (
    ForbiddenSet,
    HammingClassification,
    KSubsetTable,
    SubfieldChain,
    classify,
    construct_chain_mrd,
    enumerate_subspaces,
    forbidden_eta_set_one_twist,
    gaussian_binomial,
    hamming_class_via_omega,
    is_mrd_subspace_criterion,
    matrix_is_mrd,
    mrd_membership_multi,
    norm_mrd_condition,
    omega_one,
    omega_one_prime,
    omega_witness,
    sum_product_free_test,
)

__version__ = "0.1.0"

# every public name imported above, and no submodule
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType)
)
