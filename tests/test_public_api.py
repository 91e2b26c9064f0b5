import types

import twistgab

# every public name, sorted: an API change shows up as a diff of this list
PUBLIC = [
    "AnnihilatorCoeffs", "BudgetExceededError", "Budgets", "CodeSpec", "ConsistencyError",
    "CoveringReport", "DistanceReport", "Element", "FieldConstructionError", "FieldTower",
    "ForbiddenSet", "HammingClassification", "KSubsetTable", "LinearizedPoly",
    "SpecInvariantError", "SubfieldChain", "TowerParams", "TwistgabError", "annihilator",
    "annihilator_product", "classify", "construct_chain_mrd", "covering_bounds",
    "covering_radius_exhaustive", "deep_hole_family", "deep_hole_via_extension",
    "default_tower", "det_fqm", "distance_to_code", "encode", "enumerate_subspaces",
    "forbidden_eta_set_one_twist", "g_coefficient", "gaussian_binomial", "generator_matrix",
    "hamming_class_via_omega", "is_deep_hole", "is_mrd_subspace_criterion", "matrix_is_mrd",
    "min_rank_distance", "modified_moore_matrix", "moore_matrix", "mrd_membership_multi",
    "nmds_conditions", "norm_mrd_condition", "omega_one", "omega_one_prime", "omega_witness",
    "rank_fqm", "sum_product_free_test", "tower_from_json", "tower_to_json",
    "triangular_inverse",
]


def test_all_lists_the_public_names_and_no_submodule():
    public = {
        name for name, obj in vars(twistgab).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert twistgab.__all__ == sorted(public) == PUBLIC
    assert len(PUBLIC) == 53
    assert not {"covering", "fieldtower", "types"} & set(twistgab.__all__)
