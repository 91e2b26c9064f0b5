import types

import twistgab


def test_all_lists_the_public_names_and_no_submodule():
    public = {
        name for name, obj in vars(twistgab).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert twistgab.__all__ == sorted(public)
    assert len(public) == 57
    assert {"covering_radius_exhaustive", "Budgets", "CodeSpec", "FieldTower"} <= public
    assert not {"covering", "fieldtower", "types"} & set(twistgab.__all__)
