"""The package's public surface."""

import types

import panelcollapse


def test_all_names_resolve_and_none_is_a_module():
    names = panelcollapse.__all__
    assert len(names) == len(set(names))
    for name in names:
        value = getattr(panelcollapse, name)
        assert not isinstance(value, types.ModuleType), name
    # the function collapse shadows its module's name
    assert callable(panelcollapse.collapse)
    namespace = {}
    exec("from panelcollapse import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_the_public_names_are_pinned():
    # removing a public name is a decision to argue, not a side effect
    assert sorted(panelcollapse.__all__) == [
        "Automorphism", "Block", "COMPLETELY_EXTERNAL", "CollapseResult",
        "ComplexityVector", "CubeClassification", "CubeComplex", "DiagonalCube",
        "DualComplexInfo", "EXTERNAL", "FileFormatError", "Fundament",
        "GroupAction", "Hyperplane", "INTERNAL", "InternalInvariantError",
        "InvalidComplexError", "Panel", "PreconditionError", "RunTrace",
        "StallingsResult", "StructuralError", "UserInputError",
        "ValidationReport", "Wallspace", "block", "build_panel", "classify",
        "codim2_hyperplanes", "collapse", "complexity", "dualize_details",
        "equivariant_collapse_step", "extremal_panels", "find_extremal_panel",
        "fundament", "hyperplane_provenance", "is_extremal", "iter_steps",
        "no_facing_panels", "push_action", "run_to_tree",
        "stallings_pipeline", "validate_graph",
    ]
