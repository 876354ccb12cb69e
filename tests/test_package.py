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
