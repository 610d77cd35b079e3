import importlib

import pytest


@pytest.mark.parametrize("module", ["algebra", "fock", "polar", "reduction"])
def test_all_names_resolve(module):
    # a name left in __all__ after its definition moved or was deleted
    mod = importlib.import_module(f"bcn_reduction.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
