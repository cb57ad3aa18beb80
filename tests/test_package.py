import pytest

from qtcatalan import continuous, discrete, measure, qtpoly


@pytest.mark.parametrize("module", [discrete, qtpoly, continuous, measure], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # a name left in __all__ after its definition is deleted breaks import *
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
