from collections import Counter

import pytest

import qtcatalan
from qtcatalan import continuous, discrete, limit, measure, qtpoly

MODULES = [discrete, qtpoly, continuous, measure, limit]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # a name left in __all__ after its definition is deleted breaks import *
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_every_public_name():
    missing = [f"{module.__name__}.{name}" for module in MODULES for name in module.__all__
               if getattr(qtcatalan, name, None) is not getattr(module, name)]
    assert missing == []


def test_no_name_in_two_modules():
    # the package imports * from each module in turn, so a repeated name would be shadowed
    counts = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, k in counts.items() if k > 1] == []
