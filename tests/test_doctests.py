"""The examples in the package's docstrings run and print what they show.

Every module of the package that has a docstring example is found here,
so a module that gains its first example is covered without a new test.
Every name a module lists in ``__all__`` resolves.
"""
import doctest
import importlib
import pkgutil

import pytest

import weylchar


PACKAGE = [importlib.import_module(info.name) for info in pkgutil.iter_modules(weylchar.__path__, "weylchar.")]
MODULES = [
    module.__name__
    for module in PACKAGE
    if any(test.examples for test in doctest.DocTestFinder().find(module))
]


def test_the_documented_modules_are_found():
    assert {"weylchar.diagrams", "weylchar.polynomials", "weylchar.schubert", "weylchar.weyl"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0


def test_every_listed_name_resolves():
    listed = [module for module in PACKAGE if hasattr(module, "__all__")]
    assert {"weylchar.schubert", "weylchar.verify", "weylchar.weyl"} <= {m.__name__ for m in listed}
    for module in listed:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
