"""The examples in the package's docstrings run and print what they show.

Every module of the package that has a docstring example is found here,
so a module that gains its first example is covered without a new test.
"""
import doctest
import importlib
import pkgutil

import pytest

import weylchar


def _modules_with_examples():
    for info in pkgutil.iter_modules(weylchar.__path__, "weylchar."):
        module = importlib.import_module(info.name)
        if any(test.examples for test in doctest.DocTestFinder().find(module)):
            yield info.name


MODULES = list(_modules_with_examples())


def test_the_documented_modules_are_found():
    assert {"weylchar.diagrams", "weylchar.polynomials", "weylchar.schubert", "weylchar.weyl"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
