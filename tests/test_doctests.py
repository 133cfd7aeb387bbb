"""The examples in the package's docstrings run and print what they show."""

import doctest
import importlib
import pkgutil

import ulrichbundles

MODULES = ["ulrichbundles"] + [f"ulrichbundles.{m.name}"
                               for m in pkgutil.iter_modules(ulrichbundles.__path__)]


def test_docstring_examples():
    results = {name: doctest.testmod(importlib.import_module(name)) for name in MODULES}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    # the quick tour of the package and the F_2 fan of the oracle
    assert results["ulrichbundles"].attempted == 4
    assert results["ulrichbundles.cohomology"].attempted == 2
