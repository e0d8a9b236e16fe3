"""Run the examples in every latticebv module's docstrings."""

import doctest
import importlib
import pkgutil

import latticebv


def test_module_doctests():
    names = sorted(name for _, name, _ in pkgutil.iter_modules(latticebv.__path__, "latticebv."))
    failed, attempted = {}, 0
    for name in ["latticebv"] + names:
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        if result.failed:
            failed[name] = result.failed
    assert not failed
    assert attempted  # the examples were found and run
