"""Fixtures shared across the test files."""

import pytest

from latticebv.checks import CheckConfig, run_suite
from latticebv.complexes import ModelParams


@pytest.fixture(scope="session")
def suite_results():
    """The full named suite at seed 0 with symbolic parameters, run once per session.

    Tests read the results and never change them.
    """
    return tuple(run_suite(None, CheckConfig(seed=0, params=ModelParams.symbolic())))
