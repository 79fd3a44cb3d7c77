"""Shared fixtures and the default Hypothesis profile."""

import os

import pytest
from hypothesis import settings

import extremesum

# Property tests draw the same examples on every run, so a failure on a rare
# input reproduces instead of flaking.  Explore new examples with
# ``pytest --hypothesis-profile=default``.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def subprocess_env():
    """Environment for `python -m extremesum` child processes.

    PYTHONPATH is the absolute parent directory of the imported package,
    so the child imports the same code from any working directory.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(extremesum.__file__)))
    return {**os.environ, "PYTHONPATH": root}
