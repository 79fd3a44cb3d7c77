"""Shared fixtures."""

import os

import pytest

import extremesum


@pytest.fixture
def subprocess_env():
    """Environment for `python -m extremesum` child processes.

    PYTHONPATH is the absolute parent directory of the imported package,
    so the child imports the same code from any working directory.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(extremesum.__file__)))
    return {**os.environ, "PYTHONPATH": root}
