"""Fixtures shared by the test modules."""

import os

import pytest

import spinlev


@pytest.fixture
def child_env():
    """os.environ with the directory this spinlev was imported from first on
    PYTHONPATH, so an interpreter a test starts imports the same package
    whether or not the caller set PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinlev.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
