"""Fixtures and helpers shared by the test modules."""

import os

import pytest
from hypothesis import settings

import spinlev
from spinlev import pulses, verify

# Tier-1 draws the same examples on every run, so a failure repeats on the next
# run; `pytest --hypothesis-profile=default` draws new examples each run and
# replays saved failures from the example database. Each test's @settings
# keeps its own max_examples under both.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


def kernel_at(seq, g, omega, s):
    """K(s) = int_s^tau G(t) sin(omega (t - s)) dt at the points s (a float
    or an array in [0, tau]), from the kernel recursion pulses._kernel_ends
    evaluated at each point by pulses._kernel_at."""
    return g * pulses._kernel_at(pulses._kernel_ends(seq, g, omega), omega, pulses.segment_index(seq, s), s)[0]


@pytest.fixture
def child_env():
    """os.environ with the directory this spinlev was imported from first on
    PYTHONPATH, so an interpreter a test starts imports the same package
    whether or not the caller set PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinlev.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture(scope="session")
def verify_report():
    """verify's report at its default seed, run once for every test that reads
    it; a test must not change it."""
    return verify.run_checks(verify.DEFAULT_SEED)
