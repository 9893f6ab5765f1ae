"""Fixtures shared by the test modules."""

import pytest

import oracles


@pytest.fixture(scope="session")
def oracle():
    """The sympy derivation of the particle's tracking equations
    (`oracles.particle_oracle`): only the tests that take this fixture pay
    for the sympy import and the derivation."""
    return oracles.particle_oracle()
