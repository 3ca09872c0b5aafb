import pytest
from hypothesis import settings

from qmforms.heckeeigen import registry

# `pytest --hypothesis-profile=ci` gives every property test that sets no
# max_examples of its own (the int-kernel sweep in test_qseries_product.py, and
# the packed-check and nullspace sweeps in test_linalg.py) ten times the default budget
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def reg():
    """Shared engine registry at unit-test precision."""
    return registry(128)


@pytest.fixture(scope="session")
def reg512():
    """Full-precision registry for the acceptance sweeps."""
    return registry(512)
